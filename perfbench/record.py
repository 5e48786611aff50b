"""Rewrite references.json, the expected stdout of every benchmark job.

    python3 perfbench/record.py

Each job runs once on the fixture document with its own basis names, so a
reference never depends on a workload seed. Recording fails if a job exits
non-zero. Reports are meant to stay byte-identical, so a change to this file
needs a reason.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, SRC, WORK, import_program, run_job
from workloads import WORKLOADS, document


def record() -> dict[str, str]:
    sys.path.insert(0, str(SRC))
    cli, documents, fixtures = import_program()
    references = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for jobs in WORKLOADS.values():
            for job in jobs:
                if job.id in references:
                    continue
                path = Path(tmp) / f"{job.fixture}-{job.ring}.json"
                doc = document(fixtures.fixture_document, job.fixture, job.ring, None)
                path.write_text(documents.serialize(doc), encoding="utf-8")
                _, code, stdout = run_job(cli.main, job.argv(str(path), 0))
                if code != 0:
                    raise SystemExit(f"{job.id} exited {code}")
                references[job.id] = stdout
    return references


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
