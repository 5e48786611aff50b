"""Frontier ladder: the largest hh and cohomology jobs, each in a fresh process.

Run from the repository root:

    python3 tools/frontier.py

Each job runs ``python -m ainfty COMMAND DOCUMENT --length L`` REPEAT times,
each in its own child process, one at a time, with the library imported from
``--src`` (default ``src/``) and a wall-time limit of LIMIT_S seconds per run
(a run past it is killed and recorded as timed out). For every run the ladder
records the wall time, the child's peak resident memory (``ru_maxrss`` from
``os.wait4``), the exit code and the sha256 of its stdout, and writes them,
with the host's Python and CPU count, to ``--out`` as JSON. The documents
are the built-in fixtures and the group rings of ``tests/helpers.py``, written
once to a temporary directory with the ring switched where a job asks for Z/p.

The jobs: hh and cohomology on exterior2 at L=5..8 over Z and Z/3, hh on
truncated_poly3 at L=8..10 over Z, and hh on exterior2 at L=9 over Z, which
the word budget refuses with exit 2. Then hh over Z on the group rings:
Z[S_3] (``S3``) at L=4..5, Z[C_5] (``C5``) at L=5..6, and Z[C_5] in a basis
changed by ``rebased_document`` with seed 5 (``C5_rebased``) at L=5, whose
stdout must equal that of ``C5`` at L=5. Pointing ``--src`` at another
checkout measures that commit with the same ladder; the group rings are built
by this checkout's ``tests/helpers.py`` against the library under ``--src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEAT = 3
LIMIT_S = 120.0
REBASE_SEED = 5

JOBS = (
    [
        (command, "exterior2", ring, length)
        for command in ("hh", "cohomology")
        for ring in ("Z", "3")
        for length in range(5, 9)
    ]
    + [("hh", "truncated_poly3", "Z", length) for length in range(8, 11)]
    + [("hh", "exterior2", "Z", 9)]
    + [("hh", "S3", "Z", length) for length in (4, 5)]
    + [("hh", "C5", "Z", length) for length in (5, 6)]
    + [("hh", "C5_rebased", "Z", 5)]
)


def write_documents(src: Path, folder: Path) -> dict[tuple[str, str], Path]:
    """One document per (fixture, ring) of the ladder, from the library under src."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    from ainfty.documents import serialize
    from ainfty.fixtures import fixture_document
    from helpers import cyclic_group_document, rebased_document, symmetric_group_document

    builders = {
        "S3": symmetric_group_document,
        "C5": lambda: cyclic_group_document(5),
        "C5_rebased": lambda: rebased_document(cyclic_group_document(5), REBASE_SEED),
    }
    paths = {}
    for _, fixture, ring, _ in JOBS:
        if (fixture, ring) not in paths:
            doc = builders.get(fixture, lambda: fixture_document(fixture))()
            if ring != "Z":
                doc["ring"] = {"kind": "Zp", "p": int(ring)}
            path = paths[fixture, ring] = folder / f"{fixture}-{ring}.json"
            path.write_text(serialize(doc))
    return paths


def run_once(argv: list[str], env: dict, out_path: Path) -> dict:
    """Run argv to completion or to LIMIT_S seconds; time it and read its rusage."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > LIMIT_S:
                child.kill()
                timed_out = True
                pid, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - start
    # wait4 reaped the child: tell Popen, so that it never waits for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": child.returncode,
        "timed_out": timed_out,
        "stdout_sha256": hashlib.sha256(out_path.read_bytes()).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_frontier.json")
    args = parser.parse_args()
    src = args.src.resolve()
    env = {k: v for k, v in os.environ.items() if not k.startswith("AINFTY_")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = []
    with tempfile.TemporaryDirectory(prefix="frontier-") as folder:
        folder = Path(folder)
        documents = write_documents(src, folder)
        for command, fixture, ring, length in JOBS:
            argv = [sys.executable, "-m", "ainfty", command, str(documents[fixture, ring])]
            argv += ["--length", str(length)]
            runs = [run_once(argv, env, folder / "stdout") for _ in range(REPEAT)]
            job = {"command": command, "fixture": fixture, "ring": ring, "length": length}
            job["runs"] = runs
            results.append(job)
            walls = [run["wall_s"] for run in runs]
            rss = max(run["peak_rss_mb"] for run in runs)
            digests = {run["stdout_sha256"][:12] for run in runs}
            print(
                f"{command} {fixture} L={length} {ring}: exit {runs[0]['exit']}, "
                f"{min(walls):.2f}-{max(walls):.2f} s, {rss} MB, stdout {' '.join(digests)}",
                flush=True,
            )
    host = {"python": platform.python_version(), "cpus": os.cpu_count()}
    args.out.write_text(json.dumps({"host": host, "jobs": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
