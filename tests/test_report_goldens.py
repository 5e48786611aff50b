"""CLI reports against the benchmark's reference stdout.

perfbench/references.json holds the expected stdout of every benchmark job.
The reports name no basis elements, so the references hold for the fixture
documents as they are; each job runs here on them, without the benchmark's
renaming. verify's report does not depend on --seed, which feeds only its
random SNF audit, so its jobs run with the default seed. The file is only
read.
"""

import json
from pathlib import Path

import pytest

from ainfty.cli import main
from ainfty.documents import serialize
from ainfty.fixtures import fixture_document

REFERENCES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "references.json").read_text(
        encoding="utf-8"
    )
)
HOMOLOGY_JOBS = sorted(job for job in REFERENCES if job.split()[0] in ("hh", "cohomology"))
# the comparison, E^1 and chain map checks run in these
FILTRATION_JOBS = sorted(job for job in REFERENCES if job.split()[0] in ("spectral", "verify"))


def test_every_homology_job_is_covered():
    assert len(HOMOLOGY_JOBS) == 32
    assert len(FILTRATION_JOBS) == 8
    assert len(HOMOLOGY_JOBS) + len(FILTRATION_JOBS) == len(REFERENCES)


@pytest.mark.parametrize("job", HOMOLOGY_JOBS + FILTRATION_JOBS)
def test_report_matches_the_benchmark_reference(tmp_path, capsys, job):
    # a job id reads "<command> <fixture> <Z or Z/p> <flags...>"
    command, fixture, ring, *flags = job.split()
    doc = fixture_document(fixture)
    if ring != "Z":
        doc["ring"] = {"kind": "Zp", "p": int(ring.removeprefix("Z/"))}
    path = tmp_path / f"{fixture}.json"
    path.write_text(serialize(doc))
    code = main([command, str(path), *flags])
    assert code == 0
    assert capsys.readouterr().out == REFERENCES[job]
