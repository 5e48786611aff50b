"""Byte-identity of CLI reports over a grid of small jobs.

tests/report_digests.json maps each job to its exit code and the SHA-256 of
its stdout. The grid is hh and cohomology over every fixture, the rings Z,
Z/2, Z/3 and Z/5, the diagonal, tensor_square and dual modules and L = 2, 3
and 4, plus spectral and verify at L = 3 on every fixture and ring, plus hh
and cohomology on exterior2 at L = 5 over Z and Z/3, where boundary rows
hold several entries. Each job runs in process on the fixture document as
emitted; a refactor that keeps every report keeps every digest. Stderr, which carries timing, is not hashed.

Regenerate the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ainfty.cli import main
from ainfty.documents import serialize
from ainfty.fixtures import FIXTURE_NAMES, fixture_document

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
RINGS = ("Z", "Z/2", "Z/3", "Z/5")


@functools.cache
def expected() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def grid() -> list[str]:
    """Job ids "<command> <fixture> <ring> <flags...>", in a fixed order."""
    jobs = []
    for fixture in FIXTURE_NAMES:
        for ring in RINGS:
            for command in ("hh", "cohomology"):
                for module in ("diagonal", "tensor_square", "dual"):
                    for length in (2, 3, 4):
                        flags = f"--module {module} --length {length}"
                        jobs.append(f"{command} {fixture} {ring} {flags}")
            for command in ("spectral", "verify"):
                jobs.append(f"{command} {fixture} {ring} --length 3")
    for ring in ("Z", "Z/3"):
        for command in ("hh", "cohomology"):
            jobs.append(f"{command} exterior2 {ring} --module diagonal --length 5")
    return jobs


def run_job(job: str, directory: Path) -> tuple[int, str]:
    """The exit code and stdout digest of one job, run in process."""
    command, fixture, ring, *flags = job.split()
    path = directory / f"{fixture}-{ring.replace('/', '')}.json"
    if not path.exists():
        doc = fixture_document(fixture)
        if ring != "Z":
            doc["ring"] = {"kind": "Zp", "p": int(ring.removeprefix("Z/"))}
        path.write_text(serialize(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), *flags])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return tmp_path_factory.mktemp("digest-documents")


def test_the_grid_is_the_digest_file():
    assert len(grid()) == 484
    assert sorted(expected()) == sorted(grid())


@pytest.mark.parametrize("job", grid())
def test_report_digest_is_unchanged(documents, job):
    code, digest = run_job(job, documents)
    assert {"exit": code, "stdout_sha256": digest} == expected()[job]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for job in grid():
            code, digest = run_job(job, Path(tmp))
            table[job] = {"exit": code, "stdout_sha256": digest}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
