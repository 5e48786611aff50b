"""Self-tests of the benchmark: names, generator, references, failure mode.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_METRICS, check_kind, matrix_blocks  # noqa: E402
from workloads import HOMOLOGY_INPUTS, WORKLOADS, Job, document  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# cheap jobs that still reach every layer: a morphism, cochains, Z and Z/p
SMALL_JOBS = [
    Job("verify", "quasi_iso_pair", "Z"),
    Job("verify", "dual_numbers", "Z"),
    Job("spectral", "quasi_iso_pair", "Z"),
    Job("hh", "dual_numbers", "Z", ("--length", "6")),
    Job("cohomology", "dual_numbers", "3", ("--length", "6")),
]


@pytest.fixture
def own_imports():
    """The benchmark re-imports ainfty; give other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k == "ainfty" or k.startswith("ainfty.")}
    sys.path.insert(0, str(run.SRC))
    yield
    sys.path.remove(str(run.SRC))
    for name in [k for k in sys.modules if k == "ainfty" or k.startswith("ainfty.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _declared(section):
    return {m["name"]: m for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(tmp_path, own_imports, trace):
    # correct means every report of the relabelled documents equals its reference
    result = run.benchmark("selftest", SMALL_JOBS, 5, 0.0, trace, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
    if trace:
        assert (tmp_path / "trace-selftest.jsonl.gz").is_file()
        for name in ("graded.degree_of_calls", "homology.snf_calls", "cup.cup_calls",
                     "homology.rank_modp_calls", "cli.check_s.morphism_equations"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_layer_metrics_match_the_tracer():
    declared = _declared("per_layer")
    assert list(declared) == list(LAYER_METRICS)
    for name, (unit, better, _) in LAYER_METRICS.items():
        assert (declared[name]["unit"], declared[name]["better"]) == (unit, better)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_generator_is_deterministic_per_seed(own_imports):
    from ainfty.fixtures import FIXTURE_NAMES, fixture_document

    for name in FIXTURE_NAMES:
        a = document(fixture_document, name, "Z", 3)
        assert a == document(fixture_document, name, "Z", 3)
        assert a != document(fixture_document, name, "Z", 4)
        plain = fixture_document(name)
        assert sorted(d for _, d in a["algebra"]["basis"]) == sorted(
            d for _, d in plain["algebra"]["basis"]
        )
        assert not {n for n, _ in a["algebra"]["basis"]} & {n for n, _ in plain["algebra"]["basis"]}
    assert document(fixture_document, "exterior2", "2", 1)["ring"] == {"kind": "Zp", "p": 2}


def test_every_job_has_a_reference():
    ids = {job.id for jobs in WORKLOADS.values() for job in jobs}
    assert ids == set(run.load_references())


def test_every_verify_label_has_a_check_kind():
    reports = [text for job_id, text in run.load_references().items() if job_id.startswith("verify ")]
    labels = re.findall(r"^(?:ok  |FAIL) (.*)$", "".join(reports), re.M)
    assert labels and all(check_kind(label) for label in labels)


def _groups(report: str) -> dict[int, tuple[int, list[int]]]:
    """degree -> (free rank or dimension, torsion) from an hh/cohomology report."""
    out = {}
    for degree, text in re.findall(r"^HH\S*\s+degree (-?\d+): (.*)$", report, re.M):
        free, torsion = 0, []
        if text.startswith("dim "):
            free = int(text[4:])
        elif text != "0":
            for part in text.split(" + "):
                if part.startswith("Z^"):
                    free = int(part[2:])
                else:
                    torsion = [int(t[2:]) for t in part.split(",")]
        out[int(degree)] = (free, torsion)
    return out


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("command", ["hh", "cohomology"])
@pytest.mark.parametrize("fixture,length", HOMOLOGY_INPUTS)
def test_references_obey_universal_coefficients(fixture, length, command, p):
    """dim H_j(C (x) F_p) = free_j + #{p | torsion of H_j} + #{p | torsion of H_j-+1}."""
    references = run.load_references()
    flags = ("--length", str(length))
    over_z = _groups(references[Job(command, fixture, "Z", flags).id])
    over_p = _groups(references[Job(command, fixture, str(p), flags).id])
    assert set(over_z) == set(over_p) and over_z
    neighbour = -1 if command == "hh" else 1
    for j, (dim, _) in over_p.items():
        free, torsion = over_z[j]
        tor_next = over_z.get(j + neighbour, (0, []))[1]
        divisible = sum(1 for t in torsion + tor_next if t % p == 0)
        assert dim == free + divisible, (j, over_z, over_p)


def test_matrix_blocks(own_imports):
    from ainfty.homology import ExactMatrix

    # rows {0, 1} x column {0}, and rows {2, 3} x columns {3, 4}
    mat = ExactMatrix(5, 5, {(0, 0): 1, (1, 0): 2, (2, 3): 1, (2, 4): 1, (3, 3): 5})
    assert matrix_blocks(mat) == (2, 4)
    assert matrix_blocks(ExactMatrix(3, 3)) == (0, 0)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
