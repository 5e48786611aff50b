"""Workload definitions and the seeded document generator.

A workload is a fixed list of CLI jobs. Each job names a built-in fixture, a
coefficient ring, a command and its flags. The program never sees the fixture
itself: the benchmark hands it a document in which every basis of the
algebra and of each bimodule has been renamed and reordered from the
workload seed. Reports name no basis elements, so the expected stdout of a
job does not depend on the seed.
"""

from __future__ import annotations

import copy
import random
import string
from dataclasses import dataclass

# (fixture, length) pairs shared by both homology workloads. Three of them
# carry torsion over Z, which exercises the divisibility-chain merge of SNF.
HOMOLOGY_INPUTS = (
    ("exterior2", 4),
    ("truncated_poly3", 5),
    ("mu3_square_zero", 5),
    ("dual_numbers", 6),
)

VERIFY_FIXTURES = (
    "exterior1",
    "exterior2",
    "dual_numbers",
    "truncated_poly3",
    "mu3_square_zero",
    "quasi_iso_pair",
)

# (fixture, coefficient module, length) for the hh and cohomology jobs of verify
VERIFY_MODULE_INPUTS = (
    ("mu3_square_zero", "tensor_square", "4"),
    ("mu3_square_zero", "dual", "5"),
    ("dual_numbers", "tensor_square", "6"),
)


@dataclass(frozen=True)
class Job:
    command: str
    fixture: str
    ring: str  # "Z" or a prime written in decimal
    flags: tuple[str, ...] = ()

    @property
    def doc_key(self) -> tuple[str, str]:
        return (self.fixture, self.ring)

    @property
    def id(self) -> str:
        ring = "Z" if self.ring == "Z" else f"Z/{self.ring}"
        return " ".join((self.command, self.fixture, ring) + self.flags)

    def argv(self, path: str, seed: int) -> list[str]:
        # verify feeds its seed to the random SNF audit; its report does not
        # depend on it, so one reference serves every seed
        extra = ["--seed", str(seed)] if self.command == "verify" else []
        return [self.command, path, *self.flags, *extra]


def _homology_jobs(ring: str, inputs=HOMOLOGY_INPUTS) -> list[Job]:
    return [
        Job(command, fixture, ring, ("--length", str(length)))
        for fixture, length in inputs
        for command in ("hh", "cohomology")
    ]


WORKLOADS: dict[str, list[Job]] = {
    "homology-z": _homology_jobs("Z"),
    "homology-modp": (
        _homology_jobs("2")
        + _homology_jobs("3")
        + _homology_jobs("3", (("exterior2", 5),))
    ),
    # every workload reports hh_s and cohomology_s; the verify workload runs
    # them with the dual and tensor_square modules that verify also checks.
    # They come first: a round cut short by the time limit still repeats them.
    "verify": (
        [
            Job(command, fixture, "Z", ("--module", module, "--length", length))
            for fixture, module, length in VERIFY_MODULE_INPUTS
            for command in ("hh", "cohomology")
        ]
        + [Job("spectral", "exterior2", "Z"), Job("spectral", "quasi_iso_pair", "Z")]
        + [Job("verify", fixture, "Z") for fixture in VERIFY_FIXTURES]
    ),
}


def _fresh_names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    # lowercase letters and digits only: the library builds derived names
    # with "|" (tensor square) and "^" (dual), which must stay unambiguous
    out = []
    while len(out) < count:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(3)
        )
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _relabel_basis(spec: list, rng: random.Random, taken: set[str]) -> dict[str, str]:
    """Rename and shuffle a [[name, degree], ...] basis in place."""
    new = _fresh_names(rng, len(spec), taken)
    mapping = {old: n for (old, _), n in zip(spec, new)}
    for entry in spec:
        entry[0] = mapping[entry[0]]
    rng.shuffle(spec)
    return mapping


def _rename_entries(entries: list, inputs, output: dict[str, str]) -> None:
    """Rename table entries; inputs is one mapping per input slot."""
    for entry in entries:
        entry["inputs"] = [m[n] for m, n in zip(inputs, entry["inputs"])]
        entry["output"] = {output[n]: c for n, c in entry["output"].items()}


def _rs_slots(key: str, algebra: dict, module: dict) -> list[dict]:
    r, s = (int(k) for k in key.split(","))
    return [algebra] * r + [module] + [algebra] * s


def relabel(doc: dict, rng: random.Random) -> dict:
    """A copy of doc with every basis renamed and reordered.

    Names are changed consistently through products, operations, bimodule
    tables, morphisms and cochains. Names of bimodules, morphisms and
    cochains are kept because reports print them.
    """
    doc = copy.deepcopy(doc)
    taken: set[str] = set()
    alg = doc["algebra"]
    a = _relabel_basis(alg["basis"], rng, taken)
    _rename_entries(alg.get("product", []), [a, a], a)
    _rename_entries(alg.get("differential", []), [a], a)
    for arity, entries in alg.get("operations", {}).items():
        _rename_entries(entries, [a] * int(arity), a)
    modules = {}
    for name in sorted(doc.get("bimodules", {})):
        spec = doc["bimodules"][name]
        m = modules[name] = _relabel_basis(spec["basis"], rng, taken)
        for key, entries in spec.get("operations", {}).items():
            _rename_entries(entries, _rs_slots(key, a, m), m)
    for spec in doc.get("morphisms", {}).values():
        src, tgt = modules[spec["source"]], modules[spec["target"]]
        for key, entries in spec.get("components", {}).items():
            _rename_entries(entries, _rs_slots(key, a, src), tgt)
    # cochains take values in the diagonal bimodule, whose basis is A's
    for spec in doc.get("cochains", {}).values():
        for arity, entries in spec["components"].items():
            _rename_entries(entries, [a] * int(arity), a)
    return doc


def document(fixture_document, fixture: str, ring: str, seed: int | None) -> dict:
    """The document for one (fixture, ring) pair; seed None keeps the fixture's names."""
    doc = fixture_document(fixture)
    if seed is not None:
        doc = relabel(doc, random.Random(f"{seed}/{fixture}/{ring}"))
    if ring != "Z":
        doc["ring"] = {"kind": "Zp", "p": int(ring)}
    return doc
