"""Canonical text format for structures: parsing, validation, serialization.

A document is a single JSON object with sorted keys and decimal-string
coefficients. Algebras come either as a DGA (product + differential tables;
the A-infinity structure is derived) or as explicit operations per arity.
Bimodules, morphisms and diagonal cochains are optional sections. Parsing is
strict: unknown names, non-prime moduli and degree-violating table entries
are rejected with the offending location in the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import AInfinityAlgebra, from_dga
from .bimodules import AInfinityBimodule, BimoduleMorphism, bimodule_op, morphism_op
from .cochains import Cochain
from .errors import DocumentError, UnknownName
from .graded import GradedModule, MultilinearOp
from .rings import CoefficientRing, Z, Zp


@dataclass
class Options:
    length: int = 4
    max_r: int = 6
    max_rs: int = 4


@dataclass
class StructureDocument:
    ring: CoefficientRing
    algebra: AInfinityAlgebra
    bimodules: dict[str, AInfinityBimodule]
    morphisms: dict[str, BimoduleMorphism]
    # cochain name -> (CH^*(A) degree, {arity: {input word: {output name: coefficient}}})
    cochain_tables: dict[str, tuple[int, dict[int, dict]]]
    options: Options
    raw: dict = field(repr=False, default_factory=dict)

    def cochains(self, diagonal: AInfinityBimodule, cutoff: int) -> dict[str, Cochain]:
        """The document's cochains over the diagonal bimodule, up to arity cutoff."""
        out = {}
        for name, (degree, comps) in sorted(self.cochain_tables.items()):
            arity = max(comps, default=0)
            if arity > cutoff:
                raise DocumentError(f"cochains.{name}: arity {arity} exceeds the cutoff {cutoff}")
            # documents carry the CH^*(A) degree; internally the generic one
            out[name] = Cochain(diagonal, degree - 1, comps, cutoff)
        return out


def _coeff(value, where: str) -> int:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: coefficient must be an integer string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise DocumentError(f"{where}: bad coefficient {value!r}") from None
    raise DocumentError(f"{where}: bad coefficient {value!r}")


def _object(value, where: str) -> dict:
    """value, which the document must give as a JSON object at where."""
    if not isinstance(value, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    return value


def _entries_to_table(entries, where: str) -> dict:
    if not isinstance(entries, list):
        raise DocumentError(f"{where}: expected a list of entries")
    table = {}
    for k, entry in enumerate(entries):
        loc = f"{where}[{k}]"
        if not isinstance(entry, dict) or "inputs" not in entry or "output" not in entry:
            raise DocumentError(f"{loc}: entry needs 'inputs' and 'output'")
        if not isinstance(entry["inputs"], list) or not isinstance(entry["output"], dict):
            raise DocumentError(f"{loc}: 'inputs' must be a list and 'output' an object")
        key = tuple(str(n) for n in entry["inputs"])
        if key in table:
            raise DocumentError(f"{loc}: duplicate entry for {key}")
        table[key] = {
            str(n): _coeff(c, f"{loc}.output.{n}") for n, c in entry["output"].items()
        }
    return table


def _parse_ring(doc: dict) -> CoefficientRing:
    spec = _object(doc.get("ring", {"kind": "Z"}), "ring")
    kind = spec.get("kind")
    if kind == "Z":
        return Z
    if kind == "Zp":
        if "p" not in spec:
            raise DocumentError("ring: Zp needs a modulus p")
        return Zp(_int_field(spec, "p", None, "ring"))
    raise DocumentError(f"ring: unknown kind {kind!r}")


def _parse_basis(spec, ring, where: str) -> GradedModule:
    malformed = DocumentError(f"{where}: basis must be a list of [name, degree]")
    if not isinstance(spec, list) or not all(isinstance(e, list) for e in spec):
        raise malformed
    try:
        basis = tuple((str(n), _integer(d, f"{where}[{i}]")) for i, (n, d) in enumerate(spec))
    except (TypeError, ValueError):
        raise malformed from None
    try:
        return GradedModule(basis, ring)
    except UnknownName as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _parse_algebra(doc: dict, ring: CoefficientRing) -> AInfinityAlgebra:
    spec = doc.get("algebra")
    if not isinstance(spec, dict):
        raise DocumentError("document needs an 'algebra' section")
    module = _parse_basis(spec.get("basis", []), ring, "algebra.basis")
    kind = spec.get("kind", "ainfty")
    if kind == "dga":
        product = MultilinearOp(
            (module, module),
            module,
            0,
            _entries_to_table(spec.get("product", []), "algebra.product"),
            label="algebra.product",
        )
        diff_entries = _entries_to_table(
            spec.get("differential", []), "algebra.differential"
        )
        differential = (
            MultilinearOp((module,), module, 1, diff_entries, label="algebra.differential")
            if diff_entries
            else None
        )
        return from_dga(module, product, differential)
    if kind == "ainfty":
        ops = {}
        for key, entries in _object(spec.get("operations", {}), "algebra.operations").items():
            (n,) = _key(key, 1, "algebra.operations", "arity")
            table = _entries_to_table(entries, f"algebra.operations.{key}")
            ops[n] = MultilinearOp(
                (module,) * n, module, 2 - n, table, label=f"algebra.operations.{key}"
            )
        # max_arity is checked but not kept: the operations given are the structure
        _int_field(spec, "max_arity", 0, "algebra")
        return AInfinityAlgebra(module, ops)
    raise DocumentError(f"algebra.kind: unknown kind {kind!r}")


def _key(key: str, size: int, where: str, what: str) -> tuple[int, ...]:
    """A table key of size comma-separated counts, each >= 0."""
    try:
        counts = tuple(int(n) for n in key.split(","))
    except ValueError:
        counts = ()
    if len(counts) != size or min(counts) < 0:
        raise DocumentError(f"{where}: bad {what} key {key!r}")
    return counts


def _parse_bimodule(name: str, spec: dict, algebra: AInfinityAlgebra) -> AInfinityBimodule:
    where = f"bimodules.{name}"
    spec = _object(spec, where)
    module = _parse_basis(spec.get("basis", []), algebra.ring, f"{where}.basis")
    ops = {}
    for key, entries in _object(spec.get("operations", {}), f"{where}.operations").items():
        r, s = _key(key, 2, f"{where}.operations", "(r,s)")
        table = _entries_to_table(entries, f"{where}.operations.{key}")
        ops[(r, s)] = bimodule_op(
            algebra, module, r, s, table, label=f"{where}.operations.{key}"
        )
    return AInfinityBimodule(algebra, module, ops, name=name)


def _parse_morphism(
    name: str, spec: dict, bimodules: dict[str, AInfinityBimodule]
) -> BimoduleMorphism:
    where = f"morphisms.{name}"
    spec = _object(spec, where)
    for kind in ("source", "target"):
        if not isinstance(spec.get(kind), str) or spec[kind] not in bimodules:
            raise DocumentError(f"{where}.{kind}: unknown bimodule {spec.get(kind)!r}")
    source = bimodules[spec["source"]]
    target = bimodules[spec["target"]]
    d = _int_field(spec, "degree", 0, where)
    maps = {}
    for key, entries in _object(spec.get("components", {}), f"{where}.components").items():
        r, s = _key(key, 2, f"{where}.components", "(r,s)")
        table = _entries_to_table(entries, f"{where}.components.{key}")
        maps[(r, s)] = morphism_op(
            source, target, r, s, d, table, label=f"{where}.components.{key}"
        )
    return BimoduleMorphism(source, target, d, maps, name=name)


def _parse_cochain(name: str, spec, module: GradedModule) -> tuple[int, dict[int, dict]]:
    """A diagonal cochain's CH^*(A) degree and its tables by arity, checked
    against A's basis; only the arity cutoff is left to the command."""
    where = f"cochains.{name}"
    spec = _object(spec, where)
    if "degree" not in spec or "components" not in spec:
        raise DocumentError(f"{where}: needs 'degree' and 'components'")
    degree = _int_field(spec, "degree", None, where)
    comps = {}
    for arity, entries in _object(spec["components"], f"{where}.components").items():
        (n,) = _key(arity, 1, f"{where}.components", "arity")
        loc = f"{where}.components.{arity}"
        table = _entries_to_table(entries, loc)
        for k, (word, out) in enumerate(table.items()):
            if len(word) != n:
                raise DocumentError(f"{loc}[{k}]: {len(word)} inputs for arity {n}")
            try:
                # degree d sends a word of A-degree e to outputs of A-degree e + d - n
                out_deg = sum(map(module.degree_of, word)) + degree - n
                if any(module.degree_of(letter) != out_deg for letter in out):
                    raise DocumentError(f"{loc}[{k}]: entry {word} breaks the degree rule")
            except UnknownName as exc:
                raise DocumentError(f"{loc}[{k}]: {exc}") from None
        comps[n] = table
    return degree, comps


def _int_field(container, key, default, where):
    return _integer(container.get(key, default), f"{where}.{key}")


def _integer(value, where):
    try:
        # int() would truncate 1.5 to 1 and read true as 1
        if isinstance(value, (bool, float)):
            raise TypeError
        return int(value)
    except (TypeError, ValueError):
        raise DocumentError(f"{where}: expected an integer") from None


def parse(text: str) -> StructureDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    ring = _parse_ring(doc)
    algebra = _parse_algebra(doc, ring)
    opts = _object(doc.get("options", {}), "options")
    options = Options(
        length=_int_field(opts, "length", 4, "options"),
        max_r=_int_field(opts, "max_r", 6, "options"),
        max_rs=_int_field(opts, "max_rs", 4, "options"),
    )
    bimodules = {}
    bimodule_specs = _object(doc.get("bimodules", {}), "bimodules")
    for name in sorted(bimodule_specs):
        # --module and verify reach the built-in coefficient modules by these names
        if name in ("diagonal", "tensor_square", "dual"):
            raise DocumentError(f"bimodules.{name}: the name of a built-in coefficient module")
        bimodules[name] = _parse_bimodule(name, bimodule_specs[name], algebra)
    morphisms = {}
    morphism_specs = _object(doc.get("morphisms", {}), "morphisms")
    for name in sorted(morphism_specs):
        morphisms[name] = _parse_morphism(name, morphism_specs[name], bimodules)
    specs = _object(doc.get("cochains", {}), "cochains")
    cochain_tables = {
        name: _parse_cochain(name, specs[name], algebra.module) for name in sorted(specs)
    }
    return StructureDocument(
        ring, algebra, bimodules, morphisms, cochain_tables, options, raw=doc
    )


def _canonical_entries(entries):
    out = []
    for entry in entries:
        out.append(
            {
                "inputs": [str(n) for n in entry["inputs"]],
                "output": {
                    str(n): str(_coeff(c, "output"))
                    for n, c in sorted(entry["output"].items())
                },
            }
        )
    out.sort(key=lambda e: tuple(e["inputs"]))
    return out


def canonicalize(doc: dict) -> dict:
    """Normalize a raw document: sorted tables, string coefficients."""
    doc = json.loads(json.dumps(doc))
    algebra = doc.get("algebra", {})
    for key in ("product", "differential"):
        if key in algebra:
            algebra[key] = _canonical_entries(algebra[key])
    tables = [(algebra, "operations")] + [
        (spec, key)
        for section, key in (
            ("bimodules", "operations"),
            ("morphisms", "components"),
            ("cochains", "components"),
        )
        for spec in doc.get(section, {}).values()
    ]
    for spec, key in tables:
        if key in spec:
            spec[key] = {k: _canonical_entries(v) for k, v in spec[key].items()}
    return doc


def serialize(doc: dict) -> str:
    return json.dumps(canonicalize(doc), sort_keys=True, indent=2) + "\n"
