"""Finite-rank graded modules, sparse elements and multilinear operation tables.

Everything is immutable after construction and validated on the way in:
operation tables reject entries whose output degree is not (sum of input
degrees) + (operation degree). Missing table entries mean zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import (
    ArityMismatch,
    DegreeMismatch,
    Inhomogeneous,
    ModuleMismatch,
    UnknownName,
    ZeroElement,
)
from .rings import CoefficientRing

# A basis word is a tuple of basis names; which module each slot lives in is
# determined by the operation's signature (or, for Hochschild words, by
# position: slot 0 in the coefficient module, the rest in the algebra).
Word = tuple[str, ...]


@dataclass(frozen=True)
class GradedModule:
    """Ordered finite basis of named homogeneous generators."""

    basis: tuple[tuple[str, int], ...]
    ring: CoefficientRing
    _index: dict = field(compare=False, repr=False, default=None)
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        names = tuple(name for name, _ in self.basis)
        if len(set(names)) != len(names):
            raise UnknownName("duplicate basis names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: (i, d) for i, (n, d) in enumerate(self.basis)})

    def degree_of(self, name: str) -> int:
        try:
            return self._index[name][1]
        except KeyError:
            raise UnknownName(f"unknown basis name {name!r}") from None

    def position(self, name: str) -> int:
        try:
            return self._index[name][0]
        except KeyError:
            raise UnknownName(f"unknown basis name {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def rank(self) -> int:
        return len(self.basis)

    def element(self, terms: Mapping[str, int] | None = None) -> "Element":
        return Element(self, terms or {})

    def basis_element(self, name: str, coeff: int = 1) -> "Element":
        self.degree_of(name)
        return Element(self, {name: coeff})

    def shifted(self, by: int = -1) -> "GradedModule":
        """Same names with every degree shifted; shifted(-1) is M[1]."""
        return GradedModule(tuple((n, d + by) for n, d in self.basis), self.ring)


class Element:
    """Sparse linear combination of basis names; zero coefficients are dropped."""

    __slots__ = ("module", "terms")

    def __init__(self, module: GradedModule, terms: Mapping[str, int]):
        clean = {}
        for name, c in terms.items():
            if name not in module:
                raise UnknownName(f"unknown basis name {name!r}")
            c = module.ring.normalize(c)
            if c:
                clean[name] = c
        self.module = module
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.module.basis, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Element") -> "Element":
        if self.module != other.module:
            raise ModuleMismatch("cannot add elements of different modules")
        acc = dict(self.terms)
        for n, c in other.terms.items():
            acc[n] = acc.get(n, 0) + c
        return Element(self.module, acc)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Element":
        return Element(self.module, {n: c * v for n, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for n, _ in self.module.basis:
            if n in self.terms:
                c = self.terms[n]
                bits.append(n if c == 1 else f"{c}*{n}")
        return " + ".join(bits)


def degree(e: Element) -> int:
    """Common degree of all terms; undefined for zero, error when mixed."""
    if e.is_zero():
        raise ZeroElement("degree of the zero element is undefined")
    degs = {e.module.degree_of(n) for n in e.terms}
    if len(degs) > 1:
        raise Inhomogeneous(f"mixed degrees {sorted(degs)}")
    return degs.pop()


def reduced_index(e: Element) -> int:
    return degree(e) - 1


class MultilinearOp:
    """Sparse table of a homogeneous multilinear operation.

    signature: input modules in order; output: target module; degree: the
    amount added to the sum of input degrees. The table maps basis words to
    homogeneous output elements and is validated entry by entry.
    """

    __slots__ = ("signature", "output", "degree", "table", "label")

    def __init__(
        self,
        signature: Sequence[GradedModule],
        output: GradedModule,
        degree_: int,
        table: Mapping[Word, Mapping[str, int] | Element],
        label: str = "",
    ):
        self.signature = tuple(signature)
        self.output = output
        self.degree = degree_
        self.label = label
        clean: dict[Word, Element] = {}
        for word, value in table.items():
            word = tuple(word)
            if len(word) != len(self.signature):
                raise ArityMismatch(f"{label}: key {word} has wrong arity")
            in_deg = 0
            for mod, name in zip(self.signature, word):
                in_deg += mod.degree_of(name)
            elem = value if isinstance(value, Element) else Element(output, value)
            if elem.module != output:
                raise ModuleMismatch(f"{label}: entry {word} lands in the wrong module")
            if elem.is_zero():
                continue
            if degree(elem) != in_deg + degree_:
                raise DegreeMismatch(
                    f"{label}: entry {word} has degree {degree(elem)}, "
                    f"expected {in_deg + degree_}"
                )
            clean[word] = elem
        self.table = clean

    @property
    def arity(self) -> int:
        return len(self.signature)

    def is_zero(self) -> bool:
        return not self.table

    def on_word(self, word: Word) -> Element:
        """Table lookup; absent entries are zero."""
        hit = self.table.get(tuple(word))
        return hit if hit is not None else Element(self.output, {})

    def __call__(self, *inputs: Element) -> Element:
        return apply(self, list(inputs))

    def entries(self):
        return self.table.items()


def apply(op: MultilinearOp, inputs: Sequence[Element]) -> Element:
    """Multilinear extension of the basis table to general elements."""
    if len(inputs) != op.arity:
        raise ArityMismatch(f"expected {op.arity} inputs, got {len(inputs)}")
    for mod, e in zip(op.signature, inputs):
        if e.module != mod:
            raise ModuleMismatch("input element lives in the wrong module")
    acc: dict[str, int] = {}
    stack: list[tuple[Word, int]] = [((), 1)]
    for e in inputs:
        stack = [
            (word + (n,), c * v)
            for word, c in stack
            for n, v in e.terms.items()
        ]
        if not stack:
            return Element(op.output, {})
    for word, c in stack:
        hit = op.table.get(word)
        if hit is None:
            continue
        for n, v in hit.terms.items():
            acc[n] = acc.get(n, 0) + c * v
    return Element(op.output, acc)
