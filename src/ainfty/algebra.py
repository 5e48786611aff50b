"""A-infinity algebras: operation bundles, defining equations, DGA embedding.

An algebra is a graded module with operations mu_n of degree 2 - n. The r-th
defining equation sums, over all splittings n1 + n2 = r + 1 and insertion
points i, the signed composites mu_{n2}(..., mu_{n1}(...), ...) and must
vanish on every basis word of length r. The composites are read from the
operation entries: each entry of the outer mu_{n2}, and at each of its letters
the preimages of that letter under mu_{n1}. Only words with a nonzero
composite are visited; a failed check names the least such word in basis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import (
    DegreeMismatch,
    LeibnizFailure,
    NotADifferential,
    NotAssociative,
)
from .graded import Element, GradedModule, MultilinearOp, Word
from .signs import sign


@dataclass
class Verdict:
    """Outcome of one identity check; carries the first counterexample."""

    holds: bool
    word: Word | None = None
    residual: Element | None = None
    label: str = ""

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        if self.holds:
            return f"{self.label}: holds"
        return f"{self.label}: fails on {self.word} with residual {self.residual}"


class AInfinityAlgebra:
    """Graded module plus operations mu_n (n >= 1), zero where ops has no entry."""

    def __init__(self, module: GradedModule, ops: Mapping[int, MultilinearOp]):
        self.module = module
        self.ops = {}
        for n, op in ops.items():
            if n < 1:
                raise DegreeMismatch("operation arity must be >= 1")
            if op.degree != 2 - n:
                raise DegreeMismatch(f"mu_{n} must have degree {2 - n}, got {op.degree}")
            if op.arity != n:
                raise DegreeMismatch(f"mu_{n} has arity {op.arity}")
            if not op.is_zero():
                self.ops[n] = op
        self._preimages: dict[int, dict[str, list[tuple[Word, int]]]] = {}

    @property
    def ring(self):
        return self.module.ring

    def mu(self, n: int) -> MultilinearOp | None:
        return self.ops.get(n)

    def preimages(self, n: int) -> dict[str, list[tuple[Word, int]]]:
        """mu_n by output name: name -> [(input word, coefficient)], built once."""
        index = self._preimages.get(n)
        if index is None:
            index = self._preimages[n] = {}
            for key, value in self.ops[n].entries():
                for name, c in value.terms.items():
                    index.setdefault(name, []).append((key, c))
        return index


def equation_residuals(algebra: AInfinityAlgebra, r: int) -> dict[Word, Element]:
    """Nonzero left-hand sides of the r-th defining equation, by word.

    Walks each entry of each outer mu_{n2} and, at each letter, its preimages
    under mu_{n1} (n1 + n2 = r + 1); the sign is the reduced degrees in front.
    """
    amod = algebra.module
    acc: dict[Word, dict[str, int]] = {}
    for n2, outer in algebra.ops.items():
        if r + 1 - n2 not in algebra.ops:
            continue
        preimages = algebra.preimages(r + 1 - n2)
        for key, value in outer.entries():
            front = 0
            for p, letter in enumerate(key):
                for pre, c in preimages.get(letter, ()):
                    terms = acc.setdefault(key[:p] + pre + key[p + 1 :], {})
                    for out, v in value.terms.items():
                        terms[out] = terms.get(out, 0) + sign(front) * c * v
                front += amod.degree_of(letter) - 1
    return {word: e for word, terms in acc.items() if (e := Element(amod, terms))}


def check_defining_equation(algebra: AInfinityAlgebra, r: int) -> Verdict:
    """Verify the r-th defining equation; a failure names the least failing
    word, compared by basis positions, with its residual."""
    label = f"A-infinity equation r={r}"
    failing = equation_residuals(algebra, r)
    if not failing:
        return Verdict(True, label=label)
    word = min(failing, key=lambda w: tuple(map(algebra.module.position, w)))
    return Verdict(False, word, failing[word], label)


def validate(algebra: AInfinityAlgebra, r_max: int) -> dict[int, Verdict]:
    """Defining equations for r = 1..r_max; overall pass iff all hold."""
    return {r: check_defining_equation(algebra, r) for r in range(1, r_max + 1)}


def shift(algebra: AInfinityAlgebra) -> GradedModule:
    """The shifted module A[1]: same names, every degree lowered by one."""
    return algebra.module.shifted(-1)


def from_dga(
    module: GradedModule,
    product: MultilinearOp,
    differential: MultilinearOp | None = None,
) -> AInfinityAlgebra:
    """A-infinity structure of a differential graded algebra.

    Stores mu_1 = d and mu_2(a,b) = (-1)^{deg a} ab. Under this sign twist the
    defining equations r = 1, 3 and 2 are d*d = 0, associativity of the
    product and the graded Leibniz rule d(ab) = d(a)b + (-1)^{deg a} a d(b),
    checked in that order by the entry walk, which names the first failing
    word in basis order.
    """
    mu1 = {}
    if differential is not None:
        if differential.degree != 1:
            raise NotADifferential("differential must have degree +1")
        mu1[1] = MultilinearOp((module,), module, 1, dict(differential.entries()), label="mu_1")
        verdict = check_defining_equation(AInfinityAlgebra(module, mu1), 1)
        if not verdict.holds:
            raise NotADifferential(f"d(d({verdict.word[0]})) != 0")
    if product.degree != 0:
        raise NotAssociative("product must have degree 0")
    mu2_table = {key: v.scale(sign(module.degree_of(key[0]))) for key, v in product.entries()}
    mu2 = MultilinearOp((module, module), module, 0, mu2_table, label="mu_2")
    algebra = AInfinityAlgebra(module, {2: mu2, **mu1})
    # the r=3 residual on (a,b,c) is (-1)^{deg b}((ab)c - a(bc)), and the r=2
    # residual on (a,b) is (-1)^{deg a}(d(ab) - d(a)b - (-1)^{deg a} a d(b))
    verdict = check_defining_equation(algebra, 3)
    if not verdict.holds:
        a, b, c = verdict.word
        ea, eb, ec = (module.basis_element(n) for n in (a, b, c))
        left, right = product(product(ea, eb), ec), product(ea, product(eb, ec))
        raise NotAssociative(f"({a}*{b})*{c} = {left} but {a}*({b}*{c}) = {right}")
    verdict = check_defining_equation(algebra, 2)
    if not verdict.holds:
        (a, b), d = verdict.word, differential
        ea, eb = module.basis_element(a), module.basis_element(b)
        lhs, twist = d(product(ea, eb)), sign(module.degree_of(a))
        rhs = product(d(ea), eb) + product(ea, d(eb)).scale(twist)
        raise LeibnizFailure(f"d({a}*{b}) = {lhs} but Leibniz gives {rhs}")
    return algebra
