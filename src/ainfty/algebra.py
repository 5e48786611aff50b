"""A-infinity algebras: operation bundles, defining equations, DGA embedding.

An algebra is a graded module with operations mu_n of degree 2 - n. The r-th
defining equation sums, over all splittings n1 + n2 = r + 1 and insertion
points i, the signed composites mu_{n2}(..., mu_{n1}(...), ...) and must
vanish on every basis word of length r. It is read as the type-(0, r - 1)
equation of the diagonal bimodule A[1], whose mu_{0,s} is mu_{s+1}: the slot
family inserts mu_{n1} at the first letter and the arm family at the others,
both from the operation entries, with the reduced degrees in front as sign.
Only words with a nonzero composite are visited; a failed check names the
least such word in basis order.
"""

from __future__ import annotations

from typing import Mapping

from .bimodules import AInfinityBimodule, Verdict, _verdict, bimodule_residuals, diagonal_bimodule
from .errors import DegreeMismatch, LeibnizFailure, NotADifferential, NotAssociative
from .graded import Element, GradedModule, MultilinearOp, Word
from .signs import sign


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
        self._diagonal: tuple | None = None  # the pieces of diagonal_bimodule(self)

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
    """Nonzero left-hand sides of the r-th defining equation, by word."""
    return _residuals(diagonal_bimodule(algebra), r)


def _residuals(diagonal: AInfinityBimodule, r: int) -> dict[Word, Element]:
    """The type-(0, r - 1) residuals of the diagonal, read back in A."""
    amod = diagonal.algebra.module
    return {w: Element(amod, e.terms) for w, e in bimodule_residuals(diagonal, 0, r - 1).items()}


def check_defining_equation(algebra: AInfinityAlgebra, r: int) -> Verdict:
    """Verify the r-th defining equation; a failure names the least failing
    word, compared by basis positions, with its residual."""
    return _check(diagonal_bimodule(algebra), r)


def _check(diagonal: AInfinityBimodule, r: int) -> Verdict:
    """check_defining_equation on an already built diagonal."""
    return _verdict(f"A-infinity equation r={r}", diagonal, 0, _residuals(diagonal, r))


def validate(algebra: AInfinityAlgebra, r_max: int) -> dict[int, Verdict]:
    """Defining equations for r = 1..r_max, on one diagonal; overall pass iff all hold."""
    diagonal = diagonal_bimodule(algebra)
    return {r: _check(diagonal, r) for r in range(1, r_max + 1)}


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
    checked in that order on one diagonal once both degrees are right; each
    names the first failing word in basis order.
    """
    mu1 = {}
    if differential is not None:
        if differential.degree != 1:
            raise NotADifferential("differential must have degree +1")
        mu1[1] = MultilinearOp((module,), module, 1, dict(differential.entries()), label="mu_1")
    if product.degree != 0:
        raise NotAssociative("product must have degree 0")
    mu2_table = {key: v.scale(sign(module.degree_of(key[0]))) for key, v in product.entries()}
    mu2 = MultilinearOp((module, module), module, 0, mu2_table, label="mu_2")
    algebra = AInfinityAlgebra(module, {2: mu2, **mu1})
    diagonal = diagonal_bimodule(algebra)
    verdict = _check(diagonal, 1)
    if not verdict.holds:
        raise NotADifferential(f"d(d({verdict.word[0]})) != 0")
    # the r=3 residual on (a,b,c) is (-1)^{deg b}((ab)c - a(bc)), and the r=2
    # residual on (a,b) is (-1)^{deg a}(d(ab) - d(a)b - (-1)^{deg a} a d(b))
    verdict = _check(diagonal, 3)
    if not verdict.holds:
        a, b, c = verdict.word
        ea, eb, ec = (module.basis_element(n) for n in (a, b, c))
        left, right = product(product(ea, eb), ec), product(ea, product(eb, ec))
        raise NotAssociative(f"({a}*{b})*{c} = {left} but {a}*({b}*{c}) = {right}")
    verdict = _check(diagonal, 2)
    if not verdict.holds:
        (a, b), d = verdict.word, differential
        ea, eb = module.basis_element(a), module.basis_element(b)
        lhs, twist = d(product(ea, eb)), sign(module.degree_of(a))
        rhs = product(d(ea), eb) + product(ea, d(eb)).scale(twist)
        raise LeibnizFailure(f"d({a}*{b}) = {lhs} but Leibniz gives {rhs}")
    return algebra
