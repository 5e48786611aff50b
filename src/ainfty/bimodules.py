"""A-infinity bimodules, their defining equations, and morphisms.

A bimodule over an algebra A carries operations mu_{r,s}: A^r (x) M (x) A^s -> M
of degree 1 - r - s. Three constructions are provided: the diagonal bimodule
A[1], the tensor square A (x) A, and the dual bimodule with inverted grading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .algebra import AInfinityAlgebra, Verdict, shift
from .errors import DegreeMismatch, ModuleMismatch
from .graded import Element, GradedModule, MultilinearOp, Word
from .signs import maltese, sign


class AInfinityBimodule:
    """Graded module with operations mu_{r,s}, zero beyond max_rs."""

    def __init__(
        self,
        algebra: AInfinityAlgebra,
        module: GradedModule,
        ops: Mapping[tuple[int, int], MultilinearOp],
        max_rs: int = 4,
        name: str = "M",
    ):
        self.algebra = algebra
        self.module = module
        self.name = name
        self.ops: dict[tuple[int, int], MultilinearOp] = {}
        for (r, s), op in ops.items():
            if r < 0 or s < 0:
                raise DegreeMismatch("bimodule op indices must be non-negative")
            if op.degree != 1 - r - s:
                raise DegreeMismatch(
                    f"mu_({r},{s}) must have degree {1 - r - s}, got {op.degree}"
                )
            if op.arity != r + 1 + s:
                raise DegreeMismatch(f"mu_({r},{s}) has arity {op.arity}")
            if not op.is_zero():
                self.ops[(r, s)] = op
        self.max_rs = max_rs
        self._slot_index: dict[tuple[int, int], dict] = {}

    @property
    def ring(self):
        return self.module.ring

    def op(self, r: int, s: int) -> MultilinearOp | None:
        return self.ops.get((r, s))

    def op_word(self, r: int, s: int, word: Word) -> Element:
        op = self.ops.get((r, s))
        if op is None:
            return Element(self.module, {})
        return op.on_word(word)

    def slot_index(self, r: int, s: int) -> dict[str, list[tuple[Word, Word, int, dict]]]:
        """mu_(r,s) entries (prefix, m, suffix) by m, built once per (r, s):
        m -> [(prefix, suffix, maltese of the prefix degrees, output terms)]."""
        index = self._slot_index.get((r, s))
        if index is None:
            index = self._slot_index[(r, s)] = {}
            degs = self.algebra.module.degree_of
            for key, value in self.ops[(r, s)].entries():
                prefix, suffix = key[:r], key[r + 1 :]
                mal = sum(degs(a) - 1 for a in prefix)
                index.setdefault(key[r], []).append((prefix, suffix, mal, value.terms))
        return index

    def words(self, r: int, s: int) -> Iterator[Word]:
        """Basis words (a_1..a_r, m, a_{r+1}..a_{r+s})."""
        a_names = self.algebra.module.names
        for left in itertools.product(a_names, repeat=r):
            for m in self.module.names:
                for right in itertools.product(a_names, repeat=s):
                    yield left + (m,) + right

    def zero(self) -> Element:
        return Element(self.module, {})


def _op_signature(algebra: AInfinityAlgebra, module: GradedModule, r: int, s: int):
    a = algebra.module
    return (a,) * r + (module,) + (a,) * s


def bimodule_op(
    algebra: AInfinityAlgebra,
    module: GradedModule,
    r: int,
    s: int,
    table: Mapping[Word, Mapping[str, int] | Element],
    label: str = "",
) -> MultilinearOp:
    return MultilinearOp(
        _op_signature(algebra, module, r, s),
        module,
        1 - r - s,
        table,
        label=label or f"mu_({r},{s})",
    )


def _add(acc: dict[str, int], c: int, elem: Element) -> None:
    for n, v in elem.terms.items():
        acc[n] = acc.get(n, 0) + c * v


def _arm_terms(A: AInfinityAlgebra, outer, word: Word, r: int, s: int, m_deg: int, acc):
    """Terms outer(..., mu_k(...), ...) with an algebra mu_k inside either arm.

    word = (a_1..a_r, m, a_{r+1}..a_{r+s}); outer(r', s', word') is a
    bimodule-shaped family. In the left arm, mu_k at letter i has sign
    maltese_1^{i-1}; in the right arm, at letter r+j, maltese_1^{r+j-1} + deg m:
    the reduced indices in front of the insertion plus, once passed, the
    coefficient-slot degree.
    """
    front = [0]  # front[p]: sign exponent of an insertion at word position p
    for p, a in enumerate(word):
        front.append(front[-1] + (m_deg if p == r else A.module.degree_of(a) - 1))
    for k, op in A.ops.items():
        for p in itertools.chain(range(r - k + 1), range(r + 1, r + s - k + 2)):
            hit = op.table.get(word[p : p + k])
            if hit is None:
                continue
            r1, s1 = (r - k + 1, s) if p < r else (r, s - k + 1)
            sv = sign(front[p])
            for name, c in hit.terms.items():
                _add(acc, sv * c, outer(r1, s1, word[:p] + (name,) + word[p + k :]))


def _slot_terms(A: AInfinityAlgebra, outer, inner, word: Word, r: int, s: int, d: int, acc):
    """Terms outer_(r1,s1)(a.., inner_(r2,s2)(a.., m, ..), ..) around the slot.

    inner takes the letters r1+1..r and r+1..r+s2 around m; the sign is
    d * maltese_1^{r1}.
    """
    front = 0  # maltese_1^{r1}
    for r1 in range(r + 1):
        if r1:
            front += A.module.degree_of(word[r1 - 1]) - 1
        sv = sign(d * front)
        for s2 in range(s + 1):
            for name, c in inner(r - r1, s2, word[r1 : r + 1 + s2]).terms.items():
                _add(acc, sv * c, outer(r1, s - s2, word[:r1] + (name,) + word[r + 1 + s2 :]))


def bimodule_equation_residual(
    M: AInfinityBimodule, r: int, s: int, word: Word
) -> Element:
    """Left-hand side of the type-(r,s) defining equation on one basis word.

    word = (a_1..a_r, m, a_{r+1}..a_{r+s}): algebra operations inside either
    arm of mu_{r',s'}, plus nested bimodule operations around the slot.
    """
    acc: dict[str, int] = {}
    _arm_terms(M.algebra, M.op_word, word, r, s, M.module.degree_of(word[r]), acc)
    _slot_terms(M.algebra, M.op_word, M.op_word, word, r, s, 1, acc)
    return Element(M.module, acc)


def check_bimodule_equation(M: AInfinityBimodule, r: int, s: int) -> Verdict:
    label = f"{M.name}: bimodule equation ({r},{s})"
    for word in M.words(r, s):
        residual = bimodule_equation_residual(M, r, s, word)
        if not residual.is_zero():
            return Verdict(False, word, residual, label)
    return Verdict(True, label=label)


def validate_bimodule(M: AInfinityBimodule, bound: int | None = None) -> dict:
    bound = M.max_rs if bound is None else bound
    return {
        (r, s): check_bimodule_equation(M, r, s)
        for total in range(0, bound + 1)
        for r in range(total + 1)
        for s in [total - r]
    }


def diagonal_bimodule(A: AInfinityAlgebra, max_rs: int = 4) -> AInfinityBimodule:
    """A[1] as a bimodule over A: mu_{r,s} is mu_{r+s+1} reindexed."""
    shifted = shift(A)
    ops = {}
    for n, op in A.ops.items():
        for r in range(0, n):
            s = n - 1 - r
            if r + s > max_rs:
                continue
            table = {word: Element(shifted, value.terms) for word, value in op.entries()}
            ops[(r, s)] = bimodule_op(
                A, shifted, r, s, table, label=f"A[1] mu_({r},{s})"
            )
    return AInfinityBimodule(A, shifted, ops, max_rs=max_rs, name="A[1]")


def tensor_name(b1: str, b2: str) -> str:
    return f"{b1}|{b2}"


def tensor_square_bimodule(A: AInfinityAlgebra, max_rs: int = 4) -> AInfinityBimodule:
    """A (x) A with the product grading of A[1] (x) A[1].

    Only the families mu_{r,0} and mu_{0,s} are nonzero; the (0,0) operation
    is the product differential.
    """
    amod = A.module
    basis = tuple(
        (tensor_name(n1, n2), (d1 - 1) + (d2 - 1))
        for n1, d1 in amod.basis
        for n2, d2 in amod.basis
    )
    module = GradedModule(basis, amod.ring)
    names = amod.names
    ops: dict[tuple[int, int], MultilinearOp] = {}

    mu1 = A.mu(1)
    table00 = {}
    for n1 in names:
        for n2 in names:
            acc: dict[str, int] = {}
            if mu1 is not None:
                for t, c in mu1.on_word((n1,)).terms.items():
                    key = tensor_name(t, n2)
                    acc[key] = acc.get(key, 0) + c
                s1 = sign(amod.degree_of(n1) - 1)
                for t, c in mu1.on_word((n2,)).terms.items():
                    key = tensor_name(n1, t)
                    acc[key] = acc.get(key, 0) + s1 * c
            if acc:
                table00[(tensor_name(n1, n2),)] = acc
    if table00:
        ops[(0, 0)] = bimodule_op(A, module, 0, 0, table00, label="AxA mu_(0,0)")

    for r in range(1, max_rs + 1):
        op = A.mu(r + 1)
        if op is None:
            continue
        table: dict[Word, dict[str, int]] = {}
        for word in itertools.product(names, repeat=r):
            for n1 in names:
                hit = op.on_word(word + (n1,))
                if hit.is_zero():
                    continue
                for n2 in names:
                    table[word + (tensor_name(n1, n2),)] = {
                        tensor_name(t, n2): c for t, c in hit.terms.items()
                    }
        if table:
            ops[(r, 0)] = bimodule_op(A, module, r, 0, table, label=f"AxA mu_({r},0)")

    for s in range(1, max_rs + 1):
        op = A.mu(s + 1)
        if op is None:
            continue
        table = {}
        for n2 in names:
            for word in itertools.product(names, repeat=s):
                hit = op.on_word((n2,) + word)
                if hit.is_zero():
                    continue
                for n1 in names:
                    s1 = sign(amod.degree_of(n1) - 1)
                    table[(tensor_name(n1, n2),) + word] = {
                        tensor_name(n1, t): s1 * c for t, c in hit.terms.items()
                    }
        if table:
            ops[(0, s)] = bimodule_op(A, module, 0, s, table, label=f"AxA mu_(0,{s})")

    return AInfinityBimodule(A, module, ops, max_rs=max_rs, name="AxA")


def dual_name(name: str) -> str:
    return name + "^"


def dual_bimodule(M: AInfinityBimodule, max_rs: int | None = None) -> AInfinityBimodule:
    """The dual module with inverted grading and transposed, signed operations.

    (mu*_{r,s}(a_1..a_r, m*, a_{r+1}..a_{r+s}))(m)
        = (-1)^ddag m*(mu_{s,r}(a_{r+1}..a_{r+s}, m, a_1..a_r)),
    ddag = maltese_1^r (maltese_{r+1}^{r+s} + deg m* + deg m) + deg m* + 1.
    """
    if max_rs is None:
        max_rs = M.max_rs
    A = M.algebra
    amod = A.module
    dual_mod = GradedModule(
        tuple((dual_name(n), -d) for n, d in M.module.basis), M.module.ring
    )
    ops: dict[tuple[int, int], MultilinearOp] = {}
    for r in range(0, max_rs + 1):
        for s in range(0, max_rs + 1 - r):
            source = M.op(s, r)
            if source is None:
                continue
            table: dict[Word, dict[str, int]] = {}
            for left in itertools.product(amod.names, repeat=r):
                for mstar, mstar_deg in dual_mod.basis:
                    x = mstar[:-1]
                    for right in itertools.product(amod.names, repeat=s):
                        a_degs = [amod.degree_of(n) for n in left + right]
                        acc: dict[str, int] = {}
                        for y, y_deg in M.module.basis:
                            hit = source.on_word(right + (y,) + left)
                            c = hit.terms.get(x, 0)
                            if not c:
                                continue
                            ddag = (
                                maltese(a_degs, 1, r)
                                * (maltese(a_degs, r + 1, r + s) + mstar_deg + y_deg)
                                + mstar_deg
                                + 1
                            )
                            acc[dual_name(y)] = acc.get(dual_name(y), 0) + sign(ddag) * c
                        if acc:
                            table[left + (mstar,) + right] = acc
            if table:
                ops[(r, s)] = bimodule_op(
                    A, dual_mod, r, s, table, label=f"{M.name}* mu_({r},{s})"
                )
    return AInfinityBimodule(A, dual_mod, ops, max_rs=max_rs, name=f"{M.name}^-*")


@dataclass
class BimoduleMorphism:
    """Family f_{r,s}: A^r (x) M (x) A^s -> N of degree d - r - s."""

    source: AInfinityBimodule
    target: AInfinityBimodule
    degree: int
    maps: dict[tuple[int, int], MultilinearOp]
    max_rs: int = 4
    name: str = "f"

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra and (
            self.source.algebra.module != self.target.algebra.module
        ):
            raise ModuleMismatch("morphism endpoints live over different algebras")
        clean = {}
        for (r, s), op in self.maps.items():
            if op.degree != self.degree - r - s:
                raise DegreeMismatch(
                    f"f_({r},{s}) must have degree {self.degree - r - s}"
                )
            if not op.is_zero():
                clean[(r, s)] = op
        self.maps = clean

    def component(self, r: int, s: int) -> MultilinearOp | None:
        return self.maps.get((r, s))

    def component_word(self, r: int, s: int, word: Word) -> Element:
        op = self.maps.get((r, s))
        if op is None:
            return Element(self.target.module, {})
        return op.on_word(word)


def morphism_equation_sides(
    f: BimoduleMorphism, r: int, s: int, word: Word
) -> tuple[Element, Element]:
    """Both sides of the type-(r,s) morphism equation on one basis word.

    The left side feeds f around the slot into mu^N; the right side is the
    bimodule equation of M with f as the outer operation, times (-1)^d.
    """
    M, N, d = f.source, f.target, f.degree
    A = M.algebra
    lhs: dict[str, int] = {}
    rhs: dict[str, int] = {}
    _slot_terms(A, N.op_word, f.component_word, word, r, s, d, lhs)
    _arm_terms(A, f.component_word, word, r, s, M.module.degree_of(word[r]), rhs)
    _slot_terms(A, f.component_word, M.op_word, word, r, s, 1, rhs)
    return Element(N.module, lhs), Element(N.module, rhs).scale(sign(d))


def check_morphism_equation(f: BimoduleMorphism, r: int, s: int) -> Verdict:
    label = f"{f.name}: morphism equation ({r},{s})"
    for word in f.source.words(r, s):
        lhs, rhs = morphism_equation_sides(f, r, s, word)
        if lhs != rhs:
            return Verdict(False, word, lhs - rhs, label)
    return Verdict(True, label=label)


def validate_morphism(f: BimoduleMorphism, bound: int | None = None) -> dict:
    bound = f.max_rs if bound is None else bound
    return {
        (r, s): check_morphism_equation(f, r, s)
        for total in range(0, bound + 1)
        for r in range(total + 1)
        for s in [total - r]
    }


def morphism_is_chain_map_00(f: BimoduleMorphism) -> bool:
    """True iff f_{0,0} commutes with the (0,0) differentials."""
    for m in f.source.module.names:
        lhs: dict[str, int] = {}
        for name, c in f.source.op_word(0, 0, (m,)).terms.items():
            _add(lhs, c, f.component_word(0, 0, (name,)))
        rhs: dict[str, int] = {}
        for name, c in f.component_word(0, 0, (m,)).terms.items():
            _add(rhs, c, f.target.op_word(0, 0, (name,)))
        if Element(f.target.module, lhs) != Element(f.target.module, rhs):
            return False
    return True


def identity_morphism(M: AInfinityBimodule) -> BimoduleMorphism:
    table = {(n,): {n: 1} for n in M.module.names}
    f00 = MultilinearOp((M.module,), M.module, 0, table, label="id")
    return BimoduleMorphism(M, M, 0, {(0, 0): f00}, max_rs=M.max_rs, name="id")
