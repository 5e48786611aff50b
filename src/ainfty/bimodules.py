"""A-infinity bimodules, their defining equations, and morphisms.

A bimodule over an algebra A carries operations mu_{r,s}: A^r (x) M (x) A^s -> M
of degree 1 - r - s. Three constructions are provided: the diagonal bimodule
A[1], the tensor square A (x) A, and the dual bimodule with inverted grading.
Each builds its tables from the entries of the operations it starts from and
keeps every operation; bounds on r + s belong to the equation checks.

The type-(r,s) bimodule and morphism equations are sums of two composite
families, each read from the operation indices for a whole type at once:
an algebra mu_k inside an arm (the outer entries and the preimages of each
arm letter under mu_k) and an inner operation around the slot (each inner
output fed into the outer slot index). Only words with a nonzero composite
are visited; a failed check names the least such word in basis order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .errors import DegreeMismatch, ModuleMismatch
from .graded import Element, GradedModule, MultilinearOp, Word
from .signs import sign

if TYPE_CHECKING:
    from .algebra import AInfinityAlgebra


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


class AInfinityBimodule:
    """Graded module with operations mu_{r,s}, zero where ops has no entry."""

    def __init__(
        self,
        algebra: AInfinityAlgebra,
        module: GradedModule,
        ops: Mapping[tuple[int, int], MultilinearOp],
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
        self._slots: dict[tuple[int, int], dict] = {}

    @property
    def ring(self):
        return self.module.ring

    def slot_index(self, r: int, s: int) -> dict[str, list[tuple[Word, Word, int, dict]]]:
        """mu_(r,s) entries (prefix, m, suffix) by m, built once per (r, s):
        m -> [(prefix, suffix, maltese of the prefix degrees, output terms)]."""
        return _slot_index(self.ops, self._slots, self.algebra.module, r, s)


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


def morphism_op(
    source: AInfinityBimodule,
    target: AInfinityBimodule,
    r: int,
    s: int,
    degree: int,
    table: Mapping[Word, Mapping[str, int] | Element],
    label: str = "",
) -> MultilinearOp:
    """Component f_(r,s): A^r (x) M (x) A^s -> N of a morphism M -> N of the given degree."""
    return MultilinearOp(
        _op_signature(source.algebra, source.module, r, s),
        target.module,
        degree - r - s,
        table,
        label=label or f"f_({r},{s})",
    )


def _add(acc: dict[str, int], c: int, terms: Mapping[str, int]) -> None:
    for n, v in terms.items():
        acc[n] = acc.get(n, 0) + c * v


def _slot_index(ops, cache: dict, amod: GradedModule, r: int, s: int):
    """The slot index of ops[(r, s)] (empty when absent), kept in cache."""
    index = cache.get((r, s))
    if index is None:
        index = cache[(r, s)] = {}
        op = ops.get((r, s))
        for key, value in op.entries() if op is not None else ():
            prefix, suffix = key[:r], key[r + 1 :]
            mal = sum(amod.degree_of(a) - 1 for a in prefix)
            index.setdefault(key[r], []).append((prefix, suffix, mal, value.terms))
    return index


def _arm_family(A: AInfinityAlgebra, outer, m_deg, r: int, s: int, scale: int, acc):
    """Type-(r,s) terms outer(..., mu_k(...), ...), mu_k inside either arm.

    Walks each entry of the bimodule-shaped family outer ((r', s') -> op) and,
    at each arm letter, its preimages under mu_k. The sign is the reduced
    degrees in front of the letter, plus deg m once past the slot.
    """
    for k in A.ops:
        preimages = A.preimages(k)
        for (r1, s1), op in outer.items():
            left = r1 + k - 1 == r and s1 == s
            right = r1 == r and s1 + k - 1 == s
            if not (left or right):
                continue
            for key, value in op.entries():
                front = 0
                for p, letter in enumerate(key):
                    if p == r1:
                        front += m_deg(letter)
                        continue
                    if (left if p < r1 else right):
                        for pre, c in preimages.get(letter, ()):
                            word = key[:p] + pre + key[p + 1 :]
                            _add(acc.setdefault(word, {}), scale * sign(front) * c, value.terms)
                    front += A.module.degree_of(letter) - 1


def _slot_family(outer_index, inner, r: int, s: int, d: int, scale: int, acc):
    """Type-(r,s) terms outer_(r1,s1)(a.., inner_(r2,s2)(a.., m, ..), ..).

    Walks each output name of each inner entry into the outer slot index;
    the sign is d * maltese_1^{r1} of the outer prefix.
    """
    for (r2, s2), op in inner.items():
        if r2 > r or s2 > s:
            continue
        index = outer_index(r - r2, s - s2)
        for key, value in op.entries():
            for name, c in value.terms.items():
                for prefix, suffix, mal, out in index.get(name, ()):
                    word = prefix + key + suffix
                    _add(acc.setdefault(word, {}), scale * sign(d * mal) * c, out)


def _verdict(label: str, M: AInfinityBimodule, r: int, failing: dict[Word, Element]) -> Verdict:
    """Holds iff nothing fails; else names the least failing word, compared by
    basis positions (a_1..a_r, m, a_{r+1}..), with its residual."""
    if not failing:
        return Verdict(True, label=label)
    apos, mpos = M.algebra.module.position, M.module.position
    word = min(
        failing, key=lambda w: tuple(mpos(n) if i == r else apos(n) for i, n in enumerate(w))
    )
    return Verdict(False, word, failing[word], label)


def _all_types(check, x, bound: int) -> dict:
    """check(x, r, s) for every type with r + s <= bound."""
    return {
        (r, total - r): check(x, r, total - r)
        for total in range(bound + 1)
        for r in range(total + 1)
    }


def bimodule_residuals(M: AInfinityBimodule, r: int, s: int) -> dict[Word, Element]:
    """Nonzero left-hand sides of the type-(r,s) defining equation, by word.

    word = (a_1..a_r, m, a_{r+1}..a_{r+s}): algebra operations inside either
    arm of mu_{r',s'}, plus nested bimodule operations around the slot.
    """
    acc: dict[Word, dict[str, int]] = {}
    _arm_family(M.algebra, M.ops, M.module.degree_of, r, s, 1, acc)
    _slot_family(M.slot_index, M.ops, r, s, 1, 1, acc)
    return {word: e for word, terms in acc.items() if (e := Element(M.module, terms))}


def check_bimodule_equation(M: AInfinityBimodule, r: int, s: int) -> Verdict:
    label = f"{M.name}: bimodule equation ({r},{s})"
    return _verdict(label, M, r, bimodule_residuals(M, r, s))


def validate_bimodule(M: AInfinityBimodule, bound: int) -> dict:
    """The type-(r,s) equations of M for every r + s <= bound."""
    return _all_types(check_bimodule_equation, M, bound)


def diagonal_bimodule(A: AInfinityAlgebra) -> AInfinityBimodule:
    """A[1] as a bimodule over A: mu_{r,s} is mu_{r+s+1} reindexed. Its tables
    are built and validated once per algebra and kept on it with the slot
    indexes; none refers back to A, so no cycle outlives a dropped algebra."""
    if A._diagonal is None:
        shifted = A.module.shifted(-1)
        ops = {}
        for n, op in A.ops.items():
            table = {word: Element(shifted, value.terms) for word, value in op.entries()}
            for r in range(n):
                s = n - 1 - r
                ops[(r, s)] = bimodule_op(A, shifted, r, s, table, label=f"A[1] mu_({r},{s})")
        A._diagonal = shifted, ops, {}
    shifted, ops, slots = A._diagonal
    diagonal = AInfinityBimodule(A, shifted, ops, name="A[1]")
    diagonal._slots = slots
    return diagonal


def tensor_name(b1: str, b2: str) -> str:
    return f"{b1}|{b2}"


def tensor_square_bimodule(A: AInfinityAlgebra) -> AInfinityBimodule:
    """A (x) A with the product grading of A[1] (x) A[1].

    Only the families mu_{r,0} and mu_{0,s} are nonzero; the (0,0) operation
    is the product differential. Each entry of mu_n, crossed with the other
    factor's basis, gives one entry of mu_{n-1,0} (mu_n on the left factor)
    and one of mu_{0,n-1} (on the right factor, past the left one's sign).
    """
    amod = A.module
    basis = tuple(
        (tensor_name(n1, n2), (d1 - 1) + (d2 - 1))
        for n1, d1 in amod.basis
        for n2, d2 in amod.basis
    )
    module = GradedModule(basis, amod.ring)
    tables: dict[tuple[int, int], dict[Word, dict[str, int]]] = {}
    for n, op in A.ops.items():
        left, right = tables.setdefault((n - 1, 0), {}), tables.setdefault((0, n - 1), {})
        for key, value in op.entries():
            terms = value.terms
            for other, d in amod.basis:
                on_left = left.setdefault(key[:-1] + (tensor_name(key[-1], other),), {})
                on_right = right.setdefault((tensor_name(other, key[0]),) + key[1:], {})
                _add(on_left, 1, {tensor_name(t, other): c for t, c in terms.items()})
                _add(on_right, sign(d - 1), {tensor_name(other, t): c for t, c in terms.items()})
    ops = {
        (r, s): bimodule_op(A, module, r, s, table, label=f"AxA mu_({r},{s})")
        for (r, s), table in tables.items()
    }
    return AInfinityBimodule(A, module, ops, name="AxA")


def dual_name(name: str) -> str:
    return name + "^"


def dual_bimodule(M: AInfinityBimodule) -> AInfinityBimodule:
    """The dual module with inverted grading and transposed, signed operations.

    (mu*_{r,s}(a_1..a_r, m*, a_{r+1}..a_{r+s}))(m)
        = (-1)^ddag m*(mu_{s,r}(a_{r+1}..a_{r+s}, m, a_1..a_r)),
    ddag = maltese_1^r (maltese_{r+1}^{r+s} + deg m* + deg m) + deg m* + 1.
    """
    A = M.algebra
    amod = A.module
    dual_mod = GradedModule(
        tuple((dual_name(n), -d) for n, d in M.module.basis), M.module.ring
    )
    tables: dict[tuple[int, int], dict[Word, dict[str, int]]] = {}
    for (s, r), source in M.ops.items():
        table = tables.setdefault((r, s), {})
        for key, value in source.entries():
            right, y, left = key[:s], key[s], key[s + 1 :]
            left_mal = sum(amod.degree_of(n) - 1 for n in left)
            right_mal = sum(amod.degree_of(n) - 1 for n in right)
            y_deg = M.module.degree_of(y)
            for x, c in value.terms.items():
                mstar_deg = -M.module.degree_of(x)
                ddag = left_mal * (right_mal + mstar_deg + y_deg) + mstar_deg + 1
                table.setdefault(left + (dual_name(x),) + right, {})[dual_name(y)] = sign(ddag) * c
    ops = {
        (r, s): bimodule_op(A, dual_mod, r, s, table, label=f"{M.name}* mu_({r},{s})")
        for (r, s), table in tables.items()
    }
    return AInfinityBimodule(A, dual_mod, ops, name=f"{M.name}^-*")


@dataclass
class BimoduleMorphism:
    """Family f_{r,s}: A^r (x) M (x) A^s -> N of degree d - r - s."""

    source: AInfinityBimodule
    target: AInfinityBimodule
    degree: int
    maps: dict[tuple[int, int], MultilinearOp]
    name: str = "f"
    _slots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def slot_index(self, r: int, s: int) -> dict[str, list[tuple[Word, Word, int, dict]]]:
        """f_(r,s) entries by the M name in the slot, as AInfinityBimodule.slot_index."""
        return _slot_index(self.maps, self._slots, self.source.algebra.module, r, s)


def morphism_sides(f: BimoduleMorphism, r: int, s: int) -> dict[Word, tuple[Element, Element]]:
    """Both sides of the type-(r,s) morphism equation on every word a composite reaches.

    The left side feeds f around the slot into mu^N; the right side is the
    bimodule equation of M with f as the outer operation, times (-1)^d.
    """
    M, N, d = f.source, f.target, f.degree
    lhs: dict[Word, dict[str, int]] = {}
    rhs: dict[Word, dict[str, int]] = {}
    _slot_family(N.slot_index, f.maps, r, s, d, 1, lhs)
    _arm_family(M.algebra, f.maps, M.module.degree_of, r, s, sign(d), rhs)
    _slot_family(f.slot_index, M.ops, r, s, 1, sign(d), rhs)
    return {
        w: (Element(N.module, lhs.get(w, {})), Element(N.module, rhs.get(w, {})))
        for w in lhs.keys() | rhs.keys()
    }


def check_morphism_equation(f: BimoduleMorphism, r: int, s: int) -> Verdict:
    label = f"{f.name}: morphism equation ({r},{s})"
    sides = morphism_sides(f, r, s).items()
    return _verdict(label, f.source, r, {w: lhs - rhs for w, (lhs, rhs) in sides if lhs != rhs})


def validate_morphism(f: BimoduleMorphism, bound: int) -> dict:
    """The type-(r,s) equations of f for every r + s <= bound."""
    return _all_types(check_morphism_equation, f, bound)


def identity_morphism(M: AInfinityBimodule) -> BimoduleMorphism:
    table = {(n,): {n: 1} for n in M.module.names}
    f00 = morphism_op(M, M, 0, 0, 0, table, label="id")
    return BimoduleMorphism(M, M, 0, {(0, 0): f00}, name="id")
