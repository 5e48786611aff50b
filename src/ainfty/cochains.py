"""The truncated Hochschild cochain complex, its codifferential and duality.

A cochain of total degree j with coefficients in a bimodule M stores one
sparse table per arity n (components beyond the arity cutoff are dropped and
flagged). The codifferential raises the total degree by one and never lowers
arity, so every retained component is computed exactly.

coboundary is the one body of beta, on one elementary cochain, and
codifferential is its linear extension to a validated Cochain; the cup
product and the beta.beta and phi checks read beta through them.

Duality: phi turns a functional on the chain complex into a cochain with
coefficients in the dual bimodule, with the sign (-1)^{deg(m) * maltese_1^n}.
It has degree zero, so the arity <= L cochains with coefficients in M are the
linear dual of F_L over M's dual bimodule: the cohomology command reads
H^* from that chain complex by universal coefficients instead of building
a cochain complex.
"""

from __future__ import annotations

from typing import Mapping

from .bimodules import AInfinityBimodule, dual_bimodule, dual_name
from .chains import HochschildComplex, normalize
from .errors import DegreeMismatch, ModuleMismatch
from .graded import Word
from .signs import maltese, sign

# arity -> input word -> {output basis name: coefficient}
Components = dict[int, dict[Word, dict[str, int]]]


def add_entry(table: dict[Word, dict[str, int]], word: Word, name: str, c: int) -> None:
    """table[word][name] += c, creating the entry on first use."""
    slot = table.setdefault(word, {})
    slot[name] = slot.get(name, 0) + c


class Cochain:
    """Element of the arity-truncated complex CH^*(A;M) of one total degree."""

    def __init__(
        self,
        bimodule: AInfinityBimodule,
        degree: int,
        components: Mapping[int, Mapping[Word, Mapping[str, int]]],
        cutoff: int,
        truncated: bool = False,
    ):
        self.M = bimodule
        self.A = bimodule.algebra
        self.degree = degree
        self.cutoff = cutoff
        self.truncated = truncated
        ring = bimodule.ring
        amod = self.A.module
        mmod = bimodule.module
        clean: Components = {}
        for n, table in components.items():
            if n > cutoff:
                raise DegreeMismatch(f"component arity {n} exceeds the cutoff {cutoff}")
            good: dict[Word, dict[str, int]] = {}
            for word, value in table.items():
                word = tuple(word)
                in_deg = sum(amod.degree_of(a) for a in word)
                out: dict[str, int] = {}
                for name, c in value.items():
                    c = ring.normalize(c)
                    if not c:
                        continue
                    if mmod.degree_of(name) != in_deg + degree - n:
                        raise DegreeMismatch(
                            f"cochain entry {word} -> {name} breaks the degree rule"
                        )
                    out[name] = c
                if out:
                    good[word] = out
            if good:
                clean[n] = good
        self.components = clean

    def is_zero(self) -> bool:
        return not self.components

    def component(self, n: int) -> dict[Word, dict[str, int]]:
        return self.components.get(n, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.M.module == other.M.module
            and self.components == other.components
        )

    def add(self, other: "Cochain") -> "Cochain":
        if self.M.module != other.M.module:
            raise ModuleMismatch("cochains over different coefficient modules")
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise DegreeMismatch("cochains of different total degree")
        acc: Components = {}
        for src in (self.components, other.components):
            for n, table in src.items():
                tgt = acc.setdefault(n, {})
                for w, val in table.items():
                    for name, c in val.items():
                        add_entry(tgt, w, name, c)
        deg = other.degree if self.is_zero() else self.degree
        return Cochain(
            self.M, deg, acc, self.cutoff, self.truncated or other.truncated
        )

    def scale(self, c: int) -> "Cochain":
        acc = {
            n: {w: {name: c * v for name, v in val.items()} for w, val in table.items()}
            for n, table in self.components.items()
        }
        return Cochain(self.M, self.degree, acc, self.cutoff, self.truncated)


def elementary_cochain(
    M: AInfinityBimodule, word: Word, out_name: str, cutoff: int, coeff: int = 1
) -> Cochain:
    """The dual-basis cochain sending one input word to one basis element."""
    amod = M.algebra.module
    n = len(word)
    degree = M.module.degree_of(out_name) - sum(amod.degree_of(a) for a in word) + n
    return Cochain(M, degree, {n: {tuple(word): {out_name: coeff}}}, cutoff)


def coboundary(
    M: AInfinityBimodule, degree: int, cutoff: int, n: int, word: Word, name: str
) -> dict[tuple[int, Word, str], int]:
    """beta of the elementary cochain word -> name as {(arity, word, output): c}.

    Terms beyond the arity cutoff are left out. The first family inserts an
    algebra operation, read from the preimage index of each mu table, with a
    running prefix sum of reduced degrees as sign; the second wraps each
    mu_(r,s) entry around the value, read from the bimodule's slot index.
    """
    A = M.algebra
    acc: dict[tuple[int, Word, str], int] = {}
    front = None  # front[i - 1]: reduced degrees of word[: i - 1]
    for mu_arity in A.ops if n else ():
        arity = n + mu_arity - 1
        if arity > cutoff:
            continue
        if front is None:
            front = [0]
            for letter in word[:-1]:
                front.append(front[-1] + A.module.degree_of(letter) - 1)
        preimages = A.preimages(mu_arity)
        for i, letter in enumerate(word, 1):
            for pre, pc in preimages.get(letter, ()):
                key = (arity, word[: i - 1] + pre + word[i:], name)
                acc[key] = acc.get(key, 0) + sign(front[i - 1]) * pc
    for r, s in M.ops:
        arity = n + r + s
        if arity > cutoff:
            continue
        for prefix, suffix, mal, out in M.slot_index(r, s).get(name, ()):
            sv = sign(degree * (mal + 1) + 1)
            target = prefix + word + suffix
            for out_name, v in out.items():
                key = (arity, target, out_name)
                acc[key] = acc.get(key, 0) + sv * v
    normal = M.ring.normalize
    return {key: c for key, c in zip(acc, map(normal, acc.values())) if c}


def codifferential(f: Cochain) -> Cochain:
    """beta(f): degree + 1, the linear extension of coboundary over f's entries.

    Components that would exceed the arity cutoff are dropped and reported
    via the truncated flag.
    """
    wraps = [r + s for r, s in f.M.ops]
    grown = wraps + [mu_arity - 1 for mu_arity in f.A.ops]
    truncated = f.truncated or any(
        n + l > f.cutoff for n in f.components for l in (grown if n else wraps)
    )
    acc: Components = {}
    for n, table in f.components.items():
        for word, value in table.items():
            for name, c in value.items():
                for (k, w, out), v in coboundary(f.M, f.degree, f.cutoff, n, word, name).items():
                    add_entry(acc.setdefault(k, {}), w, out, c * v)
    return Cochain(f.M, f.degree + 1, acc, f.cutoff, truncated)


class DualChainElement:
    """Functional on the truncated chain complex, spanned by word duals."""

    def __init__(self, complex_: HochschildComplex, terms: Mapping[Word, int]):
        self.complex = complex_
        self.terms = normalize({tuple(w): c for w, c in terms.items()}, complex_.ring)

    def degree(self) -> int | None:
        degs = {self.complex.degree(w) for w in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other):
        return isinstance(other, DualChainElement) and self.terms == other.terms


def b_star(psi: DualChainElement) -> DualChainElement:
    """(b* psi)(w) = psi(b(w)), read off the rows of psi's words in F_L's boundaries.

    Each word is placed by its rank, so a call costs the rows of psi's
    words; only the words of the result are named.
    """
    cx, acc = psi.complex, {}
    fc = cx.truncation()
    for w, c in psi.terms.items():
        place = cx._column_of(w)
        if place is None:
            continue
        d, row = place
        for col, v in fc.boundary(d + 1).by_row.get(row, {}).items():
            acc[d + 1, col] = acc.get((d + 1, col), 0) + c * v
    return DualChainElement(cx, _named(cx, acc))


def _named(cx: HochschildComplex, acc: dict[tuple[int, int], int]) -> dict[Word, int]:
    """A functional by (degree, column) of F_L, by word."""
    basis = cx.truncation().basis
    return {basis[j][col]: c for (j, col), c in acc.items()}


def duality_iso(
    psi: DualChainElement, dual: AInfinityBimodule | None = None, cutoff: int | None = None
) -> Cochain:
    """phi: functionals on CH_*(A;M) -> CH^*(A;M^{-*}), degree zero."""
    cx = psi.complex
    dual = dual if dual is not None else dual_bimodule(cx.M)
    cutoff = cx.L if cutoff is None else cutoff
    amod = cx.A.module
    comps: Components = {}
    for (m, *letters), c in psi.terms.items():
        word = tuple(letters)
        n = len(word)
        degs = [amod.degree_of(a) for a in word]
        s_exp = cx.M.module.degree_of(m) * maltese(degs, 1, n)
        add_entry(comps.setdefault(n, {}), word, dual_name(m), sign(s_exp) * c)
    deg = psi.degree()
    if deg is None:
        deg = 0
    return Cochain(dual, deg, comps, cutoff)
