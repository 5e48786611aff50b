"""The Hochschild cup product on CH^*(A).

Only diagonal coefficients admit the product. It is read from the entries of
each mu_{k+2}, k >= 0: at a pair of letters i1 < i2 of an entry, an input
word of f valued at letter i1 replaces it, one of g valued at letter i2
replaces that, and the k other letters are spectators. Every insertion is
reached, arity-0 factors included, so where A has a strict unit 1 the arity-0
cochain valued at 1 is a two-sided unit. Degrees in the sign exponent are
CH^*(A) degrees (the generic total degree plus one); cochains themselves are
stored in the generic convention throughout.
"""

from __future__ import annotations

import itertools

from .cochains import Cochain, Components, add_entry, codifferential
from .errors import ModuleMismatch
from .graded import Word
from .signs import maltese, sign


def _require_diagonal(f: Cochain):
    # diagonal coefficients: the module of the coefficients is shift(A)
    if f.M.module != f.A.module.shifted(-1):
        raise ModuleMismatch("cup product requires diagonal coefficients CH^*(A)")


def cup_degree(f: Cochain) -> int:
    """Degree of f in the CH^*(A) convention."""
    return f.degree + 1


def cup_sign_exponent(
    deg_f: int, deg_g: int, degs: list[int], j1: int, j2: int
) -> int:
    return (deg_f - 1) * maltese(degs, 1, j1 - 1) + (deg_g - 1) * (
        maltese(degs, 1, j2 - 1) + deg_f
    )


def _by_value(f: Cochain) -> dict[str, list[tuple[int, Word, int]]]:
    """f's entries by value name: name -> [(arity, input word, coefficient)]."""
    index: dict[str, list[tuple[int, Word, int]]] = {}
    for m, table in f.components.items():
        for word, value in table.items():
            for name, c in value.items():
                index.setdefault(name, []).append((m, word, c))
    return index


def cup(f: Cochain, g: Cochain) -> Cochain:
    """f cup g: one term per entry of mu_{k+2}, letter pair i1 < i2 and pair of
    words of f and g valued at those letters, f's block at j1 = i1 + 1 and
    g's at j2 = i2 + m (m = len of f's word).

    Output components beyond the arity cutoff are dropped and flagged, same
    as the codifferential.
    """
    _require_diagonal(f)
    _require_diagonal(g)
    if f.M.module != g.M.module:
        raise ModuleMismatch("cochains over different coefficient modules")
    cutoff = min(f.cutoff, g.cutoff)
    spectators = [arity - 2 for arity in f.A.ops if arity >= 2]
    truncated = f.truncated or g.truncated or any(
        m + n + k > cutoff for m in f.components for n in g.components for k in spectators
    )
    values_f, values_g = _by_value(f), _by_value(g)
    deg_f, deg_g = cup_degree(f), cup_degree(g)
    degree_of = f.A.module.degree_of
    acc: Components = {}
    for arity, op in f.A.ops.items():
        for key, value in op.entries():
            for i1, i2 in itertools.combinations(range(arity), 2):
                for m, wf, cf in values_f.get(key[i1], ()):
                    for n, wg, cg in values_g.get(key[i2], ()):
                        if m + n + arity - 2 > cutoff:
                            continue
                        word = key[:i1] + wf + key[i1 + 1 : i2] + wg + key[i2 + 1 :]
                        degs = [degree_of(a) for a in word]
                        sv = sign(cup_sign_exponent(deg_f, deg_g, degs, i1 + 1, i2 + m))
                        tgt = acc.setdefault(len(word), {})
                        for t, c in value.terms.items():
                            add_entry(tgt, word, t, sv * cf * cg * c)
    # total degree: additive in the CH^*(A) convention
    return Cochain(f.M, deg_f + deg_g - 1, acc, cutoff, truncated)


def leibniz_sides(f: Cochain, g: Cochain) -> tuple[Cochain, Cochain]:
    """beta(f cup g) and beta(f) cup g + (-1)^{|f|} f cup beta(g), |f| in CH^*(A)."""
    lhs = codifferential(cup(f, g))
    rhs = cup(codifferential(f), g).add(
        cup(f, codifferential(g)).scale(1 if cup_degree(f) % 2 == 0 else -1)
    )
    return lhs, rhs
