"""The Hochschild cup product on CH^*(A).

Only diagonal coefficients admit the product: two cochain values are fed into
a higher multiplication mu_{k+2} together with k spectator letters. Degrees
in the sign exponent are CH^*(A) degrees (the generic total degree plus one);
cochains themselves are stored in the generic convention throughout.
"""

from __future__ import annotations

import itertools

from .cochains import Cochain, Components, add_entry, codifferential
from .errors import IndexOutOfRange, ModuleMismatch
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


def cup_component(
    f: Cochain, g: Cochain, m: int, n: int, k: int, j1: int, j2: int
) -> dict[Word, dict[str, int]]:
    """Table of f cup_{k,j1,j2} g on arity m+n+k, for one insertion pattern."""
    _require_diagonal(f)
    _require_diagonal(g)
    if not (k >= 0 and 1 <= j1 <= n + k and j1 + m <= j2 <= m + k + 1):
        raise IndexOutOfRange(f"cup indices (k={k}, j1={j1}, j2={j2}) out of range")
    A = f.A
    amod = A.module
    op = A.mu(k + 2)
    table_f = f.component(m)
    table_g = g.component(n)
    out: dict[Word, dict[str, int]] = {}
    if op is None or not table_f or not table_g:
        return out
    deg_f, deg_g = cup_degree(f), cup_degree(g)
    free = k  # letters not consumed by f or g
    for wf, vf in table_f.items():
        for wg, vg in table_g.items():
            for spectators in itertools.product(amod.names, repeat=free):
                pre = spectators[: j1 - 1]
                mid = spectators[j1 - 1 : j2 - 1 - m]
                post = spectators[j2 - 1 - m :]
                word = pre + wf + mid + wg + post
                degs = [amod.degree_of(a) for a in word]
                s_exp = cup_sign_exponent(deg_f, deg_g, degs, j1, j2)
                sv = sign(s_exp)
                for name_f, cf in vf.items():
                    for name_g, cg in vg.items():
                        hit = op.on_word(pre + (name_f,) + mid + (name_g,) + post)
                        for t, c in hit.terms.items():
                            add_entry(out, word, t, sv * cf * cg * c)
    return out


def cup(f: Cochain, g: Cochain) -> Cochain:
    """f cup g, summed over all components, insertions and spectator counts.

    Output components beyond the arity cutoff are dropped and flagged, same
    as the codifferential.
    """
    _require_diagonal(f)
    _require_diagonal(g)
    if f.M.module != g.M.module:
        raise ModuleMismatch("cochains over different coefficient modules")
    cutoff = min(f.cutoff, g.cutoff)
    acc: Components = {}
    truncated = f.truncated or g.truncated
    for m, table_f in f.components.items():
        for n, table_g in g.components.items():
            for k_arity in f.A.ops:
                k = k_arity - 2
                if k < 0:
                    continue
                if m + n + k > cutoff:
                    truncated = True
                    continue
                tgt = acc.setdefault(m + n + k, {})
                for j1 in range(1, n + k + 1):
                    for j2 in range(j1 + m, m + k + 2):
                        part = cup_component(f, g, m, n, k, j1, j2)
                        for word, value in part.items():
                            for t, c in value.items():
                                add_entry(tgt, word, t, c)
    # total degree: additive in the CH^*(A) convention
    out_degree = (cup_degree(f) + cup_degree(g)) - 1
    return Cochain(f.M, out_degree, acc, cutoff, truncated)


def leibniz_sides(f: Cochain, g: Cochain) -> tuple[Cochain, Cochain]:
    """beta(f cup g) and beta(f) cup g + (-1)^{|f|} f cup beta(g), |f| in CH^*(A)."""
    lhs = codifferential(cup(f, g))
    rhs = cup(codifferential(f), g).add(
        cup(f, codifferential(g)).scale(1 if cup_degree(f) % 2 == 0 else -1)
    )
    return lhs, rhs
