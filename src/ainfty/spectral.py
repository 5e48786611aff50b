"""Length filtration of the Hochschild complex: pages E^0/E^1 and comparison.

F_p collects the words of length at most p; the differential never increases
length, so each level is a subcomplex. The zeroth page of the induced
spectral sequence is the column complex (M (x) A^{(x)p}, b_1), built where
it is read along two independent routes: column_complex walks the mu_(0,0)
and mu_1 entries over the length-p words, quotient_columns takes the length
blocks of F_L's boundaries, which chains.HochschildComplex.boundaries
assembles from every entry. The first page is its homology; e1_rows reads
both. Columns are graded as F_L is, by Hochschild degree j, for p <= L
only; reports index E^1 by the weight q = p - j, the total unshifted degree.

The map a filtered map induces on E^0 is the diagonal blocks of its
matrices over F_L, which one walk reads for every p: b_1 from b, and
E^0(f_*) = f_{0,0} (x) id, with f_*'s sign, from f_*. That walk is the one
filtration check: an entry that lengthens a word is an internal error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .chains import HochschildComplex, InducedChainMap, RankedWords
from .errors import IndexOutOfRange, InternalInvariant
from .homology import ExactMatrix, FiniteComplex, HomologySummary
from .homology import induced_map_on_homology

Basis = dict[int, RankedWords]  # a column's words by Hochschild degree
Bases = list[Basis]  # a complex's column bases, by p = 0..L


def column_complex(complex_: HochschildComplex, p: int) -> FiniteComplex:
    """The column (M (x) A^{(x)p}, b_1) of the zeroth page, for 0 <= p <= L.

    It is graded as F_L is, by Hochschild degree j, and b_1 lowers j by one:
    in degree j it holds the length-p run of F_L's degree-j basis. This is
    the direct route, from the arity-one entries.
    """
    L = complex_.L
    if not 0 <= p <= L:
        raise IndexOutOfRange(f"column p={p} is outside 0..{L}, the lengths of F_L")
    basis = _column_basis(complex_, p)
    return FiniteComplex(complex_.ring, basis, _b1_matrices(complex_, p, basis))


def quotient_columns(complex_: HochschildComplex) -> list[FiniteComplex]:
    """Every column p <= L by the quotient route, on column_complex's basis: b
    never lengthens a word, so b_1 is the length blocks of F_L's boundaries."""
    fc = complex_.truncation()
    bases = [_column_basis(complex_, p) for p in range(complex_.L + 1)]
    b1s = _length_blocks({j: fc.boundary(j) for j in fc.basis}, bases, bases, -1)
    return [FiniteComplex(complex_.ring, basis, b1) for basis, b1 in zip(bases, b1s)]


def _column_basis(complex_: HochschildComplex, p: int) -> Basis:
    """The length-p words by Hochschild degree, in enumeration order: both routes' basis."""
    return {j: RankedWords(complex_, j, (p,)) for j in complex_._tables().counts[p]}


def _b1_matrices(complex_: HochschildComplex, p: int, basis: Basis) -> dict[int, ExactMatrix]:
    """b_1 on the length-p words from the arity-one entries, never from boundaries().

    Words are addressed by rank, as in HochschildComplex.boundaries. A term
    of b_1 is a run of words along the letters after its entry, whose degree
    shift is checked on the first word:
    - mu_(0,0) entry m -> c m': (m, T) -> (m', T) for every tail T;
    - mu_1 entry a -> c a' at slot i: (m, P, a, S) -> (m, P, a', S), signed by
      (-1)^maltese0(deg m, P, i - 1), the parity of the degree of (m, P).
    """
    N, prime = complex_.A.module.rank, complex_.ring.p

    def terms(op, pos) -> list[tuple[int, int, int]]:
        # (input, output, coefficient) of an arity-one table, by basis position
        entries = op.entries() if op else ()
        return [(pos(k[0]), pos(n), c) for k, v in entries for n, c in v.terms.items()]

    m_terms = terms(complex_.M.ops.get((0, 0)), complex_.M.module.position)
    a_terms = terms(complex_.A.ops.get(1), complex_.A.module.position)
    if not (m_terms or a_terms):
        return {}
    table = complex_._tables()
    # each word's place in its degree block: its F_L column past shorter words
    below = {j: sum(c.get(j, 0) for c in table.counts[:p]) for j in table.counts[p]}
    degs = table.degree[p]
    index = [col - below[j] for j, col in zip(degs, table.column[p])]
    sums: dict[int, dict[int, dict[int, int]]] = {j: {} for j in below}

    def run(start: int, t_start: int, count: int, v: int) -> None:
        if count and degs[t_start] != degs[start] - 1:
            raise InternalInvariant(
                f"image of {complex_._word(p, start)} has "
                f"{complex_._word(p, t_start)} outside the target degree"
            )
        stop, t_stop = start + count, t_start + count
        for j, col, row in zip(degs[start:stop], index[start:stop], index[t_start:t_stop]):
            acc = sums[j].setdefault(row, {})
            acc[col] = acc.get(col, 0) + v

    for m, n, c in m_terms:
        run(m * N**p, n * N**p, N**p, c)
    for i in range(1, p + 1) if a_terms else ():
        after = N ** (p - i)
        for P, j in enumerate(table.degree[i - 1]):
            for a, b, c in a_terms:
                run((P * N + a) * after, (P * N + b) * after, after, -c if j & 1 else c)
    for by_row in sums.values():
        for r in list(by_row):
            acc = {k: y for k, c in by_row[r].items() if (y := c % prime if prime else c)}
            if acc:
                by_row[r] = acc
            else:
                del by_row[r]
    return _column_matrices(basis, basis, -1, sums)


def _length_blocks(
    maps: dict[int, ExactMatrix], source: Bases, target: Bases, shift: int
) -> list[dict[int, ExactMatrix]]:
    """The length-p -> length-p blocks of a map between two F_L's, for every p <= L.

    maps[j] sends degree j to the target's degree j + shift. In degree j,
    F_L's basis holds the length-p words as one run, column p's degree-j
    block, so an entry (r, c) in the length-p runs, which start at
    off_{j+shift,p} and off_{j,p}, is entry (r - off_{j+shift,p}, c - off_{j,p})
    of block p. An entry into a shorter run lies deeper in the filtration and
    is dropped; one into a longer run raises InternalInvariant.
    """
    # degree -> where its length-p runs start, p = 0..L, then its size
    src_off, tgt_off = (
        {j: list(accumulate((len(b.get(j, ())) for b in bs), initial=0)) for j in set().union(*bs)}
        for bs in (source, target)
    )
    sums: list[dict[int, dict]] = [{} for _ in source]
    for j, mat in maps.items():
        cols, rows = src_off.get(j), tgt_off.get(j + shift)
        for r, row in mat.by_row.items():
            k, block_row = bisect_right(rows, r) - 1, {}  # r lies in the length-k run
            for c, v in row.items():
                p = bisect_right(cols, c) - 1
                if p < k:
                    raise InternalInvariant(
                        f"{source[p][j][c - cols[p]]} maps to the longer word "
                        f"{target[k][j + shift][r - rows[k]]}"
                    )
                if p == k:
                    block_row[c - cols[p]] = v
            if block_row:
                sums[k].setdefault(j, {})[r - rows[k]] = block_row
    return [_column_matrices(s, t, shift, acc) for s, t, acc in zip(source, target, sums)]


def _column_matrices(
    source: Basis, target: Basis, shift: int, sums: dict[int, dict]
) -> dict[int, ExactMatrix]:
    """The nonzero matrices source[j] -> target[j + shift], from their rows by j."""
    return {
        j: ExactMatrix._adopt(len(target.get(j + shift, ())), len(source[j]), by_row)
        for j, by_row in sums.items()
        if by_row
    }


def page1(complex_: HochschildComplex, p: int, q: int) -> HomologySummary:
    """E^1_{p,-q} at weight q, the total unshifted degree: H_{p-q} of column p."""
    return column_complex(complex_, p).homology(p - q)


def e1_rows(complex_: HochschildComplex):
    """E^1 by both routes, as (p, q, direct, quotient) for every column p <= L and
    weight q, in that order: the one walk that spectral and verify report. It
    builds each column once, the quotient ones after the first direct group."""
    quotient: list[FiniteComplex] = []
    for p in range(complex_.L + 1):
        direct = column_complex(complex_, p)
        for j in sorted(direct.basis, reverse=True):  # q = p - j ascending
            group = direct.homology(j)
            quotient = quotient or quotient_columns(complex_)
            yield p, p - j, group, quotient[p].homology(j)


@dataclass
class ComparisonVerdict:
    hypothesis_holds: bool
    conclusion_holds: bool
    witnessed: bool
    details: list[str]


def comparison_check(fstar: InducedChainMap) -> ComparisonVerdict:
    """Verify the comparison theorem's hypothesis and conclusion for f_*.

    Hypothesis: E^0(f_*) = f_{0,0} (x) id induces isomorphisms on every E^1
    column with p <= m, the length cutoff of f_*'s complexes. Conclusion:
    f_* induces isomorphisms on H_*(F_m). Both sides are established
    independently through the exact homology engine; the verdict records
    whether the implication was witnessed (hypothesis and conclusion both
    verified). f_*'s matrices, built once, serve both: E^0(f_*) is their
    length blocks, and a word sent to a longer one is an internal error.
    """
    src_cx, tgt_cx = fstar.source, fstar.target
    m = src_cx.L
    details: list[str] = []

    # f and f_0 raise the unshifted degree by d, so both lower j by d
    F, shift = fstar.matrices(), fstar.degree
    src_cols, tgt_cols = ([column_complex(cx, p) for p in range(m + 1)] for cx in (src_cx, tgt_cx))
    F0 = _length_blocks(F, [c.basis for c in src_cols], [c.basis for c in tgt_cols], shift)
    hypothesis = True
    for p, (src_col, tgt_col) in enumerate(zip(src_cols, tgt_cols)):
        # by weight q = p - j, ascending
        for j in sorted(set(src_col.basis) | {t - shift for t in tgt_col.basis}, reverse=True):
            if not induced_map_on_homology(src_col, tgt_col, F0[p], j, shift).is_iso:
                hypothesis = False
                details.append(f"E^1 column p={p}, weight q={p - j}: not an isomorphism")
    if hypothesis:
        details.append(f"hypothesis: [f_0] iso on all E^1 columns p <= {m}")

    src_tr, tgt_tr = src_cx.truncation(), tgt_cx.truncation()
    conclusion = True
    for j in sorted(set(src_tr.basis) | {j - shift for j in tgt_tr.basis}):
        if not induced_map_on_homology(src_tr, tgt_tr, F, j, shift).is_iso:
            conclusion = False
            details.append(f"H_{j}(F_{m}): induced map not an isomorphism")
    if conclusion:
        details.append(f"conclusion: [f_*] iso on H_*(F_{m})")

    return ComparisonVerdict(hypothesis, conclusion, hypothesis and conclusion, details)
