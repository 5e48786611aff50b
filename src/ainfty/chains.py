"""The length-truncated Hochschild chain complex, its differential and f_*.

Chain elements are sparse dicts mapping words (m, a_1, ..., a_n) to
coefficients. The differential b is a signed sum of operation entries: each
mu_l entry inserted into a word's algebra letters, and each mu_(r,s) entry
acting on the coefficient slot, wrapped around the word when r >= 1. The
chain map f_* of a bimodule morphism f wraps f_(r,s) around the word as b
wraps mu_(r,s), with the extra sign (-1)^(d j).

A length-n word has the mixed-radix rank pos(m) N^n + sum_k pos(a_k) N^(n-k),
N the rank of A, so prefixes, keys and suffixes concatenate by arithmetic on
ranks. Each complex builds one WordTable, the only place that decides which
words F_L holds and in what order: for each length n, the degree and F_L
column of every word by rank, the ranks in enumeration order (by degree,
then rank) and the number of words of each degree. One walk over (prefix,
operation entry, suffix) triples builds every boundary of F_L and every
matrix of f_*, reading degrees and columns from it: the work is
proportional to the number of terms, never to words times positions, and
each term is summed straight into its row of the target matrix. Neither
b nor f_* has a word-level body in the library; both reach the homology
engine as matrices only. F_L's bases hold runs of the table's order, not
words: a word is named only for a message.

The walk makes no term with a strict unit u as an algebra input but the
mu_2(u,u) insertions, with their sign flipped. The two faces beside a unit
letter (mu_2(a,u) and mu_2(u,b), or at the word's ends mu_(0,1)(m,u) and the
wrapped mu_(1,0)(u,m)) send the word to one word with opposite signs; summed
over a word's unit letters, that counts every unit face once but a face
between two units twice, so all unit faces add up to minus the (u,u) faces
(d_i s_i = d_(i+1) s_i, Loday, Cyclic Homology, 1.1). strict_unit decides
which letter, if any, is such a unit.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from .bimodules import AInfinityBimodule, BimoduleMorphism
from .errors import IndexOutOfRange, InternalInvariant, ModuleMismatch, TooLarge
from .graded import Word
from .homology import ExactMatrix, FiniteComplex
from .signs import sign

Chain = dict[Word, int]

# words of F_L a complex may hold: exterior2 at L=8 has 349 524
MAX_WORDS = 1_000_000


def normalize(chain: Chain, ring) -> Chain:
    out = {}
    for w, c in chain.items():
        c = ring.normalize(c)
        if c:
            out[w] = c
    return out


def strict_unit(M: AInfinityBimodule) -> str | None:
    """The letter u of A that b treats as a strict unit, or None.

    In the walk's signs, with lam = +-1 the coefficient of mu_2(u,u) = lam u:
    mu_2(u,b) = lam b, mu_2(a,u) = (-1)^|a| lam a, mu_(0,1)(m,u) =
    -(-1)^|m| lam m and mu_(1,0)(u,m) = lam m for every letter a, b and every
    m of M, and u is an input of no other entry of A or M.
    """
    mu2, norm = M.algebra.ops.get(2), M.ring.normalize
    for u in M.algebra.module.names if mu2 else ():
        lam = mu2.on_word((u, u)).terms.get(u)
        if lam not in (norm(1), norm(-1)):
            continue
        expected = {}
        for a, d in M.algebra.module.basis:
            expected[2, (u, a)] = {a: lam}
            expected[2, (a, u)] = {a: norm(sign(d) * lam)}
        for m, d in M.module.basis:
            expected[(0, 1), (m, u)] = {m: norm(-sign(d) * lam)}
            expected[(1, 0), (u, m)] = {m: lam}
        found = {}
        for l, op in M.algebra.ops.items():
            found.update(((l, k), v.terms) for k, v in op.entries() if u in k)
        for (r, s), op in M.ops.items():
            found.update((((r, s), k), v.terms) for k, v in op.entries() if u in k[:r] + k[r + 1 :])
        if found == expected:
            return u
    return None


def word_count(m_rank: int, a_rank: int, length: int) -> int:
    """|M| * (N^0 + ... + N^L), the number of words of F_L."""
    if a_rank < 2:
        return m_rank * (length + 1 if a_rank else 1)
    return m_rank * (a_rank ** (length + 1) - 1) // (a_rank - 1)


class WordTable(NamedTuple):
    """F_L's words by length n = 0..L, each addressed by its rank."""

    degree: list[list[int]]  # by n, then rank: the word's Hochschild degree
    column: list[list[int]]  # by n, then rank: the word's column in truncation()
    order: list[array]  # by n: the ranks in enumeration order
    counts: list[dict[int, int]]  # by n: the number of words of each degree, ascending
    sizes: dict[int, int]  # the number of F_L's words of each degree


class HochschildComplex:
    """F_L, the length-truncated chain complex CH_*(A;M), with a fixed word enumeration."""

    def __init__(self, bimodule: AInfinityBimodule, length_cutoff: int):
        self.M = bimodule
        self.A = bimodule.algebra
        self.L = length_cutoff
        self.ring = bimodule.ring
        # refuse before any word is enumerated; past N^64 the exact count is moot
        n = length_cutoff if self.A.module.rank < 2 else min(length_cutoff, 64)
        count = word_count(self.M.module.rank, self.A.module.rank, n)
        if count > MAX_WORDS:
            more = "" if n == length_cutoff else "more than "
            raise TooLarge(
                f"F_{length_cutoff} has {more}{count} words, above the limit of {MAX_WORDS}"
            )
        self._table: WordTable | None = None  # _tables()
        self._truncation: FiniteComplex | None = None  # b as F_L's matrices, built once

    def _by_rank(self, n: int) -> tuple[list[int], array]:
        """Hochschild degrees of the length-n words by rank, and the ranks in
        enumeration order (the product order, sorted stably by degree) as an
        array, which holds no int objects."""
        reduced = itertools.product([d - 1 for _, d in self.A.module.basis], repeat=n)
        tails = list(map(sum, reduced))
        degs = [-m_deg - red for _, m_deg in self.M.module.basis for red in tails]
        return degs, array("q", sorted(range(len(degs)), key=degs.__getitem__))

    def words(self, n: int) -> tuple[Word, ...]:
        """Length-n words in enumeration order, named from the order array."""
        if not 0 <= n <= self.L:
            raise IndexOutOfRange(f"length n={n} is outside 0..{self.L}, the lengths of F_L")
        return tuple(self._word(n, rank) for rank in self._tables().order[n])

    def all_words(self) -> Iterator[Word]:
        for n in range(self.L + 1):
            yield from self.words(n)

    def degree(self, word: Word) -> int:
        """Hochschild degree: n - deg(m) - sum of algebra degrees."""
        m_deg = self.M.module.degree_of(word[0])
        return -m_deg - sum(self.A.module.degree_of(n) - 1 for n in word[1:])

    def _tables(self) -> WordTable:
        """F_L's one word table, built once from _by_rank(n) for n = 0..L and
        read by words, b, every f_* and the bases of F_L and E^0. Columns
        follow truncation()'s basis: each degree's words by length, then in
        enumeration order."""
        if self._table is None:
            ranked = [self._by_rank(n) for n in range(self.L + 1)]
            counts = [dict(sorted(Counter(degs).items())) for degs, _ in ranked]
            sizes: Counter[int] = Counter()
            for by_degree in counts:
                sizes.update(by_degree)
            # all columns share one int object per index
            ints = list(range(max(sizes.values(), default=0)))
            seen, columns = dict.fromkeys(sizes, 0), []
            for (degs, order), by_degree in zip(ranked, counts):
                # the columns in enumeration order: each degree's run continues
                # from the shorter words of that degree
                in_order = []
                for j, count in by_degree.items():
                    in_order += ints[seen[j] : seen[j] + count]
                    seen[j] += count
                cols = [0] * len(degs)
                for rank, col in zip(order, in_order):
                    cols[rank] = col
                columns.append(cols)
            degrees, orders = [d for d, _ in ranked], [o for _, o in ranked]
            self._table = WordTable(degrees, columns, orders, counts, sizes)
        return self._table

    def _rank(self, letters: Word) -> int:
        out, N, apos = 0, self.A.module.rank, self.A.module.position
        for a in letters:
            out = out * N + apos(a)
        return out

    def boundaries(self) -> dict[int, ExactMatrix]:
        """Every boundary d_j: (F_L)_j -> (F_L)_{j-1} of b, in one walk over the entries.

        Each term of b is one triple (prefix P, entry, suffix S), and its
        source and target ranks follow from theirs:
        - mu_l entry K -> a, inserted after P: (P, K, S) -> (P, a, S), with
          sign (-1)^deg P;
        - mu_(r,s) entry (K_r, m, K_s) -> m': the wrap-around walk of M's
          operations, with shift -1 and no twist.
        With a strict unit u, the mu_2(u,u) terms, sign flipped, stand in for
        every term with u as an algebra input (the module docstring).
        """
        return self._walk(self.M.ops, self, -1, 0, self._insertions, strict_unit(self.M))

    def _insertions(self, block, unit: str | None) -> None:
        """Hand block every mu_l term of b with no unit input, and the
        mu_2(unit, unit) terms negated, a run of words at a time."""
        L, N, n_coeff = self.L, self.A.module.rank, self.M.module.rank
        apos, degree = self.A.module.position, self._tables().degree
        for l, op in self.A.ops.items():
            terms = [
                (self._rank(key), apos(a), c if unit not in key else -c)
                for key, value in op.entries()
                if unit not in key or key == (unit, unit)
                for a, c in value.terms.items()
            ]
            for p in range(L - l + 1):
                prefixes, p_degs = n_coeff * N**p, degree[p]
                for t in range(L - l - p + 1):
                    n, k, span = p + l + t, p + 1 + t, N**t
                    if span >= prefixes:
                        # one block per prefix and term, along the suffixes
                        for P in range(prefixes):
                            flip = p_degs[P] & 1
                            for K, a, c in terms:
                                v = -c if flip else c
                                start, t_start = (P * N**l + K) * span, (P * N + a) * span
                                block(n, start, 1, k, t_start, 1, span, (v, v))
                        continue
                    # one block per suffix and term, along the prefixes: there
                    # deg P = j + red K + red S, so the sign follows j's parity
                    for s in range(span):
                        for K, a, c in terms:
                            start, t_start = K * span + s, a * span + s
                            v = -c if (p_degs[0] - degree[n][start]) & 1 else c
                            block(n, start, N**(l + t), k, t_start, N * span, prefixes, (v, -v))

    def _walk(self, ops, target: HochschildComplex, shift: int, twist: int, more=None, unit=None):
        """The map {j: F_L's degree j -> target's degree j + shift} of an
        (r,s)-indexed family ops, in one walk over its entries with no unit
        among their algebra inputs, plus the blocks that more(block, unit)
        hands in.

        An entry (K_r, m, K_s) -> m' sends (m, K_s, S, K_r) to (m', S) with
        sign (-1)^((deg m + red K_s + red S) red K_r + twist j), j the degree
        of the source word: b is (M.ops, self, -1, 0) plus the mu_l terms,
        and f_* is (f.maps, target, -d, d). Over the suffixes S the source and
        target ranks run in step, so each entry and t is one block, and the
        work is proportional to the number of terms, never to words times
        positions.
        """
        L, N = self.L, self.A.module.rank
        mpos, t_mpos = self.M.module.position, target.M.module.position
        table, t_table = self._tables(), target._tables()
        # each degree's rows, kept free of zeros as the walk goes: a dict
        # reclaims the slots of deleted keys when it next grows
        prime = self.ring.p
        sums: dict[int, dict[int, dict[int, int]]] = {j: {} for j in table.sizes}

        def block(n, start, step, k, t_start, t_step, count, values):
            # the terms of one block shift the degree alike: check the first
            degs, cols = table.degree[n], table.column[n]
            t_degs, t_cols = t_table.degree[k], t_table.column[k]
            if t_degs[t_start] != degs[start] + shift:
                raise InternalInvariant(
                    f"image of {self._word(n, start)} has "
                    f"{target._word(k, t_start)} outside the target degree"
                )
            stop, t_stop = start + count * step, t_start + count * t_step
            for j, col, row in zip(
                degs[start:stop:step], cols[start:stop:step], t_cols[t_start:t_stop:t_step]
            ):
                acc = sums[j].get(row)
                if acc is None:
                    acc = sums[j][row] = {}
                c = acc.get(col, 0) + values[j & 1]
                if c % prime if prime else c:
                    acc[col] = c
                else:
                    del acc[col]

        if more is not None:
            more(block, unit)
        for (r, s), op in ops.items():
            for key, value in op.entries():
                if unit is not None and unit in key[:r] + key[r + 1 :]:
                    continue
                K_r, m_pos, K_s = self._rank(key[:r]), mpos(key[r]), self._rank(key[r + 1 :])
                odd = sum(self.A.module.degree_of(a) - 1 for a in key[:r]) & 1
                for t in range(L - r - s + 1):
                    span = N**t
                    start = (m_pos * N**s + K_s) * span * N**r + K_r
                    for name, c in value.terms.items():
                        # deg m + red K_s + red S = -(j + red K_r)
                        values = (-c if odd else c, -c if twist & 1 else c)
                        block(s + t + r, start, N**r, t, t_mpos(name) * span, 1, span, values)
        out = {}
        for j in list(sums):
            by_row = sums.pop(j)
            for acc in by_row.values() if prime else ():
                for col, c in acc.items():
                    acc[col] = c % prime
            by_row = {row: acc for row, acc in by_row.items() if acc}
            out[j] = ExactMatrix._adopt(t_table.sizes.get(j + shift, 0), table.sizes[j], by_row)
        return out

    def truncation(self) -> FiniteComplex:
        """F_L graded by Hochschild degree, kept, so that b is assembled once.

        Each degree's basis is a RankedWords: its words by length, then in
        enumeration order (the column order of boundaries()), held as rank
        runs and named only when read, for messages.
        """
        if self._truncation is None:
            lengths = range(self.L + 1)
            basis = {j: RankedWords(self, j, lengths) for j in self._tables().sizes}
            self._truncation = FiniteComplex(self.ring, basis, self.boundaries())
        return self._truncation

    def _column_of(self, word: Word) -> tuple[int, int] | None:
        """The degree of a word and its column in truncation(), or None past length L."""
        n = len(word) - 1
        if n > self.L:
            return None
        rank = self.M.module.position(word[0]) * self.A.module.rank**n + self._rank(word[1:])
        table = self._tables()
        return table.degree[n][rank], table.column[n][rank]

    def _word(self, n: int, rank: int) -> Word:
        """The length-n word of a rank, for messages."""
        return _word(self.M.module.names, self.A.module.names, n, rank)


def _word(m_names: tuple[str, ...], a_names: tuple[str, ...], n: int, rank: int) -> Word:
    letters = []
    for _ in range(n):
        rank, a = divmod(rank, len(a_names))
        letters.append(a_names[a])
    return (m_names[rank],) + tuple(reversed(letters))


class RankedWords(Sequence):
    """Degree j's words of the given lengths of F_L, by length, then in
    enumeration order: one run of the table's order per length n. Only the
    counts and the order arrays are held, not the complex, so no cycle keeps
    F_L alive; a word is named when it is read."""

    def __init__(self, complex_: HochschildComplex, j: int, lengths):
        self._names, self._runs = (complex_.M.module.names, complex_.A.module.names), []
        table = complex_._tables()
        for n in lengths:
            by_degree = table.counts[n]
            if by_degree.get(j):
                # the order holds the lower degrees first
                start = sum(c for d, c in by_degree.items() if d < j)
                self._runs.append((n, table.order[n], start, by_degree[j]))
        self._len = sum(run[-1] for run in self._runs)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, c: int) -> Word:
        c += self._len if c < 0 else 0
        if not 0 <= c < self._len:
            raise IndexError("basis index out of range")
        for n, order, start, count in self._runs:
            if c < count:
                return _word(*self._names, n, order[start + c])
            c -= count

    def __iter__(self) -> Iterator[Word]:
        for n, order, start, count in self._runs:
            for rank in order[start : start + count]:
                yield _word(*self._names, n, rank)


class InducedChainMap:
    """The chain map f_*: source -> target, given the complexes of f's bimodules."""

    def __init__(self, f: BimoduleMorphism, source: HochschildComplex, target: HochschildComplex):
        if source.M is not f.source or target.M is not f.target or source.L != target.L:
            raise ModuleMismatch("complexes are not f's source and target at one cutoff")
        self.f = f
        self.source = source
        self.target = target
        self.degree = -f.degree
        self._matrices: dict[int, ExactMatrix] | None = None

    def matrices(self) -> dict[int, ExactMatrix]:
        """f_* as {j: F_j}, from F_L's degree j to degree j + degree; built
        once, by b's walk over f's components with the sign (-1)^(d j)."""
        if self._matrices is None:
            f = self.f
            self._matrices = self.source._walk(f.maps, self.target, self.degree, f.degree)
        return self._matrices
