"""The length-truncated Hochschild chain complex and its differential.

Chain elements are sparse dicts mapping words (m, a_1, ..., a_n) to
coefficients. The differential is the sum of components b_{i,l}: the i = 0
term acts on the coefficient slot, interior terms insert mu_l into the
algebra letters, and the overlapping terms wrap the word around the
coefficient slot with the star sign. b is assembled from the operations that
exist: each mu_l at each interior position and each mu_(r,s) once, so the
(i, l) pairs whose operation is missing are never visited.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .bimodules import AInfinityBimodule, BimoduleMorphism
from .errors import ModuleMismatch
from .graded import Word
from .homology import FiniteComplex
from .signs import maltese0, sign, star_sign

Chain = dict[Word, int]


def add_into(acc: Chain, word: Word, c: int) -> None:
    acc[word] = acc.get(word, 0) + c


def normalize(chain: Chain, ring) -> Chain:
    out = {}
    for w, c in chain.items():
        c = ring.normalize(c)
        if c:
            out[w] = c
    return out


def add(x: Chain, y: Chain, ring) -> Chain:
    acc = dict(x)
    for w, c in y.items():
        add_into(acc, w, c)
    return normalize(acc, ring)


class HochschildComplex:
    """F_L-truncated chain complex CH_*(A;M) with a fixed word enumeration."""

    def __init__(self, bimodule: AInfinityBimodule, length_cutoff: int = 4):
        self.M = bimodule
        self.A = bimodule.algebra
        self.L = length_cutoff
        self.ring = bimodule.ring
        # length n -> (words, their Hochschild degrees), in enumeration order
        self._words: dict[int, tuple[tuple[Word, ...], tuple[int, ...]]] = {}
        # b as matrices, built once by spectral.py: F_m by m, E^0 columns by p, route,
        # and F_m's length-preserving entries by m, then word length
        self.truncations: dict[int, FiniteComplex] = {}
        self.columns: dict[int, dict] = {}
        self.length_blocks: dict[int, dict] = {}

    def _graded_words(self, n: int) -> tuple[tuple[Word, ...], tuple[int, ...]]:
        """Length-n words sorted by (degree, slot positions), with their degrees."""
        out = self._words.get(n)
        if out is None:
            # product yields slot-position order; a stable sort by degree keeps
            # it. The reduced-degree product runs in step with the name product.
            amod, mbasis = self.A.module, self.M.module.basis
            reduced = itertools.product([d - 1 for _, d in amod.basis], repeat=n)
            tails = list(zip(itertools.product(amod.names, repeat=n), map(sum, reduced)))
            words = [(m,) + rest for m, _ in mbasis for rest, _ in tails]
            degs = [-m_deg - red for _, m_deg in mbasis for _, red in tails]
            order = sorted(range(len(words)), key=degs.__getitem__)
            out = tuple(words[k] for k in order), tuple(degs[k] for k in order)
            self._words[n] = out
        return out

    def words(self, n: int) -> tuple[Word, ...]:
        """Length-n words, ordered by (degree, slot positions); built once per n."""
        return self._graded_words(n)[0]

    def degrees(self, n: int) -> tuple[int, ...]:
        """Hochschild degrees of words(n), position by position."""
        return self._graded_words(n)[1]

    def all_words(self) -> Iterator[Word]:
        for n in range(self.L + 1):
            yield from self.words(n)

    def degree(self, word: Word) -> int:
        """Hochschild degree: n - deg(m) - sum of algebra degrees."""
        m_deg = self.M.module.degree_of(word[0])
        return -m_deg - sum(self.A.module.degree_of(n) - 1 for n in word[1:])

    def summands(self, word: Word) -> Iterator[tuple[int, int, Word, int]]:
        """Every nonzero term (i, l, output word, unnormalized coefficient) of b.

        Visits each mu_l at i = 1..n-l+1, and each mu_(r,s) with r + s <= n
        once: at i = 0 when r = 0, else wrapped at i = n-r+1, l = r+s+1.
        """
        n = len(word) - 1
        m, letters = word[0], word[1:]
        # front[k] = maltese0(deg m, degs, k); the star sign is
        # front[i-1] * maltese(i, n) = front[i-1] * (front[n] - front[i-1])
        front = [self.M.module.degree_of(m)]
        for a in letters:
            front.append(front[-1] + self.A.module.degree_of(a) - 1)
        for (r, s), op in self.M.ops.items():
            if r + s > n:
                continue
            if r == 0:
                i, l, key, suffix, sv = 0, s + 1, word[: s + 1], letters[s:], 1
            else:
                i, l = n - r + 1, r + s + 1
                key = letters[i - 1 :] + (m,) + letters[:s]
                suffix = letters[s : i - 1]
                sv = sign(front[i - 1] * (front[n] - front[i - 1]))
            hit = op.table.get(key)
            if hit is not None:
                for name, c in hit.terms.items():
                    yield i, l, (name,) + suffix, sv * c
        for l, op in self.A.ops.items():
            for i in range(1, n - l + 2):
                hit = op.table.get(letters[i - 1 : i - 1 + l])
                if hit is not None:
                    sv = sign(front[i - 1])
                    head, tail = word[:i], letters[i - 1 + l :]
                    for name, c in hit.terms.items():
                        yield i, l, head + (name,) + tail, sv * c

    def b_component(self, word: Word, i: int, l: int) -> Chain:
        """Single summand b_{i,l}, filtered from summands; out-of-range gives zero."""
        acc: Chain = {}
        for i2, l2, w, c in self.summands(word):
            if i2 == i and l2 == l:
                add_into(acc, w, c)
        return normalize(acc, self.ring)

    def differential_word(self, word: Word) -> Chain:
        """b on one word: the normalized sum of summands(word), uncached."""
        acc: Chain = {}
        for _, _, w, c in self.summands(word):
            add_into(acc, w, c)
        return normalize(acc, self.ring)

    def differential(self, x: Chain) -> Chain:
        acc: Chain = {}
        for word, c in x.items():
            if len(word) - 1 > self.L:
                raise ModuleMismatch("chain exceeds the length cutoff")
            for w, v in self.differential_word(word).items():
                add_into(acc, w, c * v)
        return normalize(acc, self.ring)

    def b1_word(self, word: Word) -> Chain:
        """Length-preserving part of b, built from mu_1 and mu_{0,0} only.

        Independent of summands; used as the direct route to the zeroth
        page of the length filtration.
        """
        m, letters = word[0], word[1:]
        a_degs = [self.A.module.degree_of(a) for a in letters]
        m_deg = self.M.module.degree_of(m)
        acc: Chain = {}
        for name, c in self.M.op_word(0, 0, (m,)).terms.items():
            add_into(acc, (name,) + letters, c)
        mu1 = self.A.mu(1)
        if mu1 is not None:
            for i in range(1, len(letters) + 1):
                s = sign(maltese0(m_deg, a_degs, i - 1))
                for name, c in mu1.on_word((letters[i - 1],)).terms.items():
                    add_into(
                        acc, (m,) + letters[: i - 1] + (name,) + letters[i:], s * c
                    )
        return normalize(acc, self.ring)


class InducedChainMap:
    """The chain map f_*: source -> target, given the complexes of f's bimodules."""

    def __init__(self, f: BimoduleMorphism, source: HochschildComplex, target: HochschildComplex):
        if source.M is not f.source or target.M is not f.target or source.L != target.L:
            raise ModuleMismatch("complexes are not f's source and target at one cutoff")
        self.f = f
        self.source = source
        self.target = target
        self.degree = -f.degree

    def on_word(self, word: Word) -> Chain:
        n = len(word) - 1
        m, letters = word[0], word[1:]
        deg = self.source.degree(word)
        a_degs = [self.source.A.module.degree_of(a) for a in letters]
        m_deg = self.source.M.module.degree_of(m)
        acc: Chain = {}
        for (r, s), op in self.f.maps.items():
            if r + s > n:
                continue
            key = letters[n - r :] + (m,) + letters[:s]
            out = op.on_word(key)
            if out.is_zero():
                continue
            dag = star_sign(m_deg, a_degs, n - r + 1) + self.f.degree * deg
            sv = sign(dag)
            suffix = letters[s : n - r]
            for name, c in out.terms.items():
                add_into(acc, (name,) + suffix, sv * c)
        return normalize(acc, self.target.ring)

    def __call__(self, x: Chain) -> Chain:
        acc: Chain = {}
        for word, c in x.items():
            for w, v in self.on_word(word).items():
                add_into(acc, w, c * v)
        return normalize(acc, self.target.ring)


class ComposedChainMap:
    """Word-wise composite g_* . f_*; composition lives at the chain level."""

    def __init__(self, g: InducedChainMap, f: InducedChainMap):
        if f.f.target.module != g.f.source.module:
            raise ModuleMismatch("chain maps do not compose")
        self.g = g
        self.f = f
        self.source = f.source
        self.target = g.target
        self.degree = f.degree + g.degree

    def on_word(self, word: Word) -> Chain:
        return self.g(self.f.on_word(word))

    def __call__(self, x: Chain) -> Chain:
        return self.g(self.f(x))


def compose_induced(g: InducedChainMap, f: InducedChainMap) -> ComposedChainMap:
    return ComposedChainMap(g, f)

