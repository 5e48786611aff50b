"""Hochschild chain complex: degrees, differential components, induced maps."""

import itertools
import random
import tracemalloc

import pytest

from ainfty.algebra import AInfinityAlgebra, validate
from ainfty.bimodules import (
    AInfinityBimodule,
    BimoduleMorphism,
    bimodule_op,
    diagonal_bimodule,
    dual_bimodule,
    identity_morphism,
    tensor_square_bimodule,
)
from ainfty.chains import (
    HochschildComplex,
    InducedChainMap,
    normalize,
    strict_unit,
    word_count,
)
from ainfty.cochains import cocycle_to_morphism, codifferential, elementary_cochain
from ainfty.documents import parse, serialize
from ainfty.errors import IndexOutOfRange, Inhomogeneous, ModuleMismatch, TooLarge, ZeroElement
from ainfty.fixtures import FIXTURE_NAMES
from ainfty.graded import GradedModule, MultilinearOp
from ainfty.rings import Z
from ainfty.spectral import column_complex

from helpers import (
    ALGEBRA_FIXTURES,
    ComposedChainMap,
    add,
    b_component,
    boundaries_oracle,
    b_component_oracle,
    chain_degree,
    cochain_basis,
    cyclic_group_document,
    degree_one_document,
    diagonal_b_word,
    differential,
    differential_word,
    induced_chain,
    induced_matrices_oracle,
    induced_on_word,
    load,
    load_reordered,
    mu1_algebra,
    renamed_document,
    symmetric_group_document,
    truncation_oracle,
    unitalized_mu3_document,
)


def all_bimodules(name, p=None):
    doc = load(name, p)
    A = doc.algebra
    diag = diagonal_bimodule(A)
    return {
        "diagonal": diag,
        "tensor_square": tensor_square_bimodule(A),
        "dual": dual_bimodule(diag),
    }


def test_hochschild_degree_examples():
    m = GradedModule((("m", 2),), Z)
    a = GradedModule((("p", 1), ("q", 0), ("r", 3)), Z)
    from ainfty.algebra import AInfinityAlgebra
    from ainfty.bimodules import AInfinityBimodule

    A = AInfinityAlgebra(a, {})
    M = AInfinityBimodule(A, m, {})
    cx = HochschildComplex(M, 4)
    assert cx.degree(("m",)) == -2
    m0 = GradedModule((("m0", 0),), Z)
    M0 = AInfinityBimodule(A, m0, {})
    cx0 = HochschildComplex(M0, 4)
    assert cx0.degree(("m0", "p", "p", "p")) == 0
    m1 = GradedModule((("m1", 1),), Z)
    M1 = AInfinityBimodule(A, m1, {})
    cx1 = HochschildComplex(M1, 4)
    assert cx1.degree(("m1", "q", "r")) == -2


def test_chain_degree_errors():
    M = all_bimodules("exterior1")["diagonal"]
    cx = HochschildComplex(M, 3)
    with pytest.raises(ZeroElement):
        chain_degree(cx, {})
    with pytest.raises(Inhomogeneous):
        chain_degree(cx, {("1",): 1, ("x",): 1})


def test_b_component_leading_term():
    # i=0, l=1 applies the bimodule differential with sign +1
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    cx = HochschildComplex(N, 3)
    out = b_component(cx, ("v", "e"), 0, 1)
    assert out == {("w", "e"): 1}


def test_b_component_interior_sign():
    # i=1, l=1 carries (-1)^{deg m}
    m = GradedModule((("u", 0), ("v", 1)), Z)
    from ainfty.algebra import from_dga

    prod = MultilinearOp((m, m), m, 0, {})
    diff = MultilinearOp((m,), m, 1, {("u",): {"v": 1}})
    A = from_dga(m, prod, diff)
    M = diagonal_bimodule(A)
    cx = HochschildComplex(M, 3)
    # coefficient slot u has shifted degree -1: sign (-1)^{-1} = -1
    assert b_component(cx, ("u", "u"), 1, 1) == {("u", "v"): -1}
    # coefficient slot v has shifted degree 0: sign +1
    assert b_component(cx, ("v", "u"), 1, 1) == {("v", "v"): 1}


def test_b_component_out_of_range_is_zero():
    M = all_bimodules("exterior2")["diagonal"]
    cx = HochschildComplex(M, 3)
    w = ("x", "y")
    assert b_component(cx, w, 5, 1) == {}
    assert b_component(cx, w, 0, 4) == {}


def test_overlapping_term_against_specialized_diagonal_formula():
    for name in ("exterior2", "dual_numbers", "mu3_square_zero"):
        A = load(name).algebra
        M = diagonal_bimodule(A)
        cx = HochschildComplex(M, 4)
        for w in cx.all_words():
            assert differential_word(cx, w) == diagonal_b_word(A, w), w


@pytest.mark.parametrize("p", [None, 3])
def test_differential_matches_per_summand_oracle(p):
    # b is assembled from the operations that exist; the oracle visits every
    # (i, l) pair and looks up the one operation each names
    for name in ALGEBRA_FIXTURES:
        for label, M in all_bimodules(name, p=p).items():
            cx = HochschildComplex(M, 3 if label == "tensor_square" else 4)
            for w in cx.all_words():
                n = len(w) - 1
                total = {}
                pairs = [(i, l) for l in range(1, n + 2) for i in range(n + 1)]
                for i, l in pairs + [(-1, 1), (n + 1, 1), (0, 0), (0, n + 2)]:
                    expected = b_component_oracle(cx, w, i, l)
                    assert b_component(cx, w, i, l) == expected, (name, label, w, i, l)
                    for out, c in expected.items():
                        total[out] = total.get(out, 0) + c
                assert differential_word(cx, w) == normalize(total, cx.ring), (name, label, w)


def test_filtration_decrease_per_component():
    # a component built from an operation with k+1 inputs drops the length by k
    M = all_bimodules("exterior2")["tensor_square"]
    cx = HochschildComplex(M, 4)
    for w in cx.all_words():
        n = len(w) - 1
        for l in range(1, n + 2):
            for i in range(0, n + 1):
                for out in b_component(cx, w, i, l):
                    assert len(out) - 1 == n - l + 1


def test_differential_lowers_degree_by_one():
    for label, M in all_bimodules("exterior2").items():
        cx = HochschildComplex(M, 4)
        for w in cx.all_words():
            image = differential_word(cx, w)
            if image:
                assert chain_degree(cx, image) == cx.degree(w) - 1, (label, w)


def test_b_squared_zero_over_z_and_z2():
    for name in ALGEBRA_FIXTURES:
        for p in (None, 2):
            doc = load(name, p)
            A = doc.algebra
            diag = diagonal_bimodule(A)
            for M in (diag, tensor_square_bimodule(A), dual_bimodule(diag)):
                cx = HochschildComplex(M, 4)
                for w in cx.all_words():
                    assert not differential(cx, differential_word(cx, w)), (name, p, w)


def test_length_zero_word():
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    cx = HochschildComplex(N, 2)
    assert differential_word(cx, ("v",)) == {("w",): 1}
    assert differential_word(cx, ("u",)) == {}


def test_induced_identity_and_zero():
    M = all_bimodules("exterior2")["diagonal"]
    cx = HochschildComplex(M, 3)
    ident = InducedChainMap(identity_morphism(M), cx, cx)
    zero = InducedChainMap(BimoduleMorphism(M, M, 0, {}, name="zero"), cx, cx)
    for w in cx.all_words():
        assert induced_on_word(ident, w) == {w: 1}
        assert induced_on_word(zero, w) == {}


def test_induced_chain_map_takes_the_complexes_of_its_bimodules():
    # the complexes must be over f's own bimodule objects, at one length cutoff
    f = load("quasi_iso_pair").morphisms["include"]
    src, tgt = HochschildComplex(f.source, 3), HochschildComplex(f.target, 3)
    assert InducedChainMap(f, src, tgt).source is src
    twin = HochschildComplex(load("quasi_iso_pair").bimodules["M"], 3)
    short = HochschildComplex(f.target, 2)
    for source, target in ((tgt, src), (src, src), (twin, tgt), (src, short)):
        with pytest.raises(ModuleMismatch):
            InducedChainMap(f, source, target)


def test_induced_chain_map_commutes_with_b():
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    src = HochschildComplex(f.source, 3)
    fstar = InducedChainMap(f, src, HochschildComplex(f.target, 3))
    for w in src.all_words():
        assert differential(fstar.target, induced_on_word(fstar, w)) == induced_chain(
            fstar, differential_word(src, w)
        ), w


def test_induced_map_additive():
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    fstar = InducedChainMap(f, HochschildComplex(f.source, 3), HochschildComplex(f.target, 3))
    x = {("m", "e"): 2, ("m", "e", "e"): -1}
    y = {("m", "e"): 5}
    assert induced_chain(fstar, add(x, y, Z)) == add(
        induced_chain(fstar, x), induced_chain(fstar, y), Z
    )


def test_induced_degree_shift():
    # a degree-1 morphism induces a chain map of degree -1
    A = load("exterior1").algebra
    M = diagonal_bimodule(A)
    f00 = MultilinearOp((M.module,), M.module, 1, {("1",): {"x": 1}})
    f = BimoduleMorphism(M, M, 1, {(0, 0): f00}, name="deg1")
    cx = HochschildComplex(M, 3)
    fstar = InducedChainMap(f, cx, cx)
    for w in cx.all_words():
        out = induced_on_word(fstar, w)
        if out:
            assert chain_degree(cx, out) == cx.degree(w) - 1
        assert differential(fstar.target, out) == induced_chain(fstar, differential_word(cx, w))


def test_compose_induced():
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    src, tgt = HochschildComplex(f.source, 3), HochschildComplex(f.target, 3)
    fstar = InducedChainMap(f, src, tgt)
    ident_M = InducedChainMap(identity_morphism(f.source), src, src)
    ident_N = InducedChainMap(identity_morphism(f.target), tgt, tgt)
    comp = ComposedChainMap(fstar, ident_M)
    comp2 = ComposedChainMap(ident_N, fstar)
    for w in src.all_words():
        assert comp.on_word(w) == induced_on_word(fstar, w)
        assert comp2.on_word(w) == induced_on_word(fstar, w)
    zero = InducedChainMap(BimoduleMorphism(f.source, f.source, 0, {}, name="z"), src, src)
    zcomp = ComposedChainMap(fstar, zero)
    assert all(not zcomp.on_word(w) for w in src.all_words())
    assert comp.degree == 0
    with pytest.raises(ModuleMismatch):
        ComposedChainMap(fstar, fstar)


def test_compose_degree_adds():
    A = load("exterior1").algebra
    M = diagonal_bimodule(A)
    f00 = MultilinearOp((M.module,), M.module, 1, {("1",): {"x": 1}})
    f = BimoduleMorphism(M, M, 1, {(0, 0): f00}, name="deg1")
    cx = HochschildComplex(M, 3)
    fstar = InducedChainMap(f, cx, cx)
    comp = ComposedChainMap(fstar, fstar)
    assert comp.degree == -2
    for w in cx.all_words():
        out = comp.on_word(w)
        if out:
            assert chain_degree(cx, out) == cx.degree(w) - 2


def test_induced_chain_map_function_form():
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    fstar = InducedChainMap(f, HochschildComplex(f.source, 3), HochschildComplex(f.target, 3))
    assert induced_chain(fstar, {("m",): 1}) == {("u",): 1}


def _f_star_cases(ring):
    """Every document morphism of the fixtures and of the degree-1 document,
    the identity of each diagonal, tensor_square, dual and document bimodule,
    and the cocycle morphisms beta(E) of the elementary cochains E of arity
    <= 1 on the diagonal, whose (0,1) and (1,0) parts wrap around the word."""
    docs = [load(name, p=ring) for name in ALGEBRA_FIXTURES]
    one = degree_one_document()
    if ring:
        one["ring"] = {"kind": "Zp", "p": ring}
    docs.append(parse(serialize(one)))
    for doc in docs:
        yield from doc.morphisms.values()
        A = doc.algebra
        diag = diagonal_bimodule(A)
        modules = [diag, tensor_square_bimodule(A), dual_bimodule(diag)]
        for M in modules + [doc.bimodules[name] for name in sorted(doc.bimodules)]:
            yield identity_morphism(M)
        for n in range(2):
            for word in itertools.product(A.module.names, repeat=n):
                for out in diag.module.names:
                    beta = codifferential(elementary_cochain(diag, word, out, cutoff=4))
                    if beta.components and not beta.component(0):
                        yield cocycle_to_morphism(beta, diagonal=diag)


@pytest.mark.parametrize("ring", [None, 2, 3])
def test_f_star_matrices_match_the_word_level_oracle(ring):
    # the walk over f's components, with b's signs and the twist (-1)^(d j),
    # gives f_* word by word, at every length cutoff
    cases = wrapping = 0
    for f in _f_star_cases(ring):
        for L in range(5):
            src = HochschildComplex(f.source, L)
            tgt = src if f.target is f.source else HochschildComplex(f.target, L)
            fstar = InducedChainMap(f, src, tgt)
            expected = induced_matrices_oracle(fstar)
            got = fstar.matrices()
            assert got.keys() == expected.keys(), (f.name, L)
            for j, F in expected.items():
                assert got[j] == F, (f.name, L, j)
            cases += 1
            wrapping += any(r + s for r, s in f.maps)
    assert cases > 200 and wrapping > 50, (cases, wrapping)


@pytest.mark.parametrize("seed", [3, 11])
def test_enumeration_order_on_reordered_bases(seed):
    # words(n) is (degree, slot positions) and each cochain bucket is
    # (arity, slot positions, output position), whatever the basis order
    rng = random.Random(seed)
    for name in ALGEBRA_FIXTURES:
        doc = load_reordered(name, seed)
        A = doc.algebra
        diag = diagonal_bimodule(A)
        modules = [diag, tensor_square_bimodule(A), dual_bimodule(diag)]
        for M in modules + list(doc.bimodules.values()):
            a_pos, m_pos = A.module.position, M.module.position
            cx = HochschildComplex(M, 3)
            for n in range(4):
                words = [
                    (m,) + rest
                    for m in M.module.names
                    for rest in itertools.product(A.module.names, repeat=n)
                ]
                rng.shuffle(words)
                words.sort(key=lambda w: (cx.degree(w), m_pos(w[0]), *map(a_pos, w[1:])))
                assert list(cx.words(n)) == words, (name, M.name, n)
            for bucket in cochain_basis(M, 3).values():
                expected = sorted(
                    bucket, key=lambda t: (t[0], tuple(map(a_pos, t[1])), m_pos(t[2]))
                )
                assert bucket == expected, (name, M.name)


def _grid_bimodules(A, bimodules=()):
    """The coefficient bimodules of the grid with their largest length cutoff."""
    diag = diagonal_bimodule(A)
    out = [(diag, 4), (tensor_square_bimodule(A), 3), (dual_bimodule(diag), 4)]
    return out + [(M, 4) for M in bimodules]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_assembled_boundaries_match_the_per_word_oracle(name):
    # the entry walk builds F_L's boundaries by rank arithmetic; the former
    # per-word body of b, summed over each word's summands, must give the
    # same matrices over Z, Z/2 and Z/3, cancelled terms included
    for p in (None, 2, 3):
        doc = load(name, p)
        for M, top in _grid_bimodules(doc.algebra, doc.bimodules.values()):
            for L in range(top + 1):
                fc = HochschildComplex(M, L).truncation()
                oracle = truncation_oracle(HochschildComplex(M, L))
                assert {j: list(keys) for j, keys in fc.basis.items()} == oracle.basis
                for j in fc.basis:
                    assert fc.boundary(j) == oracle.boundary(j), (name, p, M.name, L, j)


def _assert_same_words(keys, words, where):
    assert len(keys) == len(words), where
    assert list(keys) == words, where
    assert [keys[c] for c in range(len(words))] == words, where
    assert [keys[c - len(words)] for c in range(len(words))] == words, where
    for c in (len(words), -len(words) - 1):
        with pytest.raises(IndexError):
            keys[c]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rank_backed_bases_equal_the_word_lists(name):
    # F_L's bases and the E^0 columns' bases hold rank runs, not words; read
    # as sequences they are the degree-j words of words(n), length by length
    A = load(name).algebra
    diag = diagonal_bimodule(A)
    for M in (diag, tensor_square_bimodule(A), dual_bimodule(diag)):
        for L in range(5):
            cx = HochschildComplex(M, L)
            by_length = [{} for _ in range(L + 1)]
            for n in range(L + 1):
                for w in cx.words(n):
                    by_length[n].setdefault(cx.degree(w), []).append(w)
            fc = cx.truncation()
            assert set(fc.basis) == set().union(*by_length), (name, M.name, L)
            for j, keys in fc.basis.items():
                words = [w for words in by_length for w in words.get(j, [])]
                _assert_same_words(keys, words, (name, M.name, L, j))
            for p in range(L + 1):
                for route in ("direct", "quotient"):
                    column = column_complex(cx, p, route).basis
                    assert set(column) == set(by_length[p]), (name, M.name, L, p)
                    for j, keys in column.items():
                        _assert_same_words(keys, by_length[p][j], (name, M.name, L, p, j))


def test_assembled_boundaries_of_a_dga_with_mu1():
    for M, top in _grid_bimodules(mu1_algebra()):
        for L in range(top + 1):
            fc = HochschildComplex(M, L).truncation()
            oracle = truncation_oracle(HochschildComplex(M, L))
            for j in fc.basis:
                assert fc.boundary(j) == oracle.boundary(j), (M.name, L, j)
            assert any(fc.boundary(j).entries for j in fc.basis)


def _unit_grid(doc):
    """The diagonal, its dual, the tensor square, and each document bimodule and its dual."""
    diag = diagonal_bimodule(doc.algebra)
    out = [diag, dual_bimodule(diag), tensor_square_bimodule(doc.algebra)]
    for M in doc.bimodules.values():
        out += [M, dual_bimodule(M)]
    return out


def _assert_b_makes_every_term(M, lengths, where):
    """boundaries() equals the walk that makes every term, entry for entry."""
    for L in lengths:
        cx = HochschildComplex(M, L)
        assert cx.boundaries() == boundaries_oracle(cx), (where, M.name, L)


@pytest.mark.parametrize("p", [None, 2, 3])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_boundaries_leave_out_only_unit_terms_that_cancel(name, p):
    # b makes no term with the strict unit as an algebra input but the
    # mu_2(u,u) insertions, negated; the walk given no unit makes them all
    doc = load(name, p)
    units = set()
    for M in _unit_grid(doc):
        units.add(strict_unit(M))
        _assert_b_makes_every_term(M, range(6), (name, p))
    # mu3_square_zero has no mu_2, and M and N of quasi_iso_pair no right action
    expected = {"mu3_square_zero": {None}, "quasi_iso_pair": {"e", None}}
    assert units == expected.get(name, {"1"})


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_boundaries_find_a_renamed_unit_that_is_not_first(name):
    doc = parse(serialize(renamed_document(name, 7)))
    units = {strict_unit(M) for M in _unit_grid(doc)} - {None}
    assert len(units) == (name != "mu3_square_zero")
    letters = doc.algebra.module
    assert all(letters.position(u) > 0 or letters.rank == 1 for u in units)
    for M in _unit_grid(doc):
        _assert_b_makes_every_term(M, range(6), name)


@pytest.mark.parametrize("group", ["C3", "S3"])
def test_boundaries_of_group_rings_leave_out_the_unit_terms(group):
    doc = cyclic_group_document(3) if group == "C3" else symmetric_group_document()
    doc = parse(serialize(doc))
    for M in _unit_grid(doc):
        assert strict_unit(M) == "1"
        _assert_b_makes_every_term(M, range(4), group)


def test_boundaries_of_a_strictly_unital_mu3():
    # mu3_square_zero with a unit e adjoined: a mu_3 sits beside the unit
    doc = parse(serialize(unitalized_mu3_document()))
    assert all(validate(doc.algebra, 6).values())
    for M in _unit_grid(doc):
        assert strict_unit(M) == "e"
        _assert_b_makes_every_term(M, range(6), "unital mu3")


def _with_op(A, n, table):
    """A copy of A whose mu_n has the given table."""
    op = MultilinearOp((A.module,) * n, A.module, 2 - n, table, label=f"mu_{n}")
    return AInfinityAlgebra(A.module, {**A.ops, n: op})


def _not_unital():
    """Bimodules on which one identity of the strict unit fails."""
    A = load("exterior2").algebra
    flipped = dict(A.ops[2].entries())
    # mu_2(x,1) = -x: a check asking only for +-1 accepts x
    flipped["x", "1"] = flipped["x", "1"].scale(-1)
    yield "flipped mu_2(x,1)", diagonal_bimodule(_with_op(A, 2, flipped))
    yield "mu_3(1,x,y)", diagonal_bimodule(_with_op(A, 3, {("1", "x", "y"): {"x": 1}}))
    diag = diagonal_bimodule(A)
    table = {key: value for key, value in diag.ops[0, 1].entries() if key != ("x", "1")}
    missing = {**diag.ops, (0, 1): bimodule_op(A, diag.module, 0, 1, table)}
    yield "no mu_(0,1)(x,1)", AInfinityBimodule(A, diag.module, missing)
    doc = load("quasi_iso_pair")
    yield from doc.bimodules.items()


@pytest.mark.parametrize(
    "label", ["flipped mu_2(x,1)", "mu_3(1,x,y)", "no mu_(0,1)(x,1)", "M", "N"]
)
def test_a_failed_unit_identity_finds_no_unit(label):
    M = dict(_not_unital())[label]
    assert strict_unit(M) is None, label
    _assert_b_makes_every_term(M, range(6), label)
    # taking the letter for a unit anyway changes b
    cx = HochschildComplex(M, 4)
    unit = M.algebra.module.names[0]
    assert cx._walk(M.ops, cx, -1, 0, cx._insertions, unit) != boundaries_oracle(cx), label


@pytest.mark.parametrize("n", [-1, 4, 9])
def test_words_refuse_lengths_outside_the_truncation(n):
    # words(n) names words from F_3's table only: a longer length is past
    # the word budget that the complex checked
    cx = HochschildComplex(diagonal_bimodule(load("exterior2").algebra), 3)
    with pytest.raises(IndexOutOfRange, match=rf"^length n={n} is outside 0\.\.3"):
        cx.words(n)
    assert [len(cx.words(k)) for k in range(4)] == [4, 16, 64, 256]


def test_word_count_guard_refuses_before_enumerating():
    doc = load("exterior2")
    diag = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(diag, 8)
    assert word_count(4, 4, 8) == sum(len(cx.words(n)) for n in range(9)) == 349524
    assert word_count(16, 4, 7) == 349520  # tensor_square at L=7
    assert HochschildComplex(tensor_square_bimodule(doc.algebra), 7).L == 7
    with pytest.raises(TooLarge, match=r"^F_12 has 89478484 words, above the limit of 1000000$"):
        HochschildComplex(diag, 12)
    with pytest.raises(TooLarge, match=r"^F_1000000000 has more than \d+ words"):
        HochschildComplex(diag, 10**9)
    assert word_count(3, 1, 5) == 18 and word_count(3, 0, 5) == 3


def test_assembling_the_boundaries_stays_within_six_megabytes():
    # truncated_poly3 at L=8 has 29 523 words; b's walk accumulates each
    # degree's rows directly, with no (row, col) key per entry and no copy
    # of the result (8.3 MB held at the peak when it did both)
    cx = HochschildComplex(diagonal_bimodule(load("truncated_poly3").algebra), 8)
    cx._tables()
    tracemalloc.start()
    try:
        boundaries = cx.boundaries()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(row) for d in boundaries.values() for row in d.by_row.values()) > 0
    assert peak <= 6_000_000
