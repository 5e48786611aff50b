"""Length filtration: projections, pages, weak convergence, comparison."""

import pytest

from ainfty.bimodules import (
    BimoduleMorphism,
    diagonal_bimodule,
    dual_bimodule,
    identity_morphism,
    tensor_square_bimodule,
)
from ainfty.chains import HochschildComplex, InducedChainMap
from ainfty.errors import IndexOutOfRange, TooLarge
from ainfty.graded import GradedModule, MultilinearOp
from ainfty.documents import parse, serialize
from ainfty.spectral import _length_blocks
from ainfty.spectral import column_complex, column_weights, comparison_check, page1

from helpers import (
    ALGEBRA_FIXTURES,
    b1_word,
    b_component,
    basis_matrix,
    degree_one_document,
    differential_word,
    e0_map_oracle,
    filtration_level,
    from_dense,
    homology_of_truncation,
    in_filtration,
    induced,
    induced_on_word,
    length_blocks_oracle,
    load,
    mu1_algebra,
    projection,
    z_infinity_membership,
    z_membership,
)


def test_projection_examples():
    doc = load("exterior2")
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 4)
    x = {("x", "y"): 1}
    assert projection(cx, 2, x) == {}
    assert projection(cx, 1, x) == x
    assert filtration_level(x) == 1
    assert filtration_level({}) == -1
    assert in_filtration(x, 1) and not in_filtration(x, 0)


def test_projection_is_chain_map():
    # pi_p . b = b_1 . pi_p on all short words, all fixtures
    for name in ALGEBRA_FIXTURES:
        doc = load(name)
        M = diagonal_bimodule(doc.algebra)
        cx = HochschildComplex(M, 4)
        for n in range(4):
            for w in cx.words(n):
                lhs = projection(cx, n, differential_word(cx, w))
                rhs = b1_word(cx, w)
                assert lhs == rhs, (name, w)


def test_page0_squares_to_zero():
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    cx = HochschildComplex(N, 4)
    for p in range(4):
        column = column_complex(cx, p)
        for j in column.basis:
            assert (column.boundary(j - 1) @ column.boundary(j)).is_zero()


def test_page0_uses_only_arity_one_ingredients():
    # every length-preserving term of b comes from the l = 1 components
    doc = load("exterior2")
    M = tensor_square_bimodule(doc.algebra)
    cx = HochschildComplex(M, 3)
    for w in cx.all_words():
        n = len(w) - 1
        keep = {}
        for i in range(0, n + 1):
            for out, c in b_component(cx, w, i, 1).items():
                keep[out] = keep.get(out, 0) + c
        keep = {k: v for k, v in keep.items() if v}
        assert keep == projection(cx, n, differential_word(cx, w))


def test_page0_p0_block_is_coefficient_differential():
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    cx = HochschildComplex(N, 3)
    # p = 0 column: words (m,) in degree -deg m, differential mu_{0,0}
    column = column_complex(cx, 0)
    mat = column.boundary(0)
    basis0 = column.basis
    assert [w for w in basis0[0]] == [("u",), ("v",)]
    assert list(basis0[-1]) == [("w",)]
    assert mat.to_dense() == [[0, 1]]


def test_page1_zero_differentials_gives_block_ranks():
    doc = load("exterior1")  # zero mu_1: b_1 vanishes on the diagonal complex
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 4)
    for p in range(5):
        buckets = column_complex(cx, p).basis
        for j, words in buckets.items():
            summary = page1(cx, p, p - j)
            assert summary.free_rank == len(words)
            assert summary.torsion == ()


def test_page1_two_paths_agree():
    for name in ALGEBRA_FIXTURES:
        doc = load(name)
        A = doc.algebra
        modules = [diagonal_bimodule(A)]
        if name == "quasi_iso_pair":
            modules += list(doc.bimodules.values())
        for M in modules:
            cx = HochschildComplex(M, 4)
            for p in range(5):
                for q in column_weights(cx, p):
                    direct = page1(cx, p, q, route="direct")
                    quotient = page1(cx, p, q, route="quotient")
                    assert direct.invariants() == quotient.invariants(), (name, p, q)


def test_page1_mod2_dense_oracle():
    from helpers import dense_rank_modp

    doc = load("dual_numbers", p=2)
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 4)
    for p in range(5):
        column = column_complex(cx, p)
        buckets = column.basis
        for j in buckets:
            got = page1(cx, p, p - j)
            d_out = column.boundary(j).to_dense()
            d_in = column.boundary(j + 1).to_dense()
            r_out = dense_rank_modp(d_out, 2) if d_out else 0
            r_in = dense_rank_modp(d_in, 2) if d_in else 0
            assert got.dimension == len(buckets[j]) - r_out - r_in


def test_quotient_columns_walk_each_boundary_once(monkeypatch):
    # one walk over F_L's boundaries serves every quotient column p <= L
    cx = HochschildComplex(diagonal_bimodule(load("exterior2").algebra), 4)
    fc = cx.truncation()
    calls = []
    real = fc.boundary
    monkeypatch.setattr(fc, "boundary", lambda j: calls.append(j) or real(j))
    for p in range(cx.L + 1):
        column_complex(cx, p, route="quotient")
    assert sorted(calls) == sorted(fc.basis)


def _modules(doc):
    """The diagonal, tensor_square and dual bimodules of doc's algebra, then doc's own."""
    diagonal = diagonal_bimodule(doc.algebra)
    modules = [diagonal, tensor_square_bimodule(doc.algebra), dual_bimodule(diagonal)]
    return modules + [doc.bimodules[name] for name in sorted(doc.bimodules)]


def _assert_direct_matches_oracle(cx, p):
    column = column_complex(cx, p, route="direct")
    for j, keys in column.basis.items():
        rows = column.basis.get(j - 1, [])
        expected = basis_matrix(keys, rows, lambda w: b1_word(cx, w))
        assert column.boundary(j) == expected, (p, j)
    return sum(len(column.boundary(j).entries) for j in column.basis)


@pytest.mark.parametrize("fixture", ALGEBRA_FIXTURES)
@pytest.mark.parametrize("ring", [None, 2, 3])
def test_direct_columns_match_per_word_oracle(fixture, ring):
    # the entry walk of the direct route equals b_1 evaluated word by word
    for M in _modules(load(fixture, p=ring)):
        cx = HochschildComplex(M, 4)
        for p in range(5):
            _assert_direct_matches_oracle(cx, p)


def test_direct_columns_match_oracle_with_nonzero_mu1():
    # mu1_algebra is the one input whose mu_1 is nonzero, so the signed slot
    # terms of b_1 are reached; the column differentials are not all zero,
    # and the quotient route's slices are the same matrices
    A = mu1_algebra()
    diagonal = diagonal_bimodule(A)
    entries = 0
    for M in (diagonal, tensor_square_bimodule(A), dual_bimodule(diagonal)):
        cx = HochschildComplex(M, 4)
        for p in range(5):
            entries += _assert_direct_matches_oracle(cx, p)
            direct, quotient = column_complex(cx, p), column_complex(cx, p, route="quotient")
            for j in direct.basis:
                assert direct.boundary(j) == quotient.boundary(j), (p, j)
    assert entries > 0


@pytest.mark.parametrize("fixture", ["exterior2", "quasi_iso_pair", "mu3_square_zero"])
@pytest.mark.parametrize("ring", [None, 3])
def test_quotient_slices_match_length_blocks(fixture, ring):
    # the slices at run offsets equal the length-preserving entries picked
    # out of F_L's boundaries word by word
    doc = load(fixture, p=ring)
    modules = [diagonal_bimodule(doc.algebra)] + list(doc.bimodules.values())
    for M in modules:
        cx = HochschildComplex(M, 3)
        blocks = length_blocks_oracle(cx)
        for p in range(cx.L + 1):
            column = column_complex(cx, p, route="quotient")
            b1 = blocks.get(p, {})
            for j, keys in column.basis.items():
                rows = column.basis.get(j - 1, [])
                expected = basis_matrix(keys, rows, lambda w: b1.get(w, {}))
                assert column.boundary(j) == expected, (fixture, p, j)


@pytest.mark.parametrize("algebra", [lambda: load("exterior2").algebra, mu1_algebra])
def test_direct_columns_make_no_per_word_lookups(monkeypatch, algebra):
    # the direct route reads the arity-one entries and rank tables only, with
    # no per-word degree or table lookup; mu1_algebra has entries to walk
    cx = HochschildComplex(diagonal_bimodule(algebra()), 4)
    calls = []
    for cls, name in ((GradedModule, "degree_of"), (MultilinearOp, "on_word")):
        real = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    for p in range(cx.L + 1):
        column_complex(cx, p, route="direct")
    assert calls == []


def test_direct_term_outside_the_target_weight_is_an_internal_error():
    # a mu_(0,0) term that keeps the degree misses degree j - 1; it is
    # skewed in N's table after validation, where only the walk reads it
    from ainfty.errors import InternalInvariant
    from ainfty.graded import Element

    N = load("quasi_iso_pair").bimodules["N"]
    mu00 = N.ops[(0, 0)]
    mu00.table[("v",)] = Element(mu00.output, {"w": 1, "u": 1})
    cx = HochschildComplex(N, 2)
    with pytest.raises(InternalInvariant, match=r"image of \('v',\) has \('u',\) outside"):
        column_complex(cx, 0)


def test_weak_convergence():
    # for r > p, membership in Z^r coincides with membership in Z^infinity
    doc = load("dual_numbers")
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 4)
    import random

    rng = random.Random(31)
    words = list(cx.all_words())
    for _ in range(100):
        p = rng.randint(0, 4)
        support = [w for w in words if len(w) - 1 <= p]
        x = {w: rng.randint(-2, 2) for w in rng.sample(support, min(3, len(support)))}
        x = {w: c for w, c in x.items() if c}
        for r in (p + 1, p + 2, 7):
            assert z_membership(cx, x, p, r) == z_infinity_membership(cx, x, p)


def test_filtration_shift_of_induced_maps():
    # each (r,s) component of f_* lowers the filtration by r+s
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    src = HochschildComplex(f.source, 4)
    fstar = InducedChainMap(f, src, HochschildComplex(f.target, 4))
    for w in src.all_words():
        out = induced_on_word(fstar, w)
        assert filtration_level(out) <= len(w) - 1
    # and a morphism with a genuine (1,0) component drops by one
    A = load("exterior1").algebra
    M = diagonal_bimodule(A)
    f10 = MultilinearOp(
        (A.module, M.module), M.module, -1, {("1", "x"): {"1": 1}}
    )
    g = BimoduleMorphism(M, M, 0, {(1, 0): f10}, name="shifty")
    cx = HochschildComplex(M, 4)
    gstar = InducedChainMap(g, cx, cx)
    for w in cx.all_words():
        out = induced_on_word(gstar, w)
        if out:
            assert filtration_level(out) <= len(w) - 2


@pytest.mark.parametrize("route", ["direct", "quotient"])
def test_columns_outside_the_cutoff_are_refused(route):
    # a column is a slice of F_L, so p runs over 0..L only
    cx = HochschildComplex(load("quasi_iso_pair").bimodules["N"], 2)
    for p in (-1, cx.L + 1):
        with pytest.raises(IndexOutOfRange, match=rf"^column p={p} is outside 0\.\.2"):
            column_complex(cx, p, route)
    with pytest.raises(IndexOutOfRange):
        page1(cx, cx.L + 1, 0, route)


@pytest.mark.parametrize("route", ["direct", "quotient"])
def test_no_column_builds_more_words_than_the_budget(monkeypatch, route):
    # F_L passes the word budget, and every column is a slice of F_L: no
    # route enumerates words longer than L, so none builds past the budget
    import ainfty.chains as chains

    monkeypatch.setattr(chains, "MAX_WORDS", 100)
    cx = HochschildComplex(diagonal_bimodule(load("exterior2").algebra), 1)
    with pytest.raises(TooLarge):
        HochschildComplex(cx.M, 3)
    lengths = []
    real = HochschildComplex._by_rank
    monkeypatch.setattr(
        HochschildComplex, "_by_rank", lambda self, n: lengths.append(n) or real(self, n)
    )
    for p in range(cx.L + 2):
        try:
            column_complex(cx, p, route)
        except IndexOutOfRange:
            assert p == cx.L + 1
    assert lengths and max(lengths) <= cx.L
    assert chains.word_count(4, 4, max(lengths)) <= chains.MAX_WORDS


def test_comparison_identity():
    doc = load("exterior2")
    M = diagonal_bimodule(doc.algebra)
    verdict = comparison_check(induced(identity_morphism(M), 3))
    assert verdict.hypothesis_holds and verdict.conclusion_holds and verdict.witnessed


def test_comparison_quasi_iso_pair():
    doc = load("quasi_iso_pair")
    verdict = comparison_check(induced(doc.morphisms["include"], 4))
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds
    assert verdict.witnessed


def test_comparison_detects_non_quasi_iso():
    doc = load("quasi_iso_pair")
    M, N = doc.bimodules["M"], doc.bimodules["N"]
    zero = BimoduleMorphism(M, N, 0, {}, name="zero")
    verdict = comparison_check(induced(zero, 3))
    assert not verdict.hypothesis_holds
    assert not verdict.witnessed


def test_comparison_over_prime_fields():
    for p in (2, 3):
        doc = load("quasi_iso_pair", p=p)
        verdict = comparison_check(induced(doc.morphisms["include"], 4))
        assert verdict.hypothesis_holds and verdict.conclusion_holds
        assert verdict.witnessed, p
    doc = load("quasi_iso_pair", p=3)
    M, N = doc.bimodules["M"], doc.bimodules["N"]
    verdict = comparison_check(induced(BimoduleMorphism(M, N, 0, {}, name="zero"), 3))
    assert not verdict.hypothesis_holds
    assert not verdict.witnessed


def test_comparison_factor_count(monkeypatch):
    # boundaries are factored once per complex; each induced map adds only
    # its source kernel and the surjectivity test
    import ainfty.homology as homology

    original = homology._smith
    calls = []

    def counted(mat, *args, **kwargs):
        calls.append(mat)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(homology, "_smith", counted)
    verdict = comparison_check(induced(load("quasi_iso_pair").morphisms["include"], 4))
    assert verdict.witnessed
    assert len(calls) <= 76


def test_comparison_epsilon_projection_hypothesis_fails():
    # the projection of the dual numbers onto the quotient line collapses a
    # rank: its (0,0) piece is not a quasi-isomorphism, and the E^1-level
    # verdict agrees with the direct homology computation of f_{0,0}
    from ainfty.bimodules import AInfinityBimodule, bimodule_op
    from ainfty.graded import GradedModule
    from ainfty.homology import FiniteComplex, induced_map_on_homology
    from ainfty.rings import Z

    doc = load("dual_numbers")
    A = doc.algebra
    M = diagonal_bimodule(A)
    zmod = GradedModule((("z", -1),), Z)
    proj = {"1": 1, "e": 0}
    ops = {
        (1, 0): bimodule_op(
            A, zmod, 1, 0, {(a, "z"): {"z": proj[a]} for a in A.module.names if proj[a]}
        ),
        (0, 1): bimodule_op(
            A, zmod, 0, 1, {("z", a): {"z": proj[a]} for a in A.module.names if proj[a]}
        ),
    }
    N = AInfinityBimodule(A, zmod, ops, name="quotient")
    f00 = MultilinearOp((M.module,), zmod, 0, {("1",): {"z": 1}})
    f = BimoduleMorphism(M, N, 0, {(0, 0): f00}, name="eps_to_zero")
    verdict = comparison_check(induced(f, 2))
    assert not verdict.hypothesis_holds
    assert not verdict.witnessed
    # independent check at the coefficient level: both differentials vanish,
    # so [f_{0,0}] is the rank-2 -> rank-1 map itself, not an isomorphism
    source = FiniteComplex(Z, {0: ["1", "e"]}, {})
    target = FiniteComplex(Z, {0: ["z"]}, {})
    res = induced_map_on_homology(source, target, {0: from_dense([[1, 0]])}, 0)
    assert not res.is_iso


def test_truncated_homology_table():
    # frozen from the standard periodic resolution of k[x]/(x^n): for the
    # dual numbers the odd groups carry Z/2, for the cubic truncation Z/3;
    # the degree-j group of the truncated diagonal complex is the classical
    # group in degree j - 1 and is exact for j <= the cutoff
    doc = load("dual_numbers")
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 4)
    table = homology_of_truncation(cx)
    assert table[1].invariants() == (2, ())
    assert table[2].invariants() == (1, (2,))
    assert table[3].invariants() == (1, ())
    assert table[4].invariants() == (1, (2,))

    doc = load("truncated_poly3")
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 4)
    table = homology_of_truncation(cx)
    assert table[1].invariants() == (3, ())
    assert table[2].invariants() == (2, (3,))
    assert table[3].invariants() == (2, ())
    assert table[4].invariants() == (2, (3,))


def _column_bases(cx):
    return [column_complex(cx, p).basis for p in range(cx.L + 1)]


def _e0_cases(ring):
    """Every document morphism of the fixtures and the degree-1 document, and
    the identity of every bimodule, over ring."""
    docs = [load(name, p=ring) for name in ALGEBRA_FIXTURES]
    one = degree_one_document()
    if ring:
        one["ring"] = {"kind": "Zp", "p": ring}
    docs.append(parse(serialize(one)))
    for doc in docs:
        yield from doc.morphisms.values()
        for M in _modules(doc):
            yield identity_morphism(M)


@pytest.mark.parametrize("ring", [None, 2, 3])
def test_e0_blocks_match_the_word_level_map(ring):
    # the length blocks of f_*'s matrices are f_(0,0) (x) id with its sign
    cases = 0
    for f in _e0_cases(ring):
        fstar = induced(f, 3)
        src, tgt = _column_bases(fstar.source), _column_bases(fstar.target)
        blocks = _length_blocks(fstar.matrices(), src, tgt, fstar.degree)
        for p, block in enumerate(blocks):
            for j, expected in e0_map_oracle(fstar, p).items():
                got = block.get(j)
                assert (got.entries if got else {}) == expected.entries, (f.name, p, j)
                assert got is None or got == expected, (f.name, p, j)
        cases += 1
    assert cases > 20
