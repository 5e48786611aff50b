"""Cochain complex: codifferential, duality, pullbacks, regraded complexes."""

import itertools

import pytest

from ainfty.bimodules import (
    BimoduleMorphism,
    diagonal_bimodule,
    dual_bimodule,
    identity_morphism,
    tensor_square_bimodule,
    validate_morphism,
)
from ainfty.chains import HochschildComplex, InducedChainMap
from ainfty.cochains import (
    Cochain,
    DualChainElement,
    b_star,
    codifferential,
    duality_iso,
    elementary_cochain,
)
from ainfty.cup import cup_degree
from ainfty.documents import parse, serialize
from ainfty.errors import DegreeMismatch, NotACocycle
from ainfty.fixtures import fixture_document
from ainfty.graded import MultilinearOp

from helpers import (
    ALGEBRA_FIXTURES,
    ComposedChainMap,
    b_star_oracle,
    basis_matrix,
    classical_cochain_delta,
    cocycle_to_morphism,
    component_word,
    evaluate,
    cochain_basis,
    cochain_complex,
    codifferential_oracle,
    duality_iso_inverse,
    homology_of_truncation,
    induced,
    load,
    product_lookup,
    pullback,
    regraded_chain_degree,
    regraded_codifferential,
)


def elementary_family(M, max_arity, cutoff=5):
    for n in range(max_arity + 1):
        for word in itertools.product(M.algebra.module.names, repeat=n):
            for out in M.module.names:
                yield elementary_cochain(M, word, out, cutoff)


def test_constant_cochain_codifferential():
    # arity-0 cochain: the first family is empty and beta is the wrapped action
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    c = elementary_cochain(N, (), "v", cutoff=4)
    out = codifferential(c)
    # l = 0 component: mu_{0,0}(v) = w with sign (-1)^{deg c * 1 + 1} = -1 for deg c = 0
    assert out.component(0) == {(): {"w": -1}}
    # l = 1 components wrap the unital action
    assert out.component(1)[("e",)] == {"v": -1}


def test_degree_rule_enforced():
    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    with pytest.raises(DegreeMismatch):
        Cochain(M, 0, {1: {("x",): {"1": 1}}}, cutoff=4)


def test_beta_raises_degree_by_one():
    doc = load("exterior2")
    M = diagonal_bimodule(doc.algebra)
    for f in elementary_family(M, 2, cutoff=4):
        assert codifferential(f).degree == f.degree + 1


def test_beta_squared_zero_fixtures():
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        diag = diagonal_bimodule(A)
        dual = dual_bimodule(diag)
        growth = max(
            [n - 1 for n in A.ops] + [r + s for M in (diag, dual) for (r, s) in M.ops],
            default=0,
        )
        cutoff = 3 + 2 * growth
        for M in (diag, dual):
            for f in elementary_family(M, 3, cutoff=cutoff):
                bb = codifferential(codifferential(f))
                assert not bb.components, (name, M.name, f.components)


def test_beta_matches_classical_delta_up_to_global_sign():
    # degree-zero DGA: our codifferential equals minus the classical cochain
    # differential, computed here by an independently coded formula
    for name in ("dual_numbers", "truncated_poly3"):
        doc = load(name)
        A = doc.algebra
        M = diagonal_bimodule(A)
        product = product_lookup(doc)
        names = A.module.names
        for arity in (1, 2):
            for word in itertools.product(names, repeat=arity):
                for out in names:
                    f = elementary_cochain(M, word, out, cutoff=4)
                    ours = codifferential(f).component(arity + 1)
                    classical = classical_cochain_delta(
                        product, {word: {out: 1}}, arity, names
                    )
                    negated = {
                        w: {k: -v for k, v in slot.items()}
                        for w, slot in classical.items()
                    }
                    assert ours == negated, (name, word, out)


def test_phi_length_zero_is_identity():
    doc = load("exterior2")
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 3)
    dual = dual_bimodule(M)
    for m in M.module.names:
        psi = DualChainElement(cx, {(m,): 1})
        g = duality_iso(psi, dual=dual, cutoff=3)
        assert g.component(0) == {(): {m + "^": 1}}


def test_phi_square_commutes_all_fixtures():
    for name in ALGEBRA_FIXTURES:
        for p in (None, 2):
            doc = load(name, p)
            A = doc.algebra
            M = diagonal_bimodule(A)
            dual = dual_bimodule(M)
            cx = HochschildComplex(M, 4)
            for n in range(4):
                for w in cx.words(n):
                    psi = DualChainElement(cx, {w: 1})
                    lhs = duality_iso(b_star(psi), dual=dual, cutoff=4)
                    rhs = codifferential(duality_iso(psi, dual=dual, cutoff=4))
                    assert lhs == rhs, (name, p, w)


@pytest.mark.parametrize("p", [None, 3])
def test_b_star_matches_per_word_oracle(p):
    # b_star reads rows of F_L's boundaries; the oracle evaluates psi on b of
    # every word. Every single word up to length 2, one functional across two
    # degrees, and one that holds a word longer than L.
    nonzero = 0
    for name in ALGEBRA_FIXTURES:
        A = load(name, p).algebra
        diag = diagonal_bimodule(A)
        for M in (diag, dual_bimodule(diag)):
            cx = HochschildComplex(M, 3)
            short = [w for n in range(3) for w in cx.words(n)]
            functionals = [{w: 1} for w in short]
            w1 = short[0]
            w2 = next(w for w in short if cx.degree(w) != cx.degree(w1))
            functionals.append({w1: 2, w2: -1})
            functionals.append({cx.words(3)[0] + (A.module.names[0],): 1, w2: 1})
            for terms in functionals:
                psi = DualChainElement(cx, terms)
                got = b_star(psi)
                assert got == b_star_oracle(psi), (name, p, terms)
                nonzero += bool(got.terms)
    assert nonzero


def test_phi_round_trip_identity():
    for p in (None, 2):
        doc = load("exterior2", p)
        M = diagonal_bimodule(doc.algebra)
        dual = dual_bimodule(M)
        cx = HochschildComplex(M, 3)
        for n in range(4):
            for w in cx.words(n):
                psi = DualChainElement(cx, {w: 1})
                back = duality_iso_inverse(duality_iso(psi, dual=dual, cutoff=3), cx)
                assert back == psi


def test_pullback_identity():
    doc = load("dual_numbers")
    M = diagonal_bimodule(doc.algebra)
    dual = dual_bimodule(M)
    ident = identity_morphism(M)
    for g in elementary_family(dual, 2, cutoff=4):
        assert pullback(induced(ident, 4), g, dual=dual) == g


def test_pullback_commutes_with_beta():
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    dual_M = dual_bimodule(f.source)
    dual_N = dual_bimodule(f.target)
    fstar = induced(f, 4)
    for g in elementary_family(dual_N, 2, cutoff=3):
        lhs = pullback(fstar, codifferential(g), dual=dual_M)
        rhs = codifferential(pullback(fstar, g, dual=dual_M))
        assert lhs == rhs


def test_pullback_of_composite():
    # (g . f)^* = f^* . g^* with the composite taken at the chain level
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    N = f.target
    two = BimoduleMorphism(
        N,
        N,
        0,
        {(0, 0): MultilinearOp((N.module,), N.module, 0, {(n,): {n: 2} for n in N.module.names})},
        name="2id",
    )
    dual_M = dual_bimodule(f.source)
    dual_N = dual_bimodule(N)
    src_cx = HochschildComplex(f.source, 4)
    tgt_cx = HochschildComplex(N, 4)
    fstar, twostar = InducedChainMap(f, src_cx, tgt_cx), InducedChainMap(two, tgt_cx, tgt_cx)
    composite = ComposedChainMap(twostar, fstar)
    for g in elementary_family(dual_N, 1, cutoff=3):
        nested = pullback(fstar, pullback(twostar, g, dual=dual_N), dual=dual_M)
        psi = duality_iso_inverse(g, tgt_cx)
        acc = {}
        for w in src_cx.all_words():
            v = evaluate(psi, composite.on_word(w))
            if v:
                acc[w] = v
        direct = duality_iso(DualChainElement(src_cx, acc), dual=dual_M, cutoff=3)
        if direct.is_zero():
            assert nested.is_zero()
        else:
            assert nested == direct


def test_cocycle_to_morphism_zero():
    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    zero = Cochain(M, 0, {}, cutoff=4)
    mor = cocycle_to_morphism(zero, diagonal=M)
    assert not mor.maps
    for (r, s), verdict in validate_morphism(mor, 2).items():
        assert verdict.holds


def test_cocycle_to_morphism_on_lambda_x():
    # the arity-1 cocycle x -> 1 on the exterior line: the reindexed family
    # has the cocycle as its (0,0) piece and commutes with the differentials
    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    f = elementary_cochain(M, ("x",), "1", cutoff=5)
    assert codifferential(f).is_zero()
    mor = cocycle_to_morphism(f, diagonal=M)
    assert mor.degree == f.degree
    assert component_word(mor, 0, 0, ("x",)).terms == {"1": 1}
    from ainfty.bimodules import check_morphism_equation
    from helpers import morphism_is_chain_map_00

    assert morphism_is_chain_map_00(mor)
    assert check_morphism_equation(mor, 0, 0).holds


def test_cocycle_reindexing_is_not_a_full_morphism():
    # With these sign conventions the morphism equations are exactly the
    # induced-chain-map condition, and the naive reindexing of a cocycle does
    # NOT satisfy them beyond the (0,0) level: the type-(r,s) equations each
    # see only one of the two coefficient wraps that the codifferential mixes
    # on a single word. This pins the asymmetry so changes get noticed.
    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    f = elementary_cochain(M, ("x",), "1", cutoff=5)
    mor = cocycle_to_morphism(f, diagonal=M)
    from ainfty.bimodules import check_morphism_equation

    assert not check_morphism_equation(mor, 1, 0).holds
    # conversely, a map satisfying every morphism equation need not be a
    # beta-cocycle: the degree-one map 1 -> x
    g = elementary_cochain(M, ("1",), "x", cutoff=5)
    from ainfty.bimodules import BimoduleMorphism

    f00 = MultilinearOp((M.module,), M.module, 1, {("1",): {"x": 1}})
    direct = BimoduleMorphism(M, M, 1, {(0, 0): f00}, name="deg1")
    assert all(v.holds for v in validate_morphism(direct, 3).values())
    assert not codifferential(g).is_zero()


def test_cocycle_to_morphism_rejects_non_cocycle():
    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    bad = elementary_cochain(M, ("1",), "x", cutoff=5)
    with pytest.raises(NotACocycle):
        cocycle_to_morphism(bad, diagonal=M)


def test_regraded_chain_degree():
    A = load("exterior2").algebra
    # deg(a_0 x ... x a_n) = n - sum of degrees
    assert regraded_chain_degree(A, ("x", "y")) == 1 - 2
    assert regraded_chain_degree(A, ("1", "1", "1")) == 2
    # one above the generic Hochschild degree of the diagonal complex... the
    # explicit formula sits one BELOW the generic degree
    M = diagonal_bimodule(A)
    cx = HochschildComplex(M, 3)
    for w in cx.all_words():
        assert regraded_chain_degree(A, w) == cx.degree(w) - 1


@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_regraded_degrees_match_the_library_conventions(name):
    # CH^*(A) and CH_*(A) are the diagonal complexes with shifted degree
    # labels. A document cochain a_1..a_n -> b carries its CH^* degree
    # k = deg b + n - sum deg a_i; it must parse (the degree rule holds)
    # to a Cochain whose cup degree is k. A word's CH_* degree is one below
    # its degree in the diagonal complex.
    raw = fixture_document(name)
    degree = {a: d for a, d in raw["algebra"]["basis"]}
    specs = {}
    for n in range(3):
        for word in itertools.product(sorted(degree), repeat=n):
            for out in sorted(degree):
                k = degree[out] + n - sum(degree[a] for a in word)
                entry = {"inputs": list(word), "output": {out: "1"}}
                specs[f"c{len(specs)}"] = {"degree": k, "components": {str(n): [entry]}}
    raw["cochains"] = specs
    doc = parse(serialize(raw))
    diagonal = diagonal_bimodule(doc.algebra)
    named = doc.cochains(diagonal, 3)
    assert {c: cup_degree(f) for c, f in named.items()} == {
        c: spec["degree"] for c, spec in specs.items()
    }
    cx = HochschildComplex(diagonal, 3)
    for w in cx.all_words():
        assert regraded_chain_degree(doc.algebra, w) == cx.degree(w) - 1


def test_regraded_codifferential_matches_generic():
    for name in ("exterior2", "mu3_square_zero", "dual_numbers"):
        A = load(name).algebra
        M = diagonal_bimodule(A)
        for f in elementary_family(M, 2, cutoff=4):
            assert regraded_codifferential(f) == codifferential(f), (name, f.components)


@pytest.mark.parametrize("p", [None, 3])
def test_codifferential_matches_oracle(p):
    # the oracle rebuilds each preimage index and tries every prefix and
    # suffix word; the library reads only the table entries that exist
    for name in ALGEBRA_FIXTURES:
        A = load(name, p).algebra
        diag = diagonal_bimodule(A)
        for M in (diag, dual_bimodule(diag), tensor_square_bimodule(A)):
            for bucket in cochain_basis(M, 4).values():
                for _, word, out in bucket:
                    f = elementary_cochain(M, word, out, 4)
                    got, expected = codifferential(f), codifferential_oracle(f)
                    assert got.components == expected.components, (name, M.name, word, out)
                    assert got.truncated == expected.truncated, (name, M.name, word, out)


@pytest.mark.parametrize("p", [None, 3])
def test_cochain_boundaries_match_oracle_route(p):
    # the former route to a column: an elementary Cochain per basis key, its
    # beta from the oracle, flattened to {(arity, word, output): c}; the
    # library reads each column from coboundary without building a Cochain
    for name in ALGEBRA_FIXTURES:
        A = load(name, p).algebra
        diag = diagonal_bimodule(A)
        modules = ((diag, 4), (dual_bimodule(diag), 4), (tensor_square_bimodule(A), 3))
        for M, cutoff in modules:

            def former(key, M=M, cutoff=cutoff):
                _, word, out = key
                beta = codifferential_oracle(elementary_cochain(M, word, out, cutoff))
                return {
                    (n, w, o): c
                    for n, table in beta.components.items()
                    for w, value in table.items()
                    for o, c in value.items()
                }

            fc = cochain_complex(M, cutoff)
            for j, keys in fc.basis.items():
                expected = basis_matrix(keys, fc.basis.get(j - 1, []), former)
                assert fc.boundary(j) == expected, (name, M.name, j)


def test_truncation_flag():
    doc = load("exterior2")
    M = diagonal_bimodule(doc.algebra)
    f = elementary_cochain(M, ("x", "y"), "xy", cutoff=2)
    out = codifferential(f)
    assert out.truncated
    # with room to grow, the same computation is exact
    g = elementary_cochain(M, ("x", "y"), "xy", cutoff=4)
    assert not codifferential(g).truncated


def test_dual_cochain_cohomology_matches_chain_side():
    # phi identifies the dual-coefficient cochain complex (arity <= L) with
    # the linear dual of F_L block by block, so universal coefficients tie
    # the two homology computations together: equal free ranks in degree j,
    # and the cochain torsion in degree j equals the chain torsion in j - 1.
    for name in ("dual_numbers", "exterior1"):
        doc = load(name)
        M = diagonal_bimodule(doc.algebra)
        dual = dual_bimodule(M)
        L = 3
        cx = HochschildComplex(M, L)
        chain_table = homology_of_truncation(cx)
        cochains = cochain_complex(dual, L)
        for j in sorted(-k for k in cochains.basis):
            got = cochains.homology(-j)
            chain_j = chain_table.get(j)
            chain_jm1 = chain_table.get(j - 1)
            assert got.free_rank == (chain_j.free_rank if chain_j else 0), (name, j)
            expected_torsion = chain_jm1.torsion if chain_jm1 else ()
            assert got.torsion == expected_torsion, (name, j)


def test_cochain_basis_and_matrix_shapes():
    doc = load("dual_numbers")
    M = diagonal_bimodule(doc.algebra)
    cochains = cochain_complex(M, 2)
    basis = cochains.basis
    # arity n has 2^n words and 2 outputs; degrees split them
    total = sum(len(v) for v in basis.values())
    assert total == 2 * (1 + 2 + 4)

    for j in sorted(basis):
        mat = cochains.boundary(j)
        assert mat.rows == len(basis.get(j - 1, []))
        assert mat.cols == len(basis.get(j, []))
