"""Bimodule constructions, their defining equations, and morphisms."""

import itertools
import random

from ainfty.bimodules import (
    AInfinityBimodule,
    BimoduleMorphism,
    bimodule_op,
    bimodule_residuals,
    check_bimodule_equation,
    check_morphism_equation,
    diagonal_bimodule,
    dual_bimodule,
    identity_morphism,
    morphism_sides,
    tensor_name,
    tensor_square_bimodule,
    validate_bimodule,
    validate_morphism,
)
from ainfty.cochains import codifferential, elementary_cochain
from ainfty.algebra import AInfinityAlgebra, equation_residuals, from_dga, validate
from ainfty.fixtures import FIXTURE_NAMES
from ainfty.graded import Element, GradedModule, MultilinearOp
from ainfty.rings import Z, Zp

from helpers import (
    ALGEBRA_FIXTURES,
    bimodule_equation_residual_oracle,
    bimodule_words,
    cocycle_to_morphism,
    dual_bimodule_oracle,
    equation_residual_oracle,
    load,
    morphism_equation_sides_oracle,
    morphism_is_chain_map_00,
    mu1_algebra,
    mu_word,
    op_word,
    tensor_square_oracle,
)


def test_diagonal_reindexes_the_multiplications():
    A = load("exterior2").algebra
    M = diagonal_bimodule(A)
    # (0,0) op is mu_1 (zero differential here -> op absent)
    assert M.ops.get((0, 0)) is None
    # (1,0) op is mu_2 as a table
    for a, b in itertools.product(A.module.names, repeat=2):
        assert op_word(M, 1, 0, (a, b)).terms == mu_word(A, 2, (a, b)).terms


def test_diagonal_ops_have_bimodule_degrees():
    A = load("exterior2").algebra
    M = diagonal_bimodule(A)
    for (r, s), op in M.ops.items():
        assert op.degree == 1 - r - s
        for word, out in op.entries():
            in_deg = sum(sig.degree_of(n) for sig, n in zip(op.signature, word))
            from ainfty.graded import degree

            assert degree(out) == in_deg + 1 - r - s


def test_zero_zero_equation_is_differential():
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    assert check_bimodule_equation(N, 0, 0).holds
    # mu_{0,0} composed with itself vanishes entry-wise
    for m in N.module.names:
        out = op_word(N, 0, 0, (m,))
        acc = {}
        for t, c in out.terms.items():
            for u, v in op_word(N, 0, 0, (t,)).terms.items():
                acc[u] = acc.get(u, 0) + c * v
        assert not any(acc.values())


def test_diagonal_equations_all_fixtures():
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        M = diagonal_bimodule(A)
        for (r, s), verdict in validate_bimodule(M, 4).items():
            assert verdict.holds, f"{name}: {verdict.describe()}"


def test_tensor_square_vanishing_family():
    A = load("exterior2").algebra
    M = tensor_square_bimodule(A)
    assert M.ops.get((1, 1)) is None
    assert M.ops.get((2, 1)) is None


def test_tensor_square_differential_formula():
    # on a DGA with differential: mu(b1 x b2) = d(b1) x b2 +- b1 x d(b2)
    from ainfty.algebra import from_dga
    from ainfty.graded import GradedModule

    m = GradedModule((("u", 0), ("v", 1)), Z)
    prod = MultilinearOp((m, m), m, 0, {})
    diff = MultilinearOp((m,), m, 1, {("u",): {"v": 1}})
    A = from_dga(m, prod, diff)
    M = tensor_square_bimodule(A)
    out = op_word(M, 0, 0, (tensor_name("u", "u"),))
    # d(u) x u + (-1)^{|u|-1} u x d(u) = v|u - u|v
    assert out.terms == {tensor_name("v", "u"): 1, tensor_name("u", "v"): -1}
    for (r, s), verdict in validate_bimodule(M, 3).items():
        assert verdict.holds, verdict.describe()


def test_tensor_square_left_action_on_exterior():
    A = load("exterior1").algebra
    M = tensor_square_bimodule(A)
    word = ("x", tensor_name("x", "x"))
    assert op_word(M, 1, 0, word).is_zero()  # mu_2(x,x) = 0
    out = op_word(M, 1, 0, ("1", tensor_name("x", "x")))
    assert out.terms == {tensor_name("x", "x"): 1}


def test_tensor_square_grading():
    A = load("exterior2").algebra
    M = tensor_square_bimodule(A)
    amod = A.module
    for n1 in amod.names:
        for n2 in amod.names:
            expected = (amod.degree_of(n1) - 1) + (amod.degree_of(n2) - 1)
            assert M.module.degree_of(tensor_name(n1, n2)) == expected


def test_tensor_square_equations_all_fixtures():
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        M = tensor_square_bimodule(A)
        for (r, s), verdict in validate_bimodule(M, 3).items():
            assert verdict.holds, f"{name}: {verdict.describe()}"


def test_dual_zero_zero_sign():
    # (mu*_{0,0}(m^))(m) = (-1)^{deg m^ + 1} m^(mu_{0,0}(m))
    doc = load("quasi_iso_pair")
    N = doc.bimodules["N"]
    D = dual_bimodule(N)
    out = op_word(D, 0, 0, ("w^",))
    # mu^N(v) = w, deg w^ = -1, so mu*(w^) = (-1)^{-1+1} v^ = v^
    assert out.terms == {"v^": 1}
    assert op_word(D, 0, 0, ("v^",)).is_zero()


def test_dual_equations_all_fixtures():
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        D = dual_bimodule(diagonal_bimodule(A))
        for (r, s), verdict in validate_bimodule(D, 3).items():
            assert verdict.holds, f"{name}: {verdict.describe()}"


def test_dual_of_tensor_square():
    # transposing a bimodule with nontrivial one-sided families exercises the
    # full ddag exponent, including the maltese product terms
    for name in ("exterior1", "dual_numbers"):
        A = load(name).algebra
        D = dual_bimodule(tensor_square_bimodule(A))
        for (r, s), verdict in validate_bimodule(D, 2).items():
            assert verdict.holds, f"{name}: {verdict.describe()}"


def test_double_dual_restores_degrees_and_tables():
    # identification via the graded evaluation pairing m -> (-1)^{deg m} m^^;
    # the Koszul sign is forced by the double transpose of the ddag exponents
    for name in ("exterior1", "exterior2", "dual_numbers", "quasi_iso_pair"):
        doc = load(name)
        M = (
            doc.bimodules["N"]
            if name == "quasi_iso_pair"
            else diagonal_bimodule(doc.algebra)
        )
        DD = dual_bimodule(dual_bimodule(M))
        strip = lambda n: n[:-2]
        assert tuple((strip(n), d) for n, d in DD.module.basis) == M.module.basis
        deg = M.module.degree_of
        for (r, s), op in M.ops.items():
            ddop = DD.ops.get((r, s))
            assert ddop is not None
            for word, out in op.entries():
                lifted = tuple(n if i != r else n + "^^" for i, n in enumerate(word))
                got = ddop.on_word(lifted)
                y = word[r]
                expected = {
                    n: c * (-1) ** ((deg(y) + deg(n)) % 2) for n, c in out.terms.items()
                }
                assert {strip(n): c for n, c in got.terms.items()} == expected
        for (r, s), op in DD.ops.items():
            assert M.ops.get((r, s)) is not None


def test_corrupted_bimodule_has_counterexample():
    doc = load("quasi_iso_pair")
    A = doc.algebra
    N = doc.bimodules["N"]
    ops = dict(N.ops)
    bad_table = {("e", "u"): {"u": 1}, ("e", "v"): {"v": 1}}  # w action dropped
    ops[(1, 0)] = bimodule_op(A, N.module, 1, 0, bad_table)
    bad = AInfinityBimodule(A, N.module, ops, name="bad")
    verdict = check_bimodule_equation(bad, 1, 0)
    assert not verdict.holds
    # the per-type map holds the residual on the reported word
    assert bimodule_residuals(bad, 1, 0)[verdict.word] == verdict.residual
    assert not verdict.residual.is_zero()


def test_identity_and_scalar_morphisms():
    for name in ("exterior2", "dual_numbers"):
        A = load(name).algebra
        M = diagonal_bimodule(A)
        ident = identity_morphism(M)
        for (r, s), verdict in validate_morphism(ident, 3).items():
            assert verdict.holds, verdict.describe()
        two = BimoduleMorphism(
            M,
            M,
            0,
            {(0, 0): MultilinearOp((M.module,), M.module, 0, {(n,): {n: 2} for n in M.module.names})},
            name="2id",
        )
        for (r, s), verdict in validate_morphism(two, 3).items():
            assert verdict.holds, verdict.describe()
        assert morphism_is_chain_map_00(ident)
        assert morphism_is_chain_map_00(two)


def test_quasi_iso_pair_morphism():
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    for (r, s), verdict in validate_morphism(f, 4).items():
        assert verdict.holds, verdict.describe()
    assert morphism_is_chain_map_00(f)


def test_degree_one_morphism_equations():
    # a nonzero morphism of odd degree exercises every d-dependent sign
    A = load("exterior1").algebra
    M = diagonal_bimodule(A)
    f00 = MultilinearOp((M.module,), M.module, 1, {("1",): {"x": 1}})
    f = BimoduleMorphism(M, M, 1, {(0, 0): f00}, name="deg1")
    for (r, s), verdict in validate_morphism(f, 3).items():
        assert verdict.holds, verdict.describe()


def test_corrupted_morphism_counterexample():
    doc = load("quasi_iso_pair")
    M, N = doc.bimodules["M"], doc.bimodules["N"]
    f00 = MultilinearOp((M.module,), N.module, 0, {("m",): {"u": 1, "v": 1}})
    bad = BimoduleMorphism(M, N, 0, {(0, 0): f00}, name="bad")
    assert not check_morphism_equation(bad, 0, 0).holds
    assert not morphism_is_chain_map_00(bad)
    # failing at (0,0) is exactly failing the chain-map property there; the
    # equations at (1,0), (0,1) and (1,1) still hold, so (0,0) is the only
    # counterexample among them
    for r, s in [(1, 0), (0, 1), (1, 1)]:
        assert check_morphism_equation(bad, r, s).holds


def test_zero_zero_equation_implies_chain_map_00():
    # any morphism passing the (0,0) equation commutes with the differentials
    doc = load("quasi_iso_pair")
    f = doc.morphisms["include"]
    cases = [f, identity_morphism(doc.bimodules["N"]), identity_morphism(doc.bimodules["M"])]
    for g in cases:
        assert check_morphism_equation(g, 0, 0).holds
        assert morphism_is_chain_map_00(g)


def test_zero_morphism_is_chain_map():
    doc = load("quasi_iso_pair")
    M, N = doc.bimodules["M"], doc.bimodules["N"]
    zero = BimoduleMorphism(M, N, 0, {}, name="zero")
    assert morphism_is_chain_map_00(zero)
    for (r, s), verdict in validate_morphism(zero, 3).items():
        assert verdict.holds


def test_epsilon_projection_morphism():
    # projection of the dual numbers onto the quotient by the nilpotent part,
    # as a map of diagonal-type bimodules
    doc = load("dual_numbers")
    A = doc.algebra
    M = diagonal_bimodule(A)
    from ainfty.graded import GradedModule

    zmod = GradedModule((("z", -1),), Z)
    proj = {"1": 1, "e": 0}
    ops = {}
    t10 = {
        (a, "z"): {"z": proj[a]}
        for a in A.module.names
        if proj[a]
    }
    t01 = {("z", a): {"z": proj[a]} for a in A.module.names if proj[a]}
    ops[(1, 0)] = bimodule_op(A, zmod, 1, 0, t10)
    ops[(0, 1)] = bimodule_op(A, zmod, 0, 1, t01)
    N = AInfinityBimodule(A, zmod, ops, name="quotient")
    for (r, s), verdict in validate_bimodule(N, 3).items():
        assert verdict.holds, verdict.describe()
    f00 = MultilinearOp((M.module,), zmod, 0, {("1",): {"z": 1}})
    f = BimoduleMorphism(M, N, 0, {(0, 0): f00}, name="eps_to_zero")
    for (r, s), verdict in validate_morphism(f, 3).items():
        assert verdict.holds, verdict.describe()
    assert morphism_is_chain_map_00(f)


def _corrupted_bimodule():
    # the bimodule of test_corrupted_bimodule_has_counterexample
    doc = load("quasi_iso_pair")
    A, N = doc.algebra, doc.bimodules["N"]
    ops = dict(N.ops)
    bad_table = {("e", "u"): {"u": 1}, ("e", "v"): {"v": 1}}
    ops[(1, 0)] = bimodule_op(A, N.module, 1, 0, bad_table)
    return AInfinityBimodule(A, N.module, ops, name="bad")


def _words_up_to(M, bound=3):
    for total in range(bound + 1):
        for r in range(total + 1):
            for word in bimodule_words(M, r, total - r):
                yield r, total - r, word


def _compare_residuals(cases):
    """Per-type residuals against the oracle on every word up to bound 3; counts the nonzero."""
    nonzero = 0
    for M in cases:
        residuals = {}
        for r, s, word in _words_up_to(M):
            if (r, s) not in residuals:
                residuals[(r, s)] = bimodule_residuals(M, r, s)
            got = residuals[(r, s)].get(word, Element(M.module, {}))
            assert got == bimodule_equation_residual_oracle(M, r, s, word), (M.name, word)
            nonzero += not got.is_zero()
    return nonzero


def test_bimodule_residual_matches_written_out_oracle():
    # the per-type residuals are read from the operation indices; the oracle
    # writes out the three composite families word by word
    cases = [_corrupted_bimodule()]
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        diag = diagonal_bimodule(A)
        cases += [diag, tensor_square_bimodule(A), dual_bimodule(diag)]
    nonzero = _compare_residuals(cases)
    assert nonzero  # the corrupted bimodule has nonzero residuals


def _oracle_morphisms():
    doc = load("quasi_iso_pair")
    out = [doc.morphisms["include"]]
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        M = diagonal_bimodule(A)
        two = {(n,): {n: 2} for n in M.module.names}
        out.append(identity_morphism(M))
        out.append(
            BimoduleMorphism(
                M, M, 0, {(0, 0): MultilinearOp((M.module,), M.module, 0, two)}, name="2id"
            )
        )
        # a coboundary is a cocycle; its reindexing has degree != 0 and
        # components beyond (0,0)
        f = next(
            g
            for a in A.module.names
            for out_name in M.module.names
            for g in [codifferential(elementary_cochain(M, (a,), out_name, cutoff=4))]
            if g.degree != 0 and max(g.components) >= 2
        )
        mor = cocycle_to_morphism(f, diagonal=M)
        assert mor.degree != 0 and any(r + s for r, s in mor.maps)
        out.append(mor)
    A = load("exterior1").algebra
    M = diagonal_bimodule(A)
    f00 = MultilinearOp((M.module,), M.module, 1, {("1",): {"x": 1}})
    out.append(BimoduleMorphism(M, M, 1, {(0, 0): f00}, name="deg1"))
    return out


def _compare_sides(morphisms):
    """Per-type sides against the oracle on every word up to bound 3; counts the unequal."""
    unequal = 0
    for f in morphisms:
        sides = {}
        zero = Element(f.target.module, {})
        for r, s, word in _words_up_to(f.source):
            if (r, s) not in sides:
                sides[(r, s)] = morphism_sides(f, r, s)
            lhs, rhs = sides[(r, s)].get(word, (zero, zero))
            want = morphism_equation_sides_oracle(f, r, s, word)
            assert (lhs, rhs) == want, (f.name, word)
            unequal += lhs != rhs
    return unequal


def test_morphism_sides_match_written_out_oracle():
    unequal = _compare_sides(_oracle_morphisms())
    assert unequal  # the reindexed cocycles fail some equation


def _without_differential(M):
    ops = {rs: op for rs, op in M.ops.items() if rs != (0, 0)}
    return AInfinityBimodule(M.algebra, M.module, ops, name=M.name)


def test_mu1_algebra_families_match_written_out_oracle():
    A = mu1_algebra()
    assert set(A.ops) == {1, 2}
    diag = diagonal_bimodule(A)
    cases = [diag, tensor_square_bimodule(A), dual_bimodule(diag)]
    for M in cases:
        assert all(v.holds for v in validate_bimodule(M, 3).values()), M.name
    assert _compare_residuals(cases + [_without_differential(diag)])
    f00 = MultilinearOp((diag.module,), diag.module, 1, {("e",): {"1": 1}})
    deg1 = BimoduleMorphism(diag, diag, 1, {(0, 0): f00}, name="deg1")
    _compare_sides([identity_morphism(diag), deg1])


def test_mu1_diagonal_without_differential_fails():
    bad = _without_differential(diagonal_bimodule(mu1_algebra()))
    failures = [v.describe() for v in validate_bimodule(bad, 3).values() if not v.holds]
    assert failures == [
        "A[1]: bimodule equation (0,1): fails on ('1', 'e') with residual -1*1",
        "A[1]: bimodule equation (1,0): fails on ('e', '1') with residual 1",
    ]


def test_bimodule_validation_reads_no_word_lookups(monkeypatch):
    # the equations walk operation entries and indices, never one word at a time
    A = load("exterior2").algebra
    diag = diagonal_bimodule(A)
    modules = [(diag, 4), (tensor_square_bimodule(A), 3), (dual_bimodule(diag), 3)]
    calls = []
    real = MultilinearOp.on_word
    monkeypatch.setattr(MultilinearOp, "on_word", lambda *args: calls.append(args) or real(*args))
    for M, bound in modules:
        assert all(v.holds for v in validate_bimodule(M, bound).values()), M.name
    assert calls == []


def _tables(M):
    return M.module, M.name, {rs: op.table for rs, op in M.ops.items()}


def _random_algebra(seed):
    """Random degree-valid tables mu_1..mu_4 on three letters, over Z or Z/3;
    most of them break some defining equation."""
    rng = random.Random(seed)
    m = GradedModule((("u", 0), ("v", 1), ("w", -1)), Z if seed % 2 else Zp(3))
    ops = {}
    for n in range(1, 5):
        table = {}
        for word in itertools.product(m.names, repeat=n):
            target = sum(map(m.degree_of, word)) + 2 - n
            fits = [x for x in m.names if m.degree_of(x) == target]
            if fits and rng.random() < 0.4:
                table[word] = {x: rng.randint(-2, 2) for x in fits}
        ops[n] = MultilinearOp((m,) * n, m, 2 - n, table)
    return AInfinityAlgebra(m, ops)


def test_entry_walks_match_word_by_word_oracles():
    # algebra residuals, tensor squares and duals read from operation entries
    # equal the former word-by-word bodies, also where an equation fails
    m = GradedModule((("u", 0), ("v", 1)), Z)
    mu1 = MultilinearOp((m,), m, 1, {("u",): {"v": 1}})
    mu2 = MultilinearOp((m, m), m, 0, {("u", "u"): {"u": 1}})
    broken_derivation = AInfinityAlgebra(m, {1: mu1, 2: mu2})
    docs = [load(name, p) for name in ALGEBRA_FIXTURES for p in (None, 2, 3)]
    randoms = [_random_algebra(seed) for seed in range(8)]
    for A in [mu1_algebra(), broken_derivation] + [doc.algebra for doc in docs] + randoms:
        for r in range(1, 7):
            expected = {}
            for word in itertools.product(A.module.names, repeat=r):
                if residual := equation_residual_oracle(A, word):
                    expected[word] = residual
            assert equation_residuals(A, r) == expected, r
        square = tensor_square_bimodule(A)
        assert _tables(square) == _tables(tensor_square_oracle(A))
        for M in (diagonal_bimodule(A), square):
            assert _tables(dual_bimodule(M)) == _tables(dual_bimodule_oracle(M))
    assert any(equation_residuals(broken_derivation, 2).values())
    for doc in docs:
        for M in doc.bimodules.values():
            assert _tables(dual_bimodule(M)) == _tables(dual_bimodule_oracle(M))


def test_structure_layer_reads_no_word_lookups(monkeypatch):
    # the algebra equations, the tensor square and the dual walk operation
    # entries, never one word at a time
    algebras = [load(name).algebra for name in ("exterior2", "mu3_square_zero")]
    calls = []
    real = MultilinearOp.on_word
    monkeypatch.setattr(MultilinearOp, "on_word", lambda *args: calls.append(args) or real(*args))
    for A in algebras:
        assert all(v.holds for v in validate(A, 6).values())
        square = tensor_square_bimodule(A)
        dual_bimodule(diagonal_bimodule(A))
        dual_bimodule(square)
    assert calls == []


def test_constructions_keep_every_operation():
    # the diagonal reindexes every mu_n and the dual transposes every mu_(r,s)
    for name in FIXTURE_NAMES:
        doc = load(name)
        A = doc.algebra
        diag = diagonal_bimodule(A)
        assert set(diag.ops) == {(r, n - 1 - r) for n in A.ops for r in range(n)}, name
        for M in [diag, tensor_square_bimodule(A)] + list(doc.bimodules.values()):
            assert set(dual_bimodule(M).ops) == {(r, s) for s, r in M.ops}, (name, M.name)
