"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check here is exact (integer arithmetic; no tolerances). The stated
runtime budgets are asserted with time.monotonic. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time

from ainfty.bimodules import (
    AInfinityBimodule,
    BimoduleMorphism,
    bimodule_op,
    diagonal_bimodule,
    dual_bimodule,
    identity_morphism,
    tensor_square_bimodule,
    validate_bimodule,
)
from ainfty.algebra import validate as validate_algebra
from ainfty.chains import HochschildComplex, InducedChainMap
from ainfty.cochains import (
    DualChainElement,
    b_star,
    codifferential,
    duality_iso,
    elementary_cochain,
)
from ainfty.cup import cup, cup_degree
from ainfty.graded import GradedModule, MultilinearOp
from ainfty.homology import ExactMatrix, smith_normal_form
from ainfty.rings import Z
from ainfty.spectral import comparison_check, e1_rows

from helpers import (
    ALGEBRA_FIXTURES,
    classical_hochschild_boundary,
    differential,
    differential_word,
    induced,
    induced_chain,
    induced_on_word,
    load,
    product_lookup,
)


def report(criterion: str, elapsed: float, detail: str = ""):
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s){extra}")


def constructions(A):
    diag = diagonal_bimodule(A)
    return {
        "diagonal": diag,
        "tensor_square": tensor_square_bimodule(A),
        "dual": dual_bimodule(diag),
    }


def test_criterion_1_ainfty_validity():
    started = time.monotonic()
    checked = 0
    for name in ALGEBRA_FIXTURES:
        for p in (None, 2):
            A = load(name, p).algebra
            for r, verdict in validate_algebra(A, 8).items():
                assert verdict.holds, f"{name} (p={p}): {verdict.describe()}"
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report("1 (defining equations r<=8, Z and Z/2)", elapsed, f"{checked} checks")


def test_criterion_2_bimodule_theorems():
    started = time.monotonic()
    checked = 0
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        mods = constructions(A)
        bounds = {"diagonal": 4, "tensor_square": 3, "dual": 3}
        for label, M in mods.items():
            for (r, s), verdict in validate_bimodule(M, bounds[label]).items():
                assert verdict.holds, f"{name}/{label}: {verdict.describe()}"
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("2 (diagonal/tensor-square/dual equations)", elapsed, f"{checked} checks")


def test_criterion_3_b_squared_zero():
    started = time.monotonic()
    words = 0
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        for label, M in constructions(A).items():
            cx = HochschildComplex(M, 4)
            for w in cx.all_words():
                assert not differential(cx, differential_word(cx, w)), (name, label, w)
                words += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report("3 (b.b = 0 on words of length <= 4)", elapsed, f"{words} words")


def _epsilon_projection():
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
    return BimoduleMorphism(M, N, 0, {(0, 0): f00}, name="eps_to_zero")


def _fixture_morphisms():
    morphisms = []
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        M = diagonal_bimodule(A)
        morphisms.append((f"id[{name}]", identity_morphism(M)))
        two = BimoduleMorphism(
            M,
            M,
            0,
            {
                (0, 0): MultilinearOp(
                    (M.module,), M.module, 0, {(n,): {n: 2} for n in M.module.names}
                )
            },
            name="2id",
        )
        morphisms.append((f"2id[{name}]", two))
    morphisms.append(("eps_to_zero", _epsilon_projection()))
    doc = load("quasi_iso_pair")
    morphisms.append(("include", doc.morphisms["include"]))
    return morphisms


def test_criterion_4_induced_chain_maps():
    started = time.monotonic()
    for label, f in _fixture_morphisms():
        src = HochschildComplex(f.source, 3)
        fstar = InducedChainMap(f, src, HochschildComplex(f.target, 3))
        for w in src.all_words():
            assert differential(fstar.target, induced_on_word(fstar, w)) == induced_chain(
                fstar, differential_word(src, w)
            ), (label, w)
    elapsed = time.monotonic() - started
    report("4 (b.f* = f*.b on words of length <= 3)", elapsed)


def test_criterion_5_codifferential_and_duality():
    started = time.monotonic()
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        diag = diagonal_bimodule(A)
        dual = dual_bimodule(diag)
        growth = max(
            [n - 1 for n in A.ops] + [r + s for (r, s) in dual.ops], default=0
        )
        cutoff = 3 + 2 * growth
        for n in range(4):
            for word in itertools.product(A.module.names, repeat=n):
                for out in dual.module.names:
                    f = elementary_cochain(dual, word, out, cutoff=cutoff)
                    assert not codifferential(codifferential(f)).components, (
                        name,
                        word,
                        out,
                    )
        cx = HochschildComplex(diag, 4)
        for n in range(4):
            for w in cx.words(n):
                psi = DualChainElement(cx, {w: 1})
                lhs = duality_iso(b_star(psi), dual=dual, cutoff=4)
                rhs = codifferential(duality_iso(psi, dual=dual, cutoff=4))
                assert lhs == rhs, (name, w)
    elapsed = time.monotonic() - started
    report("5 (beta.beta = 0 and phi.b* = beta.phi)", elapsed)


def test_criterion_6_cup_leibniz():
    started = time.monotonic()
    pairs = 0
    for name in ("dual_numbers", "exterior2"):
        A = load(name).algebra
        M = diagonal_bimodule(A)
        family = [
            elementary_cochain(M, word, out, cutoff=5)
            for n in range(3)
            for word in itertools.product(A.module.names, repeat=n)
            for out in M.module.names
        ]
        for f in family:
            for g in family:
                lhs = codifferential(cup(f, g))
                sgn = 1 if cup_degree(f) % 2 == 0 else -1
                rhs = cup(codifferential(f), g).add(
                    cup(f, codifferential(g)).scale(sgn)
                )
                assert not lhs.truncated and not rhs.truncated
                assert lhs == rhs, (name, f.components, g.components)
                pairs += 1
    elapsed = time.monotonic() - started
    report("6 (cup Leibniz, arity <= 2)", elapsed, f"{pairs} pairs")


def test_criterion_7_e1_identification():
    started = time.monotonic()
    cases = []
    for name in ALGEBRA_FIXTURES:
        doc = load(name)
        cases.append((name, diagonal_bimodule(doc.algebra)))
        if name == "quasi_iso_pair":
            cases.extend(doc.bimodules.items())
    blocks = 0
    for label, M in cases:
        for p, q, direct, quotient in e1_rows(HochschildComplex(M, 4)):
            assert direct.invariants() == quotient.invariants(), (label, p, q)
            blocks += 1
    elapsed = time.monotonic() - started
    report("7 (E^1 quotient path = direct path, p <= 4)", elapsed, f"{blocks} blocks")


def test_criterion_8_quasi_iso_transfer():
    started = time.monotonic()
    doc = load("quasi_iso_pair")
    verdict = comparison_check(induced(doc.morphisms["include"], 4))
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds
    assert verdict.witnessed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("8 (comparison hypothesis + conclusion by SNF)", elapsed)


def test_criterion_9_classical_crosscheck():
    started = time.monotonic()
    words = 0
    for name in ("dual_numbers", "truncated_poly3"):
        doc = load(name)
        A = doc.algebra
        product = product_lookup(doc)
        M = diagonal_bimodule(A)
        cx = HochschildComplex(M, 3)
        for w in cx.all_words():
            ours = differential_word(cx, w)
            classical = classical_hochschild_boundary(product, w)
            assert ours == classical, (name, w, ours, classical)
            words += 1
    elapsed = time.monotonic() - started
    report("9 (b equals the classical boundary, degree-0 DGAs)", elapsed, f"{words} words")


def test_criterion_10_snf_self_verification():
    started = time.monotonic()
    rng = random.Random(2024)
    for trial in range(1000):
        rows = rng.randint(1, 30)
        cols = rng.randint(1, 30)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.35:
                    entries[(i, j)] = rng.randint(-9, 9)
        mat = ExactMatrix(rows, cols, entries)
        D, U, V = smith_normal_form(mat)
        assert U @ mat @ V == D, trial
        diag = [abs(D.entries.get((t, t), 0)) for t in range(min(rows, cols))]
        nz = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:])), trial
        assert all(
            D.entries.get((i, j), 0) == 0 for (i, j) in D.entries if i != j
        ), trial
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report("10 (1000 random SNFs: D = UMV + divisibility)", elapsed)
