"""A-infinity algebras: defining equations, the DGA embedding, the shift."""

import itertools
import random

import pytest

from ainfty.algebra import (
    AInfinityAlgebra,
    check_defining_equation,
    equation_residuals,
    from_dga,
    shift,
    validate,
)
from ainfty.errors import LeibnizFailure, NotADifferential, NotAssociative
from ainfty.graded import Element, GradedModule, MultilinearOp
from ainfty.rings import Z, Zp
from ainfty.signs import maltese, sign

from helpers import (
    ALGEBRA_FIXTURES,
    associativity_failure_oracle,
    dga_failure_oracle,
    load,
    mu_word,
)


def test_defining_equations_fixtures_over_z_and_z2():
    for name in ALGEBRA_FIXTURES:
        for p in (None, 2):
            A = load(name, p).algebra
            for r, verdict in validate(A, 8).items():
                assert verdict.holds, f"{name} (p={p}): {verdict.describe()}"


def test_r1_reduces_to_differential_squared():
    # a DGA with a genuine differential: Z<u, v>, d(u) = v
    m = GradedModule((("u", 0), ("v", 1)), Z)
    prod = MultilinearOp((m, m), m, 0, {}, label="zero product")
    diff = MultilinearOp((m,), m, 1, {("u",): {"v": 1}}, label="d")
    A = from_dga(m, prod, diff)
    assert check_defining_equation(A, 1).holds


def test_r3_is_associativity():
    A = load("truncated_poly3").algebra
    assert check_defining_equation(A, 3).holds


def test_from_dga_with_differential_validates_to_r8():
    # interval-style DGA: idempotent t with d(t) = s, one-sided s-action
    m = GradedModule((("1", 0), ("t", 0), ("s", 1)), Z)
    table = {
        ("1", "1"): {"1": 1},
        ("1", "t"): {"t": 1},
        ("1", "s"): {"s": 1},
        ("t", "1"): {"t": 1},
        ("s", "1"): {"s": 1},
        ("t", "t"): {"t": 1},
        ("t", "s"): {"s": 1},
    }
    prod = MultilinearOp((m, m), m, 0, table)
    diff = MultilinearOp((m,), m, 1, {("t",): {"s": 1}})
    A = from_dga(m, prod, diff)
    for r, verdict in validate(A, 8).items():
        assert verdict.holds, verdict.describe()


def test_broken_derivation_has_counterexample():
    # mu_1 not a derivation of mu_2: residual equals the directly evaluated
    # A-infinity Leibniz defect (the oracle below recomputes it from scratch)
    m = GradedModule((("u", 0), ("v", 1)), Z)
    mu1 = MultilinearOp((m,), m, 1, {("u",): {"v": 1}})
    mu2 = MultilinearOp((m, m), m, 0, {("u", "u"): {"u": 1}})
    A = AInfinityAlgebra(m, {1: mu1, 2: mu2})
    verdict = check_defining_equation(A, 2)
    assert not verdict.holds

    def defect(a, b):
        degs = [m.degree_of(a), m.degree_of(b)]
        acc = Element(m, {})
        for t, c in mu2.on_word((a, b)).terms.items():
            acc = acc + mu1.on_word((t,)).scale(c)
        for t, c in mu1.on_word((a,)).terms.items():
            acc = acc + mu2.on_word((t, b)).scale(c)
        s = sign(maltese(degs, 1, 1))
        for t, c in mu1.on_word((b,)).terms.items():
            acc = acc + mu2.on_word((a, t)).scale(s * c)
        return acc

    word = verdict.word
    assert verdict.residual == defect(*word)
    assert defect("u", "u") == m.basis_element("v")


def test_from_dga_rejects_bad_differential():
    m = GradedModule((("u", 0), ("v", 1), ("w", 2)), Z)
    prod = MultilinearOp((m, m), m, 0, {})
    bad = MultilinearOp((m,), m, 1, {("u",): {"v": 1}, ("v",): {"w": 1}})
    with pytest.raises(NotADifferential):
        from_dga(m, prod, bad)


def test_from_dga_rejects_nonassociative():
    m = GradedModule((("1", 0), ("x", 0), ("x2", 0)), Z)
    table = {
        ("1", "1"): {"1": 1},
        ("1", "x"): {"x": 1},
        ("1", "x2"): {"x2": 1},
        ("x", "1"): {"x": 1},
        ("x2", "1"): {"x2": 1},
        ("x", "x"): {"1": 1},  # broken: (x*x)*x2 = x2 but x*(x*x2) = 0
    }
    prod = MultilinearOp((m, m), m, 0, table)
    with pytest.raises(NotAssociative):
        from_dga(m, prod)


@pytest.mark.parametrize("p", [None, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_from_dga_names_the_first_nonassociative_triple(seed, p):
    # random degree-0 products on four letters, ungraded or graded, some of
    # them associative: the defining-equation walk names the same triple,
    # with the same message, as the check on all n^3 triples
    rng = random.Random(seed)
    ring = Z if p is None else Zp(p)
    degrees = (0, 0, 0, 0) if seed % 2 else (0, 1, -1, 1)
    m = GradedModule(tuple(zip(("1", "a", "b", "c"), degrees)), ring)
    table = {}
    density = (0.1, 0.25, 0.5)[seed % 3]
    for x, y in itertools.product(m.names, repeat=2):
        fits = [n for n in m.names if m.degree_of(n) == m.degree_of(x) + m.degree_of(y)]
        if fits and rng.random() < density:
            terms = rng.sample(fits, min(len(fits), rng.randint(1, 2)))
            table[x, y] = {n: rng.randint(-2, 2) for n in terms}
    prod = MultilinearOp((m, m), m, 0, table)
    expected = associativity_failure_oracle(m, prod)
    if expected is None:
        from_dga(m, prod)
    else:
        with pytest.raises(NotAssociative) as err:
            from_dga(m, prod)
        assert str(err.value) == expected


def _exterior_times_dual_numbers(ring):
    """Lambda(a, b) (x) Z[x]/x^2, |a| = |b| = 1, |x| = 0: graded commutative,
    so associative, with letters in degrees 0, 1 and 2."""
    monomials = [(i, S) for S in ((), ("a",), ("b",), ("a", "b")) for i in (0, 1)]
    name = {(i, S): ("x" if i else "") + "".join(S) or "1" for i, S in monomials}
    m = GradedModule(tuple((name[i, S], len(S)) for i, S in monomials), ring)
    table = {}
    for (i, S), (j, T) in itertools.product(monomials, repeat=2):
        if i + j < 2 and not set(S) & set(T):
            # (b, a) is the one inversion
            flip = S == ("b",) and T == ("a",)
            table[name[i, S], name[j, T]] = {name[i + j, tuple(sorted(S + T))]: -1 if flip else 1}
    return m, MultilinearOp((m, m), m, 0, table)


@pytest.mark.parametrize("p", [None, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_from_dga_names_the_first_differential_and_leibniz_failures(seed, p):
    # random degree +1 maps on an associative product, some with d*d = 0 and
    # some derivations: the defining equations r = 1 and r = 2 name the same
    # word, with the same message, as the loops over every letter and pair
    rng = random.Random(seed)
    m, prod = _exterior_times_dual_numbers(Z if p is None else Zp(p))
    density = (0.15, 0.3, 0.6)[seed % 3]
    table = {}
    for x in m.names:
        fits = [n for n in m.names if m.degree_of(n) == m.degree_of(x) + 1]
        if fits and x != "1" and rng.random() < density:
            terms = rng.sample(fits, rng.randint(1, 2))
            table[(x,)] = {n: rng.randint(-2, 2) for n in terms}
    diff = MultilinearOp((m,), m, 1, table)
    expected = dga_failure_oracle(m, prod, diff)
    if expected is None:
        from_dga(m, prod, diff)
    else:
        kind, message = expected
        with pytest.raises(kind) as err:
            from_dga(m, prod, diff)
        assert str(err.value) == message


def test_from_dga_rejects_leibniz_failure():
    m = GradedModule((("u", 0), ("v", 1)), Z)
    prod = MultilinearOp(
        (m, m), m, 0, {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}, ("v", "u"): {"v": 1}}
    )
    diff = MultilinearOp((m,), m, 1, {("u",): {"v": 1}})
    with pytest.raises(LeibnizFailure):
        from_dga(m, prod, diff)


def test_dual_numbers_associativity_oracle():
    doc = load("dual_numbers")
    table = {}
    for entry in doc.raw["algebra"]["product"]:
        table[tuple(entry["inputs"])] = {k: int(v) for k, v in entry["output"].items()}

    def mul(d1, d2):
        acc = {}
        for a, c1 in d1.items():
            for b, c2 in d2.items():
                for t, c in table.get((a, b), {}).items():
                    acc[t] = acc.get(t, 0) + c1 * c2
        return {k: v for k, v in acc.items() if v}

    names = ("1", "e")
    for a, b, c in itertools.product(names, repeat=3):
        assert mul(mul({a: 1}, {b: 1}), {c: 1}) == mul({a: 1}, mul({b: 1}, {c: 1}))
    assert validate(doc.algebra, 6)[3].holds


def test_exterior_square_zero_in_mu2():
    A = load("exterior1").algebra
    assert mu_word(A, 2, ("x", "x")).is_zero()
    # the embedding twists by the degree of the first argument
    assert mu_word(A, 2, ("x", "1")) == A.module.basis_element("x", -1)
    assert mu_word(A, 2, ("1", "x")) == A.module.basis_element("x")


def test_mu3_fixture_passes_through_r5():
    A = load("mu3_square_zero").algebra
    for r, verdict in validate(A, 5).items():
        assert verdict.holds, verdict.describe()


def test_empty_algebra_vacuous():
    m = GradedModule((), Z)
    A = AInfinityAlgebra(m, {})
    assert all(v.holds for v in validate(A, 6).values())


def test_shift_examples():
    m = GradedModule((("x", 1),), Z)
    A = AInfinityAlgebra(m, {})
    assert shift(A).basis == (("x", 0),)
    m2 = GradedModule((("u", 0), ("v", 2)), Z)
    A2 = AInfinityAlgebra(m2, {})
    assert shift(A2).basis == (("u", -1), ("v", 1))
    assert shift(A2).shifted(-1).basis == (("u", -2), ("v", 0))


def test_shift_preserves_names():
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        assert shift(A).names == A.module.names


def test_degree_parity_identity_on_tables():
    # reduced index of mu_l output = maltese(1,l) + 1 (mod 2) on every entry
    for name in ALGEBRA_FIXTURES:
        A = load(name).algebra
        for l, op in A.ops.items():
            for word, out in op.entries():
                degs = [A.module.degree_of(n) for n in word]
                from ainfty.graded import degree as elem_degree

                assert (elem_degree(out) - 1) % 2 == (maltese(degs, 1, l) + 1) % 2


def test_residual_zero_on_valid_words():
    # only words with a nonzero residual are listed, so none may be
    A = load("exterior2").algebra
    assert equation_residuals(A, 3) == {}
