"""graded_core: degree bookkeeping, sign exponents, sparse operation tables."""

import itertools
import random

import pytest

from ainfty.errors import (
    DegreeMismatch,
    IndexOutOfRange,
    Inhomogeneous,
    ModuleMismatch,
    NotPrime,
    TooLarge,
    UnknownName,
    ZeroElement,
)
from ainfty.graded import Element, GradedModule, MultilinearOp, apply, degree, reduced_index
from ainfty.rings import Z, Zp
from ainfty.signs import maltese

from helpers import maltese0, star_sign


@pytest.fixture
def mod():
    return GradedModule((("u", 0), ("v", 1), ("w", 3)), Z)


def test_degree_single_term(mod):
    assert degree(mod.basis_element("w")) == 3


def test_degree_shared(mod):
    m = GradedModule((("x", 1), ("y", 1)), Z)
    assert degree(Element(m, {"x": 2, "y": 5})) == 1


def test_degree_errors(mod):
    with pytest.raises(ZeroElement):
        degree(Element(mod, {}))
    with pytest.raises(Inhomogeneous):
        degree(Element(mod, {"u": 1, "v": 1}))


def test_reduced_index(mod):
    assert reduced_index(mod.basis_element("v")) == 0
    assert reduced_index(mod.basis_element("u")) == -1
    m = GradedModule((("x", 5),), Z)
    assert reduced_index(m.basis_element("x")) == 4


def test_maltese_examples():
    assert maltese([2, 3], 1, 2) == 3
    assert maltese([7, 7], 1, 0) == 0
    assert maltese([1, 1, 1], 1, 3) == 0
    with pytest.raises(IndexOutOfRange):
        maltese([1, 2], 0, 1)
    with pytest.raises(IndexOutOfRange):
        maltese([1, 2], 1, 3)


def test_maltese_additivity_enumeration():
    # additivity maltese(i,k) = maltese(i,j) + maltese(j+1,k), exhaustive for
    # short degree vectors, randomized spot checks for the longer ones
    for n in (1, 2, 3, 4):
        for degs in itertools.product(range(-3, 4), repeat=n):
            for i in range(1, n + 1):
                for k in range(i, n + 1):
                    for j in range(i, k + 1):
                        assert maltese(degs, i, k) == maltese(degs, i, j) + maltese(
                            degs, j + 1, k
                        )
    rng = random.Random(7)
    for _ in range(500):
        n = rng.choice((5, 6))
        degs = [rng.randint(-3, 3) for _ in range(n)]
        i = rng.randint(1, n)
        k = rng.randint(i, n)
        j = rng.randint(i, k)
        assert maltese(degs, i, k) == maltese(degs, i, j) + maltese(degs, j + 1, k)


def test_maltese0():
    assert maltese0(2, [3], 1) == 4
    assert maltese0(7, [], 0) == 7
    assert maltese0(123, [1, 2, 3], -1) == 0
    with pytest.raises(IndexOutOfRange):
        maltese0(0, [1], -2)


def test_star_sign_examples():
    assert star_sign(1, [1, 1, 1], 1) == 0
    assert star_sign(1, [2, 2], 2) == 2
    assert star_sign(0, [0, 0], 1) == 0


def exterior_xy():
    """Hand-built exterior algebra product table on 1, x, y, xy (the oracle)."""
    m = GradedModule((("1", 0), ("x", 1), ("y", 1), ("xy", 2)), Z)
    table = {}
    for n in m.names:
        table[("1", n)] = {n: 1}
        table[(n, "1")] = {n: 1}
    table[("x", "y")] = {"xy": 1}
    table[("y", "x")] = {"xy": -1}
    return m, MultilinearOp((m, m), m, 0, table, label="wedge")


def test_apply_identity():
    m = GradedModule((("a", 0), ("b", 2)), Z)
    op = MultilinearOp((m,), m, 0, {("a",): {"a": 1}, ("b",): {"b": 1}})
    e = Element(m, {"a": 3, "b": -2})
    assert apply(op, [e]) == e


def test_apply_zero_input():
    m, wedge = exterior_xy()
    zero = Element(m, {})
    assert apply(wedge, [zero, m.basis_element("x")]).is_zero()


def test_apply_exterior_square_vanishes():
    m, wedge = exterior_xy()
    x = m.basis_element("x")
    assert apply(wedge, [x, x]).is_zero()
    y = m.basis_element("y")
    assert apply(wedge, [x, y]) == m.basis_element("xy")
    assert apply(wedge, [y, x]) == m.basis_element("xy", -1)


def test_apply_multilinearity_random():
    m, wedge = exterior_xy()
    rng = random.Random(3)
    names = m.names
    for _ in range(200):
        u = Element(m, {rng.choice(names): rng.randint(-4, 4)})
        v = Element(m, {rng.choice(names): rng.randint(-4, 4)})
        w = Element(m, {rng.choice(names): rng.randint(-4, 4)})
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = apply(wedge, [u.scale(a) + v.scale(b), w])
        rhs = apply(wedge, [u, w]).scale(a) + apply(wedge, [v, w]).scale(b)
        assert lhs == rhs


def test_apply_arity_and_module_checks():
    m, wedge = exterior_xy()
    other = GradedModule((("z", 0),), Z)
    with pytest.raises(ModuleMismatch):
        apply(wedge, [other.basis_element("z"), m.basis_element("x")])
    import ainfty.errors as errors

    with pytest.raises(errors.ArityMismatch):
        apply(wedge, [m.basis_element("x")])


def test_op_rejects_degree_violation():
    m = GradedModule((("a", 0), ("b", 1)), Z)
    with pytest.raises(DegreeMismatch):
        MultilinearOp((m, m), m, 0, {("a", "a"): {"b": 1}})


def test_op_entries_respect_degree_rule():
    m, wedge = exterior_xy()
    for word, out in wedge.entries():
        assert degree(out) == sum(m.degree_of(n) for n in word) + wedge.degree


def test_unique_names_and_unknown():
    with pytest.raises(UnknownName):
        GradedModule((("a", 0), ("a", 1)), Z)
    m = GradedModule((("a", 0),), Z)
    with pytest.raises(UnknownName):
        Element(m, {"zz": 1})


def test_prime_field_arithmetic():
    with pytest.raises(NotPrime):
        Zp(4)
    m = GradedModule((("a", 0),), Zp(2))
    assert Element(m, {"a": 2}).is_zero()
    assert Element(m, {"a": -1}).terms == {"a": 1}


def test_prime_modulus_limit():
    # the largest modulus tested for primality is 2^31; above it, even a
    # prime is refused before any division
    assert Zp(2**31 - 1).p == 2**31 - 1
    for p in (2**31 + 1, 2**64 - 59):
        with pytest.raises(TooLarge, match=f"modulus {p} is above the limit of {2**31}"):
            Zp(p)


def test_mod_p_table_coefficients():
    m = GradedModule((("a", 0), ("b", 0)), Zp(3))
    op = MultilinearOp((m,), m, 0, {("a",): {"b": 3}, ("b",): {"a": -1}})
    assert op.on_word(("a",)).is_zero()
    assert op.on_word(("b",)).terms == {"a": 2}
