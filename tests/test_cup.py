"""Cup product: classical comparison, degree additivity, the Leibniz identity,
and the unital, associative, graded-commutative algebra HH^*."""

import itertools

import pytest

from ainfty.bimodules import diagonal_bimodule
from ainfty.cochains import (
    codifferential,
    elementary_cochain,
)
from ainfty.cup import cup, cup_degree
from ainfty.errors import ModuleMismatch
from ainfty.homology import ExactMatrix, smith_normal_form

from helpers import cochain_complex, cup_oracle, load, product_lookup


def elementary_family(M, max_arity, cutoff=5):
    out = []
    for n in range(max_arity + 1):
        for word in itertools.product(M.algebra.module.names, repeat=n):
            for name in M.module.names:
                out.append(elementary_cochain(M, word, name, cutoff))
    return out


def test_classical_cup_degree_zero_oracle():
    # k = 0 on a degree-zero algebra: our cup equals the front/back classical
    # cup f(a_1..a_m) * g(a_{m+1}..a_{m+n}), computed independently
    for name in ("dual_numbers", "truncated_poly3"):
        doc = load(name)
        A = doc.algebra
        M = diagonal_bimodule(A)
        product = product_lookup(doc)
        names = A.module.names
        for f in elementary_family(M, 2, cutoff=5):
            for g in elementary_family(M, 2, cutoff=5):
                got = cup(f, g)
                (m, wf), (n, wg) = _single(f), _single(g)
                expected = {}
                for word in itertools.product(names, repeat=m + n):
                    if word[:m] != wf or word[m:] != wg:
                        continue
                    vf = f.component(m)[wf]
                    vg = g.component(n)[wg]
                    acc = {}
                    for a, ca in vf.items():
                        for b, cb in vg.items():
                            for t, c in product.get((a, b), {}).items():
                                acc[t] = acc.get(t, 0) + ca * cb * c
                    acc = {k: v for k, v in acc.items() if v}
                    if acc:
                        expected[word] = acc
                assert got.component(m + n) == expected, (name, wf, wg)


def _single(f):
    (n, table), = f.components.items()
    (word,) = table.keys()
    return n, word


def test_cup_frozen_values_exterior_line():
    # hand-computed on the exterior line: f = (x -> 1), g = (x -> x)
    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    f = elementary_cochain(M, ("x",), "1", cutoff=5)
    g = elementary_cochain(M, ("x",), "x", cutoff=5)
    fg = cup(f, g)
    assert fg.components == {2: {("x", "x"): {"x": 1}}}
    assert cup_degree(fg) == 1
    gf = cup(g, f)
    assert gf.components == {2: {("x", "x"): {"x": 1}}}
    ff = cup(f, f)
    assert ff.components == {2: {("x", "x"): {"1": 1}}}
    assert cup_degree(ff) == 0


def test_cup_requires_diagonal_coefficients():
    from ainfty.bimodules import dual_bimodule

    doc = load("exterior1")
    M = diagonal_bimodule(doc.algebra)
    D = dual_bimodule(M)
    f = elementary_cochain(D, ("x",), "1^", cutoff=4)
    with pytest.raises(ModuleMismatch):
        cup(f, f)


def test_cup_with_zero_is_zero():
    doc = load("dual_numbers")
    M = diagonal_bimodule(doc.algebra)
    from ainfty.cochains import Cochain

    zero = Cochain(M, 0, {}, cutoff=5)
    f = elementary_cochain(M, ("e",), "e", cutoff=5)
    assert cup(f, zero).is_zero()
    assert cup(zero, f).is_zero()


def test_cup_degree_additivity():
    for name in ("dual_numbers", "exterior2", "mu3_square_zero"):
        doc = load(name)
        M = diagonal_bimodule(doc.algebra)
        for f in elementary_family(M, 1, cutoff=5):
            for g in elementary_family(M, 1, cutoff=5):
                fg = cup(f, g)
                if not fg.is_zero():
                    assert cup_degree(fg) == cup_degree(f) + cup_degree(g)


def test_cup_leibniz_sample():
    # the exhaustive arity <= 2 battery is in the acceptance suite
    doc = load("exterior2")
    M = diagonal_bimodule(doc.algebra)
    fam = elementary_family(M, 1, cutoff=5)
    for f in fam:
        for g in fam:
            lhs = codifferential(cup(f, g))
            sgn = 1 if cup_degree(f) % 2 == 0 else -1
            rhs = cup(codifferential(f), g).add(cup(f, codifferential(g)).scale(sgn))
            assert not lhs.truncated and not rhs.truncated
            assert lhs == rhs


def test_cup_uses_higher_multiplications():
    # with a genuine mu_3 the k = 1 spectator terms contribute
    doc = load("mu3_square_zero")
    M = diagonal_bimodule(doc.algebra)
    f = elementary_cochain(M, ("a",), "a", cutoff=5)
    fg = cup(f, f)
    assert 3 in fg.components
    assert all(len(w) == 3 for w in fg.component(3))


def _membership_in_image(B: ExactMatrix, v: dict[int, int]) -> bool:
    """Integral membership of v in the column span of B (independent oracle)."""
    D, U, V = smith_normal_form(B)
    vec = ExactMatrix(B.rows, 1, {(i, 0): c for i, c in v.items() if c})
    Uv = U @ vec
    for i in range(B.rows):
        d = D.entries.get((i, i), 0) if i < B.cols else 0
        c = Uv.entries.get((i, 0), 0)
        if d == 0:
            if c:
                return False
        elif c % d:
            return False
    return True


def _as_vector(cochain, basis, j):
    index = {key: i for i, key in enumerate(basis.get(j, []))}
    vec = {}
    for n, table in cochain.components.items():
        for w, slot in table.items():
            for name, c in slot.items():
                vec[index[(n, w, name)]] = vec.get(index[(n, w, name)], 0) + c
    return vec


UNITAL_FIXTURES = ("dual_numbers", "truncated_poly3", "exterior1", "exterior2")


def _cocycles(name, cutoff=4):
    """The diagonal, its cochain complex and the elementary cocycles of arity <= 1."""
    M = diagonal_bimodule(load(name).algebra)
    fam = elementary_family(M, 1, cutoff=cutoff)
    return M, cochain_complex(M, cutoff), [f for f in fam if codifferential(f).is_zero()]


def _in_image(cochains, x):
    """x lies in im beta: zero, or integrally in the span of beta's columns."""
    if x.is_zero():
        return True
    j = x.degree
    B = cochains.boundary(1 - j)  # beta from degree j - 1, graded by -j
    return _membership_in_image(B, _as_vector(x, cochains.basis, -j))


def test_cup_cocycle_with_coboundary_is_coboundary():
    M, cochains, cocycles = _cocycles("dual_numbers")
    assert cocycles
    for f in cocycles:
        for h in elementary_family(M, 1, cutoff=4):
            fg = cup(f, codifferential(h))
            if not fg.truncated:
                assert _in_image(cochains, fg), (_single(f), _single(h))


@pytest.mark.parametrize("name", UNITAL_FIXTURES)
def test_unit_cochain_is_a_two_sided_unit(name):
    # 1 is the arity-0 cochain valued at A's unit: 1 cup f = f = f cup 1
    M, _, cocycles = _cocycles(name)
    unit = elementary_cochain(M, (), "1", cutoff=4)
    assert codifferential(unit).is_zero()
    for f in cocycles:
        assert cup(unit, f) == f, _single(f)
        assert cup(f, unit) == f, _single(f)


def test_cup_on_arity_zero_is_the_product():
    # CH^0 = A on a degree-zero algebra: the cup of arity-0 cochains is A's product
    M = diagonal_bimodule(load("truncated_poly3").algebra)
    x = elementary_cochain(M, (), "x", cutoff=4)
    x2 = elementary_cochain(M, (), "x2", cutoff=4)
    assert cup(x, x) == x2
    assert cup(x, x2).is_zero()


def test_cup_walk_matches_spectator_enumeration():
    # the entry walk equals the former enumeration of spectator words, with
    # j1 up to k + 1, on elementary cochains, their images and the unit
    for name in ("exterior2", "dual_numbers", "mu3_square_zero"):
        M = diagonal_bimodule(load(name).algebra)
        fam = elementary_family(M, 1, cutoff=4)
        fam += [b for b in map(codifferential, fam) if not b.is_zero()]
        for f in fam:
            for g in fam:
                got, expected = cup(f, g), cup_oracle(f, g)
                assert got == expected and got.truncated == expected.truncated, (name, f, g)


def test_cup_associativity_on_classes():
    # chain-level associativity is not asserted; on cohomology classes the
    # associator of cocycles of arity <= 1 must be a coboundary (in im beta)
    for name in UNITAL_FIXTURES:
        _, cochains, cocycles = _cocycles(name)
        assert cocycles
        for f, g, h in itertools.product(cocycles, repeat=3):
            left = cup(cup(f, g), h)
            right = cup(f, cup(g, h))
            if left.truncated or right.truncated:
                continue
            assert _in_image(cochains, left.add(right.scale(-1))), (name, _single(f), _single(g), _single(h))


@pytest.mark.parametrize("name", UNITAL_FIXTURES)
def test_cup_graded_commutativity_on_classes(name):
    # f cup g - (-1)^{|f||g|} g cup f is a coboundary for cocycles f, g
    _, cochains, cocycles = _cocycles(name)
    for f, g in itertools.combinations(cocycles, 2):
        twist = -1 if cup_degree(f) * cup_degree(g) % 2 else 1
        fg, gf = cup(f, g), cup(g, f)
        if fg.truncated or gf.truncated:
            continue
        assert _in_image(cochains, fg.add(gf.scale(-twist))), (_single(f), _single(g))
