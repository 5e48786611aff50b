"""Exact linear algebra: SNF, kernels, homology and induced maps."""

import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ainfty.homology as homology
from ainfty.bimodules import diagonal_bimodule, dual_bimodule
from ainfty.chains import HochschildComplex
from ainfty.cli import main, resolve_bimodule
from ainfty.documents import serialize
from ainfty.errors import InternalInvariant, NotAComplex, NotChainMap
from ainfty.fixtures import fixture_document
from ainfty.homology import (
    ExactMatrix,
    FiniteComplex,
    _hstack,
    _smith,
    chain_map_failures,
    determinant,
    induced_map_on_homology,
    invariant_factors,
    kernel_basis,
    rank_modp,
    smith_normal_form,
)
from ainfty.rings import Z, Zp

from helpers import (
    ALGEBRA_FIXTURES,
    basis_matrix,
    call_arguments,
    cochain_complex,
    dense_rank_modp,
    dense_rank_q,
    differential_word,
    from_dense,
    image_complex,
    is_trivial,
    load,
    minor_gcd_invariants,
    mod,
    rank_z,
    whole_factors,
)


def test_snf_zero_matrix():
    # no entry, no support: the factorization holds nothing, and the public
    # transforms are the unit vectors of the empty rows and columns
    for p in (None, 2):
        assert _smith(ExactMatrix(3, 2), p) == ([], [], ([], [], {}))
    D, U, V = smith_normal_form(ExactMatrix(3, 2))
    assert D.is_zero()
    assert U == ExactMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert V == ExactMatrix(2, 2, {(i, i): 1 for i in range(2)})


def test_smith_is_sized_by_the_support():
    # one entry in a 10^6 x 10^6 matrix: the factorization, its transforms and
    # its certificate see one row and one column; the pivot 3 needs no
    # column operation, so V'' records none
    big = ExactMatrix(10**6, 10**6, {(5, 7): 3})
    assert _smith(big, None) == ([3], [], ([[3, {5: 1}, None, 5, 7]], [], {}))
    # mod p, an entry divisible by p is off the support; the unit 2 is
    # peeled, with U row {1: 2^-1}, and V's column is completed
    mat = ExactMatrix(3, 3, {(0, 0): 3, (1, 2): 2})
    assert _smith(mat, 3) == ([1], [2], ([[1, {1: 2}, None, 1, 2]], [], {}))
    assert kernel_basis(mat, Zp(3)) == ExactMatrix(3, 2, {(0, 0): 1, (1, 1): 1})


@pytest.mark.parametrize("p", [None, 3])
def test_snf_check_counts_the_transform_vectors(monkeypatch, p):
    # a U_s that loses the vector of a row without a pivot still satisfies
    # every product of the check; only the count of its rows exposes it
    original = homology._eliminate

    def lossy(*args, **kwargs):
        pivots, u_rest, v, peeled = original(*args, **kwargs)
        return pivots, u_rest[:-1], v, peeled

    monkeypatch.setattr(homology, "_eliminate", lossy)
    mat = from_dense([[1, 2], [2, 4]])
    with pytest.raises(InternalInvariant, match="misses a support vector"):
        kernel_basis(mat, Z if p is None else Zp(p))


@pytest.mark.parametrize("p", [None, 3])
def test_certificate_needs_the_rows_of_u_rest_to_vanish(p):
    # (1 2; 2 4) leaves row 1 without a pivot, its row of U being e_1 - 2 e_0;
    # e_1 alone passes the count of U's rows, but its row of W is (2, 4)
    mat, chain = from_dense([[1, 2], [2, 4]]), [[1, {0: 1}, None, 0, 0]]
    homology._certify(mat, chain, [{1: 1, 0: -2}], {}, p)
    with pytest.raises(InternalInvariant, match=r"D != U\*M\*V$"):
        homology._certify(mat, chain, [{1: 1}], {}, p)


def test_certificate_needs_a_non_unit_row_to_hold_d_alone():
    # (2 2): the pivot 2 at (0, 0) needs the column operation that V''
    # records; without it W's row is (2, 2), and no unit row can clear it
    mat, chain = from_dense([[2, 2]]), [[2, {0: 1}, None, 0, 0]]
    homology._certify(mat, chain, [], {1: {1: 1, 0: -1}}, None)
    with pytest.raises(InternalInvariant, match=r"D != U\*M\*V at pivot \(0, 0\)"):
        homology._certify(mat, chain, [], {}, None)


# The peel takes a chain here. Column 0 is the one singleton unit; deleting
# row 0 leaves column 1 with its -1, and deleting row 1 leaves column 2 with
# its 1. The peeled rows meet later-peeled columns (the 2 and the 3) and the
# residual columns 3 and 4, column 5 lies in peeled rows only, and the
# residual [[2, 2], [2, 4]] leaves the torsion Z/2 + Z/2: its second pivot
# is taken after a remainder round, which V'' records.
PEELED_CHAIN = [
    [1, 2, 0, 1, 0, 2],
    [0, -1, 3, 0, 2, 1],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 2, 2, 0],
    [0, 0, 0, 2, 4, 0],
]


def test_completed_v_undoes_a_peeled_chain(monkeypatch):
    mat = from_dense(PEELED_CHAIN)
    diagonal, peel, (chain, u_rest, v) = _smith(mat, None)
    assert (diagonal, peel, u_rest, v) == ([1, 1, 1, 2, 2], [0, 1, 2], [], {})
    assert [q[1] for q in chain[:3]] == [{0: 1}, {1: -1}, {2: 1}]
    # V'' moves one column, on the residual columns 3 and 4 alone
    assert [q[2] for q in chain] == [None] * 4 + [{3: -1, 4: 1}]
    D, U, V = smith_normal_form(mat)
    assert U @ mat @ V == D
    assert abs(determinant(U)) == abs(determinant(V)) == 1
    for ring in (Z, Zp(3)):
        K = kernel_basis(mat, ring)
        product = mat @ K
        assert K.cols == 1 and (mod(product, ring.p) if ring.p else product).is_zero()
        # the kernel lattice (mod 3, the kernel) is spanned: K's factors are all 1
        assert homology._factors(K, ring.p)[0] == [1]
    # a wrong column operation: a peeled coordinate of the last column off by one
    original = homology._complete_v

    def planted(*args, **kwargs):
        columns = original(*args, **kwargs)
        columns[-1][0] = columns[-1].get(0, 0) + 1
        return columns

    monkeypatch.setattr(homology, "_complete_v", planted)
    with pytest.raises(InternalInvariant, match=r"D != U\*M\*V"):
        smith_normal_form(mat)
    for ring in (Z, Zp(3)):
        with pytest.raises(InternalInvariant, match=r"M\*K != 0"):
            kernel_basis(mat, ring)


def _claim_an_entry_2(mat, pivots, peeled):
    twos = [key for key, x in mat.entries.items() if abs(x) == 2]
    if peeled and twos:
        (r, c), pivot = twos[0], pivots[0]
        pivot[1], pivot[3], pivot[4] = {r: 1}, r, c


def _reverse_the_peel(mat, pivots, peeled):
    pivots[:peeled] = pivots[:peeled][::-1]


def _double_a_peel_row(mat, pivots, peeled):
    if peeled:
        pivots[0][1] = {i: 2 * c for i, c in pivots[0][1].items()}


def _add_a_later_peel_row(mat, pivots, peeled):
    # W's row keeps its 1 and gains entries only at a later pivot's column,
    # but the peel's block in M, which clearing reads, is no longer its rows
    if peeled > 1:
        pivots[0][1] = {**pivots[0][1], **pivots[1][1]}


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_claim_an_entry_2, "D != U*M*V at pivot"),
        (_reverse_the_peel, "in a later row"),
        (_double_a_peel_row, "D != U*M*V at pivot"),
        (_add_a_later_peel_row, "a peel row of U is not one row of M"),
    ],
)
def test_peel_certificate_catches_a_tampered_peel(tmp_path, capsys, monkeypatch, tamper, message):
    # the peel's pivots carry no column of V'', so only the certificate reads
    # them: a pivot on an entry 2, an order that leaves a peeled column with
    # an entry in a later row, a U row scaled by 2 and a U row that adds a
    # later peel row must each be refused
    original = homology._eliminate

    def tampered(mat, *args, **kwargs):
        pivots, u_rest, v, peeled = original(mat, *args, **kwargs)
        tamper(mat, pivots, peeled)
        return pivots, u_rest, v, peeled

    monkeypatch.setattr(homology, "_eliminate", tampered)
    with pytest.raises(InternalInvariant) as caught:
        invariant_factors(from_dense(PEELED_CHAIN))
    assert message in str(caught.value)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    assert main(["hh", str(path), "--length", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: SNF self-check failed: " in captured.err and message in captured.err


def test_snf_diag_2_3():
    mat = from_dense([[2, 0], [0, 3]])
    assert invariant_factors(mat) == [1, 6]
    assert minor_gcd_invariants([[2, 0], [0, 3]]) == [1, 6]


def test_snf_negative_entry():
    assert invariant_factors(from_dense([[-5]])) == [5]


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        expected = minor_gcd_invariants(dense)
        assert invariant_factors(from_dense(dense)) == expected


def test_snf_transforms_unimodular():
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        mat = from_dense(dense)
        D, U, V = smith_normal_form(mat)
        assert U @ mat @ V == D
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1


def test_rank_matches_rational_oracle():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert rank_z(from_dense(dense)) == dense_rank_q(dense)


def test_kernel_basis_z():
    mat = from_dense([[1, 2, 3]])
    K = kernel_basis(mat, Z)
    assert K.cols == 2
    assert (mat @ K).is_zero()
    # saturated: the columns span a direct summand, so every integer kernel
    # vector is an integer combination of them
    assert invariant_factors(K) == [1] * K.cols


def test_rank_modp_and_kernel():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            dense = [[rng.randint(0, p - 1) for _ in range(cols)] for _ in range(rows)]
            mat = from_dense(dense)
            rank, _ = rank_modp(mat, p)
            assert rank == dense_rank_modp(dense, p)
            K = kernel_basis(mat, Zp(p))
            assert K.cols == cols - rank
            assert mod(mat @ K, p).is_zero()


def test_homology_zero_differentials():
    fc = FiniteComplex(Z, {0: ["a", "b", "c", "d"]}, {})
    h = fc.homology(0)
    assert h.free_rank == 4 and h.torsion == ()


def test_homology_times_two():
    # Z --2--> Z in degrees 1 -> 0: H_0 = Z/2, H_1 = 0; degree 5 is empty
    images = {"e": {"v": 2}}
    fc = image_complex(Z, {0: ["v"], 1: ["e"]}, lambda k: images.get(k, {}))
    h0 = fc.homology(0)
    assert h0.free_rank == 0 and h0.torsion == (2,)
    assert h0.invariants() == (0, (2,))
    assert is_trivial(fc.homology(1)) and is_trivial(fc.homology(5))


def test_homology_rejects_non_complex():
    # c -> b -> a with both maps the identity: d.d(c) = a
    images = {"c": {"b": 1}, "b": {"a": 1}}
    fc = image_complex(Z, {0: ["a"], 1: ["b"], 2: ["c"]}, lambda k: images.get(k, {}))
    assert is_trivial(fc.homology(0))
    with pytest.raises(NotAComplex):
        fc.homology(1)


def test_clearing_waits_for_the_composite_check():
    # over Z/2, c -> b -> a with both maps the identity is no complex: the
    # pivot column b of d_1 must not clear row b of d_2, whose rank is 1
    images = {"c": {"b": 1}, "b": {"a": 1}}
    fc = image_complex(Zp(2), {0: ["a"], 1: ["b"], 2: ["c"]}, lambda k: images.get(k, {}))
    assert is_trivial(fc.homology(0))
    assert fc._factored(1) == [1]
    assert fc._factored(2) == [1] * rank_modp(fc.boundary(2), 2)[0] == [1]
    with pytest.raises(NotAComplex, match=r"^composite of boundary maps is nonzero on c in degree 2$"):
        fc.homology(1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("module", ["diagonal", "tensor_square", "dual"])
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_cleared_ranks_are_the_whole_boundaries_ranks(monkeypatch, name, module, p):
    # visited upwards, every d_j past the lowest is factored without the
    # pivot columns of d_{j-1}; each rank is still that of the whole matrix.
    # Each d_j with an entry reaches rank_modp once, a zero map never
    calls = []
    original = homology.rank_modp

    def recorded(mat, q, skip=()):
        calls.append((mat, len(skip)))
        return original(mat, q, skip)

    monkeypatch.setattr(homology, "rank_modp", recorded)
    fc = HochschildComplex(resolve_bimodule(load(name, p), module), 4).truncation()
    for j in sorted(fc.basis):
        fc.homology(j)
    factored = sorted(fc._factors)
    assert factored == sorted(fc.basis) + [max(fc.basis) + 1]
    ranks = {j: len(fc._factors[j]) for j in factored}
    nonzero = [j for j in factored if fc.boundary(j).by_row]
    assert [id(mat) for mat, _ in calls] == [id(fc.boundary(j)) for j in nonzero]
    assert [s for _, s in calls] == [ranks.get(j - 1, 0) for j in nonzero]
    for j in factored:
        assert fc._factors[j] == [1] * original(fc.boundary(j), p)[0]


def _record_smith(monkeypatch):
    """The list of the matrices handed to _smith from now on."""
    factored = []
    original = homology._smith

    def recorded(mat, *args, **kwargs):
        factored.append(mat)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(homology, "_smith", recorded)
    return factored


@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_cleared_factors_are_the_whole_boundaries_factors(monkeypatch, name):
    # over Z, visited upwards, every d_j past the lowest is factored without
    # the rows the peel pivoted on in d_{j-1}; every invariant factor, torsion
    # included, is still that of the whole matrix, on each module and its
    # dual at every length up to 5
    factored = _record_smith(monkeypatch)
    doc = load(name)
    cleared = 0
    for module in ["diagonal", "tensor_square", "dual", *doc.bimodules]:
        M = resolve_bimodule(doc, module)
        for N in (M, dual_bimodule(M)):
            for length in range(6):
                fc = HochschildComplex(N, length).truncation()
                factored.clear()
                for j in sorted(fc.basis):
                    fc.homology(j)
                cleared += sum(len(fc.boundary(j).entries) for j in fc._factors)
                cleared -= sum(len(mat.entries) for mat in factored)
                for j in fc._factors:
                    assert fc._factored(j) == whole_factors(fc, j), (module, N.name, length, j)
    assert cleared > 0


def test_clearing_over_z_drops_only_the_peeled_rows(monkeypatch):
    # d_1 peels b0, the one +-1 of row a0, which leaves b3 with a single 2;
    # row a1 = (2, 3, 2) then needs a remainder round before its heap pivot,
    # a unit. ker d_1 is spanned by b0 + b1 - b3 and 3 b1 - 2 b2, and d_2
    # maps onto 3 b1 - 2 b2 and 4 (b0 + b1 - b3), so H_1 = Z/4. Only the
    # peeled row b0 is cleared from d_2; clearing the heap pivot's row too
    # would turn the Z/4 into a Z/12
    images = {
        "b0": {"a0": 1},
        "b1": {"a1": 2},
        "b2": {"a1": 3},
        "b3": {"a0": 1, "a1": 2},
        "c0": {"b1": 3, "b2": -2},
        "c1": {"b0": 4, "b1": 4, "b3": -4},
    }
    basis = {0: ["a0", "a1"], 1: ["b0", "b1", "b2", "b3"], 2: ["c0", "c1"]}
    fc = image_complex(Z, basis, lambda k: images.get(k, {}))
    pivots, _, _, peeled = homology._eliminate(fc.boundary(1))
    assert peeled == 1 and pivots[0][4] == 0
    (heap,) = pivots[1:]
    assert heap[0] == 1 and heap[4] != 0
    factored = _record_smith(monkeypatch)
    assert is_trivial(fc.homology(0))
    assert fc._pivot_cols[1] == {0}
    assert fc.homology(1).invariants() == (0, (4,))
    d_2 = fc.boundary(2)
    assert factored[-1].entries == {k: c for k, c in d_2.entries.items() if k[0] != 0}
    assert fc._factored(2) == whole_factors(fc, 2) == [1, 4]
    every_pivot = {k: c for k, c in d_2.entries.items() if k[0] not in (0, heap[4])}
    assert invariant_factors(ExactMatrix(4, 2, every_pivot)) == [1, 12]


def _complex_blocks(cx, length):
    basis = {}
    for n in range(length + 1):
        for w in cx.words(n):
            basis.setdefault(cx.degree(w), []).append(w)
    return basis


def _boundary(cx, basis, j):
    src = basis.get(j, [])
    dst = basis.get(j - 1, [])
    index = {w: i for i, w in enumerate(dst)}
    cols = []
    for w in src:
        col = {}
        for out, c in differential_word(cx, w).items():
            if out in index:
                col[index[out]] = c
        cols.append(col)
    return ExactMatrix.from_columns(len(dst), cols)


def test_dual_numbers_mod2_against_dense_oracle():
    doc = load("dual_numbers", p=2)
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 3)
    basis = _complex_blocks(cx, 3)
    fc = image_complex(Zp(2), basis, lambda w: differential_word(cx, w))
    for j in sorted(basis):
        d_out = _boundary(cx, basis, j)
        d_in = _boundary(cx, basis, j + 1)
        got = fc.homology(j)
        n = len(basis.get(j, []))
        r1 = dense_rank_modp(d_out.to_dense(), 2) if basis.get(j) else 0
        r2 = dense_rank_modp(d_in.to_dense(), 2) if basis.get(j + 1) else 0
        assert got.dimension == n - r1 - r2


def test_homology_invariant_under_basis_shuffle():
    doc = load("dual_numbers")
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 3)
    basis = _complex_blocks(cx, 3)
    rng = random.Random(23)
    reference = image_complex(Z, basis, lambda w: differential_word(cx, w))
    for j in sorted(basis):
        shuffled = {k: list(v) for k, v in basis.items()}
        for v in shuffled.values():
            rng.shuffle(v)
        got = image_complex(Z, shuffled, lambda w: differential_word(cx, w)).homology(j)
        assert got.invariants() == reference.homology(j).invariants()


def test_rank_nullity_over_fields():
    doc = load("exterior2", p=3)
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 3)
    basis = _complex_blocks(cx, 3)
    for j in sorted(basis):
        mat = _boundary(cx, basis, j)
        r, _ = rank_modp(mat, 3)
        k = kernel_basis(mat, Zp(3)).cols
        assert r + k == mat.cols


def _maps(fc, image):
    """A degree-preserving chain map of fc, given on basis keys, as {degree: matrix}."""
    return {j: basis_matrix(keys, keys, image) for j, keys in fc.basis.items()}


def _identity(key):
    return {key: 1}


def _zero(key):
    return {}


def _scale(k):
    return lambda key: {key: k}


def test_induced_map_identity_and_zero():
    two = {"e": {"a": 2}}
    # (basis, differential, chain map, H_0 over Z, over Z/3, iso over Z, over Z/3)
    cases = [
        # C_1 = <e> --2--> C_0 = <a, b>: H_0 = Z/2 + Z over Z, dim 1 over Z/3
        ({0: ["a", "b"], 1: ["e"]}, two, _identity, (1, (2,)), (1, ()), True, True),
        ({0: ["a", "b"], 1: ["e"]}, two, _zero, (1, (2,)), (1, ()), False, False),
        # x2 on a free Z: equal invariants, but not onto; over Z/3 a unit
        ({0: ["a"]}, {}, _scale(2), (1, ()), (1, ()), False, True),
        # on Z/2 = <a>/2a, a -> 3a is the identity and a -> 2a is zero
        ({0: ["a"], 1: ["e"]}, two, _scale(3), (0, (2,)), (0, ()), True, True),
        ({0: ["a"], 1: ["e"]}, two, _scale(2), (0, (2,)), (0, ()), False, True),
    ]
    for basis, images, image, h0_z, h0_3, iso_z, iso_3 in cases:
        for ring, h0, iso in ((Z, h0_z, iso_z), (Zp(3), h0_3, iso_3)):
            fc = image_complex(ring, basis, lambda k: images.get(k, {}))
            res = induced_map_on_homology(fc, fc, _maps(fc, image), 0)
            assert res.is_iso == iso, (basis, image, ring)
            assert res.source.invariants() == res.target.invariants() == h0


def test_induced_map_rejects_non_chain_map():
    images = {"a": {"z": 1}}
    fc = image_complex(Z, {-1: ["z"], 0: ["a", "b"]}, lambda k: images.get(k, {}))
    swap = {"a": {"b": 1}, "b": {"a": 1}, "z": {"z": 1}}
    # the first key, in basis order, on which d' F_0 != F_{-1} d
    with pytest.raises(NotChainMap, match=r"boundary operators on a$"):
        induced_map_on_homology(fc, fc, _maps(fc, swap.get), 0)
    assert chain_map_failures(fc, fc, _maps(fc, swap.get), 0, 0) == ["a", "b"]
    # a -> a, z -> 4z commutes with d only modulo 3
    scaled = {"a": {"a": 1}, "b": {"b": 1}, "z": {"z": 4}}
    with pytest.raises(NotChainMap):
        induced_map_on_homology(fc, fc, _maps(fc, scaled.get), 0)
    fc3 = FiniteComplex(Zp(3), fc.basis, {j: fc.boundary(j) for j in fc.basis})
    assert induced_map_on_homology(fc3, fc3, _maps(fc3, scaled.get), 0).is_iso


def test_snf_self_check_runs_every_call():
    # the identity D = U*M*V is re-verified inside smith_normal_form
    rng = random.Random(29)
    for _ in range(20):
        dense = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        D, U, V = smith_normal_form(from_dense(dense))
        d = [D.entries.get((t, t), 0) for t in range(6)]
        nz = [abs(x) for x in d if x]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        assert nz == sorted(nz)


def _universal_coefficient_mismatches(fc, primes):
    """The (p, j) where dim H_j(C/p), from a Z/p complex over fc's boundary
    matrices, is not free_j + #(torsion of H_j divisible by p)
    + #(torsion of H_{j-1} divisible by p), read from fc over Z."""
    over_z = {j: fc.homology(j) for j in set(fc.basis) | {j - 1 for j in fc.basis}}
    boundaries = {j: fc.boundary(j) for j in fc.basis}
    bad = []
    for p in primes:
        over_p = FiniteComplex(Zp(p), fc.basis, boundaries)
        for j in sorted(fc.basis):
            h, h_next = over_z[j], over_z[j - 1]
            divisible = sum(1 for d in h.torsion + h_next.torsion if d % p == 0)
            if over_p.homology(j).dimension != h.free_rank + divisible:
                bad.append((p, j))
    return bad


@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_universal_coefficients_tie_z_to_zp(name):
    # for a finite complex C of free Z-modules and a prime p,
    # dim H_j(C/p) = free_j + #(torsion of H_j divisible by p)
    #              + #(torsion of H_{j-1} divisible by p);
    # here on the diagonal module's chains and cochains
    diag = diagonal_bimodule(load(name).algebra)
    complexes = (HochschildComplex(diag, 4).truncation(), cochain_complex(diag, 4))
    for k, fc in enumerate(complexes):
        assert _universal_coefficient_mismatches(fc, (2, 3, 5)) == [], k
    # these fixtures have torsion, so the Tor terms are exercised on them
    torsion = any(fc.homology(j).torsion for fc in complexes for j in fc.basis)
    assert torsion == (name in ("dual_numbers", "truncated_poly3", "mu3_square_zero"))


@pytest.mark.parametrize("module", ["tensor_square", "dual"])
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_zp_engine_agrees_with_z(name, module):
    # the Z/p engine and SNF over Z read the same boundary matrices of F_4
    # and agree by universal coefficients on the other two modules as well
    fc = HochschildComplex(resolve_bimodule(load(name), module), 4).truncation()
    assert _universal_coefficient_mismatches(fc, (2, 3, 5)) == []


def test_universal_coefficients_catch_a_pivot_scaled_by_p(monkeypatch):
    # scaling by 3 the row of U and the diagonal entry of a peel pivot whose
    # row of M holds the pivot alone keeps W's row d alone, so the SNF
    # self-check passes on a U that is not unimodular; the Z/3 engine disagrees
    original = homology._eliminate

    def scaled(mat, *args, **kwargs):
        pivots, u_rest, v, peeled = original(mat, *args, **kwargs)
        if call_arguments(original, mat, *args, **kwargs)["p"] is None:
            for pivot in pivots[:peeled]:
                (r,) = pivot[1]
                if len(mat.by_row[r]) == 1:
                    pivot[0] *= 3
                    pivot[1] = {r: 3 * pivot[1][r]}
                    break
        return pivots, u_rest, v, peeled

    monkeypatch.setattr(homology, "_eliminate", scaled)
    fc = HochschildComplex(resolve_bimodule(load("exterior2"), "diagonal"), 4).truncation()
    assert _universal_coefficient_mismatches(fc, (2, 5)) == []
    assert _universal_coefficient_mismatches(fc, (3,))


def test_public_constructors_still_check_entries():
    # the library's own products and transforms adopt their dicts unchecked;
    # matrices built from outside keep the bounds check and drop zeros
    with pytest.raises(IndexError):
        ExactMatrix(2, 3, {(2, 0): 1})
    with pytest.raises(IndexError):
        ExactMatrix(2, 3, {(0, -1): 1})
    with pytest.raises(IndexError):
        ExactMatrix.from_columns(2, [{5: 1}])
    assert ExactMatrix(2, 2, {(0, 0): 0, (1, 1): 4}).entries == {(1, 1): 4}
    assert from_dense([[0, 1], [2, 0]]).entries == {(0, 1): 1, (1, 0): 2}
    # a product whose terms cancel holds no zero entry
    a = ExactMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    b = ExactMatrix(2, 1, {(0, 0): 1, (1, 0): -1})
    assert (a @ b).entries == {} and a @ b == ExactMatrix(1, 1)


def test_homology_and_cohomology_share_one_composite_check(monkeypatch):
    # H_j and H^j read the same pair of boundaries; that pair is checked to
    # compose to zero once, by a product only when neither side is a zero
    # map, and the SNF self-check multiplies no matrices
    fc = HochschildComplex(diagonal_bimodule(load("dual_numbers").algebra), 4).truncation()
    products = []
    original = ExactMatrix.__matmul__

    def counted(self, other):
        products.append((self.rows, other.cols))
        return original(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    for j in sorted(fc.basis):
        fc.homology(j)
        fc.cohomology(j)
        fc.homology(j)
    pairs = [j for j in sorted(fc.basis) if fc.boundary(j).by_row and fc.boundary(j + 1).by_row]
    assert 0 < len(pairs) < len(fc.basis)
    assert products == [(fc.boundary(j).rows, fc.boundary(j + 1).cols) for j in pairs]
    # over Z the torsion of H^j is that of H_{j-1}, and the free ranks agree
    for j in sorted(fc.basis):
        assert fc.cohomology(j).free_rank == fc.homology(j).free_rank
        assert fc.cohomology(j).torsion == fc.homology(j - 1).torsion


@pytest.mark.parametrize(
    "ring,rows,co_rows",
    [
        (Z, ["Z^1", "Z/2", "0"], ["Z^1", "0", "Z/2"]),
        (Zp(3), ["dim 1", "dim 0", "dim 0"], ["dim 1", "dim 0", "dim 0"]),
    ],
    ids=["Z", "Z3"],
)
def test_a_zero_boundary_reaches_no_eliminator(monkeypatch, ring, rows, co_rows):
    # c -> 2b, b -> 0: d_1 is a zero map between the nonempty degrees 1 and 0,
    # stored with no entry. It reaches neither _smith nor rank_modp, and the
    # rows are those of its factors from the eliminator, which are none
    images = {"c": {"b": 2}}
    fc = image_complex(ring, {0: ["a"], 1: ["b"], 2: ["c"]}, lambda k: images.get(k, {}))
    zero = fc.boundary(1)
    assert (zero.rows, zero.cols, zero.by_row) == (1, 1, {})
    assert invariant_factors(zero) == [] and rank_modp(zero, 3) == (0, frozenset())
    calls = []
    for name in ("_smith", "rank_modp"):
        original = getattr(homology, name)

        def counted(mat, *args, f=original, **kwargs):
            calls.append(mat)
            return f(mat, *args, **kwargs)

        monkeypatch.setattr(homology, name, counted)
    assert [str(fc.homology(j)) for j in range(3)] == rows
    assert [str(fc.cohomology(j)) for j in range(3)] == co_rows
    assert calls == [fc.boundary(2)] and fc._factors[1] == []


@pytest.mark.parametrize(
    "boundaries",
    [
        {2: ExactMatrix(2, 1, {(0, 0): 1})},
        {1: ExactMatrix(1, 2, {(0, 0): 1})},
        {1: ExactMatrix(1, 1), 2: ExactMatrix(2, 1, {(1, 0): 1})},
    ],
    ids=["missing-out", "missing-in", "stored-zero-out"],
)
def test_a_misaligned_pair_with_a_zero_side_still_raises(boundaries):
    # the composite of a zero side is zero, but only once the shapes line up
    fc = FiniteComplex(Z, {0: ["a"], 1: ["b"], 2: ["c"]}, boundaries)
    with pytest.raises(IndexError, match="^boundary matrices do not line up$"):
        fc.composite_failures(2)


def test_the_composite_check_reads_products_mod_p():
    # c -> b1 + b2, b1 -> a, b2 -> 2a: d.d(c) = 3a, which the product keeps
    # over Z; over Z/3 it is a complex, over Z c is named as its failure
    images = {"c": {"b1": 1, "b2": 1}, "b1": {"a": 1}, "b2": {"a": 2}}
    basis = {0: ["a"], 1: ["b1", "b2"], 2: ["c"]}
    over_z, over_3 = (image_complex(R, basis, lambda k: images.get(k, {})) for R in (Z, Zp(3)))
    assert (over_3.boundary(1) @ over_3.boundary(2)).by_row == {0: {0: 3}}
    assert over_3.composite_failures(2) == [] and over_z.composite_failures(2) == ["c"]
    assert [over_3.homology(j).invariants() for j in range(3)] == [(0, ())] * 3
    with pytest.raises(NotAComplex, match=r"^composite of boundary maps is nonzero on c in degree 2$"):
        over_z.homology(1)


@pytest.mark.parametrize("p", [None, 3])
@pytest.mark.parametrize("run", ["hh", "cohomology", "induced"])
def test_factoring_never_mutates_a_stored_boundary(p, run):
    # the eliminator rewrites its own copies of the rows: clearing over Z
    # (the peeled rows dropped, the rest shared) and over Z/3 (pivot rows
    # skipped as they are loaded) leaves every stored boundary as built
    fc = HochschildComplex(diagonal_bimodule(load("exterior2", p).algebra), 5).truncation()
    degrees = range(min(fc.basis) - 1, max(fc.basis) + 2)
    before = {j: copy.deepcopy(fc.boundary(j).by_row) for j in degrees}
    sizes = {j: len(keys) for j, keys in fc.basis.items()}
    identity = {j: ExactMatrix(n, n, {(i, i): 1 for i in range(n)}) for j, n in sizes.items()}
    for j in sorted(fc.basis):
        if run == "hh":
            fc.homology(j)
        elif run == "cohomology":
            fc.cohomology(j)
        else:
            assert induced_map_on_homology(fc, fc, identity, j).is_iso
    assert fc._factors and {j: fc.boundary(j).by_row for j in degrees} == before


def _dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _cancelling_pair(draw):
    """Dense a (m x k+1) and b (k+1 x n) whose inner index k cancels index 0:
    column k of a copies column 0, and row k of b is minus row 0."""
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    coeff = st.integers(-3, 3)
    a = [[draw(coeff) for _ in range(k)] for _ in range(m)]
    b = [[draw(coeff) for _ in range(n)] for _ in range(k)]
    return [row + [row[0]] for row in a], b + [[-x for x in b[0]]]


@given(_cancelling_pair())
def test_the_row_layout_round_trips_and_multiplies(pair):
    a, b = pair
    A, B = from_dense(a), from_dense(b)
    product = A @ B
    assert product.to_dense() == _dense_product(a, b)
    # no zero value and no empty row, though index 0 and k cancel
    assert all(row and all(row.values()) for row in product.by_row.values())
    for M, dense in ((A, a), (B, b), (product, product.to_dense())):
        nonzero = {(i, j): c for i, row in enumerate(dense) for j, c in enumerate(row) if c}
        assert M.entries == nonzero
        assert ExactMatrix(M.rows, M.cols, M.entries) == M
        columns = [{i: row[j] for i, row in enumerate(dense)} for j in range(M.cols)]
        assert ExactMatrix.from_columns(M.rows, columns) == M
        # == ignores the order in which rows and entries were inserted
        backwards = dict(reversed(list(M.entries.items())))
        assert ExactMatrix(M.rows, M.cols, backwards) == M
    side = ExactMatrix(A.rows, 2, {(0, 1): 5})
    assert _hstack(A, side).to_dense() == [x + y for x, y in zip(a, side.to_dense())]
    with pytest.raises(TypeError):
        A.entries[0, 0] = 1
