"""Property tests for the SNF, the mod-p rank and kernel, and the sparse product.

Matrices are block diagonal up to a shuffle of rows and columns, with
torsion planted across blocks, negative pivots, empty rows and columns,
and the all-zero and 0 x n shapes. Matrices with few or no unit entries,
and fully dense ones like the verify command's SNF audit, make the sparse
eliminator take non-unit pivots and retake pivots after remainder rounds.
The dense min-pivot kernel survives only as the block-only oracle in
helpers.py, which the library's Smith normal form is checked against.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from ainfty.homology import (
    ExactMatrix,
    determinant,
    invariant_factors,
    kernel_basis,
    rank_modp,
    smith_normal_form,
)
from ainfty.rings import Z, Zp

from helpers import (
    block_diagonal_invariants,
    block_snf,
    dense_kernel_modp,
    dense_rank_modp,
    dense_solve_modp,
    from_dense,
    minor_gcd_invariants,
    mod,
)


def _dense(rows, cols, entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def _block(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(_dense(rows, cols, st.integers(-6, 6)))
    # a diagonal of torsion pivots, possibly negative
    pivots = draw(st.lists(st.sampled_from([2, 3, 4, 6, 9, -2, -3, -4, -9]), min_size=1))
    size = min(rows, cols, len(pivots))
    return [[pivots[i] if i == j else 0 for j in range(size)] for i in range(size)]


@st.composite
def _shuffled(draw, blocks):
    """The block-diagonal matrix of blocks plus empty rows and columns, shuffled."""
    m = sum(len(b) for b in blocks) + draw(st.integers(0, 2))
    n = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 2))
    row_of = draw(st.permutations(range(m)))
    col_of = draw(st.permutations(range(n)))
    entries = {}
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                entries[(row_of[r0 + i], col_of[c0 + j])] = v
        r0, c0 = r0 + len(b), c0 + len(b[0])
    return ExactMatrix(m, n, entries)


@st.composite
def block_matrices(draw):
    blocks = draw(st.lists(_block(), max_size=5))
    return draw(_shuffled(blocks)), blocks


def _planted(*blocks):
    return from_dense(_block_diagonal(blocks)), list(blocks)


def _block_diagonal(blocks):
    n = sum(len(b[0]) for b in blocks)
    out, c0 = [], 0
    for b in blocks:
        for row in b:
            out.append([0] * c0 + list(row) + [0] * (n - c0 - len(row)))
        c0 += len(b[0])
    return out


def _check_snf(mat):
    D, U, V = smith_normal_form(mat)
    assert U @ mat @ V == D
    assert abs(determinant(U)) == abs(determinant(V)) == 1
    assert all(i == j for i, j in D.entries)
    diagonal = [D.entries[(t, t)] for t in range(len(D.entries))]
    assert all(d > 0 for d in diagonal)
    assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
    return D


@given(block_matrices())
@example(_planted([[2]], [[4]]))
@example(_planted([[2]], [[3]]))
@example(_planted([[9]], [[6]]))
@example(_planted([[4, 0], [0, -6]], [[-9]], [[0, 0]]))
@example((ExactMatrix(3, 4), []))
@example((ExactMatrix(0, 3), []))
def test_block_snf_matches_oracles(case):
    mat, blocks = case
    factors = invariant_factors(mat)
    if mat.rows * mat.cols <= 25:
        assert factors == minor_gcd_invariants(mat.to_dense())
    assert factors == block_diagonal_invariants(blocks)

    D = _check_snf(mat)
    assert [D.entries[(t, t)] for t in range(len(D.entries))] == factors
    assert D == block_snf(mat)[0]


@given(block_matrices())
@example(_planted([[4, 0], [0, -6]], [[-9]], [[0, 0]]))
@example((ExactMatrix(3, 4), []))
def test_invariant_factors_are_the_snf_diagonal(case):
    # the verify SNF audit reads the divisibility chain off D's diagonal
    # instead of factoring the trial matrix a second time
    mat, _ = case
    D, _, _ = smith_normal_form(mat)
    diagonal = [D.entries.get((t, t), 0) for t in range(min(mat.rows, mat.cols))]
    factors = invariant_factors(mat)
    assert diagonal == factors + [0] * (len(diagonal) - len(factors))


@given(block_matrices())
@example(_planted([[2]], [[0, 0]]))
@example(_planted([[4, 0], [0, -6]], [[-9]], [[0, 0]]))
@example((ExactMatrix(3, 4), []))
@example((ExactMatrix(0, 3), []))
def test_kernel_basis_z_is_the_kernel_lattice(case):
    # the planted empty columns are off the eliminator's support; their unit
    # vectors join the kernel basis after the columns of V past the rank
    mat, blocks = case
    K = kernel_basis(mat, Z)
    assert (K.rows, K.cols) == (mat.cols, mat.cols - len(block_diagonal_invariants(blocks)))
    assert (mat @ K).is_zero()
    # saturated: every invariant factor of K is 1, so K spans a direct summand
    # of Z^cols; it lies in the kernel and has the kernel's rank, so it spans
    # the whole kernel lattice
    assert invariant_factors(K) == [1] * K.cols


@given(block_matrices(), st.sampled_from([2, 3]))
def test_block_rank_modp_matches_dense(case, p):
    mat, _ = case
    dense = mat.to_dense()
    rank, pivot_cols = rank_modp(mat, p)
    assert rank == dense_rank_modp(dense, p)
    # the pivot columns are independent, as many as the rank
    assert len(pivot_cols) == rank
    assert dense_rank_modp([[row[c] for c in sorted(pivot_cols)] for row in dense], p) == rank


@given(block_matrices(), st.sampled_from([2, 3]), st.data())
def test_rank_modp_without_rows_matches_dense(case, p, data):
    # the skipped rows are dropped as if deleted from the matrix
    mat, _ = case
    skip = data.draw(st.sets(st.integers(0, mat.rows - 1)) if mat.rows else st.just(set()))
    kept = [row for i, row in enumerate(mat.to_dense()) if i not in skip]
    rank, pivot_cols = rank_modp(mat, p, skip)
    assert rank == dense_rank_modp(kept, p)
    assert dense_rank_modp([[row[c] for c in sorted(pivot_cols)] for row in kept], p) == rank


@st.composite
def few_unit_matrices(draw):
    """Entries mostly from {0, +-2, +-3, +-4, +-6} with occasional +-1, or audit-like dense ones."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        entries = st.sampled_from([0, 0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 1, -1])
    else:
        entries = st.integers(-9, 9)
    return from_dense(draw(_dense(rows, cols, entries))) if rows else ExactMatrix(0, cols)


@given(few_unit_matrices())
@example(from_dense([[2, 4], [6, 8]]))
@example(from_dense([[1, 2], [2, 1]]))
@example(from_dense([[1, 1, 0], [0, 2, 2], [3, 0, 3]]))
# pivots that leave remainders and are retaken after several rounds
@example(from_dense([[6, 10, 15]]))
@example(from_dense([[2, 3], [3, 2]]))
@example(from_dense([[89, 55], [55, 34]]))
@example(from_dense([[4, 6], [6, 9]]))
# a merge that turns a torsion pivot into a unit, gcd(3, 4) = 1
@example(from_dense([[4, 0], [6, 3]]))
# a unit pivot taken after a remainder round, carrying that round's V'' column
@example(from_dense([[-2, 3, 0], [6, -2, 0]]))
def test_snf_matches_block_only_oracle(mat):
    D = _check_snf(mat)
    assert D == block_snf(mat)[0]
    assert invariant_factors(mat) == minor_gcd_invariants(mat.to_dense())


@given(few_unit_matrices(), st.sampled_from([2, 3]))
@example(from_dense([[1, 2], [2, 4]]), 2)
@example(from_dense([[6, 10, 15]]), 2)
@example(from_dense([[2, 3], [3, 2]]), 3)
@example(from_dense([[89, 55], [55, 34]]), 2)
@example(from_dense([[4, 6], [6, 9]]), 3)
def test_rank_kernel_solve_modp_match_dense(mat, p):
    dense = mat.to_dense()
    rank, _ = rank_modp(mat, p)
    assert rank == dense_rank_modp(dense, p)

    # the kernel: right size, killed by mat, and the oracle's span
    K = kernel_basis(mat, Zp(p))
    assert (K.rows, K.cols) == (mat.cols, mat.cols - rank)
    assert mod(mat @ K, p).is_zero()
    ours = [list(col) for col in zip(*K.to_dense())]
    theirs = dense_kernel_modp(dense, mat.cols, p)
    span = dense_rank_modp(ours + theirs, p)
    assert dense_rank_modp(ours, p) == dense_rank_modp(theirs, p) == span

    # the kernel basis is independent: the oracle's solve against it is
    # unique, so it recovers the coordinates a combination was built from
    if K.cols:
        X0 = from_dense([[(3 * i + j) % p for j in range(2)] for i in range(K.cols)])
        B = mod(K @ X0, p)
        assert dense_solve_modp(K.to_dense(), B.to_dense(), p) == X0.to_dense()
    # a column outside the kernel is refused
    outside = [j for j in range(mat.cols) if any(row[j] % p for row in dense)]
    if outside and K.cols:
        B = ExactMatrix(mat.cols, 1, {(outside[0], 0): 1})
        assert dense_solve_modp(K.to_dense(), B.to_dense(), p) is None


@st.composite
def singleton_rich_matrices(draw):
    """A planted cascade of unit singleton columns beside non-unit singletons, shuffled.

    Cascade column t < k holds a unit at row t and otherwise entries only in
    the rows above, so each pivot the peel takes leaves the next column with
    one entry. The rows below meet the cascade in 0, in 6 or -6 (divisible
    by every p drawn, so they break the cascade over Z only) or in 2 or 3
    (units mod 3 or mod 2). Singleton columns 2, 3 and -4 are units mod some
    p but never over Z, and the rest entries include multiples of p.
    """
    k, m, n = draw(st.integers(0, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, 6, -4])
    dense = [[0] * (k + n) for _ in range(k + m)]
    for t in range(k):
        dense[t][t] = draw(st.sampled_from([1, -1]))
        for s in range(t):
            dense[s][t] = draw(entry)
    for i in range(k + m):
        for j in range(k, k + n):
            dense[i][j] = draw(entry)
    for i in range(k, k + m):
        for j in range(k):
            dense[i][j] = draw(st.sampled_from([0, 0, 0, 6, -6, 2, 3]))
    for d in draw(st.lists(st.sampled_from([2, 3, -4]), max_size=3)):
        row = draw(st.integers(0, k + m - 1))
        for i, entries in enumerate(dense):
            entries.append(d if i == row else 0)
    row_of = draw(st.permutations(range(len(dense))))
    col_of = draw(st.permutations(range(len(dense[0]))))
    return ExactMatrix(
        len(dense),
        len(dense[0]),
        {(row_of[i], col_of[j]): c for i, row in enumerate(dense) for j, c in enumerate(row)},
    )


@given(singleton_rich_matrices(), st.sampled_from([2, 3]), st.data())
def test_peeled_elimination_matches_oracles(mat, p, data):
    # the eliminator pivots on unit singleton columns before it heaps any
    # entry; factors, ranks, pivot columns and kernels keep their contracts
    dense = mat.to_dense()
    factors = invariant_factors(mat)
    if mat.rows * mat.cols <= 25:
        assert factors == minor_gcd_invariants(dense)
    D = _check_snf(mat)
    assert D == block_snf(mat)[0]
    assert [D.entries[(t, t)] for t in range(len(D.entries))] == factors

    K = kernel_basis(mat, Z)
    assert K.cols == mat.cols - len(factors)
    assert (mat @ K).is_zero()
    assert invariant_factors(K) == [1] * K.cols

    skip = data.draw(st.sets(st.integers(0, mat.rows - 1)))
    kept = [row for i, row in enumerate(dense) if i not in skip]
    rank, pivot_cols = rank_modp(mat, p, skip)
    assert rank == dense_rank_modp(kept, p)
    assert len(pivot_cols) == rank
    assert dense_rank_modp([[row[c] for c in sorted(pivot_cols)] for row in kept], p) == rank

    K = kernel_basis(mat, Zp(p))
    assert mod(mat @ K, p).is_zero()
    ours = [list(col) for col in zip(*K.to_dense())]
    theirs = dense_kernel_modp(dense, mat.cols, p)
    assert len(ours) == len(theirs) == dense_rank_modp(ours + theirs, p)


def test_non_unit_singletons_are_not_peeled_over_z():
    # over Z only a pivot +-1 clears its row by exact column operations, so
    # a singleton column holding 2, 3 or -4 waits for the heap
    assert invariant_factors(from_dense([[2, 3]])) == [1]
    assert invariant_factors(from_dense([[2]])) == [2]
    assert invariant_factors(from_dense([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(from_dense([[-4, 0, 6], [0, 1, 0]])) == [1, 2]
    # mod 3 the 2 is a unit singleton and the 3 vanishes
    assert rank_modp(from_dense([[2, 3]]), 3) == (1, frozenset({0}))


@st.composite
def _product_pair(draw):
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    sparse = st.just(0) | st.integers(-3, 3)
    a = draw(_dense(m, k, sparse))
    b = draw(_dense(k, n, sparse))
    return (m, k, n), a, b


@given(_product_pair())
def test_sparse_matmul_matches_dense_triple_loop(pair):
    (m, k, n), a, b = pair
    left = ExactMatrix(m, k, {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row)})
    right = ExactMatrix(k, n, {(i, j): v for i, row in enumerate(b) for j, v in enumerate(row)})
    expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    product = left @ right
    assert (product.rows, product.cols) == (m, n)
    assert product.to_dense() == expected
