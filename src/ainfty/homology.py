"""Exact linear algebra: Smith normal form over Z, ranks over Z/p, homology.

Matrices are sparse and held by rows. One sparse eliminator
diagonalises a matrix over Z or Z/p: it peels the columns holding a single
unit with no row or column operation, then reduces the rest from a heap,
least absolute value first, recording its operations in sparse rows of U
and columns of V. Up to order M = [[T, X], [0, M']], T unit triangular, so
SNF(M) = I (+) SNF(M'). Each factorization certifies the peel in one pass
over M and checks D' = U'*M'*V' on the residual M' by exact products: so
D = U*M*V. Callers that read V complete it by back substitution and check
it by product. Complexes reach the homology engine as matrices only and
factor d_j without the rows that are pivot columns of d_{j-1} (clearing;
over Z only the peel's, see FiniteComplex).

by_row maps each row to {col: c}, with no empty row and no zero c
(Gustavson, 1978); every reader takes the rows as stored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Iterable, Sequence

from .errors import InternalInvariant, NotAComplex, NotChainMap
from .rings import CoefficientRing


class ExactMatrix:
    """A rows x cols matrix, held as by_row (see the module docstring)."""

    __slots__ = ("rows", "cols", "by_row")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int] | None = None):
        self.rows, self.cols, self.by_row = rows, cols, {}
        for (i, j), c in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
            if c:
                self.by_row.setdefault(i, {})[j] = c

    @classmethod
    def _adopt(cls, rows: int, cols: int, by_row: dict[int, dict[int, int]]) -> "ExactMatrix":
        """Take rows the library built (in range, none empty, no zero) as they are."""
        mat = cls.__new__(cls)
        mat.rows, mat.cols, mat.by_row = rows, cols, by_row
        return mat

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[dict[int, int]]) -> "ExactMatrix":
        entries = {(i, j): c for j, col in enumerate(columns) for i, c in col.items()}
        return cls(rows, len(columns), entries)

    @property
    def entries(self) -> MappingProxyType:
        """A read-only (i, j) -> c view, built on access."""
        view = {(i, j): c for i, row in self.by_row.items() for j, c in row.items()}
        return MappingProxyType(view)

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for i, row in self.by_row.items():
            for j, c in row.items():
                dense[i][j] = c
        return dense

    def is_zero(self) -> bool:
        return not self.by_row

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.by_row == other.by_row
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        # row-sparse (Gustavson) product: entry (i, k) on the left scales row k
        # on the right, so the work is proportional to the products that occur
        if self.cols != other.rows:
            raise IndexError("matrix shapes do not compose")
        right, by_row = other.by_row, {}
        for i, row in self.by_row.items():
            acc: dict[int, int] = {}
            for k, a in row.items():
                r = right.get(k)
                for j, b in r.items() if r else ():
                    acc[j] = acc.get(j, 0) + a * b
            acc = {j: c for j, c in acc.items() if c}
            if acc:
                by_row[i] = acc
        return ExactMatrix._adopt(self.rows, other.cols, by_row)

    def __repr__(self):
        nnz = sum(map(len, self.by_row.values()))
        return f"ExactMatrix({self.rows}x{self.cols}, {nnz} entries)"


def smith_normal_form(mat: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Return (D, U, V) with D = U @ mat @ V, D diagonal with d1 | d2 | ... > 0.

    V is completed from _smith's V' and checked by product; U and V come back square.
    """
    diagonal, u_rows, v_cols, peel = _smith(mat, None)
    if peel:  # else V = V' and mat = M', checked as such
        v_cols = _complete_v(mat, None, peel, v_cols)
        _check_umv(mat, u_rows, v_cols, diagonal, None)
    u_rows += _units(mat.rows, mat.by_row)
    v_cols += _units(mat.cols, {j for row in mat.by_row.values() for j in row})
    D = ExactMatrix._adopt(mat.rows, mat.cols, {t: {t: d} for t, d in enumerate(diagonal)})
    U = ExactMatrix._adopt(mat.rows, mat.rows, dict(enumerate(u_rows)))
    return D, U, ExactMatrix.from_columns(mat.cols, v_cols)


def _units(n: int, support: Collection[int]) -> list[dict[int, int]]:
    """The unit vectors e_k, k < n ascending, for each k outside support."""
    return [{k: 1} for k in range(n) if k not in support]


def _smith(mat: ExactMatrix, p: int | None) -> tuple[list[int], list[dict], list[dict], list]:
    """Smith normal form over Z (p is None) or over Z/p, as sparse pieces.

    Returns (diagonal, rows of U_s, columns of V', peel): the peel's pivots,
    then the heap's, whose non-unit ones are merged into the divisibility
    chain by 2x2 moves diag(a, b) -> diag(gcd, lcm). U_s has a row per
    support row of mat, V' a column per support column of the residual M'
    (see _eliminate); peel lists the peel's (r_k, c_k). The peel's
    certificate (_check_peel) and D' = U'*M'*V' (_check_umv) prove D =
    U*M*V for U = U_peel (+) U' and V = [[T^-1 S, -T^-1 X V'], [0, V']], S
    = diag(M[r_k, c_k]), which _complete_v builds for the callers that read
    V. Mod p every pivot is 1, and U, V and the checks are reduced mod p.
    """
    pivots, u_rest, v_rest, n = _eliminate(mat, p)
    peel = pivots[:n]
    residual = _check_peel(mat, peel, p) if peel else mat
    units = [q for q in pivots[n:] if q[0] == 1]
    torsion = [q for q in pivots[n:] if q[0] != 1]
    for a in range(len(torsion)):
        for b in range(a + 1, len(torsion)):
            if torsion[b][0] % torsion[a][0]:
                _gcd_lcm_move(torsion[a], torsion[b])
    chain = units + torsion
    u_rows = [q[1] for q in chain] + u_rest
    v_cols = [q[2] for q in chain] + v_rest
    _check_umv(residual, u_rows, v_cols, [q[0] for q in chain], p)
    diagonal = [q[0] for q in peel + chain]
    return diagonal, [q[1] for q in peel] + u_rows, v_cols, [(q[3], q[4]) for q in peel]


def _check_peel(mat: ExactMatrix, peel: list[list], p: int | None) -> ExactMatrix:
    """The peel's certificate, in one pass over mat; returns M', mat without the peeled rows.

    Peel pivot k, [d, U row, -, r_k, c_k], must sit on a unit a = M[r_k,
    c_k] (+-1 over Z) with U row {r_k: x}, x*a = d, and every entry of
    column c_k (mod p, not divisible by p) must lie in a row r_m, m <= k.
    (A row taken twice fails that.) So M = [[T, X], [0, M']] up to order, T
    unit upper triangular, and with V's column k solving M w = a e_{r_k},
    row k of U*M*V is d at column k and zero elsewhere.
    """
    order, by_row = {q[3]: k for k, q in enumerate(peel)}, mat.by_row
    for d, ur, _, r, c in peel:
        a, x = by_row[r].get(c, 0) if r in by_row else 0, ur.get(r, 0)
        wrong = (x * a - d) % p if p else x * a != d
        if len(ur) != 1 or not (a % p if p else a in (1, -1)) or wrong:
            raise InternalInvariant(f"SNF self-check failed: D != U*M*V at peel pivot ({r}, {c})")
    last, columns, rest = len(peel), {q[4]: k for k, q in enumerate(peel)}, {}
    for i, row in by_row.items():
        m = order.get(i, last)
        for j, x in row.items():
            if m > columns.get(j, last) and (p is None or x % p):
                raise InternalInvariant(f"SNF self-check failed: peel column {j} in a later row")
        if m == last:
            rest[i] = row
    return ExactMatrix._adopt(mat.rows, mat.cols, rest)


def _complete_v(mat: ExactMatrix, p: int | None, peel: list, v_cols: list, start: int = 0) -> list:
    """V's columns on mat's support from the start-th on, completed by back substitution.

    peel and v_cols are _smith's. Column k of V solves M w = M[r_k, c_k]
    e_{r_k} from w = e_{c_k}; a column of V', or e_j for a column j with
    entries in peeled rows only, is extended so that M w vanishes on the
    peeled rows. Both set w[c_k] = -M[r_k, c_k]^-1 * sum_{j != c_k} M[r_k,
    j] w[j], in reverse peel order where row r_k meets w: column c_k holds
    no entry below row r_k, so the sum is final.
    """
    index = {r: k for k, (r, _) in enumerate(peel)}
    rows: list[dict[int, int]] = [{} for _ in peel]
    hits: dict[int, list[int]] = {}  # column j -> the k with M[r_k, j] != 0
    kept = set()
    for i, row in mat.by_row.items():
        row = row if p is None else {j: x for j, x in row.items() if x % p}
        if i not in index:
            kept.update(row)
            continue
        rows[index[i]] = row
        for j in row:
            hits.setdefault(j, []).append(index[i])
    inverse = [pow(rows[k][c], -1, p) if p else rows[k][c] for k, (_, c) in enumerate(peel)]

    def solve(w, below):
        heap = [-k for j in w for k in hits.get(j, ()) if k < below]
        heapq.heapify(heap)
        while heap:
            k = -heapq.heappop(heap)
            if k < below:
                below, c = k, peel[k][1]
                f = -inverse[k] * sum(x * w.get(j, 0) for j, x in rows[k].items() if j != c)
                w[c] = f % p if p else f
                for m in hits[c] if w[c] else ():
                    heapq.heappush(heap, -m)
        return {j: x for j, x in w.items() if x}

    lost = sorted(hits.keys() - kept - {c for _, c in peel})
    rest = v_cols[max(start - len(peel), 0) :] + [{j: 1} for j in lost]
    peeled = [solve({c: 1}, k) for k, (_, c) in enumerate(peel) if k >= start]
    return peeled + [solve(w, len(peel)) for w in rest]


def _check_umv(mat: ExactMatrix, u_rows: list, v_cols: list, diagonal: list, p: int | None) -> None:
    """D_s = U_s*M_s*V_s on the support block, one row of U_s at a time (mod p when p is given).

    _smith runs it on the residual M' with U' and V', smith_normal_form on
    mat with V completed. u_rows and v_cols are U and V on the support rows
    and columns of M and mention no other index. Off the support M is zero
    and U and V are the identity, so D = U*M*V holds on the whole matrix
    exactly when it holds on the block: row t of U_s*M*V_s must be
    diagonal[t] at column t, or zero past the rank. Only V_s is regrouped by
    rows; no product is held as a matrix. A lost vector of U_s or V_s would
    pass the products, so their counts are checked first.
    """
    by_row = mat.by_row
    support_rows = sum(any(p is None or x % p for x in row.values()) for row in by_row.values())
    support_cols = {c for row in by_row.values() for c, x in row.items() if p is None or x % p}
    if (len(u_rows), len(v_cols)) != (support_rows, len(support_cols)):
        raise InternalInvariant("SNF self-check failed: U or V misses a support vector")
    v_rows: dict[int, list[tuple[int, int]]] = {}
    for s, col in enumerate(v_cols):
        for c, x in col.items():
            v_rows.setdefault(c, []).append((s, x))
    for t, u in enumerate(u_rows):
        um: dict[int, int] = {}
        for i, a in u.items():
            for c, x in by_row[i].items() if i in by_row else ():
                um[c] = um.get(c, 0) + a * x
        umv: dict[int, int] = {}
        for c, y in um.items():
            for s, x in v_rows.get(c, ()) if y else ():
                umv[s] = umv.get(s, 0) + y * x
        if p is not None:
            umv = {s: z % p for s, z in umv.items()}
        if {s: z for s, z in umv.items() if z} != ({t: diagonal[t]} if t < len(diagonal) else {}):
            raise InternalInvariant("SNF self-check failed: D != U*M*V")


def _eliminate(
    mat: ExactMatrix, p: int | None = None, track: bool = True, skip: Collection[int] = ()
) -> tuple[list[list], list[dict[int, int]], list[dict[int, int]], int]:
    """Sparse elimination of mat to a diagonal, over Z or (p given) over Z/p.

    Returns (pivots, u_rest, v_rest, peeled). Each pivot is [d, row of U,
    column of V, r, c], taken at entry (r, c) of mat. The first peeled are
    the peel's: a unit a, d = 1, U row {r: a^-1} and no column of V (None).
    The rows in skip are dropped as mat is loaded.

    The peel takes, first in first out, a column holding one entry, a unit
    (+-1 over Z), among the rows left, and deletes its row with no row or
    column operation; the columns the row leaves with one entry are queued.
    So a peeled column holds no entry in a row peeled later or left, and
    the heap works on the residual M', mat without the peeled rows. Such a
    column has the least key, (1, 0), of the heap's rule, so the peel only
    breaks its ties (structured Gaussian elimination). The heap's U' and V'
    mention only the support rows and columns of M' (mod p, entries not
    divisible by p); u_rest and v_rest are those left without a pivot,
    ascending, so u_rest*M' and M'*v_rest vanish.

    The heap's next pivot is the entry of least absolute value (mod p each
    is a unit), ties broken by least Markowitz cost (row nnz - 1) * (col
    nnz - 1); keys are re-validated when popped. Row operations reduce the
    pivot column to nearest remainders, recorded in U'; once it is clear,
    column operations reduce the pivot row, recorded in V', and U's row is
    scaled by the pivot's inverse. A nonzero remainder is smaller than the
    pivot, so the pivot goes back and the remainder is taken first: a pivot
    is taken only when its row and column are clear, and each failed
    attempt lowers the least absolute value, so the elimination ends. With
    track=False (rank only) U' and V' are not updated. Over a field only
    row operations are then made, so the pivot columns are independent
    columns of mat, as many as its rank.
    """
    field = p is not None
    rows: dict[int, dict[int, int]] = {}
    # the rows of each column, in lists: a sparse column's few rows take less
    # memory in a list than in a set
    cols: dict[int, list[int]] = {}
    for i, row in mat.by_row.items():
        if i in skip:
            continue
        # copied: the eliminator rewrites its rows in place
        row = {j: y for j, c in row.items() if (y := c % p)} if field else dict(row)
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, []).append(i)
    u: dict[int, dict[int, int]] = {}
    v: dict[int, dict[int, int]] = {}
    pivots: list[list] = []
    # the peel, first in first out; a queued column held one entry when queued
    queue = [j for j, col in cols.items() if len(col) == 1]
    for c in queue:
        if len(cols.get(c, ())) == 1 and (field or rows[cols[c][0]][c] in (1, -1)):
            (r,) = cols.pop(c)
            row = rows.pop(r)
            a = row.pop(c)
            for j in row:
                cols[j].remove(r)
                if len(cols[j]) == 1:
                    queue.append(j)
            pivots.append([1, {r: pow(a, -1, p) if field else a}, None, r, c])
    peeled = len(pivots)
    if track:
        support_rows = sorted(rows)
        support_cols = sorted(j for j, col in cols.items() if col)
    heap = [
        (1 if field else abs(c), (len(row) - 1) * (len(cols[j]) - 1), i, j)
        for i, row in rows.items()
        for j, c in row.items()
    ]
    heapq.heapify(heap)
    while heap:
        size, cost, r, c = heapq.heappop(heap)
        row = rows.get(r)
        a = row.get(c) if row else None
        if a is None or not (field or abs(a) == size):
            continue
        now = (len(row) - 1) * (len(cols[c]) - 1)
        if now > cost:
            heapq.heappush(heap, (size, now, r, c))
            continue
        inv = pow(a, -1, p) if field else (1 if a > 0 else -1)
        half = size // 2
        del rows[r], row[c]
        below = cols.pop(c)
        below.remove(r)
        for j in row:
            cols[j].remove(r)
        ur = u[r] if r in u else {r: 1}
        kept = []
        for i in below:
            target = rows[i]
            x = target.pop(c)
            f = x * inv if size == 1 else (x * inv + half) // size
            if f:
                for j, y in row.items():
                    z = target.get(j, 0) - f * y
                    if field:
                        z %= p
                    if z:
                        if j not in target:
                            cols[j].append(i)
                        target[j] = z
                        z_cost = (len(target) - 1) * (len(cols[j]) - 1)
                        heapq.heappush(heap, (1 if field else abs(z), z_cost, i, j))
                    elif j in target:
                        del target[j]
                        cols[j].remove(i)
                if track:
                    u[i] = _axpy(u[i] if i in u else {i: 1}, -f, ur, p)
            if size > 1 and x != f * a:
                target[c] = x - f * a
                kept.append(i)
            elif not target:
                del rows[i]
        if not kept and size > 1:
            # the pivot column holds nothing else: reduce the pivot row
            vc = v[c] if c in v else {c: 1}
            rest = {}
            for j, x in row.items():
                f = (x * inv + half) // size
                if track and f:
                    v[j] = _axpy(v[j] if j in v else {j: 1}, -f, vc, p)
                if x != f * a:
                    rest[j] = x - f * a
            row = rest
        if not kept and (size == 1 or not row):
            # a is a unit, or the rest of its row is empty
            ur, vc = u.pop(r, {r: 1}), v.pop(c, {c: 1})
            if track:
                for j, x in row.items():
                    v[j] = _axpy(v[j] if j in v else {j: 1}, -x * inv, vc, p)
                if inv != 1:
                    ur = _axpy({}, inv, ur, p)
            pivots.append([1 if field else size, ur, vc, r, c])
            continue
        # a remainder is left, smaller than the pivot: the pivot goes back
        rows[r], row[c] = row, a
        cols[c] = kept  # row holds c again, so r joins it below
        for j in row:
            cols[j].append(r)
        for i, j in [(i, c) for i in kept] + [(r, j) for j in row]:
            target = rows[i]
            heapq.heappush(heap, (abs(target[j]), (len(target) - 1) * (len(cols[j]) - 1), i, j))
    if not track:
        return pivots, [], [], peeled
    pivot_rows, pivot_cols = {q[3] for q in pivots}, {q[4] for q in pivots}
    u_rest = [u[i] if i in u else {i: 1} for i in support_rows if i not in pivot_rows]
    v_rest = [v[j] if j in v else {j: 1} for j in support_cols if j not in pivot_cols]
    return pivots, u_rest, v_rest, peeled


def _axpy(acc: dict[int, int], f: int, vec: dict[int, int], p: int | None) -> dict[int, int]:
    """acc += f * vec in place (mod p when p is given); zero entries are dropped."""
    for k, c in vec.items():
        y = acc.get(k, 0) + f * c
        if p is not None:
            y %= p
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)
    return acc


def _mix(coeffs: Sequence[int], vectors: Sequence[dict[int, int]]) -> dict[int, int]:
    """The sparse sum of coeffs[k] * vectors[k]."""
    out: dict[int, int] = {}
    for a, vec in zip(coeffs, vectors):
        if a:
            _axpy(out, a, vec, None)
    return out


def _gcd_lcm_move(p: list, q: list) -> None:
    """Turn diag(a, b) into diag(g, lcm) on pivots p, q, with g = gcd(a, b) = x*a + y*b.

    U's rows become (x, y; -b/g, a/g) times the old pair and V's columns
    the old pair times (1, -y*b/g; 1, x*a/g); both 2x2 blocks have
    determinant x*a/g + y*b/g = 1.
    """
    a, b = p[0], q[0]
    g, x, y = _xgcd(a, b)
    p[0], q[0] = g, a // g * b
    u, v = (p[1], q[1]), (p[2], q[2])
    p[1], q[1] = _mix((x, y), u), _mix((-(b // g), a // g), u)
    p[2], q[2] = _mix((1, 1), v), _mix((-y * (b // g), x * (a // g)), v)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def invariant_factors(mat: ExactMatrix) -> list[int]:
    """The nonzero invariant factors d1 | d2 | ... over Z."""
    return _smith(mat, None)[0]


def rank_modp(
    mat: ExactMatrix, p: int, skip: Collection[int] = ()
) -> tuple[int, frozenset[int]]:
    """Rank over Z/p of mat without the rows in skip, and its pivot columns.

    The rank is the number of pivots of the sparse elimination mod p; their
    columns are independent columns of mat, as many as that rank.
    """
    pivots = _eliminate(mat, p, False, skip)[0]
    return len(pivots), frozenset(q[4] for q in pivots)


def kernel_basis(mat: ExactMatrix, ring: CoefficientRing) -> ExactMatrix:
    """Columns form a basis of the kernel (over Z, of the kernel lattice).

    They are V's columns past the rank, completed (_complete_v) and checked
    by M*K = 0, then the unit vector e_j of each empty column j.
    """
    p = ring.p
    diagonal, _, v_cols, peel = _smith(mat, p)
    used = {j for row in mat.by_row.values() for j, c in row.items() if p is None or c % p}
    kernel = _complete_v(mat, p, peel, v_cols, len(diagonal)) + _units(mat.cols, used)
    K = ExactMatrix.from_columns(mat.cols, kernel)
    if _failing_keys(range(K.cols), (mat @ K).by_row.values(), ring):
        raise InternalInvariant("SNF self-check failed: M*K != 0 on the kernel basis K")
    return K


def determinant(mat: ExactMatrix) -> int:
    """Exact determinant via Bareiss elimination; used to audit unimodularity."""
    if mat.rows != mat.cols:
        raise IndexError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = mat.to_dense()
    signv = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            signv = -signv
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return signv * a[n - 1][n - 1]


@dataclass
class HomologySummary:
    """Free rank and torsion (over Z) or dimension (over Z/p) in one degree."""

    degree: int
    ring: CoefficientRing
    free_rank: int
    torsion: tuple[int, ...] = ()

    @property
    def dimension(self) -> int:
        return self.free_rank

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, self.torsion)

    def __str__(self):
        if self.ring.is_field:
            return f"dim {self.free_rank}"
        tor = ",".join(f"Z/{d}" for d in self.torsion)
        bits = [f"Z^{self.free_rank}"] if self.free_rank else []
        if tor:
            bits.append(tor)
        return " + ".join(bits) if bits else "0"


def _factor(mat: ExactMatrix, ring: CoefficientRing) -> list[int]:
    """Invariant factors of one boundary; over Z/p every nonzero one is a unit 1."""
    if ring.is_field:
        return [1] * rank_modp(mat, ring.p)[0]
    return invariant_factors(mat)


class FiniteComplex:
    """A finite free chain complex: a graded basis plus its boundary matrices.

    basis maps each degree to a sized sequence of its keys, in order: only
    failure messages read the keys. boundaries maps a degree j to the
    differential out of it, a matrix from basis[j] to basis[j - 1].
    A degree missing from boundaries is the zero map. Each boundary is
    factored once, and each pair of boundaries is checked to compose to zero
    once.

    Clearing: once d_{j-1} has been factored and d_{j-1} d_j = 0 checked,
    so that im d_j lies in ker d_{j-1}, d_j is factored without the rows P,
    pivot columns of d_{j-1}; the P of the cleared d_j serve d_{j+1} in turn.
    Over Z/p P is every pivot column of d_{j-1}: they are independent, so
    deleting the rows P keeps the rank of d_j. Over Z, P is only the peel's
    columns: its certificate, checked as d_{j-1} is factored, puts a
    unit-triangular |P| x |P| block in d_{j-1}[:, P], within its kept rows.
    So y in Z^P with d_{j-1} y in nZ lies in nZ^P: ker d_{j-1} meets
    span(e_P) in 0 and projects onto a saturated sublattice, and deleting
    the rows P keeps every invariant factor of d_j, torsion too.
    A degree with no basis has zero (co)homology and factors nothing; a
    boundary with no entry has no invariant factors and is not factored, and
    a composite with a zero side is zero, with no product.
    """

    def __init__(
        self, ring: CoefficientRing, basis: dict[int, list], boundaries: dict[int, ExactMatrix]
    ):
        self.ring = ring
        self.basis = basis
        self._boundaries = boundaries
        self._factors: dict[int, list[int]] = {}
        self._checked: set[int] = set()
        # degree j -> the rows P to clear from d_{j+1}, kept until it is factored
        self._pivot_cols: dict[int, Collection[int]] = {}

    def boundary(self, j: int) -> ExactMatrix:
        """The differential out of degree j, C_j -> C_{j-1}."""
        if j in self._boundaries:
            return self._boundaries[j]
        return _zero(self.basis.get(j - 1, ()), self.basis.get(j, ()))

    def _factored(self, j: int) -> list[int]:
        if j not in self._factors:
            # clearing needs d_{j-1} d_j = 0; see the class docstring
            cleared = self._pivot_cols.pop(j - 1, ())
            skip = cleared if j - 1 in self._checked else ()
            d = self.boundary(j)
            if not d.by_row:  # a zero map has no invariant factors and clears nothing
                factors, pivot_cols = [], ()
            elif self.ring.is_field:
                rank, pivot_cols = rank_modp(d, self.ring.p, skip)
                factors = [1] * rank
            else:
                if skip:
                    kept = {i: row for i, row in d.by_row.items() if i not in skip}
                    d = ExactMatrix._adopt(d.rows, d.cols, kept)
                factors, _, _, peel = _smith(d, None)
                pivot_cols = {c for _, c in peel}
            if j + 1 not in self._factors:
                self._pivot_cols[j] = pivot_cols
            self._factors[j] = factors
        return self._factors[j]

    def composite_failures(self, j: int) -> list:
        """The keys of C_j, in basis order, on which d_{j-1} d_j is nonzero."""
        d_out, d_in = self.boundary(j - 1), self.boundary(j)
        if d_out.cols != d_in.rows:
            raise IndexError("boundary matrices do not line up")
        if not (d_out.by_row and d_in.by_row):
            return []  # a zero side makes the composite zero
        return _failing_keys(self.basis.get(j, []), (d_out @ d_in).by_row.values(), self.ring)

    def _groups(self, j: int) -> tuple[int, list[int], list[int]]:
        """Free rank at j and the factors of the boundaries out of and into C_j,
        after checking that those two boundaries compose to zero."""
        if not self.basis.get(j):
            return 0, [], []  # the composite through C_j = 0 is zero
        if j not in self._checked:
            bad = self.composite_failures(j + 1)
            if bad:
                raise NotAComplex(
                    f"composite of boundary maps is nonzero on {bad[0]} in degree {j + 1}"
                )
            self._checked.add(j)
        f_out, f_in = self._factored(j), self._factored(j + 1)
        return len(self.basis.get(j, ())) - len(f_out) - len(f_in), f_out, f_in

    def homology(self, j: int) -> HomologySummary:
        """H_j, after checking that the boundaries out of and into C_j compose to zero."""
        free, _, f_in = self._groups(j)
        return HomologySummary(j, self.ring, free, tuple(d for d in f_in if d > 1))

    def cohomology(self, j: int) -> HomologySummary:
        """H^j of the dual complex Hom(C, R), by universal coefficients.

        It has the free rank of H_j, and its torsion is the cokernel torsion
        of the dual of the boundary out of C_j: that boundary's invariant
        factors > 1.
        """
        free, f_out, _ = self._groups(j)
        return HomologySummary(j, self.ring, free, tuple(d for d in f_out if d > 1))


def _failing_keys(keys: Sequence, rows: Iterable[dict[int, int]], ring: CoefficientRing) -> list:
    """The keys, in order, of the columns where a row holds an entry nonzero in ring."""
    bad = {c for row in rows for c, x in row.items() if ring.normalize(x)}
    return [keys[c] for c in sorted(bad)]


def _chain_map(source: FiniteComplex, target: FiniteComplex, maps, k, shift) -> ExactMatrix:
    """maps[k], or the zero map from source.basis[k] to target.basis[k + shift]."""
    return maps.get(k, _zero(target.basis.get(k + shift, ()), source.basis.get(k, ())))


def chain_map_failures(
    source: FiniteComplex,
    target: FiniteComplex,
    maps: dict[int, ExactMatrix],
    j: int,
    shift: int,
) -> list:
    """The keys of source.basis[j], in basis order, on which d' F_j != F_{j-1} d.

    maps[k] is the chain map on degree k, from source.basis[k] to
    target.basis[k + shift]; a missing degree is the zero map.
    """
    lhs = target.boundary(j + shift) @ _chain_map(source, target, maps, j, shift)
    rhs = _chain_map(source, target, maps, j - 1, shift) @ source.boundary(j)
    diff = {i: dict(row) for i, row in lhs.by_row.items()}
    for i, row in rhs.by_row.items():
        acc = diff.setdefault(i, {})
        for c, x in row.items():
            acc[c] = acc.get(c, 0) - x
    return _failing_keys(source.basis.get(j, []), diff.values(), source.ring)


@dataclass
class InducedMapResult:
    source: HomologySummary
    target: HomologySummary
    is_iso: bool


def induced_map_on_homology(
    source: FiniteComplex,
    target: FiniteComplex,
    maps: dict[int, ExactMatrix],
    j: int,
    shift: int = 0,
) -> InducedMapResult:
    """Induced map H_j(source) -> H_{j+shift}(target) and its isomorphism verdict.

    maps[k] is the chain map on degree k, from source.basis[k] to
    target.basis[k + shift]; a missing degree is the zero map. The chain map
    identity d' F_j = F_{j-1} d is verified first, and a failure names the
    first key it fails on. The verdict uses that finitely generated abelian
    groups (and vector spaces) are Hopfian: the map is an isomorphism iff
    both sides have equal invariants and the map is onto. F(Z_j) + B_t lies
    in Z_t, a kernel and so a direct summand of C_t: it is all of Z_t iff
    [F_j K | d_in], in C_t's coordinates, has rank Z_t invariant factors,
    all of them 1.
    """
    bad = chain_map_failures(source, target, maps, j, shift)
    if bad:
        raise NotChainMap(f"map does not commute with the boundary operators on {bad[0]}")
    ring, t = source.ring, j + shift
    h_source, h_target = source.homology(j), target.homology(t)
    cycles = len(target.basis.get(t, ())) - len(target._factored(t))
    F_j = _chain_map(source, target, maps, j, shift)
    hits = _hstack(F_j @ kernel_basis(source.boundary(j), ring), target.boundary(t + 1))
    iso = _factor(hits, ring).count(1) == cycles and h_source.invariants() == h_target.invariants()
    return InducedMapResult(h_source, h_target, iso)


def _zero(rows: Sequence, cols: Sequence) -> ExactMatrix:
    """The zero map from the span of cols to the span of rows."""
    return ExactMatrix._adopt(len(rows), len(cols), {})


def _hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.rows != b.rows:
        raise IndexError("hstack of mismatched row counts")
    by_row = {i: dict(row) for i, row in a.by_row.items()}
    for i, row in b.by_row.items():
        acc = by_row.setdefault(i, {})
        for j, c in row.items():
            acc[j + a.cols] = c
    return ExactMatrix._adopt(a.rows, a.cols + b.cols, by_row)

