"""Exact linear algebra: Smith normal form over Z, ranks over Z/p, homology.

Matrices are sparse and held by rows. One sparse eliminator
diagonalises a matrix over Z or Z/p: it peels the columns holding a single
unit with no row or column operation, then reduces the rest from a heap,
least absolute value first. It records a sparse row of U for every pivot,
and as V'' only the column operations that leave a remainder: a unit
pivot needs none. Each factorization certifies W = U*M*V'' one row of U at
a time: up to unit column operations, which clear W's unit rows, W is D,
so D = U*M*V (_certify). Callers that read V build it by those column
operations and check it by product (_complete_v). Complexes reach the
homology engine as matrices only and factor d_j without the rows that are
pivot columns of d_{j-1} (clearing; over Z only the peel's, see
FiniteComplex).

by_row maps each row to {col: c}, with no empty row and no zero c
(Gustavson, 1978); every reader takes the rows as stored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Sequence

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

    U and V come back square (V from _complete_v); the triple is checked by product.
    """
    diagonal, _, pieces = _smith(mat, None)
    u_rows = [q[1] for q in pieces[0]] + pieces[1]
    u_rows += [{i: 1} for i in range(mat.rows) if i not in mat.by_row]
    D = ExactMatrix._adopt(mat.rows, mat.cols, {t: {t: d} for t, d in enumerate(diagonal)})
    U = ExactMatrix._adopt(mat.rows, mat.rows, dict(enumerate(u_rows)))
    V = ExactMatrix.from_columns(mat.cols, _complete_v(mat, None, pieces))
    if U @ mat @ V != D:
        raise InternalInvariant("SNF self-check failed: D != U*M*V")
    return D, U, V


def _smith(mat: ExactMatrix, p: int | None) -> tuple[list[int], list[int], tuple]:
    """Smith normal form over Z (p is None) or over Z/p, as sparse pieces.

    Returns (diagonal, peel, (chain, u_rest, v)). chain holds the pivots
    [d, row of U, column of V'' or None, r, c] of _eliminate: its unit
    ones in elimination order, the peel's first, then the others, merged
    into the divisibility chain by 2x2 moves diag(a, b) -> diag(gcd, lcm);
    peel lists the peel's pivot columns c_k. u_rest and v are _eliminate's.
    U_s, chain's rows then u_rest, has a row per support row of mat, and
    _certify proves D = U*M*V for the V that _complete_v builds. Mod p every
    pivot is 1, and U, V and the checks are reduced mod p.
    """
    pivots, u_rest, v, peeled = _eliminate(mat, p)
    # told apart before the merge, which can turn a torsion pivot into a unit
    units = [q for q in pivots if q[0] == 1]
    torsion = [q for q in pivots if q[0] != 1]
    for a in range(len(torsion)):
        for b in range(a + 1, len(torsion)):
            if torsion[b][0] % torsion[a][0]:
                _gcd_lcm_move(torsion[a], torsion[b])
    chain = units + torsion
    if any(len(q[1]) != 1 for q in pivots[:peeled]):  # FiniteComplex clears by the peel's rows
        raise InternalInvariant("SNF self-check failed: a peel row of U is not one row of M")
    _certify(mat, chain, u_rest, v, p)
    return [q[0] for q in chain], [q[4] for q in pivots[:peeled]], (chain, u_rest, v)


def _certify(mat: ExactMatrix, chain: list, u_rest: list, v: dict, p: int | None) -> None:
    """Check W = U_s*M*V'' one row of U_s at a time (mod p when p is given).

    chain, u_rest and v are _smith's. U_s must have one row per support row
    of mat: a lost row would pass the rest. In chain's order, pivot k's row
    of W must hold d_k at c_k and nothing at an earlier pivot's column, and
    nothing else at all unless d_k = 1; the rows of u_rest must vanish.
    Then the unit rows' column operations clear W to D (_complete_v), and
    off the support M is zero and U and V the identity: so D = U*M*V.
    """
    by_row = mat.by_row
    support = sum(any(x % p for x in row.values()) for row in by_row.values()) if p else len(by_row)
    if len(chain) + len(u_rest) != support:
        raise InternalInvariant("SNF self-check failed: U misses a support vector")
    w_row = _w_rows(by_row, chain, v)[1]
    taken = set()
    for d, u, _, r, c in chain:
        a, w = w_row(u)
        at_c = 0
        for j, y in w.items():
            y = a * y % p if p else a * y
            if y and j in taken:
                raise InternalInvariant(f"SNF self-check failed: pivot column {j} in a later row")
            if j == c:
                at_c = y
            elif y and d != 1:
                at_c = 0  # a non-unit pivot's row holds d alone
                break
        if at_c != d:
            raise InternalInvariant(f"SNF self-check failed: D != U*M*V at pivot ({r}, {c})")
        taken.add(c)
    for u in u_rest:
        a, w = w_row(u)
        if any(a * y % p if p else y for y in w.values()):
            raise InternalInvariant("SNF self-check failed: D != U*M*V")


def _w_rows(by_row: dict, chain: list, v: dict) -> tuple[dict, Callable]:
    """The moved columns of V'', and the map u -> (a, w) with W's row u*M*V'' = a*w.

    V'' moves a pivot's recorded column and those of v. w is not reduced mod
    p; for a one-entry u = {i: a} that V'' does not touch, it is M's row i.
    """
    moved = {q[4]: q[2] for q in chain if q[2]}
    moved.update(v)
    v_rows: dict[int, list[tuple[int, int]]] = {}
    for j, col in moved.items():
        for i, x in col.items():
            v_rows.setdefault(i, []).append((j, x))
    touched = v_rows.keys() | moved.keys()

    def w_row(u: dict[int, int]) -> tuple[int, dict[int, int]]:
        if len(u) == 1:
            ((i, a),) = u.items()
            um = by_row.get(i, {})
        else:
            a, um = 1, {}
            for i, b in u.items():
                for j, x in by_row[i].items() if i in by_row else ():
                    um[j] = um.get(j, 0) + b * x
        if not touched or touched.isdisjoint(um):
            return a, um
        w = {j: y for j, y in um.items() if j not in moved}
        for i, y in um.items():
            for j, x in v_rows.get(i, ()):
                w[j] = w.get(j, 0) + y * x
        return a, w

    return moved, w_row


def _complete_v(mat: ExactMatrix, p: int | None, pieces: tuple, start: int = 0) -> list:
    """V's columns from the start-th on, pieces being _smith's: the pivots'
    in chain order, then the others ascending.

    V = V''*Y, where Y clears W's unit rows by a forward sweep: in chain
    order, unit row k, which holds 1 at c_k, takes x times column c_k off
    each other column j where it holds x. Only an earlier row holds an
    entry at c_k, so column c_k is final when row k is reached, and the
    rows not reached yet are left as they were.
    """
    chain, _, v = pieces
    moved, w_row = _w_rows(mat.by_row, chain, v)
    columns = {j: dict(col) for j, col in moved.items()}
    for d, u, _, _, c in chain:
        if d == 1:
            a, w = w_row(u)
            vc = columns.get(c, {c: 1})
            for j, y in w.items():
                y = a * y % p if p else a * y
                if y and j != c:
                    columns[j] = _axpy(columns[j] if j in columns else {j: 1}, -y, vc, p)
    order = [q[4] for q in chain]
    taken = set(order)
    order += [j for j in range(mat.cols) if j not in taken]
    return [columns.get(j, {j: 1}) for j in order[start:]]


def _eliminate(
    mat: ExactMatrix, p: int | None = None, track: bool = True, skip: Collection[int] = ()
) -> tuple[list[list], list[dict[int, int]], dict[int, dict[int, int]], int]:
    """Sparse elimination of mat to a diagonal, over Z or (p given) over Z/p.

    Returns (pivots, u_rest, v, peeled). Each pivot is [d, row of U, column
    of V'' or None (e_c), r, c], taken at entry (r, c); the first peeled are
    the peel's, with U row {r: a^-1}. The rows in skip are dropped as mat is
    loaded. u_rest are the rows of U left without a pivot, ascending, on the
    support rows the peel leaves (mod p, entries not divisible by p), and v
    the other columns of V'' that are not unit vectors (none mod p).

    The peel takes, first in first out, a column holding one entry, a unit
    (+-1 over Z), among the rows left, and deletes its row with no row or
    column operation; the columns the row leaves with one entry are queued.
    Such a column has the least key, (1, 0), of the heap's rule, so the peel
    only breaks its ties (structured Gaussian elimination). The heap's next
    pivot is the entry of least absolute value (mod p each is a unit), ties
    broken by least Markowitz cost (row nnz - 1) * (col nnz - 1); keys are
    re-validated when popped. Row operations reduce the pivot column to
    nearest remainders, recorded in U; then column operations reduce a
    non-unit pivot's row, recorded in V''. A nonzero remainder is smaller
    than the pivot, so the pivot goes back and the remainder is taken first:
    each such round lowers the least absolute value, so the elimination ends.
    A pivot is taken once its column is clear and it is a unit or its row is
    clear too: its row goes with what it holds, and its U row is scaled by
    a^-1. With track=False (rank only) U and V'' are not recorded, and over
    a field the pivot columns are independent columns of mat.
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
    support_rows = sorted(rows) if track else ()
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
            # a is a unit, or the rest of its row is empty: the row goes as it is
            ur = u.pop(r, {r: 1})
            if track and inv != 1:
                ur = _axpy({}, inv, ur, p)
            pivots.append([1 if field else size, ur, v.pop(c, None), r, c])
            continue
        # a remainder is left, smaller than the pivot: the pivot goes back
        rows[r], row[c] = row, a
        cols[c] = kept  # row holds c again, so r joins it below
        for j in row:
            cols[j].append(r)
        for i, j in [(i, c) for i in kept] + [(r, j) for j in row]:
            target = rows[i]
            heapq.heappush(heap, (abs(target[j]), (len(target) - 1) * (len(cols[j]) - 1), i, j))
    pivot_rows = {q[3] for q in pivots} if track else ()
    u_rest = [u[i] if i in u else {i: 1} for i in support_rows if i not in pivot_rows]
    return pivots, u_rest, v, peeled


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
    (None: the unit vector e_c) the old pair times (1, -y*b/g; 1, x*a/g);
    both 2x2 blocks have determinant x*a/g + y*b/g = 1.
    """
    a, b = p[0], q[0]
    g, x, y = _xgcd(a, b)
    p[0], q[0] = g, a // g * b
    u, v = (p[1], q[1]), (p[2] or {p[4]: 1}, q[2] or {q[4]: 1})
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

    They are V's columns past the rank (_complete_v), checked by M*K = 0.
    """
    diagonal, _, pieces = _smith(mat, ring.p)
    K = ExactMatrix.from_columns(mat.cols, _complete_v(mat, ring.p, pieces, len(diagonal)))
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


def _factors(mat: ExactMatrix, p: int | None, skip: Collection = ()) -> tuple[list, Collection]:
    """Invariant factors of mat without the rows in skip (mod p all 1), and the
    columns that clear: mod p every pivot's, over Z the peel's (FiniteComplex)."""
    if not mat.by_row:  # a zero map has no invariant factors and clears nothing
        return [], ()
    if p:
        rank, pivot_cols = rank_modp(mat, p, skip)
        return [1] * rank, pivot_cols
    if skip:
        kept = {i: row for i, row in mat.by_row.items() if i not in skip}
        mat = ExactMatrix._adopt(mat.rows, mat.cols, kept)
    factors, peel, _ = _smith(mat, None)
    return factors, set(peel)


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
    columns. V'' is the identity on them and a peel pivot's row of U is a
    unit times a row of d_{j-1} (checked by _smith), so the certificate
    (_certify), checked as d_{j-1} is factored, reads a unit-triangular
    |P| x |P| block in d_{j-1}[:, P], within its kept rows, through W.
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
            factors, pivot_cols = _factors(self.boundary(j), self.ring.p, skip)
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
    ones = _factors(hits, ring.p)[0].count(1)
    iso = ones == cycles and h_source.invariants() == h_target.invariants()
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

