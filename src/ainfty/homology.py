"""Exact linear algebra: Smith normal form over Z, ranks over Z/p, homology.

Matrices are sparse maps (row, col) -> coefficient. One sparse eliminator
clears the unit pivots first, recording its row operations in sparse rows
of U and its column operations in sparse columns of V. Over Z/p every
nonzero entry is a unit, so it alone gives ranks, kernels and solves. Over
Z, each connected component of what remains goes to a dense kernel on
lists of Python ints, which are exact at any size. Smith normal form, over
Z and mod p, re-verifies D = U*M*V on the whole matrix by multiplication
before returning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import InternalInvariant, NotAComplex, NotChainMap
from .rings import CoefficientRing


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int] | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        for (i, j), c in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
            if c:
                self.entries[(i, j)] = c

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "ExactMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        return cls(
            rows,
            cols,
            {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v},
        )

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[dict[int, int]]) -> "ExactMatrix":
        entries = {}
        for j, col in enumerate(columns):
            for i, c in col.items():
                if c:
                    entries[(i, j)] = c
        return cls(rows, len(columns), entries)

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), c in self.entries.items():
            dense[i][j] = c
        return dense

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        # row-sparse (Gustavson) product: entry (i, k) on the left scales row k
        # on the right, so the work is proportional to the products that occur
        if self.cols != other.rows:
            raise IndexError("matrix shapes do not compose")
        right: dict[int, list[tuple[int, int]]] = {}
        for (k, j), c in other.entries.items():
            right.setdefault(k, []).append((j, c))
        entries: dict[tuple[int, int], int] = {}
        for (i, k), a in self.entries.items():
            for j, b in right.get(k, ()):
                entries[(i, j)] = entries.get((i, j), 0) + a * b
        return ExactMatrix(self.rows, other.cols, entries)

    def mod(self, p: int) -> "ExactMatrix":
        return ExactMatrix(
            self.rows, self.cols, {k: c % p for k, c in self.entries.items() if c % p}
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, {(i, i): 1 for i in range(n)})


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, src, dst, q):
    # dst += q * src
    ms, md = m[src], m[dst]
    for k in range(len(md)):
        md[k] += q * ms[k]


def _add_col(m, src, dst, q):
    for row in m:
        row[dst] += q * row[src]


def _snf_dense(block: ExactMatrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Dense (D, U, V) with D = U @ block @ V, D diagonal with d1 | d2 | ... > 0.

    Pivoting re-selects the entry of minimal absolute value on every
    elimination pass and reduces with symmetric (nearest) remainders: both
    are needed to keep intermediate entries from exploding. U and V are
    built from elementary row/column operations, hence unimodular.
    """
    m, n = block.rows, block.cols
    D = block.to_dense()
    U = identity_matrix(m).to_dense()
    V = identity_matrix(n).to_dense()

    def move_min_pivot(t):
        best = None
        pivot = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            return False
        i, j = pivot
        if i != t:
            _swap_rows(D, t, i)
            _swap_rows(U, t, i)
        if j != t:
            _swap_cols(D, t, j)
            _swap_cols(V, t, j)
        if D[t][t] < 0:
            D[t] = [-v for v in D[t]]
            U[t] = [-v for v in U[t]]
        return True

    t = 0
    while t < min(m, n):
        if not move_min_pivot(t):
            break
        while True:
            p = D[t][t]
            half = p // 2
            for i in range(t + 1, m):
                a = D[i][t]
                if a:
                    q = (a + half) // p
                    if q:
                        _add_row(D, t, i, -q)
                        _add_row(U, t, i, -q)
            for j in range(t + 1, n):
                a = D[t][j]
                if a:
                    q = (a + half) // p
                    if q:
                        _add_col(D, t, j, -q)
                        _add_col(V, t, j, -q)
            row_clear = all(D[t][j] == 0 for j in range(t + 1, n))
            col_clear = all(D[i][t] == 0 for i in range(t + 1, m))
            if row_clear and col_clear:
                break
            # a nonzero remainder is strictly smaller than the pivot:
            # promote the smallest entry and keep reducing
            move_min_pivot(t)

        # pivot must divide the rest of the block for the divisibility chain
        p = D[t][t]
        offender = None
        for i in range(t + 1, m):
            row = D[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(D, offender, t, 1)
            _add_row(U, offender, t, 1)
            continue
        t += 1
    return D, U, V


def smith_normal_form(mat: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Return (D, U, V) with D = U @ mat @ V, D diagonal with d1 | d2 | ...

    The unit pivots are cleared first by the sparse eliminator
    _eliminate_units. Each connected component of what remains is factored
    on its own by the dense kernel _snf_dense, and its transforms are
    composed with the eliminator's sparse rows of U and columns of V. The
    pivots are placed at (t, t), units first; the other pivots are merged
    into the divisibility chain by 2x2 moves diag(a, b) -> diag(gcd, lcm)
    on the matching rows of U and columns of V. The identity D = U*M*V is
    re-verified on the whole matrix by exact multiplication before
    returning.
    """
    return _smith(mat, None)


def _smith(mat: ExactMatrix, p: int | None) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """smith_normal_form over Z (p is None) or over Z/p.

    Mod p nothing remains after the eliminator, so D is an identity block,
    and U, V and the check D = U*M*V are reduced mod p.
    """
    pivots, rest, u_rest, v_rest = _eliminate_units(mat, p)
    # rest rows and columns outside every component keep the eliminator's transforms
    u_zero, v_zero = dict(enumerate(u_rest)), dict(enumerate(v_rest))
    u_tail: list[dict[int, int]] = []
    v_tail: list[dict[int, int]] = []
    for rows, cols, block in _blocks(rest):
        D, U, V = _snf_dense(block)
        u_of = [u_zero.pop(i) for i in rows]
        v_of = [v_zero.pop(j) for j in cols]
        u_rows = [_mix(row, u_of) for row in U]
        v_cols = [_mix([row[t] for row in V], v_of) for t in range(len(cols))]
        rank = sum(1 for t in range(min(len(rows), len(cols))) if D[t][t])
        pivots += [[D[t][t], u_rows[t], v_cols[t]] for t in range(rank)]
        u_tail += u_rows[rank:]
        v_tail += v_cols[rank:]
    units = [q for q in pivots if q[0] == 1]
    torsion = [q for q in pivots if q[0] != 1]
    for a in range(len(torsion)):
        for b in range(a + 1, len(torsion)):
            if torsion[b][0] % torsion[a][0]:
                _gcd_lcm_move(torsion[a], torsion[b])
    chain = units + torsion
    u_rows = [q[1] for q in chain] + u_tail + list(u_zero.values())
    v_cols = [q[2] for q in chain] + v_tail + list(v_zero.values())
    Dm = ExactMatrix(mat.rows, mat.cols, {(t, t): q[0] for t, q in enumerate(chain)})
    Um = ExactMatrix(
        mat.rows, mat.rows, {(r, i): c for r, row in enumerate(u_rows) for i, c in row.items()}
    )
    Vm = ExactMatrix.from_columns(mat.cols, v_cols)
    UMV = Um @ mat @ Vm
    if (UMV if p is None else UMV.mod(p)) != Dm:
        raise InternalInvariant("SNF self-check failed: D != U*M*V")
    return Dm, Um, Vm


def _eliminate_units(
    mat: ExactMatrix, p: int | None = None, track: bool = True
) -> tuple[list[list], ExactMatrix, list[dict[int, int]], list[dict[int, int]]]:
    """Sparse elimination on the unit entries of mat; mod p every nonzero entry is one.

    Returns (pivots, rest, u_rest, v_rest). Each pivot is [1, row of U,
    column of V] as sparse dicts whose product with mat is 1 (mod p). rest
    is what is left on the other rows and columns, both ascending; u_rest
    and v_rest are their rows of U and columns of V, so rest is
    u_rest * mat * v_rest. Mod p, rest is zero.

    The pivot of least Markowitz cost (row nnz - 1) * (col nnz - 1) comes
    off a heap whose costs are re-validated when popped. Row operations
    clear the pivot column and are recorded in U; the pivot row's other
    entries then need column operations only on V, because the pivot
    column holds nothing else. With track=False (rank only) U and V are not
    updated, so only the number of pivots and rest mean anything.
    """
    field = p is not None
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), c in mat.entries.items():
        c = c % p if field else c
        if c:
            rows.setdefault(i, {})[j] = c
            cols.setdefault(j, set()).add(i)
    heap = [
        ((len(row) - 1) * (len(cols[j]) - 1), i, j)
        for i, row in rows.items()
        for j, c in row.items()
        if field or c == 1 or c == -1
    ]
    heapq.heapify(heap)
    u: dict[int, dict[int, int]] = {}
    v: dict[int, dict[int, int]] = {}
    pivots: list[list] = []
    pivot_rows: set[int] = set()
    pivot_cols: set[int] = set()
    while heap:
        cost, r, c = heapq.heappop(heap)
        row = rows.get(r)
        a = row.get(c) if row else None
        if a is None or not (field or a == 1 or a == -1):
            continue
        now = (len(row) - 1) * (len(cols[c]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, r, c))
            continue
        inv = pow(a, -1, p) if field else a
        del rows[r], row[c]
        below = cols.pop(c)
        below.discard(r)
        for j in row:
            cols[j].discard(r)
        ur = u.pop(r, {r: 1})
        for i in below:
            target = rows[i]
            f = target.pop(c) * inv
            for j, x in row.items():
                y = target.get(j, 0) - f * x
                if field:
                    y %= p
                if y:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = y
                    if field or y == 1 or y == -1:
                        heapq.heappush(heap, ((len(target) - 1) * (len(cols[j]) - 1), i, j))
                elif j in target:
                    del target[j]
                    cols[j].discard(i)
            if not target:
                del rows[i]
            if track:
                u[i] = _axpy(u[i] if i in u else {i: 1}, -f, ur, p)
        vc = v.pop(c, {c: 1})
        if track:
            for j, x in row.items():
                v[j] = _axpy(v[j] if j in v else {j: 1}, -x * inv, vc, p)
            if inv != 1:
                ur = _axpy({}, inv, ur, p)
        pivots.append([1, ur, vc])
        pivot_rows.add(r)
        pivot_cols.add(c)
    rest_rows = [i for i in range(mat.rows) if i not in pivot_rows]
    rest_cols = [j for j in range(mat.cols) if j not in pivot_cols]
    row_at = {i: k for k, i in enumerate(rest_rows)}
    col_at = {j: k for k, j in enumerate(rest_cols)}
    rest = ExactMatrix(
        len(rest_rows),
        len(rest_cols),
        {(row_at[i], col_at[j]): c for i, row in rows.items() for j, c in row.items()},
    )
    u_rest = [u[i] if i in u else {i: 1} for i in rest_rows] if track else []
    v_rest = [v[j] if j in v else {j: 1} for j in rest_cols] if track else []
    return pivots, rest, u_rest, v_rest


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


def _blocks(mat: ExactMatrix) -> list[tuple[list[int], list[int], ExactMatrix]]:
    """The connected components of mat's row/column graph that hold an entry.

    Row i is node i and column j is node rows + j; every entry joins its
    row and column (union-find). Each component comes as its ascending
    rows, its ascending columns and its block on those; components are
    ordered by their first row.
    """
    parent = list(range(mat.rows + mat.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in mat.entries:
        a, b = find(i), find(mat.rows + j)
        if a != b:
            parent[a] = b
    members: dict[int, tuple[list[int], list[int]]] = {}
    for i in sorted({i for i, _ in mat.entries}):
        members.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted({j for _, j in mat.entries}):
        members[find(mat.rows + j)][1].append(j)
    row_at = {i: k for rows, _ in members.values() for k, i in enumerate(rows)}
    col_at = {j: k for _, cols in members.values() for k, j in enumerate(cols)}
    entries: dict[int, dict[tuple[int, int], int]] = {root: {} for root in members}
    for (i, j), c in mat.entries.items():
        entries[find(i)][(row_at[i], col_at[j])] = c
    return [
        (rows, cols, ExactMatrix(len(rows), len(cols), entries[root]))
        for root, (rows, cols) in members.items()
    ]


def invariant_factors(mat: ExactMatrix) -> list[int]:
    D, _, _ = smith_normal_form(mat)
    out = []
    for t in range(min(mat.rows, mat.cols)):
        v = D.entries.get((t, t), 0)
        if v:
            out.append(abs(v))
    return out


def rank_modp(mat: ExactMatrix, p: int) -> int:
    """Rank over Z/p: the number of pivots of the sparse elimination mod p."""
    return len(_eliminate_units(mat, p, track=False)[0])


def kernel_basis(mat: ExactMatrix, ring: CoefficientRing) -> ExactMatrix:
    """Columns form a basis of the kernel (over Z, of the kernel lattice).

    They are the columns of V past the rank in D = U*M*V.
    """
    D, _, V = _smith(mat, ring.p) if ring.is_field else smith_normal_form(mat)
    rank = len(D.entries)
    return ExactMatrix(
        V.rows, V.cols - rank, {(i, j - rank): c for (i, j), c in V.entries.items() if j >= rank}
    )


def solve(K: ExactMatrix, B: ExactMatrix, ring: CoefficientRing) -> ExactMatrix:
    """X with K @ X = B, for K a kernel basis as returned by kernel_basis.

    With D = U*K*V, X = V*W where D*W = U*B; over Z, K's columns must span
    a saturated lattice.
    """
    D, U, V = _smith(K, ring.p) if ring.is_field else smith_normal_form(K)
    UB = U @ B
    entries: dict[tuple[int, int], int] = {}
    for (i, jcol), v in (UB.mod(ring.p) if ring.is_field else UB).entries.items():
        d = D.entries.get((i, i), 0)
        if d == 0:
            raise NotAComplex("column is not in the span of the kernel lattice")
        if v % d:
            raise NotAComplex("column is not integrally in the lattice")
        entries[(i, jcol)] = v // d
    X = V @ ExactMatrix(K.cols, B.cols, entries)
    return X.mod(ring.p) if ring.is_field else X


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

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

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


def _vanishes(mat: ExactMatrix, ring: CoefficientRing) -> bool:
    return (mat.mod(ring.p) if ring.is_field else mat).is_zero()


def _require_complex(d_out: ExactMatrix, d_in: ExactMatrix, ring: CoefficientRing) -> None:
    if d_out.cols != d_in.rows:
        raise IndexError("boundary matrices do not line up")
    if not _vanishes(d_out @ d_in, ring):
        raise NotAComplex("composite of boundary maps is nonzero")


def _factor(mat: ExactMatrix, ring: CoefficientRing) -> list[int]:
    """Invariant factors of one boundary; over Z/p every nonzero one is a unit 1."""
    if ring.is_field:
        return [1] * rank_modp(mat, ring.p)
    return invariant_factors(mat)


def basis_matrix(src: Sequence, dst: Sequence, image: Callable[[Any], dict]) -> ExactMatrix:
    """Matrix of a linear map from the span of src to the span of dst.

    image(key) is a sparse vector {key: coefficient}. A graded basis holds
    every valid key of its degree, so a term on a key outside dst breaks the
    degree rule and raises InternalInvariant.
    """
    index = {key: i for i, key in enumerate(dst)}
    entries = {}
    for j, key in enumerate(src):
        for out, c in image(key).items():
            i = index.get(out)
            if i is None:
                raise InternalInvariant(f"image of {key} has {out} outside the target degree")
            entries[(i, j)] = c
    return ExactMatrix(len(dst), len(src), entries)


class FiniteComplex:
    """A finite free complex: a graded basis plus a differential on basis keys.

    basis maps each degree to its ordered keys; image(key) is the
    differential of one key as {key: coefficient}, landing in degree
    degree + step (step = -1 for chains, +1 for cochains). Degrees missing
    from basis are zero. Each boundary matrix is built and factored once;
    the cache keeps the sparse boundaries and their factors only.
    """

    def __init__(
        self,
        ring: CoefficientRing,
        basis: dict[int, list],
        image: Callable[[Any], dict],
        step: int = -1,
    ):
        self.ring = ring
        self.basis = basis
        self.image = image
        self.step = step
        self._boundaries: dict[int, ExactMatrix] = {}
        self._factors: dict[int, list[int]] = {}

    def boundary(self, j: int) -> ExactMatrix:
        """The differential out of degree j, C_j -> C_{j+step}."""
        mat = self._boundaries.get(j)
        if mat is None:
            mat = basis_matrix(
                self.basis.get(j, []), self.basis.get(j + self.step, []), self.image
            )
            self._boundaries[j] = mat
        return mat

    def _factored(self, j: int) -> list[int]:
        if j not in self._factors:
            self._factors[j] = _factor(self.boundary(j), self.ring)
        return self._factors[j]

    def homology(self, j: int) -> HomologySummary:
        """H_j, after checking that the boundaries out of and into C_j compose to zero."""
        d_out, d_in = self.boundary(j), self.boundary(j - self.step)
        _require_complex(d_out, d_in, self.ring)
        f_out, f_in = self._factored(j), self._factored(j - self.step)
        torsion = tuple(d for d in f_in if d > 1)
        return HomologySummary(j, self.ring, d_out.cols - len(f_out) - len(f_in), torsion)


@dataclass
class InducedMapResult:
    matrix: ExactMatrix  # on kernel-basis coordinates
    source: HomologySummary
    target: HomologySummary
    is_iso: bool


def induced_map_on_homology(
    source: FiniteComplex,
    target: FiniteComplex,
    image: Callable[[Any], dict],
    j: int,
    shift: int = 0,
) -> InducedMapResult:
    """Induced map H_j(source) -> H_{j+shift}(target) and its isomorphism verdict.

    image(key) is the chain map on one source basis key. The chain map
    identity d' @ F_j = F_{j+step} @ d is verified first. The verdict uses
    that finitely generated abelian groups (and vector spaces) are Hopfian:
    the map is an isomorphism iff both sides have equal invariants and the
    map is surjective, i.e. [Y | X_target] hits all of the target kernel.
    """
    ring, step, t = source.ring, source.step, j + shift
    F_j = basis_matrix(source.basis.get(j, []), target.basis.get(t, []), image)
    F_next = basis_matrix(
        source.basis.get(j + step, []), target.basis.get(t + step, []), image
    )
    if not _vanishes(_subtract(target.boundary(t) @ F_j, F_next @ source.boundary(j)), ring):
        raise NotChainMap("map does not commute with the boundary operators")

    h_source, h_target = source.homology(j), target.homology(t)
    K_s = kernel_basis(source.boundary(j), ring)
    K_t = kernel_basis(target.boundary(t), ring)
    stacked = solve(K_t, _hstack(F_j @ K_s, target.boundary(t - step)), ring)
    Y = ExactMatrix(
        K_t.cols, K_s.cols, {k: c for k, c in stacked.entries.items() if k[1] < K_s.cols}
    )
    surjective = _factor(stacked, ring).count(1) == K_t.cols
    iso = surjective and h_source.invariants() == h_target.invariants()
    return InducedMapResult(Y, h_source, h_target, iso)


def _subtract(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    entries = dict(a.entries)
    for k, c in b.entries.items():
        entries[k] = entries.get(k, 0) - c
    return ExactMatrix(a.rows, a.cols, entries)


def _hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.rows != b.rows:
        raise IndexError("hstack of mismatched row counts")
    entries = dict(a.entries)
    for (i, j), c in b.entries.items():
        entries[(i, j + a.cols)] = c
    return ExactMatrix(a.rows, a.cols + b.cols, entries)

