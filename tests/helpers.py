"""Shared fixture loaders and independent oracles for the test batteries.

The oracles here are deliberately written from scratch (dense row reduction,
cofactor determinants, determinantal divisors, the classical Hochschild
boundary and cochain differential for degree-zero algebras) so that they
share no code path with the library routines they check. The per-word
Hochschild differential (summands, b_component, differential_word and
differential) and the cochain complex on elementary cochains (cochain_basis,
cochain_complex) are the former library bodies of b and of the cohomology
route, kept to check the entry walk of HochschildComplex.boundaries and the
reading of cohomology from the dual bimodule's chains. The per-(i, l)
Hochschild summand and the enumerating codifferential are former library
bodies too, kept to check the operation-driven assembly that replaced them; the
two equation bodies are the former written-out composite families, kept to
check the index-driven arm and slot families word by word, over the basis
words that bimodule_words enumerates. The per-word algebra equation residual
and the word-by-word tensor square and dual are the former library bodies too,
kept to check the entry walks that replaced them. The diagonal-formula differential, the
regraded codifferential and the integer rank are second routes that no report
prints, so they live here rather than in the library; so is b* evaluated on b
of every word, the former body of b_star. The per-word b_1 (b1_word), the
length blocks picked out of F_L word by word and the associativity check on
all n^3 triples are the former library bodies of the two E^0 routes and of
from_dga's check, kept to check the entry walks and the slices that replaced
them; so are the loops over every letter and pair that checked d*d = 0 and
the Leibniz rule (dga_failure_oracle), replaced by the defining equations
r = 1 and r = 2. The block-only Smith
normal form (the union-find block split and the dense min-pivot kernel) and
the dense mod-p rank, kernel and solve are the former library routines, kept
only as oracles for the one sparse eliminator that replaced them over Z and
over Z/p. The length projection, the filtration level and membership of a
chain, the Z^r membership tests, the homology table of a truncation and the
degree of a chain are reported by no command, so they live here too, as does
the whole factoring of a boundary over Z (whole_factors), kept to check the
cleared one that replaced it; so do
from_dense, is_trivial and call_arguments, which only tests call, and mod,
morphism_is_chain_map_00 and component_word, the former
ExactMatrix.mod, the former library check of f_{0,0} and the former
BimoduleMorphism.component_word, which no library code calls. The word-level
E^0 map (e0_map_oracle) is the comparison check's former f_0 with f_*'s sign,
kept to check the length blocks of f_*'s matrices that replaced it. The
word-level f_* (induced_on_word, induced_chain, induced_matrices_oracle),
the word-wise ComposedChainMap, basis_matrix, add, evaluate and the per-word
sign exponents maltese0 and star_sign are former library bodies too: f_*'s
matrices now come from the walk that builds b, and no library code composes
chain maps, adds chains, evaluates a functional on a chain or reads a sign
word by word. The cup product with every spectator word enumerated
(cup_oracle) is the former body of cup, its index bound corrected, kept to
check the entry walk that replaced it. The walk given no unit
(boundaries_oracle) makes every term of b, the strict unit's included, as
HochschildComplex.boundaries did before it left them to the mu_2(u,u)
terms; it is kept to check that the terms left out cancel. The pullback
of cochains along f_* (pullback, with the inverse of phi,
duality_iso_inverse) and the reindexing of a cocycle as a bimodule morphism
(cocycle_to_morphism) are former library bodies that no command reaches,
kept to check f_*'s matrices against duality_iso and the codifferential, and
to generate the morphisms that f_* and the morphism equations are checked on.
"""

import copy
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from ainfty.bimodules import (
    AInfinityBimodule,
    BimoduleMorphism,
    _slot_family,
    bimodule_op,
    diagonal_bimodule,
    dual_bimodule,
    dual_name,
    morphism_op,
    tensor_name,
)
from ainfty.chains import HochschildComplex, InducedChainMap, normalize
from ainfty.cochains import (
    Cochain,
    DualChainElement,
    _named,
    coboundary,
    codifferential,
    duality_iso,
)
from ainfty.algebra import from_dga
from ainfty.graded import Element, GradedModule, MultilinearOp
from ainfty.rings import Z
from ainfty.homology import (
    ExactMatrix,
    FiniteComplex,
    _gcd_lcm_move,
    invariant_factors,
)
from ainfty.documents import parse, serialize
from ainfty.errors import (
    IndexOutOfRange,
    Inhomogeneous,
    InternalInvariant,
    LeibnizFailure,
    ModuleMismatch,
    NotACocycle,
    NotADifferential,
    ZeroElement,
)
from ainfty.fixtures import FIXTURE_NAMES, fixture_document
from ainfty.signs import maltese, sign

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import _rs_slots, relabel  # noqa: E402


def maltese0(m_degree, degrees, i):
    """Coefficient-slot variant: m_degree plus the reduced indices of slots 1..i.

    i = 0 keeps only m_degree; i = -1 is the convention for the leading
    Hochschild term and gives 0. The former signs.maltese0, which no library
    code calls.
    """
    if i == -1:
        return 0
    if i < -1:
        raise IndexOutOfRange(f"maltese0 upper index {i}")
    return m_degree + maltese(degrees, 1, i)


def star_sign(m_degree, degrees, i):
    """Exponent of the overlapping Hochschild terms: maltese0(i-1) * maltese(i, n);
    the former signs.star_sign, which no library code calls."""
    n = len(degrees)
    if not 0 <= i - 1 <= n:
        raise IndexOutOfRange(f"star_sign index {i} on {n} degrees")
    return maltese0(m_degree, degrees, i - 1) * maltese(degrees, i, n)


def add_into(acc, word, c):
    acc[word] = acc.get(word, 0) + c


def add(x, y, ring):
    """The sum of two chains, normalized; the former chains.add."""
    acc = dict(x)
    for w, c in y.items():
        add_into(acc, w, c)
    return normalize(acc, ring)


def basis_matrix(src, dst, image):
    """Matrix of a linear map from the span of src to the span of dst; the
    former homology.basis_matrix.

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


def evaluate(psi, x):
    """A functional psi on a chain x; the former DualChainElement.evaluate."""
    return psi.complex.ring.normalize(sum(c * psi.terms.get(w, 0) for w, c in x.items()))


def from_dense(dense):
    """The ExactMatrix of a list of rows (built through the checking constructor)."""
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    return ExactMatrix(
        rows, cols, {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    )


def call_arguments(fn, *args, **kwargs):
    """fn's arguments on this call by name, defaults filled in: for wrappers
    that forward every argument and read one of them."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def is_trivial(summary):
    """A homology group is zero: no free rank and no torsion."""
    return summary.free_rank == 0 and not summary.torsion


def load(name, p=None):
    """Parse a built-in fixture document, optionally switching the ring to Z/p."""
    doc = fixture_document(name)
    if p is not None:
        doc["ring"] = {"kind": "Zp", "p": p}
    return parse(serialize(doc))


def group_algebra_document(name, elements, multiply, ring=None):
    """The group ring over Z (or Z/p, ring {"kind": "Zp", "p": p}) of a finite
    group as a DGA document: one degree-0 letter per element, the first the
    unit, named "1"; multiply(g, h) is the product of two elements."""
    names = {g: "1" if i == 0 else f"g{i}" for i, g in enumerate(elements)}
    product = [
        {"inputs": [names[g], names[h]], "output": {names[multiply(g, h)]: "1"}}
        for g in elements
        for h in elements
    ]
    return {
        "name": name,
        "ring": ring or {"kind": "Z"},
        "algebra": {
            "basis": [[names[g], 0] for g in elements],
            "kind": "dga",
            "product": product,
            "differential": [],
        },
        "options": {"length": 4, "max_r": 6, "max_rs": 4},
    }


def cyclic_group_document(n, ring=None):
    """Z[C_n]: the residues mod n under addition."""
    return group_algebra_document(f"C{n}", range(n), lambda g, h: (g + h) % n, ring)


def symmetric_group_document(ring=None):
    """Z[S_3]: the permutations of 0, 1, 2 in one-line notation, (gh)(i) = g(h(i))."""
    elements = sorted(itertools.permutations(range(3)))
    return group_algebra_document(
        "S3", elements, lambda g, h: tuple(g[h[i]] for i in range(3)), ring
    )


def mu1_algebra():
    """1 (deg 0) and e (deg -1) with e^2 = 0 and d(e) = 1: a DGA whose mu_1
    and mu_2 are both nonzero, so terms of mu_1 are reached."""
    m = GradedModule((("1", 0), ("e", -1)), Z)
    unit = {("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1}}
    prod = MultilinearOp((m, m), m, 0, unit)
    diff = MultilinearOp((m,), m, 1, {("e",): {"1": 1}})
    return from_dga(m, prod, diff)


def associativity_failure_oracle(module, product):
    """The first failing triple's message, or None, from product on all n^3
    triples in itertools.product order: the former associativity check of
    from_dga, kept to check the entry composition that replaced it."""
    for a, b, c in itertools.product(module.names, repeat=3):
        ea, eb, ec = (module.basis_element(n) for n in (a, b, c))
        left = product(product(ea, eb), ec)
        right = product(ea, product(eb, ec))
        if left != right:
            return f"({a}*{b})*{c} = {left} but {a}*({b}*{c}) = {right}"
    return None


def dga_failure_oracle(module, product, differential):
    """The first d*d = 0 or Leibniz failure as (error type, message), or None,
    for an associative product: the former loops of from_dga over every letter
    and pair, kept to check the defining equations r = 1 and r = 2."""
    d = differential
    for n in module.names:
        if not d(d(module.basis_element(n))).is_zero():
            return NotADifferential, f"d(d({n})) != 0"
    for a, b in itertools.product(module.names, repeat=2):
        ea, eb = module.basis_element(a), module.basis_element(b)
        lhs = d(product(ea, eb))
        rhs = product(d(ea), eb) + product(ea, d(eb)).scale(sign(module.degree_of(a)))
        if lhs != rhs:
            return LeibnizFailure, f"d({a}*{b}) = {lhs} but Leibniz gives {rhs}"
    return None


def induced(f, length):
    """f_* between fresh complexes of f's source and target at one length cutoff."""
    source, target = HochschildComplex(f.source, length), HochschildComplex(f.target, length)
    return InducedChainMap(f, source, target)


def induced_on_word(fstar, word):
    """f_* on one word, wrapping each f_(r,s) around it with the sign
    star_sign + d j; the former InducedChainMap.on_word, kept to check the
    walk that builds f_*'s matrices."""
    n = len(word) - 1
    m, letters = word[0], word[1:]
    deg = fstar.source.degree(word)
    a_degs = [fstar.source.A.module.degree_of(a) for a in letters]
    m_deg = fstar.source.M.module.degree_of(m)
    acc = {}
    for (r, s), op in fstar.f.maps.items():
        if r + s > n:
            continue
        out = op.on_word(letters[n - r :] + (m,) + letters[:s])
        sv = sign(star_sign(m_deg, a_degs, n - r + 1) + fstar.f.degree * deg)
        for name, c in out.terms.items():
            add_into(acc, (name,) + letters[s : n - r], sv * c)
    return normalize(acc, fstar.target.ring)


def induced_chain(fstar, x):
    """f_* on a chain, word by word; the former InducedChainMap.__call__."""
    acc = {}
    for word, c in x.items():
        for w, v in induced_on_word(fstar, word).items():
            add_into(acc, w, c * v)
    return normalize(acc, fstar.target.ring)


def induced_matrices_oracle(fstar):
    """f_*'s matrices over F_L, one induced_on_word per word: the former
    InducedChainMap.matrices."""
    src, tgt = fstar.source.truncation(), fstar.target.truncation()
    return {
        j: basis_matrix(words, tgt.basis.get(j + fstar.degree, []), lambda w: induced_on_word(fstar, w))
        for j, words in src.basis.items()
    }


class ComposedChainMap:
    """Word-wise composite g_* . f_*; the former library class."""

    def __init__(self, g, f):
        if f.f.target.module != g.f.source.module:
            raise ModuleMismatch("chain maps do not compose")
        self.g = g
        self.f = f
        self.source = f.source
        self.target = g.target
        self.degree = f.degree + g.degree

    def on_word(self, word):
        return induced_chain(self.g, induced_on_word(self.f, word))


def degree_one_document():
    """A = {e}, e.e = e; M = {p, q} with mu_(0,0)(p) = q, N = {P, Q} with
    mu_(0,0)(P) = Q, e acting as the identity on the left of both; and the
    degree-1 morphism shift: M -> N with f_(0,0)(p) = P, f_(0,0)(q) = -Q.
    f_* carries the Koszul sign (-1)^(d j) on a word of Hochschild degree j."""

    def entry(inputs, output):
        return {"inputs": list(inputs), "output": {n: str(c) for n, c in output.items()}}

    def bimodule(low, high, degree):
        return {
            "basis": [[low, degree], [high, degree + 1]],
            "operations": {
                "0,0": [entry([low], {high: 1})],
                "1,0": [entry(["e", low], {low: 1}), entry(["e", high], {high: 1})],
            },
        }

    return {
        "ring": {"kind": "Z"},
        "algebra": {
            "kind": "dga",
            "basis": [["e", 0]],
            "product": [entry(["e", "e"], {"e": 1})],
            "differential": [],
        },
        "bimodules": {"M": bimodule("p", "q", 0), "N": bimodule("P", "Q", 1)},
        "morphisms": {
            "shift": {
                "source": "M",
                "target": "N",
                "degree": 1,
                "components": {"0,0": [entry(["p"], {"P": 1}), entry(["q"], {"Q": -1})]},
            }
        },
    }


def e0_map_oracle(fstar, p):
    """E^0(f_*) on column p as {j: matrix}, word by word: f_(0,0) (x) id with
    the sign (-1)^(d j) on a word of Hochschild degree j. It is the comparison
    check's former word-level f_0 with the sign that f_* carries."""
    f, src, tgt = fstar.f, fstar.source, fstar.target
    f00 = f.maps.get((0, 0))
    basis, rows = {}, {}
    for cx, out in ((src, basis), (tgt, rows)):
        for w in cx.words(p):
            out.setdefault(cx.degree(w), []).append(w)

    def image(w):
        if f00 is None:
            return {}
        flip = -1 if f.degree * src.degree(w) % 2 else 1
        terms = f00.on_word((w[0],)).terms
        return normalize({(n,) + w[1:]: flip * c for n, c in terms.items()}, tgt.ring)

    return {j: basis_matrix(keys, rows.get(j - f.degree, []), image) for j, keys in basis.items()}


def reordered_document(name, seed):
    """A fixture document whose algebra and bimodule bases are listed in a shuffled order."""
    doc = fixture_document(name)
    rng = random.Random(seed)
    rng.shuffle(doc["algebra"]["basis"])
    for spec in doc.get("bimodules", {}).values():
        rng.shuffle(spec["basis"])
    return doc


def load_reordered(name, seed):
    """The parsed reordered_document."""
    return parse(serialize(reordered_document(name, seed)))


def renamed_document(name, seed):
    """perfbench's relabel of a fixture document (every basis renamed and
    shuffled), with an idempotent first letter of the algebra, the unit of
    the unital fixtures, moved off the front."""
    doc = relabel(fixture_document(name), random.Random(seed))
    alg = doc["algebra"]
    first = alg["basis"][0][0]
    if {"inputs": [first, first], "output": {first: "1"}} in alg.get("product", []):
        alg["basis"].append(alg["basis"].pop(0))
    return doc


def _unitriangular_blocks(basis, rng):
    """A random lower-unitriangular change of basis within each degree of a
    [[name, degree], ...] basis, below-diagonal entries from {-1, 0, 1}, never
    the identity on a degree of two letters or more: {new letter: {old letter:
    c}} and its inverse. The first letter of each degree stays as it is."""
    by_degree = {}
    for name, d in basis:
        by_degree.setdefault(d, []).append(name)
    forward, inverse = {}, {}
    for names in by_degree.values():
        while True:
            rows = [[rng.choice((-1, 0, 1)) for _ in range(i)] for i in range(len(names))]
            if len(names) < 2 or any(map(any, rows)):
                break
        for i, name in enumerate(names):
            # b_i = e_i + sum_j rows[i][j] e_j, and e_i = b_i - sum_j rows[i][j] e_j
            forward[name] = {names[j]: c for j, c in enumerate(rows[i]) if c}
            forward[name][name] = 1
            back = {name: 1}
            for j, c in enumerate(rows[i]):
                for k, v in inverse.get(names[j], {}).items() if c else ():
                    back[k] = back.get(k, 0) - c * v
            inverse[name] = {k: v for k, v in back.items() if v}
    return forward, inverse


def _rebase_entries(entries, inputs, output):
    """Table entries rewritten in the new bases: inputs holds, per slot, the
    new letters as combinations of the old; output, the old output letters as
    combinations of the new."""
    columns = [{} for _ in inputs]  # per slot: old letter -> [(new letter, c)]
    for slot, forward in zip(columns, inputs):
        for new, old in forward.items():
            for name, c in old.items():
                slot.setdefault(name, []).append((new, c))
    table = {}
    for entry in entries:
        images = {}
        for name, c in entry["output"].items():
            for new, v in output[name].items():
                images[new] = images.get(new, 0) + int(c) * v
        for picks in itertools.product(*(col.get(n, ()) for col, n in zip(columns, entry["inputs"]))):
            scale = math.prod(c for _, c in picks)
            out = table.setdefault(tuple(new for new, _ in picks), {})
            for new, v in images.items():
                out[new] = out.get(new, 0) + scale * v
    return [
        {"inputs": list(word), "output": {n: str(c) for n, c in out.items() if c}}
        for word, out in table.items()
        if any(out.values())
    ]


def rebased_document(doc, seed):
    """A copy of doc in a random integral lower-unitriangular basis within each
    degree of A and of each bimodule, with every name kept.

    Letter x of the copy stands for x plus a combination of the letters listed
    before it in its degree, with coefficients in {-1, 0, 1}; the first letter
    of each degree is unchanged, so a unit listed first stays a letter. The
    product, the differential, the higher operations, the bimodule operations,
    the morphism components and the cochains are carried through the change,
    outputs through its inverse. HH and every report are invariant under it.
    """
    doc = copy.deepcopy(doc)
    rng = random.Random(seed)
    alg = doc["algebra"]
    a, a_inv = _unitriangular_blocks(alg["basis"], rng)
    for key, arity in (("product", 2), ("differential", 1)):
        if key in alg:
            alg[key] = _rebase_entries(alg[key], [a] * arity, a_inv)
    for arity, entries in alg.get("operations", {}).items():
        alg["operations"][arity] = _rebase_entries(entries, [a] * int(arity), a_inv)
    modules = {}
    for name in sorted(doc.get("bimodules", {})):
        spec = doc["bimodules"][name]
        m, m_inv = modules[name] = _unitriangular_blocks(spec["basis"], rng)
        for key, entries in spec.get("operations", {}).items():
            spec["operations"][key] = _rebase_entries(entries, _rs_slots(key, a, m), m_inv)
    for spec in doc.get("morphisms", {}).values():
        src, tgt = modules[spec["source"]][0], modules[spec["target"]][1]
        for key, entries in spec.get("components", {}).items():
            spec["components"][key] = _rebase_entries(entries, _rs_slots(key, a, src), tgt)
    # cochains take values in the diagonal bimodule, whose basis is A's
    for spec in doc.get("cochains", {}).values():
        for arity, entries in spec["components"].items():
            spec["components"][arity] = _rebase_entries(entries, [a] * int(arity), a_inv)
    return doc


def unitalized_mu3_document():
    """mu3_square_zero with a strict unit e adjoined last: mu_2(e, x) = x and
    mu_2(x, e) = (-1)^|x| x, so that a mu_3 sits beside the unit."""
    doc = fixture_document("mu3_square_zero")
    alg = doc["algebra"]
    alg["basis"].append(["e", 0])
    table = {}
    for x, d in alg["basis"]:
        table["e", x] = {x: "1"}
        table[x, "e"] = {x: str(sign(d))}
    alg["operations"]["2"] = [{"inputs": list(k), "output": v} for k, v in table.items()]
    return doc


ALGEBRA_FIXTURES = list(FIXTURE_NAMES)


def row_reduce_modp(rows, p):
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns)."""
    mat = [[v % p for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots


def dense_rank_modp(rows, p):
    """Row-reduction rank over GF(p); oracle, independent of ainfty.homology."""
    return len(row_reduce_modp(rows, p)[1])


def dense_kernel_modp(rows, ncols, p):
    """A kernel basis over GF(p) of an m x ncols matrix, one dense vector per free column."""
    red, pivots = row_reduce_modp(rows, p)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[j] = 1
        for r, c in enumerate(pivots):
            vec[c] = -red[r][j] % p
        basis.append(vec)
    return basis


def dense_solve_modp(K, B, p):
    """X with K X = B over GF(p), read from the reduced [K | B]; None if B is not in the span."""
    k = len(K[0]) if K else 0
    red, pivots = row_reduce_modp([kr + br for kr, br in zip(K, B)], p)
    if any(c >= k for c in pivots):
        return None
    X = [[0] * (len(B[0]) if B else 0) for _ in range(k)]
    for r, c in enumerate(pivots):
        X[c] = red[r][k:]
    return X


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
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

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


def block_snf(mat):
    """Smith normal form (D, U, V) from the connected components alone.

    The former library routine: every block goes to the dense kernel
    _snf_dense, with no sparse elimination in front, and the pivots are
    merged into the divisibility chain by the library's gcd/lcm moves.
    """
    pivots, u_rest, v_rest = [], [], []
    for rows, cols, block in _blocks(mat):
        D, U, V = _snf_dense(block)
        u_rows = [{rows[k]: c for k, c in enumerate(row) if c} for row in U]
        v_cols = [
            {cols[k]: row[t] for k, row in enumerate(V) if row[t]} for t in range(len(cols))
        ]
        rank = sum(1 for t in range(min(len(rows), len(cols))) if D[t][t])
        pivots += [[D[t][t], u_rows[t], v_cols[t]] for t in range(rank)]
        u_rest += u_rows[rank:]
        v_rest += v_cols[rank:]
    units = [q for q in pivots if q[0] == 1]
    torsion = [q for q in pivots if q[0] != 1]
    for a in range(len(torsion)):
        for b in range(a + 1, len(torsion)):
            if torsion[b][0] % torsion[a][0]:
                _gcd_lcm_move(torsion[a], torsion[b])
    chain = units + torsion
    u_rows = [q[1] for q in chain] + u_rest
    v_cols = [q[2] for q in chain] + v_rest
    u_rows += [{i: 1} for i in sorted(set(range(mat.rows)).difference(*u_rows))]
    v_cols += [{j: 1} for j in sorted(set(range(mat.cols)).difference(*v_cols))]
    D = ExactMatrix(mat.rows, mat.cols, {(t, t): q[0] for t, q in enumerate(chain)})
    U = ExactMatrix(
        mat.rows, mat.rows, {(r, i): c for r, row in enumerate(u_rows) for i, c in row.items()}
    )
    return D, U, ExactMatrix.from_columns(mat.cols, v_cols)


def dense_rank_q(rows):
    """Rank over the rationals by fraction-free-ish Gaussian elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def det_int(rows):
    """Cofactor-expansion determinant; fine for the small oracle matrices."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def minor_gcd_invariants(rows):
    """Invariant factors via determinantal divisors (gcds of k x k minors)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                g = _gcd(g, det_int(minor))
        divisors.append(g)
        if g == 0:
            break
    out = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        out.append(divisors[k] // divisors[k - 1])
    return out


def _prime_powers(d):
    """{prime: exponent} of a positive integer, by trial division."""
    out = {}
    q = 2
    while q * q <= d:
        while d % q == 0:
            out[q] = out.get(q, 0) + 1
            d //= q
        q += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def block_diagonal_invariants(blocks):
    """Invariant factors of a block-diagonal matrix from its dense blocks.

    Each block's invariants come from minor_gcd_invariants; they are split
    into prime-power elementary divisors, and for every prime the k-th
    largest exponent goes to the k-th largest invariant factor.
    """
    per_block = [minor_gcd_invariants(block) for block in blocks]
    rank = sum(len(factors) for factors in per_block)
    exponents = {}
    for factors in per_block:
        for d in factors:
            for q, e in _prime_powers(d).items():
                exponents.setdefault(q, []).append(e)
    out = [1] * rank
    for q, es in exponents.items():
        for slot, e in zip(range(rank - 1, -1, -1), sorted(es, reverse=True)):
            out[slot] *= q**e
    return out


def product_lookup(doc):
    """Raw product table of a DGA fixture document (pre-twist), as a dict."""
    table = {}
    for entry in doc.raw["algebra"]["product"]:
        table[tuple(entry["inputs"])] = {
            k: int(v) for k, v in entry["output"].items()
        }
    return table


def classical_hochschild_boundary(product, word):
    """Classical cyclic Hochschild boundary for a degree-zero algebra.

    word = (a_0, ..., a_n); returns a dict mapping output words to integers.
    b(a_0 x ... x a_n) = sum_i (-1)^i (... a_i a_{i+1} ...)
                        + (-1)^n (a_n a_0) x a_1 x ... x a_{n-1}.
    """
    n = len(word) - 1
    acc = {}

    def mul(a, b):
        return product.get((a, b), {})

    for i in range(n):
        s = (-1) ** i
        for name, c in mul(word[i], word[i + 1]).items():
            out = word[:i] + (name,) + word[i + 2 :]
            acc[out] = acc.get(out, 0) + s * c
    if n >= 1:
        s = (-1) ** n
        for name, c in mul(word[n], word[0]).items():
            out = (name,) + word[1:n]
            acc[out] = acc.get(out, 0) + s * c
    return {w: c for w, c in acc.items() if c}


def classical_cochain_delta(product, component, arity, names):
    """Classical Hochschild cochain differential for a degree-zero algebra.

    component maps arity-length words to dicts; returns the arity+1 table of
    (delta f)(a_1..a_{n+1}) = a_1 f(a_2..) + sum (-1)^i f(.. a_i a_{i+1} ..)
                             + (-1)^{n+1} f(a_1..a_n) a_{n+1}.
    """
    n = arity
    out = {}

    def mul(a, b):
        return product.get((a, b), {})

    def f(word):
        return component.get(word, {})

    def bump(word, name, c):
        if not c:
            return
        slot = out.setdefault(word, {})
        slot[name] = slot.get(name, 0) + c

    for word in itertools.product(names, repeat=n + 1):
        for t, ct in f(word[1:]).items():
            for name, c in mul(word[0], t).items():
                bump(word, name, ct * c)
        for i in range(1, n + 1):
            s = (-1) ** i
            for t, ct in mul(word[i - 1], word[i]).items():
                inner = word[: i - 1] + (t,) + word[i + 1 :]
                for name, c in f(inner).items():
                    bump(word, name, s * ct * c)
        s = (-1) ** (n + 1)
        for t, ct in f(word[:n]).items():
            for name, c in mul(t, word[n]).items():
                bump(word, name, s * ct * c)
    return {
        w: {k: v for k, v in slot.items() if v}
        for w, slot in out.items()
        if any(slot.values())
    }


def summands(cx, word):
    """Every nonzero term (i, l, output word, unnormalized coefficient) of b on one word.

    The former per-word library body of b, kept to check the entry walk of
    HochschildComplex.boundaries. Visits each mu_l at i = 1..n-l+1, and each
    mu_(r,s) with r + s <= n once: at i = 0 when r = 0, else wrapped at
    i = n-r+1, l = r+s+1.
    """
    n = len(word) - 1
    m, letters = word[0], word[1:]
    # front[k] = maltese0(deg m, degs, k); the star sign is
    # front[i-1] * maltese(i, n) = front[i-1] * (front[n] - front[i-1])
    front = [cx.M.module.degree_of(m)]
    for a in letters:
        front.append(front[-1] + cx.A.module.degree_of(a) - 1)
    for (r, s), op in cx.M.ops.items():
        if r + s > n:
            continue
        if r == 0:
            i, l, key, suffix, sv = 0, s + 1, word[: s + 1], letters[s:], 1
        else:
            i, l = n - r + 1, r + s + 1
            key = letters[i - 1 :] + (m,) + letters[:s]
            suffix = letters[s : i - 1]
            sv = sign(front[i - 1] * (front[n] - front[i - 1]))
        hit = op.table.get(key)
        if hit is not None:
            for name, c in hit.terms.items():
                yield i, l, (name,) + suffix, sv * c
    for l, op in cx.A.ops.items():
        for i in range(1, n - l + 2):
            hit = op.table.get(letters[i - 1 : i - 1 + l])
            if hit is not None:
                sv = sign(front[i - 1])
                head, tail = word[:i], letters[i - 1 + l :]
                for name, c in hit.terms.items():
                    yield i, l, head + (name,) + tail, sv * c


def b_component(cx, word, i, l):
    """Single summand b_{i,l}, filtered from summands; out-of-range gives zero."""
    acc = {}
    for i2, l2, w, c in summands(cx, word):
        if i2 == i and l2 == l:
            add_into(acc, w, c)
    return normalize(acc, cx.ring)


def differential_word(cx, word):
    """b on one word: the normalized sum of summands(cx, word)."""
    acc = {}
    for _, _, w, c in summands(cx, word):
        add_into(acc, w, c)
    return normalize(acc, cx.ring)


def differential(cx, x):
    """b on a chain of F_L, word by word."""
    acc = {}
    for word, c in x.items():
        if len(word) - 1 > cx.L:
            raise ModuleMismatch("chain exceeds the length cutoff")
        for w, v in differential_word(cx, word).items():
            add_into(acc, w, c * v)
    return normalize(acc, cx.ring)


def boundaries_oracle(cx):
    """Every boundary of F_L from b's walk given no unit, so that it makes
    every term, the strict unit's included."""
    return cx._walk(cx.M.ops, cx, -1, 0, cx._insertions)


def image_complex(ring, basis, image):
    """The FiniteComplex of a differential given on basis keys, image(key) a
    sparse vector {key: coefficient} in degree j - 1; its boundaries come from
    basis_matrix."""
    boundaries = {j: basis_matrix(keys, basis.get(j - 1, []), image) for j, keys in basis.items()}
    return FiniteComplex(ring, basis, boundaries)


def truncation_oracle(cx):
    """F_L with its boundaries read word by word from differential_word."""
    basis = {}
    for n in range(cx.L + 1):
        for w in cx.words(n):
            basis.setdefault(cx.degree(w), []).append(w)
    return image_complex(cx.ring, basis, lambda w: differential_word(cx, w))


def cochain_basis(M, cutoff):
    """Elementary cochains (arity, word, output) bucketed by total degree.

    Generation order is (arity, slot positions, output position), so each
    bucket comes out sorted by that key.
    """
    amod = M.algebra.module
    degrees = [d for _, d in amod.basis]
    out = {}
    for n in range(cutoff + 1):
        # the degree product runs in step with the name product
        words = itertools.product(amod.names, repeat=n)
        in_degs = map(sum, itertools.product(degrees, repeat=n))
        for word, in_deg in zip(words, in_degs):
            for name, m_deg in M.module.basis:
                j = m_deg - in_deg + n
                out.setdefault(j, []).append((n, word, name))
    return out


def cochain_complex(M, cutoff):
    """CH^*(A;M) up to arity cutoff on elementary cochains, with beta as differential.

    beta raises the cochain degree j by one, so the chain complex is graded
    by -j: its degree -j holds the cochains of degree j, and H^j is its
    homology(-j). The former library route of `cohomology`, which now reads
    the dual of F_L over the dual bimodule; kept to check it.
    """
    basis = {-j: keys for j, keys in cochain_basis(M, cutoff).items()}
    degree = {key: -j for j, keys in basis.items() for key in keys}
    return image_complex(M.ring, basis, lambda key: coboundary(M, degree[key], cutoff, *key))


def b_component_oracle(cx, word, i, l):
    """Single summand b_{i,l} by the per-(i, l) formula, one index pair at a time.

    Rebuilds the degree list and looks up the one operation that b_{i,l}
    names, independently of HochschildComplex.summands.
    """
    n = len(word) - 1
    if l < 1 or l > n + 1 or i < 0 or i > n:
        return {}
    m, letters = word[0], word[1:]
    a_degs = [cx.A.module.degree_of(a) for a in letters]
    m_deg = cx.M.module.degree_of(m)
    acc = {}

    def bump(w, c):
        acc[w] = acc.get(w, 0) + c

    if i == 0:
        out = op_word(cx.M, 0, l - 1, (m,) + letters[: l - 1])
        for name, c in out.terms.items():
            bump((name,) + letters[l - 1 :], c)
    elif i <= n - l + 1:
        out = mu_word(cx.A, l, letters[i - 1 : i - 1 + l])
        if not out.is_zero():
            s = sign(maltese0(m_deg, a_degs, i - 1))
            for name, c in out.terms.items():
                bump((m,) + letters[: i - 1] + (name,) + letters[i - 1 + l :], s * c)
    else:
        # overlapping part: the coefficient slot is wrapped around
        r = n - i + 1
        s_idx = i + l - n - 2
        out = op_word(cx.M, r, s_idx, letters[i - 1 :] + (m,) + letters[:s_idx])
        if not out.is_zero():
            s = sign(star_sign(m_deg, a_degs, i))
            suffix = letters[s_idx : i - 1]
            for name, c in out.terms.items():
                bump((name,) + suffix, s * c)
    return {w: c for w, c in ((w, cx.ring.normalize(c)) for w, c in acc.items()) if c}


def codifferential_oracle(f):
    """beta(f) with a fresh preimage index per call and a degree list per target.

    The insertion family walks the preimages of each letter under each mu
    table, and the wrapping family tries every prefix and suffix word
    around the value, so neither reads the library's operation indices.
    """
    A, M = f.A, f.M
    amod = A.module
    acc = {}
    truncated = f.truncated

    def bump(n, word, name, c):
        slot = acc.setdefault(n, {}).setdefault(word, {})
        slot[name] = slot.get(name, 0) + c

    for n, table in f.components.items():
        for mu_arity, op in A.ops.items():
            l = mu_arity - 1
            if n == 0:
                continue
            if n + l > f.cutoff:
                if table:
                    truncated = True
                continue
            preimages = {}
            for key, value in op.entries():
                for name, c in value.terms.items():
                    preimages.setdefault(name, []).append((key, c))
            for word, value in table.items():
                for i in range(1, n + 1):
                    for pre, pc in preimages.get(word[i - 1], ()):
                        target = word[: i - 1] + pre + word[i:]
                        s_exp = maltese([amod.degree_of(a) for a in target], 1, i - 1)
                        sv = sign(s_exp) * pc
                        for name, c in value.items():
                            bump(n + l, target, name, sv * c)
        for (r, s), op in M.ops.items():
            l = r + s
            if n + l > f.cutoff:
                if table:
                    truncated = True
                continue
            for word, value in table.items():
                for prefix in itertools.product(amod.names, repeat=r):
                    for suffix in itertools.product(amod.names, repeat=s):
                        target = prefix + word + suffix
                        degs = [amod.degree_of(a) for a in target]
                        s_exp = f.degree * (maltese(degs, 1, r) + 1) + 1
                        sv = sign(s_exp)
                        for name, c in value.items():
                            out = op.on_word(prefix + (name,) + suffix)
                            for out_name, v in out.terms.items():
                                bump(n + l, target, out_name, sv * c * v)

    return Cochain(f.M, f.degree + 1, acc, f.cutoff, truncated)


def bimodule_words(M, r, s):
    """Basis words (a_1..a_r, m, a_{r+1}..a_{r+s}) of type (r, s), in basis order."""
    a_names = M.algebra.module.names
    for left in itertools.product(a_names, repeat=r):
        for m in M.module.names:
            for right in itertools.product(a_names, repeat=s):
                yield left + (m,) + right


def bimodule_equation_residual_oracle(M, r, s, word):
    """Type-(r,s) bimodule residual with the three composite families written out."""
    A = M.algebra
    left, m, right = word[:r], word[r], word[r + 1 :]
    a_degs = [A.module.degree_of(n) for n in left + right]
    m_deg = M.module.degree_of(m)
    acc = {}

    def add(s_exp, c, elem):
        sv = sign(s_exp) * c
        for n, v in elem.terms.items():
            acc[n] = acc.get(n, 0) + sv * v

    # algebra operations inside the left arm
    for r2 in range(1, r + 1):
        r1 = r + 1 - r2
        inner_op = A.mu(r2)
        if inner_op is None:
            continue
        for i in range(1, r1 + 1):
            inner = inner_op.on_word(left[i - 1 : i - 1 + r2])
            if inner.is_zero():
                continue
            s_exp = maltese(a_degs, 1, i - 1)
            for name, c in inner.terms.items():
                outer = op_word(
                    M, r1, s, left[: i - 1] + (name,) + left[i - 1 + r2 :] + (m,) + right
                )
                add(s_exp, c, outer)

    # nested bimodule operations
    for r1 in range(0, r + 1):
        r2 = r - r1
        for s2 in range(0, s + 1):
            s1 = s - s2
            inner = op_word(M, r2, s2, left[r1:] + (m,) + right[:s2])
            if inner.is_zero():
                continue
            s_exp = maltese(a_degs, 1, r1)
            for name, c in inner.terms.items():
                outer = op_word(M, r1, s1, left[:r1] + (name,) + right[s2:])
                add(s_exp, c, outer)

    # algebra operations inside the right arm
    for s2 in range(1, s + 1):
        s1 = s + 1 - s2
        inner_op = A.mu(s2)
        if inner_op is None:
            continue
        for j in range(1, s1 + 1):
            inner = inner_op.on_word(right[j - 1 : j - 1 + s2])
            if inner.is_zero():
                continue
            s_exp = maltese(a_degs, 1, r + j - 1) + m_deg
            for name, c in inner.terms.items():
                outer = op_word(
                    M, r, s1, left + (m,) + right[: j - 1] + (name,) + right[j - 1 + s2 :]
                )
                add(s_exp, c, outer)

    return Element(M.module, acc)


def morphism_equation_sides_oracle(f, r, s, word):
    """Both sides of the type-(r,s) morphism equation, families written out."""
    M, N, d = f.source, f.target, f.degree
    A = M.algebra
    left, m, right = word[:r], word[r], word[r + 1 :]
    a_degs = [A.module.degree_of(n) for n in left + right]
    m_deg = M.module.degree_of(m)

    lhs = {}
    rhs = {}

    def add(acc, s_exp, c, elem):
        sv = sign(s_exp) * c
        for n, v in elem.terms.items():
            acc[n] = acc.get(n, 0) + sv * v

    for r1 in range(0, r + 1):
        r2 = r - r1
        for s2 in range(0, s + 1):
            s1 = s - s2
            inner = component_word(f, r2, s2, left[r1:] + (m,) + right[:s2])
            if inner.is_zero():
                continue
            s_exp = d * maltese(a_degs, 1, r1)
            for name, c in inner.terms.items():
                outer = op_word(N, r1, s1, left[:r1] + (name,) + right[s2:])
                add(lhs, s_exp, c, outer)

    for r2 in range(1, r + 1):
        r1 = r + 1 - r2
        inner_op = A.mu(r2)
        if inner_op is None:
            continue
        for i in range(1, r1 + 1):
            inner = inner_op.on_word(left[i - 1 : i - 1 + r2])
            if inner.is_zero():
                continue
            s_exp = maltese(a_degs, 1, i - 1) + d
            for name, c in inner.terms.items():
                outer = component_word(
                    f, r1, s, left[: i - 1] + (name,) + left[i - 1 + r2 :] + (m,) + right
                )
                add(rhs, s_exp, c, outer)

    for r1 in range(0, r + 1):
        r2 = r - r1
        for s2 in range(0, s + 1):
            s1 = s - s2
            inner = op_word(M, r2, s2, left[r1:] + (m,) + right[:s2])
            if inner.is_zero():
                continue
            s_exp = maltese(a_degs, 1, r1) + d
            for name, c in inner.terms.items():
                outer = component_word(f, r1, s1, left[:r1] + (name,) + right[s2:])
                add(rhs, s_exp, c, outer)

    for s2 in range(1, s + 1):
        s1 = s + 1 - s2
        inner_op = A.mu(s2)
        if inner_op is None:
            continue
        for i in range(1, s1 + 1):
            inner = inner_op.on_word(right[i - 1 : i - 1 + s2])
            if inner.is_zero():
                continue
            s_exp = maltese(a_degs, 1, r + i - 1) + m_deg + d
            for name, c in inner.terms.items():
                outer = component_word(
                    f, r, s1, left + (m,) + right[: i - 1] + (name,) + right[i - 1 + s2 :]
                )
                add(rhs, s_exp, c, outer)

    return Element(N.module, lhs), Element(N.module, rhs)


def equation_residual_oracle(algebra, word):
    """Left-hand side of the algebra's defining equation on one basis word, the
    former library body: every split and insertion point, looked up word by word."""
    r = len(word)
    degs = [algebra.module.degree_of(n) for n in word]
    acc = {}
    for n1 in range(1, r + 1):
        n2 = r + 1 - n1
        inner_op = algebra.mu(n1)
        outer_op = algebra.mu(n2)
        if inner_op is None or outer_op is None:
            continue
        for i in range(1, r + 2 - n1):
            inner = inner_op.on_word(word[i - 1 : i - 1 + n1])
            if inner.is_zero():
                continue
            s = sign(maltese(degs, 1, i - 1))
            for name, c in inner.terms.items():
                outer = outer_op.on_word(word[: i - 1] + (name,) + word[i - 1 + n1 :])
                for out, v in outer.terms.items():
                    acc[out] = acc.get(out, 0) + s * c * v
    return Element(algebra.module, acc)


def tensor_square_oracle(A):
    """A (x) A built word by word, the former library body of tensor_square_bimodule.

    mu_n gives mu_(n-1,0) and mu_(0,n-1), so the words run up to r, s = max arity - 1.
    """
    amod = A.module
    basis = tuple(
        (tensor_name(n1, n2), (d1 - 1) + (d2 - 1))
        for n1, d1 in amod.basis
        for n2, d2 in amod.basis
    )
    module = GradedModule(basis, amod.ring)
    names = amod.names
    ops = {}

    mu1 = A.mu(1)
    table00 = {}
    for n1 in names:
        for n2 in names:
            acc = {}
            if mu1 is not None:
                for t, c in mu1.on_word((n1,)).terms.items():
                    key = tensor_name(t, n2)
                    acc[key] = acc.get(key, 0) + c
                s1 = sign(amod.degree_of(n1) - 1)
                for t, c in mu1.on_word((n2,)).terms.items():
                    key = tensor_name(n1, t)
                    acc[key] = acc.get(key, 0) + s1 * c
            if acc:
                table00[(tensor_name(n1, n2),)] = acc
    if table00:
        ops[(0, 0)] = bimodule_op(A, module, 0, 0, table00, label="AxA mu_(0,0)")

    bound = max(A.ops, default=1) - 1
    for r in range(1, bound + 1):
        op = A.mu(r + 1)
        if op is None:
            continue
        table = {}
        for word in itertools.product(names, repeat=r):
            for n1 in names:
                hit = op.on_word(word + (n1,))
                if hit.is_zero():
                    continue
                for n2 in names:
                    table[word + (tensor_name(n1, n2),)] = {
                        tensor_name(t, n2): c for t, c in hit.terms.items()
                    }
        if table:
            ops[(r, 0)] = bimodule_op(A, module, r, 0, table, label=f"AxA mu_({r},0)")

    for s in range(1, bound + 1):
        op = A.mu(s + 1)
        if op is None:
            continue
        table = {}
        for n2 in names:
            for word in itertools.product(names, repeat=s):
                hit = op.on_word((n2,) + word)
                if hit.is_zero():
                    continue
                for n1 in names:
                    s1 = sign(amod.degree_of(n1) - 1)
                    table[(tensor_name(n1, n2),) + word] = {
                        tensor_name(n1, t): s1 * c for t, c in hit.terms.items()
                    }
        if table:
            ops[(0, s)] = bimodule_op(A, module, 0, s, table, label=f"AxA mu_(0,{s})")

    return AInfinityBimodule(A, module, ops, name="AxA")


def dual_bimodule_oracle(M):
    """The dual bimodule built word by word, the former library body of dual_bimodule.

    The words run over every type up to the largest r + s among M's operations.
    """
    bound = max((r + s for r, s in M.ops), default=0)
    A = M.algebra
    amod = A.module
    dual_mod = GradedModule(
        tuple((dual_name(n), -d) for n, d in M.module.basis), M.module.ring
    )
    ops = {}
    for r in range(0, bound + 1):
        for s in range(0, bound + 1 - r):
            source = M.ops.get((s, r))
            if source is None:
                continue
            table = {}
            for left in itertools.product(amod.names, repeat=r):
                for mstar, mstar_deg in dual_mod.basis:
                    x = mstar[:-1]
                    for right in itertools.product(amod.names, repeat=s):
                        a_degs = [amod.degree_of(n) for n in left + right]
                        acc = {}
                        for y, y_deg in M.module.basis:
                            hit = source.on_word(right + (y,) + left)
                            c = hit.terms.get(x, 0)
                            if not c:
                                continue
                            ddag = (
                                maltese(a_degs, 1, r)
                                * (maltese(a_degs, r + 1, r + s) + mstar_deg + y_deg)
                                + mstar_deg
                                + 1
                            )
                            acc[dual_name(y)] = acc.get(dual_name(y), 0) + sign(ddag) * c
                        if acc:
                            table[left + (mstar,) + right] = acc
            if table:
                ops[(r, s)] = bimodule_op(
                    A, dual_mod, r, s, table, label=f"{M.name}* mu_({r},{s})"
                )
    return AInfinityBimodule(A, dual_mod, ops, name=f"{M.name}^-*")


def mu_word(A, n, word):
    """mu_n of A on one basis word, zero when A has no mu_n; the former
    AInfinityAlgebra.mu_word."""
    op = A.ops.get(n)
    if op is None:
        return Element(A.module, {})
    return op.on_word(word)


def op_word(M, r, s, word):
    """mu_(r,s) of M on one basis word, zero when M has no mu_(r,s); the former
    AInfinityBimodule.op_word."""
    op = M.ops.get((r, s))
    if op is None:
        return Element(M.module, {})
    return op.on_word(word)


def component_word(f, r, s, word):
    """f_(r,s) on one basis word, zero when f has no f_(r,s); the former
    BimoduleMorphism.component_word."""
    op = f.maps.get((r, s))
    if op is None:
        return Element(f.target.module, {})
    return op.on_word(word)


def regraded_chain_degree(A, word):
    """Degree in CH_*(A): n minus the sum of the unshifted degrees; the former
    RegradedComplexes.chain_degree."""
    return len(word) - 1 - sum(A.module.degree_of(a) for a in word)


def chain_degree(cx, x):
    """Common Hochschild degree of a chain's words, the former HochschildComplex.chain_degree."""
    if not x:
        raise ZeroElement("degree of the zero chain is undefined")
    degs = {cx.degree(w) for w in x}
    if len(degs) > 1:
        raise Inhomogeneous(f"mixed Hochschild degrees {sorted(degs)}")
    return degs.pop()


def projection(complex_, p, x):
    """Length-p component; kernel is F_{p-1}."""
    return {w: c for w, c in x.items() if len(w) - 1 == p}


def b1_word(cx, word):
    """Length-preserving part of b on one word, from mu_1 and mu_(0,0) only.

    The former HochschildComplex.b1_word, kept to check the entry walk of the
    direct E^0 route word by word.
    """
    m, letters = word[0], word[1:]
    a_degs = [cx.A.module.degree_of(a) for a in letters]
    m_deg = cx.M.module.degree_of(m)
    acc = {}
    for name, c in op_word(cx.M, 0, 0, (m,)).terms.items():
        add_into(acc, (name,) + letters, c)
    mu1 = cx.A.mu(1)
    if mu1 is not None:
        for i in range(1, len(letters) + 1):
            s = sign(maltese0(m_deg, a_degs, i - 1))
            for name, c in mu1.on_word((letters[i - 1],)).terms.items():
                add_into(acc, (m,) + letters[: i - 1] + (name,) + letters[i:], s * c)
    return normalize(acc, cx.ring)


def length_blocks_oracle(cx):
    """The length-preserving entries of F_L's boundaries, by word length, as
    {length: {column word: {row word: coefficient}}}.

    The former spectral._length_blocks, kept to check the slices that the
    quotient E^0 route reads by offset.
    """
    blocks = {}
    fc = cx.truncation()
    for j, cols in fc.basis.items():
        rows = fc.basis.get(j - 1, [])
        for (r, c), v in fc.boundary(j).entries.items():
            n = len(cols[c])
            if n == len(rows[r]):
                blocks.setdefault(n - 1, {}).setdefault(cols[c], {})[rows[r]] = v
    return blocks


def filtration_level(x):
    """Largest word length in the support; -1 for the zero chain."""
    return max((len(w) - 1 for w in x), default=-1)


def in_filtration(x, p):
    # the zero chain lies in every level, including the vanishing negative ones
    return not x or filtration_level(x) <= p


def z_membership(complex_, x, p, r):
    """x in Z^r_{p,*}: x in F_p with b(x) in F_{p-r}."""
    if not in_filtration(x, p):
        return False
    return in_filtration(differential(complex_, x), p - r)


def z_infinity_membership(complex_, x, p):
    return in_filtration(x, p) and not differential(complex_, x)


def homology_of_truncation(complex_):
    """H_j(F_L) for every degree j of F_L."""
    fc = complex_.truncation()
    return {j: fc.homology(j) for j in sorted(fc.basis)}


def mod(mat, p):
    """mat with its entries reduced mod p; the former ExactMatrix.mod."""
    entries = {k: c % p for k, c in mat.entries.items() if c % p}
    return ExactMatrix(mat.rows, mat.cols, entries)


def morphism_is_chain_map_00(f):
    """True iff f_{0,0} commutes with the (0,0) differentials; the former
    library function, which no command reports."""
    acc = {}
    _slot_family(f.slot_index, f.source.ops, 0, 0, 1, 1, acc)
    _slot_family(f.target.slot_index, f.maps, 0, 0, 1, -1, acc)
    return not any(Element(f.target.module, terms) for terms in acc.values())


def rank_z(mat):
    """Rank over Z, read off the invariant factors."""
    return len(invariant_factors(mat))


def whole_factors(fc, j):
    """The invariant factors over Z of fc's boundary d_j factored whole, with
    no row cleared: the former FiniteComplex route over Z."""
    return invariant_factors(fc.boundary(j))


def diagonal_b_word(algebra, word, ring=None):
    """Hochschild differential on CH_*(A) via the specialized diagonal formula.

    word = (a_0, a_1, ..., a_n) with all slots in A. This is an independent
    code path from differential_word and is compared with
    it term by term in the tests.
    """
    ring = ring or algebra.ring
    n = len(word) - 1
    degs = [algebra.module.degree_of(a) for a in word]
    red = [d - 1 for d in degs]
    acc = {}
    for l in range(1, n + 2):
        op = algebra.mu(l)
        if op is None:
            continue
        for i in range(0, n - l + 2):
            out = op.on_word(word[i : i + l])
            if out.is_zero():
                continue
            s = sign(sum(red[:i]))
            for name, c in out.terms.items():
                add_into(acc, word[:i] + (name,) + word[i + l :], s * c)
        for i in range(max(1, n - l + 2), n + 1):
            out = op.on_word(word[i:] + word[: i + l - n - 1])
            if out.is_zero():
                continue
            s = sign(sum(red[:i]) * sum(red[i:]))
            suffix = word[i + l - n - 1 : i]
            for name, c in out.terms.items():
                add_into(acc, (name,) + suffix, s * c)
    return normalize(acc, ring)


def b_star_oracle(psi):
    """b* by evaluating psi on b of every word of the complex.

    The former library body of b_star, kept to check the one that reads the
    rows of the truncation's boundary matrices.
    """
    cx = psi.complex
    acc = {}
    for w in cx.all_words():
        v = evaluate(psi, differential_word(cx, w))
        if v:
            acc[w] = v
    return DualChainElement(cx, acc)


def duality_iso_inverse(g, complex_):
    """Inverse of phi on each finite block (the sign is its own inverse); the
    former library body, which no command reads."""
    amod = complex_.A.module
    acc = {}
    for n, table in g.components.items():
        for word, value in table.items():
            mal = maltese([amod.degree_of(a) for a in word], 1, n)
            for name, c in value.items():
                if not name.endswith("^"):
                    raise ModuleMismatch("cochain coefficients are not dual-basis names")
                m = name[:-1]
                add_into(acc, (m,) + word, sign(complex_.M.module.degree_of(m) * mal) * c)
    return DualChainElement(complex_, acc)


def pullback(fstar, g, dual=None):
    """f^* = phi_M . (f_*)^* . phi_N^{-1} on cochains over the target's dual, up to
    f_*'s cutoff; the result lies over dual, the source's dual (built when None).
    The former library body, kept to tie f_*'s matrices to duality_iso and the
    codifferential."""
    dual_M = dual if dual is not None else dual_bimodule(fstar.f.source)
    F, acc = fstar.matrices(), {}
    for w, c in duality_iso_inverse(g, fstar.target).terms.items():
        place = fstar.target._column_of(w)
        if place is None:
            continue
        # psi_N(f_*(x)): the row of w in the matrix into w's degree
        j = place[0] - fstar.degree
        for k, v in F[j].by_row.get(place[1], {}).items() if j in F else ():
            acc[j, k] = acc.get((j, k), 0) + c * v
    psi_M = DualChainElement(fstar.source, _named(fstar.source, acc))
    out = duality_iso(psi_M, dual=dual_M, cutoff=g.cutoff)
    if out.is_zero():
        return Cochain(dual_M, g.degree + fstar.f.degree, {}, g.cutoff)
    return out


def cocycle_to_morphism(f, diagonal=None):
    """Reindex a beta-cocycle as a bimodule morphism A[1] -> M of the same degree.

    f_{r,s}(a_1..a_r, a_0, a_{r+1}..a_{r+s}) := f_{r+s+1}(same word); the
    arity-0 component has no morphism counterpart and must vanish. The former
    library body, kept to generate the morphisms that f_* and the morphism
    equations are checked on.
    """
    if not codifferential(f).is_zero():
        raise NotACocycle("cochain is not closed under the codifferential")
    if f.component(0):
        raise NotACocycle("arity-0 component has no morphism counterpart")
    source = diagonal if diagonal is not None else diagonal_bimodule(f.A)
    maps = {}
    for n, table in f.components.items():
        for r in range(n):
            maps[(r, n - 1 - r)] = morphism_op(source, f.M, r, n - 1 - r, f.degree, table)
    return BimoduleMorphism(source, f.M, f.degree, maps, name="cocycle")


def regraded_codifferential(f):
    """Explicit codifferential on CH^*(A), coded from the diagonal formula.

    Independent of `codifferential`: the coefficient operations are read off
    the algebra tables as mu_{r+s+1} and the sign uses (deg - 1) in the
    regraded convention. The stored total degree remains the generic one, so
    deg_regraded = f.degree + 1 and the exponent (deg_regraded - 1)(...)+1
    equals the generic one; what is independent here is the assembly path.
    """
    A = f.A
    amod = A.module
    acc = {}
    truncated = f.truncated

    def bump(n, word, name, c):
        slot = acc.setdefault(n, {}).setdefault(word, {})
        slot[name] = slot.get(name, 0) + c

    deg_regraded = f.degree + 1
    for n, table in f.components.items():
        for mu_arity, op in A.ops.items():
            # insertion family
            l = mu_arity - 1
            if n >= 1:
                if n + l > f.cutoff:
                    truncated = True
                else:
                    pre = {}
                    for key, value in op.entries():
                        for name, c in value.terms.items():
                            pre.setdefault(name, []).append((key, c))
                    for word, value in table.items():
                        for i in range(1, n + 1):
                            for key, pc in pre.get(word[i - 1], ()):
                                target = word[: i - 1] + key + word[i:]
                                degs = [amod.degree_of(a) for a in target]
                                sv = sign(maltese(degs, 1, i - 1)) * pc
                                for name, c in value.items():
                                    bump(n + l, target, name, sv * c)
            # wrapping family: mu^{A[1]}_{r,s} = mu_{r+s+1}
            for r in range(0, mu_arity):
                s = mu_arity - 1 - r
                l = r + s
                if n + l > f.cutoff:
                    truncated = True
                    continue
                for word, value in table.items():
                    for prefix in itertools.product(amod.names, repeat=r):
                        for suffix in itertools.product(amod.names, repeat=s):
                            target = prefix + word + suffix
                            degs = [amod.degree_of(a) for a in target]
                            s_exp = (deg_regraded - 1) * (maltese(degs, 1, r) + 1) + 1
                            sv = sign(s_exp)
                            for name, c in value.items():
                                out = op.on_word(prefix + (name,) + suffix)
                                for out_name, v in out.terms.items():
                                    bump(n + l, target, out_name, sv * c * v)

    return Cochain(f.M, f.degree + 1, acc, f.cutoff, truncated)


def cup_oracle(f, g):
    """f cup g with every spectator word enumerated and looked up in mu_{k+2},
    one insertion pattern (k, j1, j2) at a time: the former library body of
    cup, with j1 running up to k + 1 so that an arity-0 g is reached too."""
    from ainfty.cup import cup_degree, cup_sign_exponent

    A = f.A
    amod = A.module
    cutoff = min(f.cutoff, g.cutoff)
    deg_f, deg_g = cup_degree(f), cup_degree(g)
    acc = {}
    truncated = f.truncated or g.truncated
    for m, table_f in f.components.items():
        for n, table_g in g.components.items():
            for arity, op in A.ops.items():
                k = arity - 2
                if k < 0:
                    continue
                if m + n + k > cutoff:
                    truncated = True
                    continue
                for j1 in range(1, k + 2):
                    for j2 in range(j1 + m, m + k + 2):
                        for wf, vf in table_f.items():
                            for wg, vg in table_g.items():
                                for spectators in itertools.product(amod.names, repeat=k):
                                    pre = spectators[: j1 - 1]
                                    mid = spectators[j1 - 1 : j2 - 1 - m]
                                    post = spectators[j2 - 1 - m :]
                                    word = pre + wf + mid + wg + post
                                    degs = [amod.degree_of(a) for a in word]
                                    sv = sign(cup_sign_exponent(deg_f, deg_g, degs, j1, j2))
                                    for name_f, cf in vf.items():
                                        for name_g, cg in vg.items():
                                            hit = op.on_word(pre + (name_f,) + mid + (name_g,) + post)
                                            slot = acc.setdefault(m + n + k, {}).setdefault(word, {})
                                            for t, c in hit.terms.items():
                                                slot[t] = slot.get(t, 0) + sv * cf * cg * c
    return Cochain(f.M, deg_f + deg_g - 1, acc, cutoff, truncated)
