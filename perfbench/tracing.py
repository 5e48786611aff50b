"""Per-layer trace installed from outside the program.

Tracer wraps the public functions of each ainfty layer at every module
attribute that is bound to them (a function imported with ``from x import
f`` lives in several module namespaces), and the hot methods on their
classes. It keeps spans in memory: the name, the job they belong to, the
enclosing span, start and end. A span's self time is its duration minus the
time of the wrapped spans inside it. Bookkeeping that inspects arguments or
results (matrix shapes, block counts) runs outside every span and is hidden
from the parent's self time as well.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# verify check labels, by prefix, and the kind reported for them
CHECK_KINDS = (
    ("algebra equation", "algebra_equations"),
    ("bimodule equations", "bimodule_equations"),
    ("b.b = 0", "b_squared"),
    ("morphism equations", "morphism_equations"),
    ("induced chain map", "induced_chain_map"),
    ("beta.beta = 0", "beta_squared"),
    ("phi duality square", "phi_square"),
    ("E1 two-path agreement", "e1_agreement"),
    ("cup Leibniz", "cup_leibniz"),
    ("SNF self-verification", "snf_audit"),
)

# per-layer metric: (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "documents.parse_s": ("s", "lower", "wall_s, all workloads"),
    "algebra.validate_s": ("s", "lower", "wall_s on verify"),
    "bimodules.construct_s": ("s", "lower", "wall_s on verify"),
    "bimodules.validate_s": ("s", "lower", "wall_s on verify"),
    "graded.degree_of_calls": ("count", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.words_calls": ("count", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.words_out": ("count", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.words_s": ("s", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.differential_word_calls": ("count", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.b_cache_hit_ratio": ("ratio", "higher", "hh_s on homology-modp, wall_s on verify"),
    "chains.differential_word_s": ("s", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.b_component_calls": ("count", "lower", "hh_s on homology-modp, wall_s on verify"),
    "chains.induced_on_word_s": ("s", "lower", "wall_s on verify"),
    "cochains.codifferential_calls": ("count", "lower", "cohomology_s on homology-z and homology-modp, wall_s on verify"),
    "cochains.codifferential_s": ("s", "lower", "cohomology_s on homology-z and homology-modp, wall_s on verify"),
    "cochains.beta_matrix_s": ("s", "lower", "cohomology_s on homology-z and homology-modp"),
    "cochains.cochain_basis_calls": ("count", "lower", "cohomology_s on homology-z and homology-modp"),
    "cochains.duality_s": ("s", "lower", "wall_s on verify"),
    "cup.cup_calls": ("count", "lower", "wall_s on verify (negative control for SNF work)"),
    "cup.cup_s": ("s", "lower", "wall_s on verify (negative control for SNF work)"),
    "homology.snf_calls": ("count", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_s": ("s", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_repeat_ratio": ("ratio", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_cells": ("count", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_nnz": ("count", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_max_dim": ("count", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_blocks": ("count", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_max_block_cells": ("count", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.snf_uv_max_bits": ("bits", "lower", "hh_s and cohomology_s on homology-z"),
    "homology.rank_modp_calls": ("count", "lower", "hh_s and cohomology_s on homology-modp"),
    "homology.rank_modp_s": ("s", "lower", "hh_s and cohomology_s on homology-modp"),
    "homology.rank_modp_cells": ("count", "lower", "hh_s and cohomology_s on homology-modp"),
    "homology.matmul_calls": ("count", "lower", "wall_s, all workloads"),
    "homology.matmul_s": ("s", "lower", "wall_s, all workloads"),
    "homology.homology_at_calls": ("count", "lower", "wall_s on verify"),
    "homology.homology_at_s": ("s", "lower", "wall_s on verify"),
    "homology.induced_map_s": ("s", "lower", "wall_s on verify"),
    "spectral.column_basis_calls": ("count", "lower", "wall_s on verify"),
    "spectral.column_basis_repeat_ratio": ("ratio", "lower", "wall_s on verify"),
    "spectral.column_basis_s": ("s", "lower", "wall_s on verify"),
    "spectral.page0_matrix_s": ("s", "lower", "wall_s on verify"),
    "spectral.comparison_check_s": ("s", "lower", "wall_s on verify"),
    "spectral.truncated_boundary_s": ("s", "lower", "hh_s on homology-z and homology-modp"),
    **{
        f"cli.check_s.{kind}": ("s", "lower", "wall_s on verify")
        for _, kind in CHECK_KINDS
    },
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall_s over untraced wall_s"),
}

# span name -> per-layer metric that reports its self time
SELF_TIME_METRICS = {
    "documents.parse": "documents.parse_s",
    "algebra.validate": "algebra.validate_s",
    "bimodules.construct": "bimodules.construct_s",
    "bimodules.validate": "bimodules.validate_s",
    "chains.words": "chains.words_s",
    "chains.differential_word": "chains.differential_word_s",
    "chains.induced_on_word": "chains.induced_on_word_s",
    "cochains.codifferential": "cochains.codifferential_s",
    "cochains.beta_matrix": "cochains.beta_matrix_s",
    "cochains.duality": "cochains.duality_s",
    "cup.cup": "cup.cup_s",
    "homology.snf": "homology.snf_s",
    "homology.rank_modp": "homology.rank_modp_s",
    "homology.matmul": "homology.matmul_s",
    "homology.homology_at": "homology.homology_at_s",
    "homology.induced_map": "homology.induced_map_s",
    "spectral.column_basis": "spectral.column_basis_s",
    "spectral.page0_matrix": "spectral.page0_matrix_s",
    "spectral.comparison_check": "spectral.comparison_check_s",
    "spectral.truncated_boundary": "spectral.truncated_boundary_s",
}

CALL_METRICS = {
    "chains.words": "chains.words_calls",
    "chains.differential_word": "chains.differential_word_calls",
    "cochains.codifferential": "cochains.codifferential_calls",
    "cochains.cochain_basis": "cochains.cochain_basis_calls",
    "cup.cup": "cup.cup_calls",
    "homology.snf": "homology.snf_calls",
    "homology.rank_modp": "homology.rank_modp_calls",
    "homology.matmul": "homology.matmul_calls",
    "homology.homology_at": "homology.homology_at_calls",
    "spectral.column_basis": "spectral.column_basis_calls",
}


def check_kind(label: str) -> str | None:
    for prefix, kind in CHECK_KINDS:
        if label.startswith(prefix):
            return kind
    return None


def matrix_blocks(mat) -> tuple[int, int]:
    """Connected components of the row/column graph of a sparse matrix.

    Returns the number of components that hold an entry and the largest
    rows x cols of one of them.
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
    rows_in = Counter(find(i) for i in range(mat.rows))
    cols_in = Counter(find(mat.rows + j) for j in range(mat.cols))
    roots = {find(i) for i, _ in mat.entries}
    return len(roots), max((rows_in[r] * cols_in[r] for r in roots), default=0)


class Tracer:
    """Spans and counters for one traced pass; install() ... uninstall()."""

    def __init__(self):
        self.spans: list[tuple] = []  # (job, id, parent id, name, start, end)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, time of wrapped children]
        self._next_id = 0
        self._job = ""
        self._distinct: dict[str, set] = defaultdict(set)
        self._distinct_total: Counter = Counter()
        self._restore: list[tuple] = []

    # -- jobs and spans -------------------------------------------------

    def begin_job(self, job_id: str) -> None:
        self.end_job()
        self._job = job_id

    def end_job(self) -> None:
        for key, seen in self._distinct.items():
            self._distinct_total[key] += len(seen)
        self._distinct.clear()

    def _hide(self, elapsed: float) -> None:
        # bookkeeping time is not charged to the enclosing span
        if self._stack:
            self._stack[-1][1] += elapsed

    def _call(self, name, fn, args, kwargs, before, after):
        t = time.perf_counter()
        if before:
            before(args)
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        self._hide(start - t)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_time[name] += duration - frame[1]
            self.total_time[name] += duration
            self.calls[name] += 1
            self.spans.append((self._job, frame[0], parent, name, start, end))
            if self._stack:
                self._stack[-1][1] += duration
        if after:
            after(args, result)
            self._hide(time.perf_counter() - end)
        return result

    def _wrapper(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, before, after)

        return traced

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def wrap_function(self, module, attr, name, before=None, after=None):
        """Replace module.attr at every ainfty module attribute bound to it."""
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self._wrapper(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ainfty" and not mod_name.startswith("ainfty."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def wrap_method(self, module, cls_name, attr, name, before=None, after=None, count_only=False):
        cls = getattr(sys.modules.get(module), cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        if count_only:
            wrapper = self._counter(name, original)
        else:
            wrapper = self._wrapper(name, original, before, after)
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    def install(self) -> None:
        fn, meth = self.wrap_function, self.wrap_method
        fn("ainfty.documents", "parse", "documents.parse")
        fn("ainfty.algebra", "validate", "algebra.validate")
        for attr in ("diagonal_bimodule", "tensor_square_bimodule", "dual_bimodule"):
            fn("ainfty.bimodules", attr, "bimodules.construct")
        for attr in ("validate_bimodule", "validate_morphism"):
            fn("ainfty.bimodules", attr, "bimodules.validate")
        meth("ainfty.graded", "GradedModule", "degree_of", "graded.degree_of", count_only=True)
        meth("ainfty.chains", "HochschildComplex", "words", "chains.words", after=self._count_words)
        meth(
            "ainfty.chains", "HochschildComplex", "differential_word", "chains.differential_word",
            before=self._b_cache_hit,
        )
        meth("ainfty.chains", "HochschildComplex", "b_component", "chains.b_component", count_only=True)
        meth("ainfty.chains", "InducedChainMap", "on_word", "chains.induced_on_word")
        fn("ainfty.cochains", "codifferential", "cochains.codifferential")
        fn("ainfty.cochains", "beta_matrix", "cochains.beta_matrix")
        fn("ainfty.cochains", "cochain_basis", "cochains.cochain_basis")
        fn("ainfty.cochains", "duality_iso", "cochains.duality")
        fn("ainfty.cochains", "b_star", "cochains.duality")
        fn("ainfty.cup", "cup", "cup.cup")
        fn("ainfty.homology", "smith_normal_form", "homology.snf", self._snf_input, self._snf_output)
        fn("ainfty.homology", "rank_modp", "homology.rank_modp", self._rank_input)
        meth("ainfty.homology", "ExactMatrix", "__matmul__", "homology.matmul")
        fn("ainfty.homology", "homology_at", "homology.homology_at")
        fn("ainfty.homology", "induced_map_on_homology", "homology.induced_map")
        fn("ainfty.spectral", "column_basis", "spectral.column_basis", self._column_basis_key)
        fn("ainfty.spectral", "page0_matrix", "spectral.page0_matrix")
        fn("ainfty.spectral", "comparison_check", "spectral.comparison_check")
        fn("ainfty.spectral", "truncated_boundary", "spectral.truncated_boundary")
        self._wrap_run_checks()

    def uninstall(self) -> None:
        self.end_job()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_run_checks(self) -> None:
        cli = sys.modules.get("ainfty.cli")
        original = getattr(cli, "run_checks", None)
        if original is None:
            self.missing.append("ainfty.cli.run_checks")
            return

        def run_checks(checks, report):
            wrapped = []
            for label, thunk in checks:
                kind = check_kind(label)
                if kind is None:
                    self.missing.append(f"check kind for {label!r}")
                else:
                    thunk = self._wrapper(f"cli.check.{kind}", thunk)
                wrapped.append((label, thunk))
            return original(wrapped, report)

        cli.run_checks = run_checks
        self._restore.append((cli, "run_checks", original))

    # -- argument and result bookkeeping -----------------------------------

    def _count_words(self, args, result):
        self.counts["chains.words_out"] += len(result)

    def _b_cache_hit(self, args):
        cx, word = args[0], args[1]
        if word in getattr(cx, "_b_cache", ()):
            self.counts["chains.b_cache_hits"] += 1

    def _snf_input(self, args):
        mat = args[0]
        self.counts["homology.snf_cells"] += mat.rows * mat.cols
        self.counts["homology.snf_nnz"] += len(mat.entries)
        self.maxima["homology.snf_max_dim"] = max(
            self.maxima["homology.snf_max_dim"], mat.rows, mat.cols
        )
        blocks, largest = matrix_blocks(mat)
        self.counts["homology.snf_blocks"] += blocks
        self.maxima["homology.snf_max_block_cells"] = max(
            self.maxima["homology.snf_max_block_cells"], largest
        )
        self._distinct["snf"].add((mat.rows, mat.cols, frozenset(mat.entries.items())))

    def _snf_output(self, args, result):
        _, U, V = result
        bits = max(
            (abs(v).bit_length() for m in (U, V) for v in m.entries.values()), default=0
        )
        self.maxima["homology.snf_uv_max_bits"] = max(
            self.maxima["homology.snf_uv_max_bits"], bits
        )

    def _rank_input(self, args):
        mat = args[0]
        self.counts["homology.rank_modp_cells"] += mat.rows * mat.cols

    def _column_basis_key(self, args):
        cx, p = args[0], args[1]
        # bimodules hash by identity; the set keeps them alive for the job
        self._distinct["column_basis"].add((cx.M, p))

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        self.end_job()
        out = {name: 0 for name in LAYER_METRICS}
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] = self.self_time[span]
        for span, metric in CALL_METRICS.items():
            out[metric] = self.calls[span]
        out["graded.degree_of_calls"] = self.calls["graded.degree_of"]
        out["chains.b_component_calls"] = self.calls["chains.b_component"]
        out.update(self.counts)
        out.update(self.maxima)
        out.pop("chains.b_cache_hits", None)
        out["chains.b_cache_hit_ratio"] = _ratio(
            self.counts["chains.b_cache_hits"], self.calls["chains.differential_word"]
        )
        out["homology.snf_repeat_ratio"] = _ratio(
            self.calls["homology.snf"], self._distinct_total["snf"]
        )
        out["spectral.column_basis_repeat_ratio"] = _ratio(
            self.calls["spectral.column_basis"], self._distinct_total["column_basis"]
        )
        for _, kind in CHECK_KINDS:
            # a verify check is reported with its wrapped children included
            out[f"cli.check_s.{kind}"] = self.total_time[f"cli.check.{kind}"]
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["job", "id", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
