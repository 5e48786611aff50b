"""Command-line interface and deterministic reports.

    ainfty <command> <document> [--length N] [--max-r N] [--max-rs N]
                                [--module NAME] [--degrees A..B]
                                [--csv PATH] [--seed N]
    ainfty emit <fixture>

Commands: validate, hh, cohomology, cup, spectral, verify, emit. Exit codes:
0 all verdicts pass, 1 some verdict failed, 2 input error, 3 internal
invariant breach. Reports are byte-identical across runs for fixed inputs and
flags; timing goes to stderr. --max-r and --max-rs bound only the equations
that validate and verify check; every structure keeps all of its operations.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import itertools
import random
import sys
import time

from .algebra import validate as validate_algebra
from .bimodules import (
    diagonal_bimodule,
    dual_bimodule,
    tensor_square_bimodule,
    validate_bimodule,
    validate_morphism,
)
from .chains import HochschildComplex, InducedChainMap
from .cochains import (
    codifferential,
    duality_iso,
    b_star,
    DualChainElement,
    elementary_cochain,
)
from .cup import cup, cup_degree, leibniz_sides
from .documents import StructureDocument, parse, serialize
from .errors import AinftyError, DocumentError, InternalInvariant, UnknownName
from .fixtures import fixture_document
from .homology import ExactMatrix, chain_map_failures, determinant, smith_normal_form
from .spectral import comparison_check, e1_rows

# the largest arity that verify's beta.beta and phi checks try, below each
# check's own cutoff
CHECK_ARITY = 2
# the largest counts a request may ask for; at each, exterior1 runs in under
# a second and 64 MB
LIMITS = {"--degrees": 10_000, "max_r": 10_000, "max_rs": 300}


class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.rows: list[tuple] = []
        self.failures: list[str] = []

    def line(self, text: str):
        self.lines.append(text)

    def check(self, label: str, ok: bool, detail: str = ""):
        if ok:
            self.line(f"ok   {label}")
        else:
            self.line(f"FAIL {label}" + (f": {detail}" if detail else ""))
            self.failures.append(label)
        self.rows.append((label, "", "", "", "ok" if ok else "fail"))

    def homology_row(self, obj: str, degree: int, summary):
        torsion = ";".join(str(d) for d in summary.torsion)
        self.line(f"{obj}  degree {degree}: {summary}")
        self.rows.append((obj, degree, summary.free_rank, torsion, "ok"))

    @property
    def ok(self) -> bool:
        return not self.failures

    def finish(self) -> int:
        if self.ok:
            self.line("RESULT: PASS")
            return 0
        self.line(f"RESULT: FAIL (first failing identity: {self.failures[0]})")
        return 1


def run_checks(checks, report: Report):
    """Run (label, thunk) pairs in order, record each outcome, and write
    each check's time to stderr."""
    for label, thunk in checks:
        started = time.perf_counter()
        outcome = thunk()
        sys.stderr.write(f"check {label}: {time.perf_counter() - started:.6f}s\n")
        ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        report.check(label, bool(ok), detail)


def resolve_bimodule(doc: StructureDocument, name: str):
    if name == "diagonal":
        return diagonal_bimodule(doc.algebra)
    if name == "tensor_square":
        return tensor_square_bimodule(doc.algebra)
    if name == "dual":
        return dual_bimodule(diagonal_bimodule(doc.algebra))
    if name in doc.bimodules:
        return doc.bimodules[name]
    raise UnknownName(
        f"unknown module {name!r} (try diagonal, tensor_square, dual or a document bimodule)"
    )


def _parse_degrees(spec: str | None) -> range | None:
    if not spec:
        return None
    lo, dots, hi = spec.strip().partition("..")
    try:
        degrees = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise DocumentError(f"--degrees: expected A..B or one integer, got {spec!r}") from None
    if not degrees:
        raise DocumentError(f"--degrees: empty range {spec!r}")
    if len(degrees) > (limit := LIMITS["--degrees"]):
        raise DocumentError(f"--degrees: {len(degrees)} is above the limit of {limit}")
    return degrees


def cmd_validate(doc: StructureDocument, args, report: Report):
    for r, verdict in validate_algebra(doc.algebra, args.max_r).items():
        report.check(f"algebra equation r={r}", verdict.holds, verdict.describe())
    for name in sorted(doc.bimodules):
        for (r, s), verdict in validate_bimodule(
            doc.bimodules[name], args.max_rs
        ).items():
            report.check(
                f"bimodule {name} equation ({r},{s})", verdict.holds, verdict.describe()
            )
    for name in sorted(doc.morphisms):
        for (r, s), verdict in validate_morphism(
            doc.morphisms[name], args.max_rs
        ).items():
            report.check(
                f"morphism {name} equation ({r},{s})", verdict.holds, verdict.describe()
            )


def cmd_hh(doc: StructureDocument, args, report: Report):
    module_name = args.module or "diagonal"
    M = resolve_bimodule(doc, module_name)
    fc = HochschildComplex(M, args.length).truncation()
    report.line(f"Hochschild homology of F_{args.length}, coefficients {module_name}")
    for j in sorted(fc.basis) if args.degrees is None else args.degrees:
        report.homology_row(f"HH({module_name})", j, fc.homology(j))


def cmd_cohomology(doc: StructureDocument, args, report: Report):
    module_name = args.module or "diagonal"
    M = resolve_bimodule(doc, module_name)
    cutoff = args.length
    # phi has degree zero: the arity <= L cochains on M are the dual of F_L
    # over M's dual
    fc = HochschildComplex(dual_bimodule(M), cutoff).truncation()
    report.line(
        f"Hochschild cohomology, arity cutoff {cutoff}, coefficients {module_name}"
    )
    if module_name == "diagonal":
        report.line("note: CH^*(A) degree = reported degree + 1")
    for j in sorted(fc.basis) if args.degrees is None else args.degrees:
        report.homology_row(f"HH^*({module_name})", j, fc.cohomology(j))


def cmd_cup(doc: StructureDocument, args, report: Report):
    named = doc.cochains(diagonal_bimodule(doc.algebra), args.length + 1)
    if not named:
        raise DocumentError("document defines no cochains; nothing to cup")
    for fname in sorted(named):
        for gname in sorted(named):
            f, g = named[fname], named[gname]
            fg = cup(f, g)
            label = f"cup({fname},{gname})"
            report.line(
                f"{label}: degree {cup_degree(fg)} "
                f"({'truncated' if fg.truncated else 'exact'})"
            )
            lhs, rhs = leibniz_sides(f, g)
            if lhs.truncated or rhs.truncated:
                report.line(f"{label}: Leibniz outside the exact regime, skipped")
                continue
            report.check(f"{label} Leibniz", lhs == rhs)


def cmd_spectral(doc: StructureDocument, args, report: Report):
    module_name = args.module or "diagonal"
    complex_of = functools.cache(lambda M: HochschildComplex(M, args.length))
    cx = complex_of(resolve_bimodule(doc, module_name))
    for p, q, direct, quotient in e1_rows(cx):
        report.homology_row(f"E1[p={p}]", q, direct)
        agree = direct.invariants() == quotient.invariants()
        report.check(f"E1 two-path agreement p={p} q={q}", agree)
    for name, f in sorted(doc.morphisms.items()):
        verdict = comparison_check(InducedChainMap(f, complex_of(f.source), complex_of(f.target)))
        for detail in verdict.details:
            report.line(f"{name}: {detail}")
        report.check(f"comparison hypothesis [{name}]", verdict.hypothesis_holds)
        report.check(f"comparison conclusion [{name}]", verdict.conclusion_holds)
        report.check(f"comparison witnessed [{name}]", verdict.witnessed)


def _snf_audit(seed: int, count: int = 50, size: int = 8) -> tuple[bool, str]:
    rng = random.Random(seed)
    for trial in range(count):
        rows = rng.randint(1, size)
        cols = rng.randint(1, size)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.4:
                    entries[(i, j)] = rng.randint(-9, 9)
        mat = ExactMatrix(rows, cols, entries)
        # smith_normal_form has checked D = U*M*V before returning
        D, U, V = smith_normal_form(mat)
        if abs(determinant(U)) != 1 or abs(determinant(V)) != 1:
            return False, f"trial {trial}: transform not unimodular"
        # the chain is D's diagonal: one factorization per trial
        factors = [D.by_row.get(t, {}).get(t, 0) for t in range(min(rows, cols))]
        for a, b in zip(factors, factors[1:]):
            if b % a if a else b:
                return False, f"trial {trial}: divisibility chain broken"
    return True, ""


def cmd_verify(doc: StructureDocument, args, report: Report):
    algebra = doc.algebra
    length = args.length
    checks = []

    # every r reads one evaluation of the equations up to max_r
    verdicts = functools.cache(lambda: validate_algebra(algebra, args.max_r))
    for r in range(1, args.max_r + 1):
        checks.append(
            (
                f"algebra equation r={r}",
                lambda r=r: (verdicts()[r].holds, verdicts()[r].describe()),
            )
        )

    modules = {
        "diagonal": diagonal_bimodule(algebra),
        "tensor_square": tensor_square_bimodule(algebra),
    }
    modules["dual"] = dual_bimodule(modules["diagonal"])
    bounds = {"diagonal": args.max_rs, "tensor_square": 3, "dual": 3}
    for name, M in sorted(doc.bimodules.items()):
        modules[name] = M
        bounds[name] = args.max_rs
    # one complex per module: the b.b, chain map, phi and E1 checks share its F_L
    complex_of = functools.cache(lambda M: HochschildComplex(M, length))
    complexes = {name: complex_of(M) for name, M in modules.items()}

    def first_failure(verdicts):
        for verdict in verdicts.values():
            if not verdict.holds:
                return False, verdict.describe()
        return True, ""

    for name in sorted(modules):
        checks.append(
            (
                f"bimodule equations [{name}]",
                lambda M=modules[name], b=bounds[name]: first_failure(
                    validate_bimodule(M, min(b, args.max_rs))
                ),
            )
        )

    def first_word(failures):
        # each degree's failures come by length, then rank: the first failing
        # word in all_words() order is the least (length, degree) of their firsts
        firsts = [(len(bad[0]), j, bad[0]) for j, bad in failures.items() if bad]
        return min(firsts)[2] if firsts else None

    def b_squared_ok(cx):
        fc = cx.truncation()
        w = first_word({j: fc.composite_failures(j) for j in fc.basis})
        return w is None, "" if w is None else f"b(b({w})) != 0"

    for name in sorted(modules):
        checks.append((f"b.b = 0 [{name}]", lambda cx=complexes[name]: b_squared_ok(cx)))

    def chain_map_ok(f):
        fstar = InducedChainMap(f, complex_of(f.source), complex_of(f.target))
        src, tgt, F = fstar.source.truncation(), fstar.target.truncation(), fstar.matrices()
        w = first_word({j: chain_map_failures(src, tgt, F, j, fstar.degree) for j in src.basis})
        return w is None, "" if w is None else f"b(f_*({w})) != f_*(b({w}))"

    for name in sorted(doc.morphisms):
        checks.append(
            (
                f"morphism equations [{name}]",
                lambda f=doc.morphisms[name]: first_failure(validate_morphism(f, args.max_rs)),
            )
        )
        checks.append(
            (f"induced chain map [{name}]", lambda f=doc.morphisms[name]: chain_map_ok(f))
        )

    def beta_squared_ok(M):
        # the codifferential never lowers arity, so every retained component
        # of beta(beta(f)) is computed exactly and must vanish
        for n in range(min(CHECK_ARITY, length + 1) + 1):
            for word in itertools.product(M.algebra.module.names, repeat=n):
                for out_name in M.module.names:
                    f = elementary_cochain(M, word, out_name, cutoff=length + 1)
                    if codifferential(codifferential(f)).components:
                        return False, f"beta(beta(E[{word}->{out_name}])) != 0"
        return True, ""

    checks.append(
        ("beta.beta = 0 [diagonal]", lambda: beta_squared_ok(modules["diagonal"]))
    )

    def phi_square_ok():
        cx, dual = complexes["diagonal"], modules["dual"]
        for n in range(min(CHECK_ARITY, length) + 1):
            for w in cx.words(n):
                psi = DualChainElement(cx, {w: 1})
                lhs = duality_iso(b_star(psi), dual=dual, cutoff=length)
                rhs = codifferential(duality_iso(psi, dual=dual, cutoff=length))
                if lhs != rhs:
                    return False, f"phi(b*={w}) != beta(phi({w}))"
        return True, ""

    checks.append(("phi duality square [diagonal]", phi_square_ok))

    def e1_ok(cx):
        for p, q, direct, quotient in e1_rows(cx):
            if direct.invariants() != quotient.invariants():
                return False, f"E1 mismatch at p={p}, q={q}"
        return True, ""

    for name in sorted(modules):
        checks.append((f"E1 two-path agreement [{name}]", lambda cx=complexes[name]: e1_ok(cx)))

    named = doc.cochains(modules["diagonal"], length + 1)
    if named:

        def leibniz_ok():
            for fname in sorted(named):
                for gname in sorted(named):
                    lhs, rhs = leibniz_sides(named[fname], named[gname])
                    if lhs.truncated or rhs.truncated:
                        continue
                    if lhs != rhs:
                        return False, f"Leibniz fails for ({fname},{gname})"
            return True, ""

        checks.append(("cup Leibniz [document cochains]", leibniz_ok))

    checks.append(("SNF self-verification", lambda: _snf_audit(args.seed)))

    # each F_L is assembled and timed before the checks, so no check's time includes it
    for name in sorted(complexes):
        started = time.perf_counter()
        complexes[name].truncation()
        sys.stderr.write(f"build F_L [{name}]: {time.perf_counter() - started:.6f}s\n")
    run_checks(checks, report)


def _write_csv(path: str, rows):
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["object", "degree", "free_rank", "torsion", "verdict"])
        writer.writerows(rows)


COMMANDS = {
    "validate": cmd_validate,
    "hh": cmd_hh,
    "cohomology": cmd_cohomology,
    "cup": cmd_cup,
    "spectral": cmd_spectral,
    "verify": cmd_verify,
}


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfty", description="Exact A-infinity Hochschild toolkit"
    )
    parser.add_argument("command", choices=sorted(COMMANDS) + ["emit"])
    parser.add_argument("document", help="path to a structure document, or a fixture name for emit")
    parser.add_argument("--length", type=int, default=None, help="length cutoff L")
    parser.add_argument(
        "--max-r", dest="max_r", type=int, default=None,
        help="largest r of the algebra equations checked",
    )
    parser.add_argument(
        "--max-rs", dest="max_rs", type=int, default=None,
        help="largest r + s of the bimodule and morphism equations checked",
    )
    parser.add_argument("--module", default=None, help="coefficient bimodule")
    parser.add_argument("--degrees", default=None, help="degree range A..B")
    parser.add_argument("--csv", default=None, help="write a CSV report")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _glue_degree_ranges(argv: list[str]) -> list[str]:
    # argparse mistakes "-2..4" for an option; fold it into --degrees=-2..4
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--degrees" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--degrees={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _glue_degree_ranges(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "emit":
            sys.stdout.write(serialize(fixture_document(args.document)))
            return 0
        try:
            with open(args.document, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {args.document}: {exc}") from None
        doc = parse(text)
        args.length = args.length if args.length is not None else doc.options.length
        args.max_r = args.max_r if args.max_r is not None else doc.options.max_r
        args.max_rs = args.max_rs if args.max_rs is not None else doc.options.max_rs
        for name in ("length", "max_r", "max_rs"):
            value = getattr(args, name)
            if value < 0:
                raise DocumentError(f"{name}: expected a non-negative count, got {value}")
            if value > LIMITS.get(name, value):
                raise DocumentError(f"{name}: {value} is above the limit of {LIMITS[name]}")
        args.degrees = _parse_degrees(args.degrees)
        report = Report()
        report.line(f"command: {args.command}")
        report.line(f"ring: {doc.ring}")
        COMMANDS[args.command](doc, args, report)
        code = report.finish()
        if args.csv:
            try:
                _write_csv(args.csv, report.rows)
            except OSError as exc:
                raise DocumentError(f"--csv: cannot write {args.csv}: {exc}") from None
        sys.stdout.write("\n".join(report.lines) + "\n")
        return code
    except AinftyError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except InternalInvariant as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    finally:
        sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")


if __name__ == "__main__":
    raise SystemExit(main())
