"""ainfty benchmark: closed-loop CLI jobs timed end to end, plus a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload homology-z --seed 1 --seconds 36 --trace 0

One process runs one workload. It imports the library from ``src/``,
generates the workload's documents from the seed (renamed and reordered
bases, see workloads.py) and then runs the workload's job list in a closed
loop through ``ainfty.cli.main``, one job after the other, single-threaded,
for ``--seconds`` (every job runs at least once). Every
job's exit code and stdout are checked against references.json.

Times are reported in reference seconds: a job's wall time multiplied by the
speed of a fixed calibration loop sampled before, during and after the job,
divided by REFERENCE_SPEED. On a shared host the speed of one core can swing
by more than half within minutes; the scaled time varies far less, and it
equals wall time on a host where the loop runs at REFERENCE_SPEED. The
unscaled wall time is printed beside it.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics: the sum of each job's median time over its runs, for
the whole job list (wall_s) and for its hh and cohomology jobs (hh_s,
cohomology_s), the median of several set-ups (setup_s) and the process's
peak resident memory (peak_rss_mb, which includes the 8 MB calibration
matrix). With ``--trace 1`` the untraced loop
runs for a third of the time, then the job list runs once more with the
wrappers of tracing.py installed; its stdout must equal the untraced stdout
byte for byte. The JSON line then holds the per-layer metrics (self times in
unscaled seconds), and the spans are written to
``perfbench/.work/trace-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
# machine_speed() reading, in row updates per second, of the host that a
# reported second stands for
REFERENCE_SPEED = 6e4
CALIBRATION_S = 0.05
PROBE_PERIOD_S = 0.1
PROBE_SAMPLE_S = 0.005
# 1024 rows of 1024 small ints: 8 MB of row storage, more than a core's
# private caches; the values stay among the interpreter's cached small ints
_CALIBRATION_ROWS = [[j % 19 for j in range(1024)] for _ in range(1024)]

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Job, document  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "hh_s": "s",
    "cohomology_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ainfty afresh; earlier imports are dropped so each set-up pays."""
    for name in [n for n in sys.modules if n == "ainfty" or n.startswith("ainfty.")]:
        del sys.modules[name]
    importlib.import_module("ainfty")
    return (
        importlib.import_module("ainfty.cli"),
        importlib.import_module("ainfty.documents"),
        importlib.import_module("ainfty.fixtures"),
    )


def set_up(jobs: list[Job], seed: int, workdir: Path):
    """Import the program, generate and parse the documents; returns (seconds, main, paths)."""
    start = time.perf_counter()
    cli, documents, fixtures = import_program()
    paths = {}
    for fixture, ring in dict.fromkeys(job.doc_key for job in jobs):
        text = documents.serialize(document(fixtures.fixture_document, fixture, ring, seed))
        documents.parse(text)
        path = workdir / f"{fixture}-{ring}.json"
        path.write_text(text, encoding="utf-8")
        paths[(fixture, ring)] = str(path)
    return time.perf_counter() - start, cli.main, paths


def run_job(main, argv: list[str]) -> tuple[float, object, str]:
    """One CLI invocation in process: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit):
        code = "raised"
        traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue()


def machine_speed(window: float = CALIBRATION_S) -> float:
    """Row updates per second on the calibration matrix, timed over window seconds.

    The updates walk rows of Python ints the way Smith normal form does, so
    their speed follows the program's when other tenants load the host.
    """
    n = 0
    start = time.perf_counter()
    while True:
        a, b = _CALIBRATION_ROWS[n % 1024], _CALIBRATION_ROWS[(n * 7 + 3) % 1024]
        for k in range(0, 1024, 8):
            a[k] += b[k]
            a[k] -= b[k]
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= window:
            return n / elapsed


class SpeedProbe:
    """Samples machine_speed() every PROBE_PERIOD_S while a job runs.

    The samples run from SIGALRM between the job's bytecodes; their own time
    is kept in ``spent`` so it can be taken off the job's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(machine_speed(PROBE_SAMPLE_S))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_job(main, argv, speed_before: float) -> tuple[float, float, float, object, str]:
    """Run one job; returns (scaled seconds, seconds, speed after, exit code, stdout).

    The scaled time is the job's time at REFERENCE_SPEED, using the mean of
    the speed samples before, during and after the job.
    """
    with SpeedProbe() as probe:
        seconds, code, stdout = run_job(main, argv)
    seconds -= probe.spent
    speed_after = machine_speed()
    speed = statistics.mean([speed_before, speed_after, *probe.samples])
    return seconds * speed / REFERENCE_SPEED, seconds, speed_after, code, stdout


def closed_loop(main, jobs, paths, seed, references, seconds: float, tracer=None) -> dict:
    """Run the job list round and round, one job after the other, until every
    job has run once and the next job, judged by its last run, would end after
    seconds have passed; the last round may stop part way.

    Returns each job's scaled and unscaled times, the stdout of its first run
    and the attempted and failed counts. The harness's own work between jobs
    is not timed.
    """
    runs = {
        "scaled": [[] for _ in jobs],
        "raw": [[] for _ in jobs],
        "stdout": [None] * len(jobs),
        "attempted": 0,
        "failed": 0,
    }
    start = time.perf_counter()
    speed = machine_speed()
    for i in itertools.cycle(range(len(jobs))):
        elapsed = time.perf_counter() - start
        if runs["attempted"] >= len(jobs) and elapsed + runs["raw"][i][-1] > seconds:
            return runs
        job = jobs[i]
        gc.collect()
        if tracer is not None:
            tracer.begin_job(job.id)
        job_s, job_raw, speed, code, stdout = timed_job(
            main, job.argv(paths[job.doc_key], seed), speed
        )
        runs["scaled"][i].append(job_s)
        runs["raw"][i].append(job_raw)
        runs["attempted"] += 1
        if runs["stdout"][i] is None:
            runs["stdout"][i] = stdout
        if code != 0 or stdout != references.get(job.id):
            runs["failed"] += 1
            print(f"FAILED {job.id}: exit {code}", file=sys.stderr)


def job_list_time(jobs, runs, command=None, key="scaled") -> float:
    """Sum over the jobs (all, or those of one command) of each job's median time."""
    return sum(
        statistics.median(runs[key][i])
        for i, job in enumerate(jobs)
        if command in (None, job.command)
    )


def load_references() -> dict[str, str]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def benchmark(
    workload: str, jobs: list[Job], seed: int, seconds: float, trace: bool, workdir: Path = WORK
) -> dict:
    references = load_references()
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            speed_before = machine_speed()
            elapsed, main, paths = set_up(jobs, seed, Path(tmp))
            speed = (speed_before + machine_speed()) / 2
            setups.append(elapsed * speed / REFERENCE_SPEED)
        runs = closed_loop(main, jobs, paths, seed, references, seconds / 3 if trace else seconds)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = closed_loop(main, jobs, paths, seed, references, 0, tracer)
            finally:
                tracer.uninstall()
            for missing in tracer.missing:
                print(f"trace: not found: {missing}", file=sys.stderr)
            tracer.write_spans(workdir / f"trace-{workload}.jsonl.gz")
    attempted, failed = runs["attempted"], runs["failed"]
    correct = failed == 0
    if trace:
        attempted += traced["attempted"]
        failed += traced["failed"]
        identical = traced["stdout"] == runs["stdout"]
        if not identical:
            print("traced stdout differs from untraced stdout", file=sys.stderr)
        correct = failed == 0 and identical
        overhead = job_list_time(jobs, traced) / job_list_time(jobs, runs)
        metrics = tracer.metrics(overhead)
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": job_list_time(jobs, runs),
            "hh_s": job_list_time(jobs, runs, "hh"),
            "cohomology_s": job_list_time(jobs, runs, "cohomology"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "raw_wall_s": job_list_time(jobs, runs, key="raw"),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_report(workload: str, result: dict, trace: bool) -> None:
    print(f"workload {workload}: {result['attempted']} jobs attempted, {result['failed']} failed")
    print(f"  {'error_rate':<40} {result['failed'] / result['attempted']:.4f}")
    print(f"  {'wall_s unscaled':<40} {result['raw_wall_s']:.6g} s")
    moves = {name: m for name, (_, _, m) in LAYER_METRICS.items()} if trace else {}
    for name, metric in result["metrics"].items():
        arrow = f"  -> {moves[name]}" if name in moves else ""
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}{arrow}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ainfty" / "__init__.py").is_file():
        print(f"no ainfty sources under {SRC}", file=sys.stderr)
        return 2
    # the workload runs single-threaded whatever the caller's environment says
    os.environ.pop("AINFTY_THREADS", None)
    sys.path.insert(0, str(SRC))
    result = benchmark(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print_report(args.workload, result, bool(args.trace))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
