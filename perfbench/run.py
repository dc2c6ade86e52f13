"""quantgym benchmark: seeded workloads run in-process through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload curate-panel --seed 1 \
        --seconds 30 --trace 0

One run builds its inputs from ``--seed``, then runs the workload's op
(one or two ``quantgym`` commands through ``quantgym.cli.main``) again
and again for about ``--seconds`` seconds, one op after another in this
process. Every op's outputs are checked; an op that exits non-zero or
fails a check counts as failed. Repeated ops must write identical
artifacts.

``--trace 0`` reports the end-to-end metrics: ``work_per_s`` (work units
of one op over the median op time; the unit is a bar on curate-panel and
a trade day on the rolling workloads), ``setup_s`` (the median, over
fresh interpreters started one at a time, of importing ``quantgym.cli``
and loading the workload's config) and ``peak_rss_mb`` of this process.
``--trace 1`` alternates untraced and traced ops and reports per-layer
metrics from the traced ones (see ``tracing.py``).

Times are reported at reference speed: the fixed computation in
``speed.py`` is timed before and after every op and every setup sample,
and each time is multiplied by REFERENCE_S over the mean of the two
reference timings around it. The host is shared and its speed drifts by
a third or more over minutes; over ten seeds per workload this cut the
quartile spread of ``work_per_s`` from 0.19-0.30 of the median (wall
time) to 0.04-0.08. The record keeps the wall times and reference timings.

The last line of standard output is the result as one JSON object; the
line before it is the run record (versions, op times, digests). Spans
and the record are also written under ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from speed import reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_OPS = 3
SETUP_RUNS = 5
PERCENTILES = (50, 90, 95, 99, 99.9)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

# median reference_seconds() over the 408 timings of the baseline runs on
# a shared 2-core x86-64 host (90% of them fell between 0.096 s and 0.18 s
# as the host's speed drifted); times are reported at this reference speed
REFERENCE_S = 0.12

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import quantgym.cli
quantgym.cli.load_config(None, sys.argv[2:])
print(time.perf_counter() - t0)
"""


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def between_references(call, more) -> tuple[list[float], list[float]]:
    """Time calls and, around each one, the reference computation.

    ``call(k) -> seconds`` runs the k-th measured call; calls go on while
    ``more(times)`` holds. refs[k] is taken just before times[k] and
    refs[k + 1] just after, so ``refs`` has one more entry than ``times``.
    """
    times, refs = [], [reference_seconds()]
    while True:
        times.append(call(len(times)))
        refs.append(reference_seconds())
        if not more(times):
            return times, refs


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Each time rescaled by the mean of the reference timings around it."""
    return [t * REFERENCE_S * 2.0 / (before + after)
            for t, before, after in zip(times, refs, refs[1:])]


def setup_seconds(overrides: list[str]) -> float:
    """Import quantgym.cli and load the config in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, *overrides],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest listed percentile with at least ten samples beyond it."""
    usable = [p for p in PERCENTILES
              if len(samples) * (1.0 - p / 100.0) >= 10]
    if not usable:
        return None
    return {"p": usable[-1],
            "value": float(np.percentile(samples, usable[-1]))}


class OpRunner:
    """Runs one workload's ops and keeps the failure and digest tally."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self) -> float:
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                codes = self.workload.run_op(self.main)
        except Exception:  # an op that crashes is a failed op, not a crash
            traceback.print_exc()
            codes = [1]
        seconds = time.perf_counter() - start
        problems = [f"exit code {c}" for c in codes if c != 0]
        if not problems:
            try:
                problems = self.workload.check()
                digest = self.workload.digest()
            except Exception as exc:  # malformed outputs fail the op
                traceback.print_exc()
                problems = [f"outputs unreadable: {exc!r}"]
            else:
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    problems.append("artifacts differ from the first op's")
        if problems:
            message = f"op {self.attempted}: {'; '.join(problems)}"
            print(message, file=sys.stderr)
            self.failures.append(message)
        return seconds


def measure(runner: OpRunner, seconds: float):
    """Ops one after another for about ``seconds``, at least MIN_OPS."""
    start = time.perf_counter()

    def more(times):
        elapsed = time.perf_counter() - start
        return len(times) < MIN_OPS and elapsed < 3 * seconds \
            or elapsed + times[-1] <= seconds

    return between_references(lambda k: runner.op(), more)


def measure_traced(runner: OpRunner, tracer, seconds: float):
    """Untraced and traced ops in turn; the odd-numbered ones are traced."""
    def call(k):
        if k % 2 == 0:
            return runner.op()
        tracer.begin_op()
        tracer.install()
        try:
            return runner.op()
        finally:
            tracer.restore()

    start = time.perf_counter()

    def more(times):
        elapsed = time.perf_counter() - start
        return len(times) % 2 == 1 or elapsed + 2 * times[-1] <= seconds

    return between_references(call, more)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "quantgym", "cli.py")):
        print(f"no quantgym sources under {SRC}", file=sys.stderr)
        return 2
    # ops must write where --set run.output_dir says, not where this says
    os.environ.pop("QUANTGYM_OUT", None)
    sys.path.insert(0, SRC)
    import quantgym.accel
    import quantgym.cli
    from tracing import HOOKS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    # looked up on every call, so a traced op runs the wrapped main
    runner = OpRunner(workload, lambda argv: quantgym.cli.main(argv))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numba_enabled": quantgym.accel.NUMBA_ENABLED,
        "QUANTGYM_NUMBA": os.environ.get("QUANTGYM_NUMBA"),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "work_unit": workload.unit, "work_per_op": workload.work,
    }
    if args.trace:
        tracer = Tracer(HOOKS)
        times, refs = measure_traced(runner, tracer, args.seconds)
        scaled = at_reference_speed(times, refs)
        metrics, absent = layer_metrics(tracer, times[1::2], scaled[1::2],
                                        scaled[0::2])
        tracer.write_spans(os.path.join(workdir, "spans.csv"))
        record.update(op_s=times, reference_s=refs, absent_metrics=absent,
                      spans=len(tracer.spans))
    else:
        setup, setup_refs = between_references(
            lambda k: setup_seconds(workload.overrides()),
            lambda times: len(times) < SETUP_RUNS)
        times, refs = measure(runner, args.seconds)
        scaled = at_reference_speed(times, refs)
        op_median = statistics.median(scaled)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_scaled = statistics.median(at_reference_speed(setup, setup_refs))
        metrics = {
            "work_per_s": {"value": workload.work / op_median, "unit": "1/s"},
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        record.update({
            "setup_s": setup, "setup_reference_s": setup_refs,
            "op_s": times, "reference_s": refs,
            "op_s_median": statistics.median(times),
            "op_s_tail": tail_percentile(times),
            "op_s_median_at_reference_speed": op_median,
            workload.throughput: workload.work / op_median,
            workload.throughput + "_wall": workload.work
            / statistics.median(times)})
    record.update(attempted=runner.attempted, failures=runner.failures,
                  failed_frac=runner.failed / runner.attempted,
                  defects=sorted(workload.defects), digest=runner.digest)
    with open(os.path.join(workdir, "record.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
