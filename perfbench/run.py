"""holonorm benchmark: one seeded workload per run, as a closed loop with
one client in a single process and thread.

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 20 --trace 0

Untraced (`--trace 0`): set-up is timed in fresh interpreters (see
inputs.py) and its median reported as `setup_s`; then the workload's job
cycle repeats until `--seconds` have passed, finishing the cycle under
way so every run holds the same mix of jobs. Each job's output is checked
outside the timed region. Prints the end-to-end metrics, whose times are
in reference seconds (see `calibrate`); the metadata line keeps the raw
wall times.

Traced (`--trace 1`): runs each job of the cycle once untraced and once
traced, whatever `--seconds` says, so counts repeat exactly for a seed,
and prints the per-layer totals plus `trace.overhead_ratio`.

The last line of stdout is the result as JSON; the line before it is the
run's metadata. Both, and the spans of a traced run, are also written
under .perfbench/ at the repository root. A failed job is counted, not
fatal; set-up that fails exits with code 2, and a copy without the
engine's sources fails on import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import jobs  # noqa: E402
from holonorm.backend import BACKEND  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

# Reference speed. On a shared host the same job's wall time swings by up
# to 2x from one second to the next, and the share of slow seconds drifts
# over minutes, so raw wall times of two runs of the same code differ by
# more than any useful bound. Every timed interval is therefore rescaled
# by a fixed calibration task timed just before and just after it:
# reference seconds = wall seconds * CAL_REF_S / calibration seconds.
# The task is written here, not in the engine, so no change to the engine
# moves it. CAL_REF_S is about its time on an unloaded core of a 2.1 GHz
# Xeon under CPython 3.11, which makes reference seconds close to wall
# seconds on such a core.
CAL_REF_S = 0.006


def _cal_poly(n, a):
    return {(i, j): Fraction(a * i - j + 1, i + 2 * j + 1)
            for i in range(n) for j in range(n - i)}


CAL_P, CAL_Q = _cal_poly(9, 3), _cal_poly(9, -5)


def calibrate():
    """Seconds the calibration task takes now: one product of two fixed
    sparse polynomials with Fraction coefficients, the dict-and-rational
    work the engine itself does."""
    start = time.perf_counter()
    out = {}
    for (i, j), c in CAL_P.items():
        for (k, m), d in CAL_Q.items():
            e = (i + k, j + m)
            out[e] = out.get(e, 0) + c * d
    return time.perf_counter() - start


def reference_s(wall, cal_before, cal_after):
    """Wall seconds rescaled to reference speed by the calibration times
    taken around them."""
    return wall * CAL_REF_S * 2 / (cal_before + cal_after)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="holonorm benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload, seed, workdir):
    """Wall and reference seconds from launching a fresh interpreter to
    its inputs being written, the interpreter's own monotonic clock
    marking the end."""
    cal = calibrate()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with code {proc.returncode}: {proc.stderr.strip()}")
    wall = float(proc.stdout.split()[-1]) - start
    return wall, reference_s(wall, cal, calibrate())


class Tally:
    """Job outcomes of a run: wall and reference times of the jobs that
    passed, errors of those that did not, and the largest coefficient
    bits seen."""

    def __init__(self):
        self.walls = []
        self.samples = []
        self.errors = []
        self.bits = 0

    @property
    def attempted(self):
        return len(self.samples) + len(self.errors)

    def execute(self, job, workdir, tracer=None):
        """Run one job, timed (and traced when a tracer is given), then
        check its output outside the timed region."""
        cal = calibrate()
        if tracer is not None:
            tracer.job = job.slot
            tracer.install()
        try:
            start = time.perf_counter()
            jobs.run_job(job, workdir)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a job's failure is counted, never fatal
            return self._fail(f"{job.slot}: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        sample = reference_s(elapsed, cal, calibrate())
        try:
            bits = jobs.check_job(job, workdir)
        except Exception as exc:  # includes a report too garbled to parse
            return self._fail(f"{job.slot}: check failed: {type(exc).__name__}: {exc}")
        self.walls.append(elapsed)
        self.samples.append(sample)
        self.bits = max(self.bits, bits)

    def _fail(self, message):
        self.errors.append(message)
        print(f"job failed: {message}", file=sys.stderr)


def run_untraced(cycle, workdir, seconds):
    tally = Tally()
    deadline = time.perf_counter() + seconds
    cycles = 0
    while not cycles or time.perf_counter() < deadline:
        for job in cycle:
            tally.execute(job, workdir)
        cycles += 1
    return tally, cycles


def job_times(samples):
    """Median, 90th percentile and jobs per second of job times; with
    every job failed there is no time to report: NaN, never 0."""
    samples = samples or [float("nan")]
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    return statistics.median(samples), p90, len(samples) / sum(samples)


def end_to_end(tally, setups):
    p50, p90, rate = job_times(tally.samples)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "job_s.p50": {"value": p50, "unit": "s"},
        "job_s.p90": {"value": p90, "unit": "s"},
        "jobs_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "ok_rate": {"value": len(tally.samples) / tally.attempted, "unit": "ratio"},
    }


def run_traced(cycle, workdir, spans_path):
    """Each job once untraced and once traced, back to back so both see
    the same machine; per-layer totals come from the traced runs and the
    overhead from comparing the two."""
    base, traced, tracer = Tally(), Tally(), Tracer()
    for job in cycle:
        base.execute(job, workdir)
        traced.execute(job, workdir, tracer)
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics["backend.coeff_bits.max"] = {"value": traced.bits, "unit": "bits"}
    ratio = sum(traced.samples) / sum(base.samples) - 1 if base.samples else float("nan")
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return base, traced, metrics


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    args = parse_args(argv)
    tag = f"{args.workload}_s{args.seed}_trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work_{tag}_{os.getpid()}")
    cycle = inputs.plan(args.workload, args.seed)
    try:
        try:
            setup_walls, setups = zip(*(time_setup(args.workload, args.seed, workdir)
                                        for _ in range(SETUP_RUNS)))
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans_{tag}.json")
            base, tally, metrics = run_traced(cycle, workdir, spans)
            errors = base.errors + tally.errors
            attempted = base.attempted + tally.attempted
            cycles = 2
            wall = {}
        else:
            tally, cycles = run_untraced(cycle, workdir, args.seconds)
            metrics = end_to_end(tally, setups)
            errors, attempted = tally.errors, tally.attempted
            wall = dict(zip(("job_s.p50", "job_s.p90", "jobs_per_s"), job_times(tally.walls)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    orders = [job.order for job in cycle]
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "jobs": attempted,
        "samples": attempted - len(errors),
        "cycles": cycles,
        "jobs_per_cycle": len(cycle),
        "order_range": [min(orders), max(orders)],
        "setup_runs": SETUP_RUNS,
        "setup_s": setups,
        "setup_wall_s": setup_walls,
        "wall": wall,
        "seconds": args.seconds,
    }
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"metadata": metadata, "result": result, "errors": errors}, fh, indent=1)
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
