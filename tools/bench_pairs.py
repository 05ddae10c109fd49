"""Alternating pairs of benchmark runs of two revisions, summarized.

    python3 tools/bench_pairs.py --base REV [--change REV] --workload W
        [--workload W2 ...] [--pairs 10] [--seconds 30] [--seed0 N]

Exports each revision (`--change` defaults to HEAD) with `git archive`
into its own temporary directory, once, and runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in both,
pair by pair, for each workload named in turn. Both sides of pair i use
seed N + i, and the side that runs first alternates: the base in even
pairs, the change in odd ones. Each run is a fresh interpreter in its own
checkout, so every side builds from its own sources.

For each workload and each end-to-end metric that BENCHMARK.json
declares, prints the median and quartiles of both sides' values, the
number of pairs in which the change was better, by the metric's `better`
(a tie counts for neither side), and a verdict judged against the
metric's `bound`, a fraction of the base median: `gain`, `within bound`,
`worse` or `unresolved` (see `verdict`). The last line of each table
gives `failed`/`attempted` summed over each side's runs. Progress goes
to stderr. A run that exits nonzero stops the tool with exit code 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def end_to_end_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    """[(name, better, bound)] of the end-to-end metrics, in declared
    order."""
    with open(path, encoding="utf-8") as fh:
        return [(m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]]


def export(rev, dest):
    """The tracked files of rev, written under dest."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(dest)


def parse_result(stdout):
    """The result dict of a run: the last line of its stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree, workload, seed, seconds):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return parse_result(proc.stdout)


def quartiles(values):
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def wins(better, base, change):
    """Pairs in which the change is strictly better."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def verdict(better, bound, base, change):
    """One word on a metric, for two equally long lists of its values
    paired by position, `bound` the worsening it may take as a fraction of
    the base median:

    - `worse`: the change's median is past the bound;
    - `gain`: the change is better in at least 9/10 of the pairs, and its
      median is better than the base's by more than the base's
      interquartile range;
    - `unresolved`: the base's interquartile range is wider than the
      bound, and not every change run beats every base run;
    - `within bound` otherwise.
    """
    sign = -1 if better == "lower" else 1  # sign * (c - b) > 0: the change is better
    q1, bm, q3 = quartiles(base)
    cm = statistics.median(change)
    if sign * (cm - bm) < -bound * abs(bm):
        return "worse"
    if 10 * wins(better, base, change) >= 9 * len(base) and sign * (cm - bm) > q3 - q1:
        return "gain"
    every_run_better = all(sign * (c - b) > 0 for c in change for b in base)
    if q3 - q1 > bound * abs(bm) and not every_run_better:
        return "unresolved"
    return "within bound"


def summary_lines(spec, base, change):
    """The report for two equally long lists of run results, paired by
    position."""
    def cell(values):
        q1, med, q3 = quartiles(values)
        return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"

    lines = [f"{'metric':<12} {'better':<7} {'base median [q1-q3]':<28} "
             f"{'change median [q1-q3]':<28} {'change/base':>11}  {'change better':<14} "
             "verdict"]
    for name, better, bound in spec:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bm, cm = statistics.median(b), statistics.median(c)
        ratio = f"{cm / bm - 1:+.1%}" if bm else "-"
        lines.append(f"{name:<12} {better:<7} {cell(b):<28} {cell(c):<28} {ratio:>11}  "
                     f"{f'{wins(better, b, c)}/{len(b)}':<14} {verdict(better, bound, b, c)}")
    counts = [f"{side} {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
              for side, runs in zip(SIDES, (base, change))]
    lines.append("failed/attempted: " + ", ".join(counts))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the base side")
    parser.add_argument("--change", default="HEAD", help="revision of the change side")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to run; repeat for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed0", type=int, default=1001)
    args = parser.parse_args(argv)
    spec = end_to_end_spec()
    results = {w: {side: [] for side in SIDES} for w in args.workload}
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            trees = {}
            for side, rev in zip(SIDES, (args.base, args.change)):
                trees[side] = os.path.join(tmp, side)
                export(rev, trees[side])
            for workload in args.workload:
                for i in range(args.pairs):
                    seed = args.seed0 + i
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    print(f"{workload} pair {i + 1}/{args.pairs}: seed {seed}, "
                          f"{order[0]} first", file=sys.stderr)
                    for side in order:
                        results[workload][side].append(
                            run_once(trees[side], workload, seed, args.seconds))
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    for workload, runs in results.items():
        print(f"workload {workload}: {args.base} -> {args.change}, {args.pairs} pairs, "
              f"seeds {args.seed0}-{args.seed0 + args.pairs - 1}, {args.seconds:g} s per run")
        print("\n".join(summary_lines(spec, runs["base"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
