"""Alternating pairs of benchmark runs of two revisions, summarized.

    python3 tools/bench_pairs.py --base REV [--change REV] --workload W
        [--pairs 10] [--seconds 30] [--seed0 N]

Exports each revision (`--change` defaults to HEAD) with `git archive`
into its own temporary directory and runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in both,
pair by pair. Both sides of pair i use seed N + i, and the side that runs
first alternates: the base in even pairs, the change in odd ones. Each
run is a fresh interpreter in its own checkout, so every side builds from
its own sources.

For each end-to-end metric that BENCHMARK.json declares, prints the
median and quartiles of both sides' values and the number of pairs in
which the change was better, by the metric's `better`; a tie counts for
neither side. The last line gives `failed`/`attempted` summed over each
side's runs. Progress goes to stderr. A run that exits nonzero stops the
tool with exit code 1.
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
    """[(name, better)] of the end-to-end metrics, in declared order."""
    with open(path, encoding="utf-8") as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


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


def summary_lines(spec, base, change):
    """The report for two equally long lists of run results, paired by
    position."""
    def cell(values):
        q1, med, q3 = quartiles(values)
        return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"

    lines = [f"{'metric':<12} {'better':<7} {'base median [q1-q3]':<28} "
             f"{'change median [q1-q3]':<28} {'change/base':>11}  change better"]
    for name, better in spec:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bm, cm = statistics.median(b), statistics.median(c)
        ratio = f"{cm / bm - 1:+.1%}" if bm else "-"
        lines.append(f"{name:<12} {better:<7} {cell(b):<28} {cell(c):<28} {ratio:>11}  "
                     f"{wins(better, b, c)}/{len(b)}")
    counts = [f"{side} {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
              for side, runs in zip(SIDES, (base, change))]
    lines.append("failed/attempted: " + ", ".join(counts))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the base side")
    parser.add_argument("--change", default="HEAD", help="revision of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed0", type=int, default=1001)
    args = parser.parse_args(argv)
    spec = end_to_end_spec()
    results = {side: [] for side in SIDES}
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            trees = {}
            for side, rev in zip(SIDES, (args.base, args.change)):
                trees[side] = os.path.join(tmp, side)
                export(rev, trees[side])
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                print(f"pair {i + 1}/{args.pairs}: seed {seed}, {order[0]} first",
                      file=sys.stderr)
                for side in order:
                    results[side].append(run_once(trees[side], args.workload, seed,
                                                  args.seconds))
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}: {args.base} -> {args.change}, {args.pairs} pairs, "
          f"seeds {args.seed0}-{args.seed0 + args.pairs - 1}, {args.seconds:g} s per run")
    print("\n".join(summary_lines(spec, results["base"], results["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
