"""Digests of every benchmark job's input and output files.

    python3 tools/job_digests.py [--workload W ...] [--seed S ...] [--dir DIR]

For each workload and seed (all three workloads at seeds 1 and 2 by
default), writes the cycle's inputs (`perfbench/inputs.py`) into
DIR/<workload>-<seed>/, runs every job and checks its outputs
(`perfbench/jobs.py`), and prints one `relpath sha256` line per file, the
path relative to DIR. A failed job or check raises.

Reports name their input files by path, so two runs compare equal only
in the same DIR: run each checkout with the same `--dir` (the default is
one fixed directory under the system temporary directory) and diff the
printed lines. Each <workload>-<seed> directory is emptied before its
run; nothing else under DIR is touched.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402  (puts this checkout's src/ first on sys.path)
import jobs  # noqa: E402

DEFAULT_DIR = os.path.join(tempfile.gettempdir(), "holonorm-job-digests")


def cycle_digests(workload, seed, root):
    """Run one cycle in root/<workload>-<seed>; [(relpath, sha256)] of its
    files, sorted by path."""
    name = f"{workload}-{seed}"
    workdir = os.path.join(root, name)
    shutil.rmtree(workdir, ignore_errors=True)
    cycle = inputs.plan(workload, seed)
    inputs.write_inputs(cycle, workdir)
    for job in cycle:
        jobs.run_job(job, workdir)
        jobs.check_job(job, workdir)
    out = []
    for fname in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, fname), "rb") as fh:
            out.append((f"{name}/{fname}", hashlib.sha256(fh.read()).hexdigest()))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--dir", default=DEFAULT_DIR)
    args = parser.parse_args(argv)
    for workload in args.workload or inputs.WORKLOADS:
        for seed in args.seed or (1, 2):
            for path, digest in cycle_digests(workload, seed, args.dir):
                print(path, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
