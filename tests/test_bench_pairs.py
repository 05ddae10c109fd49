"""The summary of tools/bench_pairs.py on canned result lines."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_stdout(jobs_per_s, p50, failed=0, attempted=100):
    """A run's stdout as `perfbench/run.py` prints it: metadata, then the
    result line."""
    metrics = {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
               "job_s.p50": {"value": p50, "unit": "s"}}
    result = {"correct": not failed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return json.dumps({"metadata": {"seed": 1}}) + "\n" + json.dumps(result) + "\n"


SPEC = [("jobs_per_s", "higher"), ("job_s.p50", "lower")]


def test_summary_of_five_pairs():
    base = [bench_pairs.parse_result(result_stdout(v, p)) for v, p in
            [(100, 0.010), (110, 0.012), (90, 0.011), (105, 0.010), (95, 0.013)]]
    change = [bench_pairs.parse_result(result_stdout(v, p, failed=f)) for v, p, f in
              [(120, 0.009, 0), (110, 0.012, 0), (80, 0.012, 0), (106, 0.008, 0),
               (99, 0.013, 1)]]
    lines = bench_pairs.summary_lines(SPEC, base, change)
    assert lines[1].split() == ["jobs_per_s", "higher", "100", "[95-105]", "106", "[99-110]",
                                "+6.0%", "3/5"]
    # ties (pairs 2 and 5) count for neither side
    assert lines[2].split() == ["job_s.p50", "lower", "0.011", "[0.01-0.012]", "0.012",
                                "[0.009-0.012]", "+9.1%", "2/5"]
    assert lines[3] == "failed/attempted: base 0/500, change 1/500"
    assert len(lines) == 4


def test_single_pair_and_declared_metrics():
    base = [bench_pairs.parse_result(result_stdout(10, 0.5))]
    change = [bench_pairs.parse_result(result_stdout(9, 0.4))]
    lines = bench_pairs.summary_lines(SPEC, base, change)
    assert lines[1].split()[2:] == ["10", "[10-10]", "9", "[9-9]", "-10.0%", "0/1"]
    assert lines[2].split()[-1] == "1/1"
    # every end-to-end metric of BENCHMARK.json, with its direction
    declared = dict(bench_pairs.end_to_end_spec())
    assert declared["jobs_per_s"] == "higher" and declared["job_s.p90"] == "lower"
    assert set(declared) >= {"setup_s", "job_s.p50", "peak_rss_mb", "ok_rate"}
