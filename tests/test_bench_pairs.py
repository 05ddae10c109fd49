"""The summary of tools/bench_pairs.py on canned result lines."""

import importlib.util
import json
import pathlib

import pytest

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


SPEC = [("jobs_per_s", "higher", 0.25), ("job_s.p50", "lower", 0.25)]


def test_summary_of_five_pairs():
    base = [bench_pairs.parse_result(result_stdout(v, p)) for v, p in
            [(100, 0.010), (110, 0.012), (90, 0.011), (105, 0.010), (95, 0.013)]]
    change = [bench_pairs.parse_result(result_stdout(v, p, failed=f)) for v, p, f in
              [(120, 0.009, 0), (110, 0.012, 0), (80, 0.012, 0), (106, 0.008, 0),
               (99, 0.013, 1)]]
    lines = bench_pairs.summary_lines(SPEC, base, change)
    assert lines[1].split() == ["jobs_per_s", "higher", "100", "[95-105]", "106", "[99-110]",
                                "+6.0%", "3/5", "within", "bound"]
    # ties (pairs 2 and 5) count for neither side
    assert lines[2].split() == ["job_s.p50", "lower", "0.011", "[0.01-0.012]", "0.012",
                                "[0.009-0.012]", "+9.1%", "2/5", "within", "bound"]
    assert lines[3] == "failed/attempted: base 0/500, change 1/500"
    assert len(lines) == 4


def test_single_pair_and_declared_metrics():
    base = [bench_pairs.parse_result(result_stdout(10, 0.5))]
    change = [bench_pairs.parse_result(result_stdout(9, 0.4))]
    lines = bench_pairs.summary_lines(SPEC, base, change)
    assert lines[1].split()[2:] == ["10", "[10-10]", "9", "[9-9]", "-10.0%", "0/1", "within",
                                    "bound"]
    # one pair is not ten, but 1/1 is at least 9/10, over an empty base spread
    assert lines[2].split()[-2:] == ["1/1", "gain"]
    # every end-to-end metric of BENCHMARK.json, with its direction and bound
    declared = {name: (better, bound) for name, better, bound in bench_pairs.end_to_end_spec()}
    assert declared["jobs_per_s"] == ("higher", 0.25) and declared["job_s.p90"] == ("lower", 0.25)
    assert declared["peak_rss_mb"] == ("lower", 0.05)
    assert set(declared) >= {"setup_s", "job_s.p50", "peak_rss_mb", "ok_rate"}


BASE = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]


@pytest.mark.parametrize("better,bound,base,change,want", [
    # 10/10 pairs better, medians 20 apart against a base spread of 2
    ("higher", 0.25, BASE, [v + 20 for v in BASE], "gain"),
    ("lower", 0.25, BASE, [v - 20 for v in BASE], "gain"),
    # 9/10 pairs count; a tie counts for neither side, so 8/10 does not
    ("higher", 0.25, BASE, [v + 20 for v in BASE[:9]] + [BASE[9]], "gain"),
    ("higher", 0.25, BASE, [v + 20 for v in BASE[:8]] + BASE[8:], "within bound"),
    # every pair better, by less than the base's spread
    ("higher", 0.25, BASE, [v + 1 for v in BASE], "within bound"),
    # worse, but within the bound
    ("higher", 0.25, BASE, [v - 20 for v in BASE], "within bound"),
    # past the bound, either way of better
    ("higher", 0.25, BASE, [v - 30 for v in BASE], "worse"),
    ("lower", 0.05, BASE, [v + 6 for v in BASE], "worse"),
    # a base spread of 2 is wider than a bound of 1.5% of 100
    ("lower", 0.015, BASE, [v + 1 for v in BASE], "unresolved"),
    # unless every change run beats every base run
    ("lower", 0.015, [100] * 6 + [120] * 4, [99] * 10, "within bound"),
])
def test_verdicts(better, bound, base, change, want):
    assert bench_pairs.verdict(better, bound, base, change) == want


def test_one_export_serves_every_workload(monkeypatch, capsys):
    exports, runs = [], []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: exports.append(rev))

    def run_once(tree, workload, seed, seconds):
        runs.append((tree.rsplit("/", 1)[-1], workload, seed))
        return bench_pairs.parse_result(result_stdout(100, 0.01))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "end_to_end_spec", lambda: SPEC)
    argv = ["--base", "B", "--change", "C", "--workload", "surface", "--workload",
            "centralizer", "--pairs", "2", "--seed0", "7"]
    assert bench_pairs.main(argv) == 0
    assert exports == ["B", "C"]
    assert runs == [("base", "surface", 7), ("change", "surface", 7),
                    ("change", "surface", 8), ("base", "surface", 8),
                    ("base", "centralizer", 7), ("change", "centralizer", 7),
                    ("change", "centralizer", 8), ("base", "centralizer", 8)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out if line.startswith("workload")] == [
        "workload surface", "workload centralizer"]
    assert len(out) == 2 * (1 + len(SPEC) + 2)
