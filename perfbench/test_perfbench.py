"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench

Each test cuts the workload's cycle to its first few jobs and times
set-up once, so the whole file runs in well under a minute.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch):
    full = inputs.plan
    monkeypatch.setattr(inputs, "plan", lambda workload, seed: full(workload, seed)[:2])
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def result_of(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(tiny, capsys, workload):
    result = result_of(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_report_is_counted(tiny, capsys, monkeypatch):
    honest = jobs.run_job

    def corrupting(job, workdir):
        honest(job, workdir)
        with open(job.path(workdir, "out"), "a", encoding="utf-8") as fh:
            fh.write("result.field.dz: (1/1,0/1) 0 5\n")  # a non-resonant slot

    monkeypatch.setattr(jobs, "run_job", corrupting)
    result = result_of(capsys, ["--workload", "normalize", "--seed", "3", "--seconds", "0"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_rate"]["value"] == 0


def test_traced_counts_repeat_for_a_seed(tiny, capsys):
    argv = ["--workload", "surface", "--seed", "5", "--seconds", "0", "--trace", "1"]
    first = result_of(capsys, argv)
    second = result_of(capsys, argv)
    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units(first["metrics"]).items()
              if unit in ("count", "bits")]
    assert "normalform.kill_passes" in counts and "backend.coeff_bits.max" in counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["field.pushforward.calls"]["value"] > 0


def test_times_are_rescaled_to_reference_speed(tiny, capsys, monkeypatch):
    # a machine running the calibration task at half the reference speed
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    assert run.main(["--workload", "centralizer", "--seed", "3", "--seconds", "0"]) == 0
    *_, meta_line, result_line = capsys.readouterr().out.strip().splitlines()
    wall = json.loads(meta_line)["metadata"]["wall"]
    metrics = json.loads(result_line)["metrics"]
    assert metrics["job_s.p50"]["value"] == pytest.approx(wall["job_s.p50"] / 2)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(wall["jobs_per_s"] * 2)
