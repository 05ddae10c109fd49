"""Smoke test of tools/job_digests.py on a two-job cycle."""

import importlib.util
import pathlib
import re

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "job_digests.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("job_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    full = module.inputs.plan
    monkeypatch.setattr(module.inputs, "plan", lambda workload, seed: full(workload, seed)[:2])
    return module


def test_two_job_cycle(tool, tmp_path, capsys):
    argv = ["--workload", "normalize", "--seed", "1", "--dir", str(tmp_path / "a")]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    jobs = tool.inputs.plan("normalize", 1)
    # each job writes its input field and its report
    assert [line.split()[0] for line in lines] == sorted(
        f"normalize-1/{job.slot}.{role}" for job in jobs for role in ("field", "out"))
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    # a rerun in the same directory prints the same lines
    assert tool.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines
    # reports name their input paths, so another directory changes them
    assert tool.main(argv[:-1] + [str(tmp_path / "b")]) == 0
    moved = capsys.readouterr().out.splitlines()
    assert [line for line in moved if ".field " in line] == [
        line for line in lines if ".field " in line]
    assert moved != lines
