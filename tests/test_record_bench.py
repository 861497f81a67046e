"""tools/record_bench.py records only runs whose every step passed."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location(
        "record_bench", os.path.join(ROOT, "tools", "record_bench.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(monkeypatch, tmp_path, runs: dict) -> tuple[int, list[str]]:
    """main() in tmp_path over workloads whose runs are stubbed: runs maps
    each name to its result and its failure reasons."""
    module = _load()
    bench = {"command": ["python3", "run.py"], "run_seconds": 1,
             "workloads": [{"name": name} for name in runs]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_workload(command, name, seconds):
        result, failures = runs[name]
        return result, {"machine": {"python": "3"}, "failures": failures}

    monkeypatch.setattr(module, "run_workload", run_workload)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["record_bench.py", "--number", "99"])
    return module.main(), sorted(os.listdir(tmp_path))


def _result(failed: int) -> dict:
    return {"correct": not failed, "attempted": 5, "failed": failed, "metrics": {}}


def test_failed_steps_write_no_file(monkeypatch, tmp_path, capsys):
    runs = {"good": (_result(0), []), "bad": (_result(2), ["t-001/check: exit code 1"])}
    code, files = _record(monkeypatch, tmp_path, runs)
    assert (code, files) == (1, ["BENCHMARK.json"])
    err = capsys.readouterr().err
    assert "bad: 2 failed steps" in err and "t-001/check: exit code 1" in err


def test_a_result_marked_not_correct_writes_no_file(monkeypatch, tmp_path, capsys):
    runs = {"bad": (dict(_result(0), correct=False), [])}
    code, files = _record(monkeypatch, tmp_path, runs)
    assert (code, files) == (1, ["BENCHMARK.json"])
    assert "bad: 0 failed steps, first the result is not correct" in capsys.readouterr().err


def test_passing_runs_are_written(monkeypatch, tmp_path):
    code, files = _record(monkeypatch, tmp_path, {"good": (_result(0), [])})
    assert (code, files) == (0, ["BENCHMARK.json", "BENCH_99.json"])
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert record["workloads"]["good"]["failed"] == 0


def test_the_record_says_whether_samples_wrote_bytecode(monkeypatch, tmp_path):
    for value, writes in [(None, True), ("", True), ("1", False)]:
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        code, _ = _record(monkeypatch, tmp_path, {"good": (_result(0), [])})
        record = json.loads((tmp_path / "BENCH_99.json").read_text())
        assert code == 0
        assert record["machine"] == {"python": "3", "writes_bytecode": writes}
        assert "machine" not in record["workloads"]["good"]["details"]


@pytest.mark.parametrize(
    "stdout, returncode",
    [("", 0), ("only one line\n", 0), ("details\nnot json\n", 0), ("", 3)],
)
def test_a_bad_run_is_named_by_its_workload(monkeypatch, tmp_path, capsys, stdout, returncode):
    module = _load()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "run.py"], "run_seconds": 1, "workloads": [{"name": "w"}]}
    ))
    monkeypatch.setattr(module.subprocess, "run", lambda argv, **kw: subprocess.CompletedProcess(
        argv, returncode, stdout, "boom"
    ))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["record_bench.py", "--number", "99"])
    assert module.main() == 1
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json"]
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: w: ") and "w: w:" not in err[-1]
