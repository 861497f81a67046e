"""tools/record_bench.py records only runs whose every step passed, and
walls whose every verdict is ok and whose every picture is whole."""

from __future__ import annotations

import importlib.util
import hashlib
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


def _svg(polygons: int) -> bytes:
    return b'<svg x="1">\n' + b'  <polygon points="0,0"/>\n' * polygons + b"</svg>\n"


def _passing(wall: dict) -> bytes:
    """The stdout of a wall that counts."""
    if "polygons" in wall:
        return _svg(wall["polygons"])
    if "triangulations" in wall:
        report = {"ok": True, "triangulations": wall["triangulations"], "injective": True}
    else:
        report = {"ok": True}
    return json.dumps(report).encode()


def _record(monkeypatch, tmp_path, runs: dict, walls: dict | None = None) -> tuple[int, list[str]]:
    """main() in tmp_path over workloads whose runs are stubbed: runs maps
    each name to its result and its failure reasons; walls maps a wall's
    name to its stdout and exit code, and the other walls pass."""
    module = _load()

    def run_wall(wall):
        stdout, code = (walls or {}).get(wall["name"], (_passing(wall), 0))
        return {"wall_s": 1.0, "exit_code": code, "stdout_bytes": len(stdout)}, stdout

    monkeypatch.setattr(module, "run_wall", run_wall)
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
    names = ["verdict-5x6", "verdict-6x5", "probe-3x4", "probe-2x6", "picture-40x3"]
    assert list(record["walls"]) == names
    assert record["walls"]["probe-3x4"]["exit_code"] == 0


@pytest.mark.parametrize(
    "name, report, code, reason",
    [
        ("verdict-6x5", {"ok": False}, 1, "exit code 1"),
        ("verdict-6x5", {"ok": False}, 0, "the verdict is not ok"),
        ("verdict-5x6", None, 0, "stdout is not JSON"),
        ("probe-3x4", {"ok": False, "triangulations": 4488, "injective": False}, 0,
         "the verdict is not ok"),
        ("probe-3x4", {"ok": True, "triangulations": 4488, "injective": False}, 0,
         "the probe is not injective over 4488 triangulations"),
        ("probe-2x6", {"ok": True, "triangulations": 719, "injective": True}, 0,
         "the probe is not injective over 720 triangulations"),
        ("picture-40x3", _svg(820), 1, "exit code 1"),
        ("picture-40x3", b"", 2, "exit code 2"),
        ("picture-40x3", _svg(819), 0, "the picture draws 819 polygons, not 820"),
        ("picture-40x3", _svg(821), 0, "the picture draws 821 polygons, not 820"),
        ("picture-40x3", _svg(820)[:-1], 0, "stdout is not one SVG document"),
        ("picture-40x3", _svg(410) + _svg(410), 0, "stdout is not one SVG document"),
        ("picture-40x3", json.dumps({"ok": True}).encode(), 0, "stdout is not one SVG document"),
    ],
)
def test_a_failing_wall_writes_no_file(monkeypatch, tmp_path, capsys, name, report, code, reason):
    if type(report) is bytes:
        stdout = report
    else:
        stdout = b"not json" if report is None else json.dumps(report).encode()
    runs = {"good": (_result(0), [])}
    assert _record(monkeypatch, tmp_path, runs, {name: (stdout, code)}) == (1, ["BENCHMARK.json"])
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {name}: {reason}"


def test_a_wall_runs_its_pipeline_in_fresh_processes(monkeypatch):
    module = _load()
    monkeypatch.chdir(ROOT)
    wall = {"name": "verdict-2x3", "arrangement": [2, 3], "commands": module._VERDICT}
    measured, stdout = module.run_wall(wall)
    assert json.loads(stdout)["ok"] is True
    assert measured["command"] == "tom from-arrangement | tom check"
    assert measured["exit_code"] == 0 and measured["wall_s"] > 0
    assert measured["stdout_sha256"] == hashlib.sha256(stdout).hexdigest()
    assert measured["stdout_bytes"] == len(stdout)
    assert module.wall_failure(wall, measured, stdout) is None
    # a stage that fails fails the pipeline
    measured, _ = module.run_wall(dict(wall, commands=[["tom", "frobnicate"], ["tom", "check"]]))
    assert measured["exit_code"] == 2


def test_a_picture_wall_draws_one_polygon_a_cell(monkeypatch):
    module = _load()
    monkeypatch.chdir(ROOT)
    wall = {"name": "picture-4x3", "arrangement": [4, 3], "commands": module._PICTURE,
            "polygons": 10}
    measured, stdout = module.run_wall(wall)
    assert measured["command"] == "tom from-arrangement | subdiv from-tom | cayley render"
    assert measured["exit_code"] == 0 and stdout.startswith(b"<svg ")
    assert module.wall_failure(wall, measured, stdout) is None
    assert module.wall_failure(dict(wall, polygons=11), measured, stdout) == (
        "the picture draws 10 polygons, not 11")


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
