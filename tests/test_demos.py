"""The narrative demos still run against the current API."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(script: str, cwd: str) -> str:
    """Run a demo script with this checkout's package and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _copy_demo(name: str, tmp_path) -> str:
    """A copy of a demo in tmp_path, so that the files it writes next to
    itself stay out of the checkout."""
    return shutil.copy(os.path.join(ROOT, "demos", name), tmp_path)


def test_random_arrangement_tour_runs():
    out = _run_demo("demos/random_arrangement_tour.py", ROOT)
    assert "axioms: pass" in out
    assert "False" not in out


def test_prism_walkthrough_runs(tmp_path):
    out = _run_demo(_copy_demo("prism_walkthrough.py", tmp_path), tmp_path)
    assert "full type set: 17 types" in out
    assert "axioms: all pass" in out
    assert "dual subdivision: 3 cells (spanning trees)" in out
    with open(os.path.join(ROOT, "tests", "data", "golden_prism.svg"), "rb") as f:
        assert (tmp_path / "prism.svg").read_bytes() == f.read()


def test_census_and_pictures_runs(tmp_path):
    out = _run_demo(_copy_demo("census_and_pictures.py", tmp_path), tmp_path)
    for line in ("(2,3): 6", "(2,4): 24", "(3,3): 108", "(2,5): 120"):
        assert line in out
    assert "probe (2,3): ok over 6 triangulations" in out
    assert "probe (3,3): ok over 108 triangulations" in out
    assert len(list((tmp_path / "out").glob("tri_*_3_*.svg"))) == 6 + 108
