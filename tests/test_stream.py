"""The CLI writes its JSON as it builds it.

Each list item (a census triangulation, a block of type rows) is written as
soon as it is built, so no single write holds the whole text, and a process
that prints the (4,3) census grows by far less than the text it prints."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from tropom import arrangement, axioms, cli, core, subdivision

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Recorder(io.TextIOBase):
    """A stdout that keeps every write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def _recorded(monkeypatch, argv, stdin_text=""):
    out = Recorder()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    monkeypatch.setattr("sys.stdout", out)
    code = cli.run(argv)
    monkeypatch.undo()
    return code, out.writes


def _assert_streamed(writes, want):
    text = "".join(writes)
    assert text == want
    assert max(map(len, writes)) <= len(text) / 10


def test_census_is_written_one_triangulation_at_a_time(monkeypatch):
    code, writes = _recorded(monkeypatch, ["subdiv", "enumerate", "--n", "3", "--d", "3"])
    tris = subdivision.enumerate_triangulations(3, 3)
    obj = {"n": 3, "d": 3, "count": len(tris),
           "triangulations": [t.to_obj()["cells"] for t in tris]}
    assert code == 0
    _assert_streamed(writes, json.dumps(obj, indent=2) + "\n")


def test_type_set_is_written_one_row_block_at_a_time(monkeypatch):
    m = arrangement.arrangement_tom(arrangement.random_generic_arrangement(5, 3, seed=7))
    dual = core.dual(m)
    assert len(dual) >= 40
    # a block of at most three rows of three masks
    monkeypatch.setattr(axioms, "_PAIR_BUDGET", 9)
    code, writes = _recorded(monkeypatch, ["tom", "dual"], json.dumps(m.to_obj()))
    assert code == 0
    _assert_streamed(writes, json.dumps(dual.to_obj(), indent=2) + "\n")


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


SINK = r"""
import io, json, resource, sys
from tropom.cli import run

class Sink(io.TextIOBase):
    chars = 0
    def write(self, text):
        Sink.chars += len(text)
        return len(text)

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
real, sys.stdout = sys.stdout, Sink()
code = run(["subdiv", "enumerate", "--n", "4", "--d", "3"])
sys.stdout = real
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({"code": code, "chars": Sink.chars, "grown_kib": grown}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_census_peak_grows_less_than_its_text():
    proc = subprocess.run([sys.executable, "-c", SINK], capture_output=True, text=True,
                          env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["code"] == 0
    assert seen["chars"] > 13_000_000
    assert seen["grown_kib"] * 1024 < seen["chars"]


def test_closed_pipe_ends_with_one_error_line():
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropom.cli", "subdiv", "enumerate", "--n", "4", "--d", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the child on Linux")
@pytest.mark.parametrize(
    "n, d, err",
    [
        ("1", "100000000", "error: direction count d=100000000 outside [1, 64]\n"),
        ("100000000", "1",
         "error: K_(100000000,1) has 100000000 edges, over the cap of 1048576\n"),
    ],
)
def test_census_refuses_huge_one_tree_shapes_before_allocating(n, d, err):
    # one spanning tree each, under the tree cap; the refusal must come
    # before the n·d edges are listed, which the address limit would stop
    proc = subprocess.run(
        [sys.executable, "-m", "tropom.cli", "subdiv", "enumerate", "--n", n, "--d", d],
        capture_output=True, text=True, env=_env(), timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
