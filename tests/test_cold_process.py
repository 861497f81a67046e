"""A fresh process that runs the CLI pipelines never imports numpy.ma.

numpy serves np.unique without index, inverse or count outputs (and
np.union1d, which calls it) through np.ma, whose import costs a cold CLI
process about 15-20 ms.  The steps run through ``tropom.cli.run`` in one new
interpreter, each on the stdout of the step before it."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import contextlib, io, json, random, sys
from tropom.arrangement import random_arrangement, random_generic_arrangement
from tropom.cli import run

def step(argv, text, expect=0):
    out = io.StringIO()
    sys.stdin = io.StringIO(text)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code == expect, (argv, code)
    return out.getvalue()

arr = json.dumps(random_generic_arrangement(3, 5, seed=7).to_obj())
tom = step(["tom", "from-arrangement"], arr)
step(["tom", "check"], tom)
step(["tom", "dual"], tom)
assert step(["tom", "reconstruct-topes"], step(["tom", "topes"], tom)) == tom

arr = json.dumps(random_generic_arrangement(4, 3, seed=7).to_obj())
tri = step(["subdiv", "from-tom"], step(["tom", "from-arrangement"], arr))
step(["subdiv", "check"], tri)
step(["subdiv", "check", "--triangulation"], tri)
# a coarse subdivision: general mode cuts cells that are not trees
arr = json.dumps(random_arrangement(3, 4, random.Random(7), bound=1).to_obj())
coarse = step(["subdiv", "from-tom"], step(["tom", "from-arrangement"], arr))
assert any(len(cell) > 6 for cell in json.loads(coarse)["cells"])
step(["subdiv", "check"], coarse)
census = json.loads(step(["subdiv", "enumerate", "--n", "3", "--d", "3"], ""))
# two triangulations as one collection: its alternating cycles get named
tris = census["triangulations"]
mixed = json.dumps({"n": 3, "d": 3, "cells": tris[0] + tris[-1]})
report = json.loads(step(["subdiv", "check", "--triangulation"], mixed, expect=1))
assert report["alternating"]["violations"]
tom = step(["subdiv", "to-tom"], tri)
step(["tom", "check"], tom)
cells = step(["subdiv", "from-tom"], tom)
step(["cayley", "verify-transitions"], cells)
step(["cayley", "render"], cells)
print("numpy.ma" in sys.modules)
"""


def test_cli_pipelines_leave_numpy_ma_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
