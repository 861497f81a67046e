"""Record the benchmark into BENCH_<number>.json.

    python3 tools/record_bench.py --number N

Run from the root of a checkout.  For each workload that BENCHMARK.json
names, this runs its command (``perfbench/run.py``) at seed 7 for the
file's ``run_seconds``, untraced, one workload after another.  It keeps the
result line (the last stdout line: correct, attempted, failed and the
end-to-end metrics) and the details line before it (quartiles, pass and
sample counts, failure reasons), and writes them with the machine facts the
details report (Python, numpy, core count, CPU, commit, SHA-256 of
``src/``) and whether the sample interpreters could write bytecode
(``PYTHONDONTWRITEBYTECODE`` unset): compiling every module makes the
import of ``tropom.cli`` more than twice as slow, which moves ``setup_s``.

Then it times the walls, the CLI pipelines of ``WALLS``, once each, every
program of a pipeline in a fresh ``python -m tropom.cli`` process reading
the one before it through a pipe: ``tom from-arrangement | tom check`` and
``tom from-arrangement | subdiv from-tom | cayley render`` on
``random_generic_arrangement(n, d, seed=7)`` (generated before the clock
starts), and ``conjecture probe``.  Under the ``walls`` key it writes each
one's wall time, exit code (the first nonzero one of the pipeline, else 0),
and the SHA-256 and byte count of its stdout.

A workload whose result is not correct, or has failed steps, is named with
its first failure, and so is a wall that exits nonzero, whose verdict is not
``ok`` (or whose probe is not ``ok`` and injective over the expected number
of triangulations), or whose picture is not one SVG document with the
expected number of polygons; then no file is written (exit 1).  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

SEED = 7
_VERDICT = [["tom", "from-arrangement"], ["tom", "check"]]
_PICTURE = [["tom", "from-arrangement"], ["subdiv", "from-tom"], ["cayley", "render"]]
# a probe wall names the number of triangulations its report must list, a
# picture wall the number of cells its SVG must draw: C(n + 1, 2) at d = 3
WALLS = [
    {"name": "verdict-5x6", "arrangement": [5, 6], "commands": _VERDICT},
    {"name": "verdict-6x5", "arrangement": [6, 5], "commands": _VERDICT},
    {"name": "probe-3x4", "commands": [["conjecture", "probe", "--n", "3", "--d", "4"]],
     "triangulations": 4488},
    {"name": "probe-2x6", "commands": [["conjecture", "probe", "--n", "2", "--d", "6"]],
     "triangulations": 720},
    {"name": "picture-40x3", "arrangement": [40, 3], "commands": _PICTURE, "polygons": 820},
]
_ARRANGEMENT = (
    "import json, sys; from tropom import random_generic_arrangement as r;"
    " json.dump(r({}, {}, seed={}).to_obj(), sys.stdout)"
)


def run_workload(command: list[str], name: str, seconds: float) -> tuple[dict, dict]:
    """The result and details objects of one untraced run."""
    argv = [*command, "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, details, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(details)["details"]


def run_wall(wall: dict) -> tuple[dict, bytes]:
    """One timed run of a wall's pipeline, and its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    with tempfile.TemporaryFile() as stdin:
        if "arrangement" in wall:
            code = _ARRANGEMENT.format(*wall["arrangement"], SEED)
            made = subprocess.run([sys.executable, "-c", code], env=env, stdout=stdin)
            if made.returncode != 0:
                raise RuntimeError(f"the arrangement exited {made.returncode}")
            stdin.seek(0)
        start = time.monotonic()
        procs: list[subprocess.Popen] = []
        for command in wall["commands"]:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "tropom.cli", *command],
                stdin=procs[-1].stdout if procs else stdin, stdout=subprocess.PIPE, env=env,
            ))
            if len(procs) > 1:
                procs[-2].stdout.close()  # the reader now holds the pipe alone
        stdout = procs[-1].communicate()[0]
        codes = [p.wait() for p in procs]
        wall_s = time.monotonic() - start
    return {
        "command": " | ".join(" ".join(c) for c in wall["commands"]),
        "wall_s": round(wall_s, 3),
        "exit_code": next((c for c in codes if c), 0),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
    }, stdout


def wall_failure(wall: dict, measured: dict, stdout: bytes) -> str | None:
    """Why a wall's run does not count, or None when it does."""
    if measured["exit_code"]:
        return f"exit code {measured['exit_code']}"
    if "polygons" in wall:
        if not (stdout.startswith(b"<svg ") and stdout.endswith(b"</svg>\n")
                and stdout.count(b"<svg") == stdout.count(b"</svg>") == 1):
            return "stdout is not one SVG document"
        drawn = stdout.count(b"<polygon")
        return None if drawn == wall["polygons"] else (
            f"the picture draws {drawn} polygons, not {wall['polygons']}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(report, dict) or report.get("ok") is not True:
        return "the verdict is not ok"
    want = wall.get("triangulations")
    if want is not None and (report.get("injective"), report.get("triangulations")) != (
        True, want
    ):
        return f"the probe is not injective over {want} triangulations"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="N in BENCH_N.json")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    record: dict = {"seed": SEED, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        print(f"running {name} for {bench['run_seconds']} s", file=sys.stderr)
        try:
            result, details = run_workload(bench["command"], name, bench["run_seconds"])
        except (RuntimeError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if result["correct"] is not True or result["failed"]:
            reasons = details.get("failures") or ["the result is not correct"]
            print(f"error: {name}: {result['failed']} failed steps, first {reasons[0]}",
                  file=sys.stderr)
            return 1
        machine = details.pop("machine")
        machine["writes_bytecode"] = not os.environ.get("PYTHONDONTWRITEBYTECODE")
        record.setdefault("machine", machine)
        record["workloads"][name] = {**result, "details": details}
    record["walls"] = {}
    for wall in WALLS:
        name = wall["name"]
        print(f"running {name}", file=sys.stderr)
        try:
            measured, stdout = run_wall(wall)
        except (RuntimeError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        reason = wall_failure(wall, measured, stdout)
        if reason:
            print(f"error: {name}: {reason}", file=sys.stderr)
            return 1
        record["walls"][name] = measured
    path = f"BENCH_{args.number}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
