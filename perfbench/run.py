"""The tropom benchmark: one workload, one seed, a closed loop of samples.

    python3 perfbench/run.py --workload census-4x3 --seed 7 --seconds 60 --trace 0

Run from the root of a checkout (the directory holding ``src/tropom``).
Inputs are generated once per (workload, seed, source tree) into
``.perfbench/`` before any timing.  Each sample is a fresh interpreter that
drives ``tropom.cli.run`` in-process, one step after another, with BLAS and
OpenMP pools pinned to one thread.

``--trace 0`` runs half the set-up samples, untraced passes until
``--seconds`` would be exceeded (at least one pass), then the other half,
and reports the end-to-end metrics as medians.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of the traced one.

The last stdout line is the result object; the line before it holds the
details: quartiles, sample counts, stage times, machine facts and the
reason for every failed step.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
SAMPLE_TIMEOUT_S = 170
THREAD_POOLS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "verdict_s": "s"}


class SampleFailed(RuntimeError):
    pass


def src_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def sample_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_POOLS:
        env[var] = "1"
    return env


def spawn(mode: str, args, inputs_dir: str, env, trace: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", inputs_dir]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SampleFailed(f"{mode} sample exited {proc.returncode}: {proc.stderr[-2000:]}")
    if mode == "generate":
        return {}
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - spawned
    result["sample_s"] = time.monotonic() - spawned
    return result


def prepare_inputs(root: str, args, env) -> str:
    """Generate the workload's inputs once per seed and source tree."""
    key = src_digest(root)[:16]
    inputs_dir = os.path.join(root, ".perfbench", key, f"{args.workload}-{args.seed}")
    marker = os.path.join(inputs_dir, "complete")
    if not os.path.exists(marker):
        spawn("generate", args, inputs_dir, env)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("ok\n")
    return inputs_dir


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def stage_times(sample: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for step in sample["steps"]:
        for tag in step["tags"]:
            out[f"{tag}_s"] = out.get(f"{tag}_s", 0.0) + step["s"]
    return out


def machine(root: str, args, numpy_version: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "src_sha256": src_digest(root),
        "seed": args.seed,
        "digests": "frozen" if args.seed == DEFAULT_SEED else "invariants only",
        "thread_pools": {var: "1" for var in THREAD_POOLS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tropom", "cli.py")):
        print("error: run from a checkout root that holds src/tropom", file=sys.stderr)
        return 2
    env = sample_env(root)
    try:
        inputs_dir = prepare_inputs(root, args, env)
        if args.trace:
            passes = [spawn("pass", args, inputs_dir, env)]
            traced = spawn("pass", args, inputs_dir, env, trace=True)
            setups = [passes[0]]
        else:
            # half the set-up samples before the passes and half after, so
            # their median sees the same machine load as the passes
            setups = [spawn("setup", args, inputs_dir, env) for _ in range(SETUP_SAMPLES // 2)]
            passes, traced = [], None
            start = time.monotonic()
            while True:
                passes.append(spawn("pass", args, inputs_dir, env))
                per_pass = statistics.median(p["sample_s"] for p in passes)
                if time.monotonic() - start + per_pass > args.seconds:
                    break
            setups += [spawn("setup", args, inputs_dir, env) for _ in range(SETUP_SAMPLES // 2)]
            setups += passes
    except (SampleFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    steps = [s for p in passes for s in p["steps"]]
    if traced:
        # the traced pass must print exactly what the untraced pass printed
        plain = {s["id"]: s["sha256"] for s in passes[0]["steps"]}
        for s in traced["steps"]:
            if not s["why"] and s["sha256"] != plain.get(s["id"]):
                s["why"] = "traced output differs from the untraced pass"
        steps += traced["steps"]
    failures = [f"{s['id']}: {s['why']}" for s in steps if s["why"]]
    attempted = len(steps)

    series = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
    }
    for p in passes:
        for key, value in stage_times(p).items():
            series.setdefault(key, []).append(value)
    details = {
        "workload": args.workload,
        "closed_loop": "one sample process at a time, one step at a time",
        "passes": len(passes),
        "setup_samples": len(setups),
        "steps_per_pass": len(passes[0]["steps"]),
        "error_rate": len(failures) / attempted,
        "metrics": {key: summary(values) for key, values in series.items()},
        "machine": machine(root, args, passes[0]["numpy"]),
        "failures": failures[:50],
    }

    if traced:
        untraced_wall = statistics.median(series["wall_s"])
        metrics = {key: (value, unit_of(key)) for key, value in traced["per_layer"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
        metrics["trace.uncovered_share"] = (traced["uncovered_share"], "share")
    else:
        metrics = {key: (summary(series[key])["median"], unit) for key, unit in END_TO_END.items()}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(key: str) -> str:
    return "s" if key.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
