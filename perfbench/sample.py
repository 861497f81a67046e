"""One sample: a fresh interpreter that generates inputs, or sets up, or runs
one pass of a workload through ``tropom.cli.run``.

    python3 perfbench/sample.py generate --workload W --seed S --dir D
    python3 perfbench/sample.py setup    --workload W --seed S --dir D
    python3 perfbench/sample.py pass     --workload W --seed S --dir D [--trace]

``setup`` and ``pass`` print one JSON object on stdout.  ``ready`` is the
``time.monotonic()`` reading (system-wide on Linux) once ``tropom`` is
imported and the inputs are read, so the parent can time set-up from the
moment it spawned this process.  A pass times each step on its own, then,
outside the timing, checks every output and compares it with the frozen
digests when the seed is the default one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS, violation_counts

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_inputs(directory: str) -> dict[str, str]:
    inputs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                inputs[name] = fh.read()
    return inputs


def run_pass(workload, inputs: dict[str, str], tracer=None):
    """Run every step in order; return (records, outputs, pass seconds)."""
    from tropom.cli import run

    records, outputs = [], {}
    start = time.perf_counter()
    for step in workload.steps(inputs):
        data = outputs[step.stdin] if step.stdin in outputs else inputs.get(step.stdin, "")
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(data)
        raised = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.open("cli", "run") if tracer else None
            t0 = time.perf_counter()
            try:
                rc = run(list(step.argv))
            except Exception as exc:  # a crash is a failed step, not a dead benchmark
                rc, raised = None, f"raised {exc!r}"
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.close(span, error=rc not in (0, 1))
        sys.stdin = sys.__stdin__
        text = out.getvalue()
        outputs[step.id] = text
        body = text.encode()
        if tracer:
            tracer.add({"cli.steps": 1, "cli.out_bytes": len(body)})
        why = raised
        if not why and rc != step.rc:
            why = f"exit code {rc}, expected {step.rc}: {err.getvalue()[:200]}"
        records.append(
            {
                "id": step.id,
                "tags": list(step.tags),
                "rc": rc,
                "s": seconds,
                "bytes": len(body),
                "sha256": hashlib.sha256(body).hexdigest(),
                "why": why,
            }
        )
    return records, outputs, time.perf_counter() - start


def judge(workload, expected: dict | None, inputs, outputs, records) -> None:
    """Fill each record's ``why`` with the first failed check, if any."""
    try:
        reasons = workload.check(inputs, outputs)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        reasons = {r["id"]: f"output unreadable: {exc!r}" for r in records}
    for r in records:
        if not r["why"]:
            r["why"] = reasons.get(r["id"], "")
    if expected is None:
        return
    for r in records:
        want = expected["sha256"].get(r["id"])
        if not r["why"] and r["sha256"] != want:
            r["why"] = "stdout differs from the frozen default-seed digest"
        counts = expected.get("violations", {}).get(r["id"])
        if not r["why"] and counts and violation_counts(outputs[r["id"]]) != counts:
            r["why"] = f"violation counts differ from {counts}"


def frozen(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("generate", "setup", "pass"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if args.mode == "generate":
        os.makedirs(args.dir, exist_ok=True)
        for name, text in workload.generate(args.seed).items():
            with open(os.path.join(args.dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    import numpy
    import tropom.cli  # noqa: F401  (the import is part of set-up)

    inputs = load_inputs(args.dir)
    result = {"ready": time.monotonic(), "numpy": numpy.__version__}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        records, outputs, wall = run_pass(workload, inputs, tracer)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["wall_s"] = wall
        if tracer:
            result["per_layer"] = tracer.per_layer()
            result["uncovered_share"] = (wall - tracer.covered()) / wall
        judge(workload, frozen(args.workload, args.seed), inputs, outputs, records)
        result["steps"] = records
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
