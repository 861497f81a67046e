"""Freeze the default-seed output digests into ``expected.json``.

    python3 perfbench/freeze.py

Run from a checkout root, only when the program's output is meant to
change.  Every invariant check must pass before anything is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import prepare_inputs, sample_env  # noqa: E402
from sample import EXPECTED, judge, load_inputs, run_pass  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Witness, violation_counts  # noqa: E402


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    frozen = {}
    for name, workload in WORKLOADS.items():
        args = argparse.Namespace(workload=name, seed=DEFAULT_SEED)
        inputs = load_inputs(prepare_inputs(root, args, sample_env(root)))
        records, outputs, _ = run_pass(workload, inputs)
        judge(workload, None, inputs, outputs, records)
        bad = [f"{r['id']}: {r['why']}" for r in records if r["why"]]
        if bad:
            print(f"{name}: refusing to freeze failing outputs: {bad[:5]}", file=sys.stderr)
            return 1
        entry = {"sha256": {r["id"]: r["sha256"] for r in records}}
        if isinstance(workload, Witness):
            entry["violations"] = {r["id"]: violation_counts(outputs[r["id"]]) for r in records}
        frozen[name] = entry
        print(f"{name}: {len(records)} steps frozen", file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": frozen}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
