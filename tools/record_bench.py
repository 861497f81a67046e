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
A workload whose result is not correct, or has failed steps, is
named with its first failure, and no file is written (exit 1).  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

SEED = 7


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
    path = f"BENCH_{args.number}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
