"""Self-test of the harness on small shapes; finishes in seconds.

    python3 perfbench/selftest.py

Run from a checkout root.  The four pipelines run at (2,3)/(3,3) with every
invariant check, untraced and traced; corrupted outputs must be caught.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from sample import judge, run_pass  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Census, Verdict, Witness  # noqa: E402

SMALL = {
    "verdict-6x4": Verdict(3, 3),
    "verdict-3x5": Verdict(2, 3, reconstruct=True),
    "census-4x3": Census(3, 3, samples=8),
    "witness": Witness(3, 3, removed=3, added=2),
}
SEED = 11


def error_rate(records: list[dict]) -> float:
    return sum(bool(r["why"]) for r in records) / len(records)


class Pipelines(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.runs = {}
        for name, workload in SMALL.items():
            inputs = workload.generate(SEED)
            records, outputs, _ = run_pass(workload, inputs)
            cls.runs[name] = (workload, inputs, records, outputs)

    def test_every_step_passes_its_checks(self) -> None:
        for name, (workload, inputs, records, outputs) in self.runs.items():
            judge(workload, None, inputs, outputs, records)
            with self.subTest(workload=name):
                self.assertEqual([r["why"] for r in records if r["why"]], [])
                self.assertEqual(error_rate(records), 0.0)

    def corrupted(self, name: str, step: str, text: str) -> list[dict]:
        workload, inputs, records, outputs = self.runs[name]
        records = [dict(r, why="") for r in records]
        judge(workload, None, inputs, dict(outputs, **{step: text}), records)
        return records

    def test_corrupted_outputs_raise_error_rate(self) -> None:
        census_inputs, census = self.runs["census-4x3"][1], self.runs["census-4x3"][3]
        first = sorted(census_inputs)[0].removesuffix(".json")
        tiling = json.loads(census[f"{first}/from-tom"])
        tiling["cells"] = tiling["cells"][1:]
        report = json.loads(self.runs["witness"][3]["check-added"])
        report["ok"] = True
        cases = [
            ("census-4x3", f"{first}/from-tom", json.dumps(tiling)),
            ("census-4x3", f"{first}/to-tom", census[f"{sorted(census_inputs)[1][:-5]}/to-tom"]),
            ("census-4x3", f"{first}/render", "<svg"),
            ("witness", "check-added", json.dumps(report)),
            ("verdict-3x5", "reconstruct-topes", self.runs["verdict-3x5"][3]["topes"]),
            ("verdict-6x4", "check", '{"ok": false}'),
        ]
        for name, step, text in cases:
            with self.subTest(workload=name, step=step):
                records = self.corrupted(name, step, text)
                self.assertGreater(error_rate(records), 0.0)
                self.assertTrue(next(r for r in records if r["id"] == step)["why"])

    def test_frozen_digest_mismatch_is_a_failure(self) -> None:
        workload, inputs, records, outputs = self.runs["verdict-6x4"]
        records = [dict(r, why="") for r in records]
        frozen = {"sha256": {r["id"]: r["sha256"] for r in records}}
        frozen["sha256"]["dual"] = "0" * 64
        judge(workload, frozen, inputs, outputs, records)
        self.assertEqual([r["id"] for r in records if r["why"]], ["dual"])

    def test_traced_pass_prints_the_same_and_counts(self) -> None:
        for name, (workload, inputs, records, _) in self.runs.items():
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, _ = run_pass(workload, inputs, tracer)
            finally:
                tracer.uninstall()
            with self.subTest(workload=name):
                self.assertEqual([r["sha256"] for r in traced], [r["sha256"] for r in records])
                layer = tracer.per_layer()
                self.assertEqual(layer["cli.steps"], len(records))
                self.assertEqual(layer["cli.calls"], len(records))
                if isinstance(workload, Verdict):
                    want = math.comb(workload.n + workload.d - 2, workload.n - 1)
                    self.assertEqual(layer["arrangement.vertices"], want)
                if isinstance(workload, Witness):
                    self.assertGreater(layer["axioms.surrounding_violations"], 0)
                self.assertGreaterEqual(layer["axioms.check_elimination_s"], 0.0)


class Entry(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self) -> None:
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        os.makedirs(bare, exist_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "witness",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
