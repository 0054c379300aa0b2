"""Smoke test of the benchmark itself, at reduced sizes (a few seconds).

Usage: python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, result: dict, spec: list) -> None:
        self.assertEqual(
            {name: metric["unit"] for name, metric in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in spec},
        )

    def test_end_to_end_metrics_for_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run.run_workload(workload, SEED, 0.1, False, sizes=run.SMOKE)
                self.assertTrue(result["correct"], result["failures"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], len(result["commands"]))
                self.assert_metrics(result, SPEC["end_to_end"])

    def test_traced_run_emits_every_layer_metric_and_exact_counts(self):
        result = run.run_workload("sweep", SEED, 0.1, True, sizes=run.SMOKE)
        self.assertTrue(result["correct"], result["failures"])
        self.assert_metrics(result, SPEC["per_layer"])
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        counts = probe.partition_counts(run.SMOKE.sweep_n)
        self.assertEqual(values["partitions.count"], sum(counts))
        self.assertEqual(values["statistics.cells"], sum(n * c for n, c in enumerate(counts)))
        self.assertEqual(values["explorer.pairs"], run.SMOKE.match_n * counts[run.SMOKE.match_n])
        self.assertGreater(result["self_s"]["statistics"], 0)  # spans from the pool workers
        for span in result["spans"]:
            self.assertEqual((span["workload"], span["seed"]), ("sweep", SEED))
            self.assertLessEqual(span["start"], span["end"])

    def test_corrupted_digest_counts_as_a_failed_command(self):
        digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        broken = run.key(run.commands("series", run.SMOKE, SEED)[0])
        digests[broken] = dict(digests[broken], sha256="0" * 64)
        result = run.run_workload("series", SEED, 0.1, False, sizes=run.SMOKE, digests=digests)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertEqual({f["command"] for f in result["failures"]}, {broken})

    def test_seed_picks_variants_and_order_deterministically(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.commands(workload, run.FULL, 7), run.commands(workload, run.FULL, 7))
        seen = {tuple(map(tuple, run.commands("series", run.FULL, seed))) for seed in range(20)}
        self.assertGreater(len(seen), 1)


if __name__ == "__main__":
    unittest.main()
