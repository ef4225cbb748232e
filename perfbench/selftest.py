"""Fast self-test of the benchmark (stdlib only).

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, traced and untraced, and checks
the output contract: every metric named in BENCHMARK.json is present
with its unit, no op fails, and the run record carries the seed, commit,
versions and sample counts.  Also checks that the plain-Python reference
agrees with the test oracles, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import wordpower  # noqa: E402
from wordpower import verify  # noqa: E402

RECORD_FIELDS = ("seed", "git_commit", "src_sha256", "python", "numpy", "nproc",
                 "latency_samples", "tail_percentile", "tail_samples_beyond", "failed_frac")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


class ContractTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_names_every_metric(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, spans.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(spans.SUITES), verify.suite_names())

    def test_every_workload_at_tiny_scale(self):
        for name in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = bench("--workload", name, "--seed", "7", "--seconds", "0.5",
                                 "--trace", str(trace), "--tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.splitlines()
                    record, result = json.loads(lines[-2]), json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(record["failed_frac"], 0)
                    for field in RECORD_FIELDS:
                        self.assertIn(field, record)
                    self.assertEqual(record["seed"], 7)
                    expected = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = bench("--workload", "scan", "--seconds", "1", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class ReferenceTest(unittest.TestCase):
    def test_find_power_matches_the_oracle(self):
        rng = random.Random(0)
        for _ in range(300):
            word = "".join(rng.choice("01") for _ in range(rng.randrange(1, 40)))
            for threshold, strict in ((Fraction(2), True), (Fraction(7, 3), False), (Fraction(1), False)):
                self.assertEqual(reference.find_power(word, threshold, strict),
                                 oracles.find_power(word, threshold, strict), (word, threshold, strict))

    def test_factorizations_match_the_package(self):
        word_a = wordpower.word_a(400)
        for start in range(0, 300, 7):
            factor = word_a[start : start + 40]
            expected = [(f.head, f.core, f.tail) for f in wordpower.factorize(factor)]
            self.assertEqual(reference.factorizations(factor, Fraction(7, 3)), expected)

    def test_atlas_table_matches_the_package(self):
        table = reference.atlas_table(200)
        self.assertEqual(sorted(table), sorted(wordpower.atlas_members(200)))
        for word, (family, level, base) in table.items():
            self.assertEqual(wordpower.atlas_membership(word), wordpower.AtlasMembership(family, level, base))


if __name__ == "__main__":
    unittest.main()
