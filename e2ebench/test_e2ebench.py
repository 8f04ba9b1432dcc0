#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (about a minute after the build).

  python3 e2ebench/test_e2ebench.py

Checks, for every workload, that an untraced and a traced run pass their
oracles and emit exactly the metrics BENCHMARK.json names; that a dropped
answer fails the run; and that without the library sources the benchmark
exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, cwd=ROOT, script=BENCH_DIR / "run.py"):
    done = subprocess.run([sys.executable, str(script), *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = run("--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace),
                          "--size", "smoke")
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"])
            self.assertIsInstance(value["value"], (int, float))
            if not trace:
                self.assertGreater(value["value"], 0, m["name"])
        report = json.loads(lines[-2])
        for key in ("nproc", "cpu_model", "compiler", "build_type",
                    "revision", "seed", "threads"):
            self.assertIn(key, report["stamp"])
        return report["metrics"]

    def test_batch_winmove_serial(self):
        named = self.check("batch_winmove_serial", 0)
        self.assertLessEqual({"pipeline_s", "setup_s", "peak_rss_mb",
                              "fail_rate"}, set(named))
        self.check("batch_winmove_serial", 1)

    def test_batch_transfer_par4(self):
        named = self.check("batch_transfer_par4", 0)
        self.assertLessEqual({"pipeline_s", "setup_s", "peak_rss_mb",
                              "fail_rate", "snapshot_mb"}, set(named))
        self.check("batch_transfer_par4", 1)

    def test_serve_mixed(self):
        named = self.check("serve_mixed", 0)
        self.assertLessEqual({"setup_s", "peak_rss_mb", "fail_rate",
                              "queries_per_s", "sg_query_p50_ms",
                              "sg_query_p90_ms", "win_query_p50_ms",
                              "win_query_p90_ms"}, set(named))
        self.check("serve_mixed", 1)

    def test_wrong_answer_fails_the_run(self):
        for workload in ("batch_winmove_serial", "batch_transfer_par4",
                         "serve_mixed"):
            code, lines = run("--workload", workload, "--seed", "7",
                              "--seconds", "0.5", "--size", "smoke",
                              "--corrupt-one-answer")
            self.assertEqual(code, 1, workload)
            result = json.loads(lines[-1])
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)

    def test_no_sources_no_result(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
        try:
            code, lines = run("--workload", "serve_mixed", "--seed", "1",
                              "--seconds", "1", cwd=bare,
                              script=bare / BENCH_DIR.name / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
