"""Tests of the benchmark itself (stdlib unittest; pytest also collects them).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, Request, build_requests  # noqa: E402


def _worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class RequestListTest(unittest.TestCase):
    def test_same_seed_gives_identical_argv_lists(self):
        for workload in WORKLOADS:
            first = [r.argv for r in build_requests(workload, 7, 20)]
            again = [r.argv for r in build_requests(workload, 7, 20)]
            other = [r.argv for r in build_requests(workload, 8, 20)]
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_generators_avoid_known_failures(self):
        for workload in WORKLOADS:
            for seed in range(20):
                for req in build_requests(workload, seed, 20):
                    self.assertFalse(workloads._known_failure(req.argv), req.argv)
        for argv in KNOWN_FAILURES:
            self.assertTrue(workloads._known_failure(argv), argv)


class TracingTest(unittest.TestCase):
    def test_traced_and_untraced_runs_print_identical_tables(self):
        for workload in ("tables", "fourier"):
            common = ("--workload", workload, "--seed", "3", "--seconds", "1")
            plain = _worker(*common)
            traced = _worker(*common, "--trace")
            self.assertEqual(plain["failed"], 0, plain["failures"])
            self.assertEqual(plain["output_sha256"], traced["output_sha256"], workload)
            self.assertGreater(traced["layers"]["cli.main"]["calls"], 0)
            self.assertEqual(traced["missing_layers"], [])


class FailureAccountingTest(unittest.TestCase):
    def test_known_failures_are_counted_and_the_run_completes(self):
        sys.path.insert(0, str(ROOT / "src"))
        from deltabox import cli

        from worker import run

        ok = Request(("ratio", "--nu", "3.5", "--x0", "rational:2/5"), "point")
        crash = Request(KNOWN_FAILURES[0], "mid")
        result = run(cli, "tables", [ok, crash, ok])
        self.assertEqual(result["requests"], 3)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["failures"][0]["argv"], list(crash.argv))
        self.assertIn("RuntimeError", result["failures"][0]["reason"])

        argv = KNOWN_FAILURES[1]
        params = {"alpha": 0.0, "N": int(argv[4]), "count": int(argv[6])}
        result = run(cli, "oracle", [Request(argv, "N1023", params)])
        self.assertEqual(result["failed"], 1)
        self.assertIn("relative energy error", result["failures"][0]["reason"])


if __name__ == "__main__":
    unittest.main()
