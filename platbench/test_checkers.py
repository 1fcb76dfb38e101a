#!/usr/bin/env python3
"""Shows that the benchmark's output checks can fail.

    python3 platbench/test_checkers.py

Runs short benchmark runs, each with one fault injected into what the
benchmark observes (--inject), and expects every one of them to come back
as a reported failure: `"correct": false` in the JSON result and a nonzero
exit code. A clean run of the same length must pass, so the failures are
the injections' doing.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(workload, inject=None, seconds=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


class CheckersFail(unittest.TestCase):
    def assertReportedFailure(self, workload, inject, expect_in_stderr):
        code, result, err = bench(workload, inject)
        self.assertIsNotNone(result, "no JSON result; stderr:\n" + err[-2000:])
        self.assertFalse(result["correct"], inject)
        self.assertNotEqual(code, 0, inject)
        self.assertIn(expect_in_stderr, err)

    def test_clean_run_passes(self):
        code, result, err = bench("serve")
        self.assertIsNotNone(result, err[-2000:])
        self.assertTrue(result["correct"], err[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(code, 0)

    def test_corrupted_checksum(self):
        self.assertReportedFailure("serve", "corrupt-reply", "expected")

    def test_lost_reply(self):
        self.assertReportedFailure("serve", "lose-reply", "no reply")

    def test_handler_throws(self):
        self.assertReportedFailure("serve", "throw-handler", "NullPointerException")

    def test_hostile_thread_left_alive(self):
        self.assertReportedFailure("churn", "leave-hostile", "still alive")

    def test_wrong_spec_checksum(self):
        self.assertReportedFailure("spec", "corrupt-spec", "spec.compress")


if __name__ == "__main__":
    unittest.main(verbosity=2)
