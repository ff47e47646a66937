"""Self-test of the benchmark: seeded generation and the output checkers.

    python3 bench/selftest.py

Runs a few small kronq ops in this process, then feeds the checkers both
the real outputs and deliberately corrupted copies.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal
import subprocess
import sys
import time
import unittest
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kronq.cli import main as kronq_main  # noqa: E402
from kronq.model import parse_module  # noqa: E402


def kronq(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert kronq_main(argv) == 0
    return out.getvalue()


def bump(poly: str) -> str:
    """The same polynomial with its leading coefficient raised by one."""
    m = re.match(r"(\d+)\*", poly)
    return f"{int(m.group(1)) + 1}{poly[m.end(1):]}" if m else "2*" + poly


def op(kind, argv, index=0, **info):
    return dict(kind=kind, argv=argv, index=index, **info)


COUNT = op("count", ["count", "-m", "P6 + I1", "-d", "5,3"], summands=[["P", 1, 6], ["I", 1, 1]], dim=[5, 3])
TABLE = op("table", ["table", "-m", "R(p,[3,1]) + R(r@2,[1])", "--format", "json"], fmt="json",
           summands=[["R", 1, 3], ["R", 1, 1], ["R", 2, 1]])
VERIFY = op("verify", ["verify", "-m", "P1 + R(x0,[2,1])", "-p", "2", "--format", "csv"], dim=[5, 4])
HALL = op("hall", ["hall", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"], lam=[3, 2, 1], mu=[2, 1], nu=[2, 1])
HOMEXT = op("homext", ["homext", "-x", "P3 + I2", "-y", "R(p,[2])"], x_dim=[6, 6], y_dim=[2, 2])


class Generation(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            first = list(islice(workloads.stream(name, 7), 40))
            self.assertEqual(first, list(islice(workloads.stream(name, 7), 40)), name)
            self.assertNotEqual(first, list(islice(workloads.stream(name, 8), 40)), name)

    def test_dimensions_agree_with_kronq(self):
        for name in workloads.WORKLOADS:
            for o in islice(workloads.stream(name, 3), 40):
                if "summands" in o:
                    self.assertEqual(checks.dims(o["summands"]), parse_module(o["argv"][2]).dim_vector(), o["argv"])
                if o["kind"] == "verify":
                    self.assertEqual(tuple(o["dim"]), parse_module(o["argv"][2]).dim_vector(), o["argv"])

    def test_tube_table_never_repeats_a_partition(self):
        parts = [o["argv"][2].split(" + ")[0] for o in workloads.stream("tube_table", 1)]
        self.assertEqual(len(parts), 369)
        self.assertEqual(len(set(parts)), 369)


class Checkers(unittest.TestCase):
    def assert_accepts(self, o, out):
        self.assertIsNone(checks.check(o, 0, out), o["argv"])

    def assert_rejects(self, o, out):
        self.assertIsNotNone(checks.check(o, 0, out), o["argv"])

    def test_count(self):
        out = kronq(COUNT["argv"])
        self.assert_accepts(COUNT, out)
        self.assert_rejects(COUNT, bump(out))
        self.assert_rejects(COUNT, out.replace(" + ", " - ", 1))

    def test_table(self):
        out = kronq(TABLE["argv"])
        self.assert_accepts(TABLE, out)
        doc = json.loads(out)
        doc["cells"][7]["polynomial"] = bump(doc["cells"][7]["polynomial"])
        self.assert_rejects(TABLE, json.dumps(doc))
        doc["cells"].pop()
        self.assert_rejects(TABLE, json.dumps(doc))

    def test_table_text_and_csv(self):
        for fmt in ("text", "csv"):
            o = op("table", ["table", "-m", "I7", "--format", fmt], fmt=fmt, summands=[["I", 1, 7]])
            out = kronq(o["argv"])
            self.assert_accepts(o, out)
            self.assert_rejects(o, out.replace("q^2 + ", "q^2 + 5*q + ", 1))

    def test_verify(self):
        out = kronq(VERIFY["argv"])
        self.assert_accepts(VERIFY, out)
        self.assert_rejects(VERIFY, out.replace(",True", ",False", 1))
        self.assert_rejects(VERIFY, "\n".join(out.splitlines()[:-1]) + "\n")

    def test_hall(self):
        out = kronq(HALL["argv"])
        self.assert_accepts(HALL, out)
        self.assert_rejects(HALL, bump(out))

    def test_homext(self):
        out = kronq(HOMEXT["argv"])
        self.assert_accepts(HOMEXT, out)
        self.assert_rejects(HOMEXT, out.replace("hom = ", "hom = 1", 1))

    def test_exit_code_and_digest(self):
        out = kronq(COUNT["argv"])
        self.assertIsNotNone(checks.check(COUNT, 1, out))
        self.assertIsNone(checks.check(COUNT, 0, out, [checks.digest(out)]))
        self.assertIsNotNone(checks.check(COUNT, 0, out, [checks.digest(out + " ")]))


class FailuresDoNotAbort(unittest.TestCase):
    def test_rejected_ops_are_counted_and_the_run_goes_on(self):
        good = kronq(COUNT["argv"])
        ops = [dict(COUNT, index=i) for i in range(6)]

        class Corrupting:
            def run(self, o):
                if o["index"] == 4:
                    return "RecursionError: maximum recursion depth exceeded", 0.01, 0.004, ""
                return 0, 0.01, 0.004, bump(good) if o["index"] % 2 else good

        records = run.execute(iter(ops), Corrupting(), float("inf"))
        self.assertEqual(len(records), 6)
        failed = [r["index"] for r in records if r["error"] is not None]
        self.assertEqual(failed, [1, 3, 4, 5])

    def test_a_dead_worker_is_a_failed_op_and_is_replaced(self):
        runner = run.InProcess.__new__(run.InProcess)
        runner.cmd = [sys.executable, "-c", "import sys; sys.stdin.readline()"]
        runner._start()
        first = runner.proc
        rc, _, _, out = runner.run(COUNT)
        self.assertTrue(rc.startswith("worker died"), rc)
        self.assertIsNotNone(checks.check(COUNT, rc, out))
        self.assertIsNot(runner.proc, first)
        runner.proc.stdin.close()
        runner.proc.wait(timeout=30)

    def test_a_checker_that_raises_fails_the_op(self):
        def broken(o, out):
            raise AssertionError("cancellation left a remainder")

        saved = checks.CHECKERS["count"]
        checks.CHECKERS["count"] = broken
        try:
            self.assertIn("AssertionError", checks.check(COUNT, 0, kronq(COUNT["argv"])))
        finally:
            checks.CHECKERS["count"] = saved

    def test_cold_peak_rss_counts_only_its_own_ops(self):
        subprocess.run([sys.executable, "-c", "b = bytearray(80 << 20)"], check=True)
        runner = run.Cold()
        rc, _, _, out = runner.run(COUNT)
        self.assertIsNone(checks.check(COUNT, rc, out))
        self.assertLess(runner.close()["maxrss_kb"], 60 << 10)

    def test_worker_turns_crashes_and_timeouts_into_failed_ops(self):
        def crash(argv):
            raise RecursionError("maximum recursion depth exceeded")

        self.assertTrue(worker._run(crash, [])["rc"].startswith("RecursionError"))
        old = signal.signal(signal.SIGALRM, worker._alarm)
        limit, worker.OP_TIMEOUT_S = worker.OP_TIMEOUT_S, 0.05
        try:
            self.assertTrue(worker._run(lambda argv: time.sleep(5), [])["rc"].startswith("timeout"))
        finally:
            worker.OP_TIMEOUT_S = limit
            signal.signal(signal.SIGALRM, old)


if __name__ == "__main__":
    unittest.main()
