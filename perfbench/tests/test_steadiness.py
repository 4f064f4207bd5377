"""Tests of the benchmark's own scripts: the steadiness aggregation and the
runner's refusal to run without the simulator's sources.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import steadiness  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_fixed_sample(self):
        st = steadiness.summarize([6.0, 1.0, 3.0, 4.0, 2.0, 7.0])
        self.assertEqual(st["n"], 6)
        self.assertEqual(st["median"], 3.5)
        self.assertEqual((st["q1"], st["q3"]), (1.75, 6.25))
        self.assertEqual((st["min"], st["max"]), (1.0, 7.0))
        self.assertAlmostEqual(st["spread"], 4.5 / 3.5)
        self.assertAlmostEqual(st["range"], 6.0 / 3.5)

    def test_odd_sample(self):
        st = steadiness.summarize([1.12, 0.93, 0.91, 1.0, 0.92])
        self.assertAlmostEqual(st["median"], 0.93)
        self.assertAlmostEqual(st["q1"], 0.915)
        self.assertAlmostEqual(st["q3"], 1.06)

    def test_report_line(self):
        m = steadiness.SUMMARY_LINE.match(
            "  serial_wall_s          n=9   median 0.93  q1 0.9  q3 1  "
            "min 0.8  max 1.1  reported 0.81")
        self.assertEqual(m.group(1, 2, 3, 4),
                         ("serial_wall_s", "9", "0.93", "0.81"))


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_a_result(self):
        workdir = os.path.join(run.build_dir(), "tests")
        os.makedirs(workdir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workdir) as tree:
            shutil.copytree(PERFBENCH, os.path.join(tree, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(os.path.dirname(PERFBENCH),
                                     "BENCHMARK.json"), tree)
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "twolevel", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tree, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
