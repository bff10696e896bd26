"""Tests of the benchmark's result format, metric table and checks.

    python3 -m unittest discover -s perfbench/tests -v

Builds perfbench_run and its C++ self-tests on first use (see run.py).
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def good_line(units):
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {n: {"value": 1.5, "unit": u} for n, u in units.items()}})


class MetricTableTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = run.build(["perfbench_run", "perfbench_selftest"])
        cls.build_dir = out
        cls.tables = run.list_metrics(out / "perfbench_run")

    def test_names_and_units_parse_and_match_benchmark_json(self):
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            self.assertEqual(declared, self.tables[section], section)
            for name, unit in declared.items():
                self.assertRegex(name, run.NAME_RE)
                self.assertRegex(unit, run.UNIT_RE)

    def test_setup_metric_is_declared(self):
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}])

    def test_result_line_validation(self):
        units = self.tables["end_to_end"]
        self.assertTrue(run.validate_result(good_line(units), units)["correct"])
        missing = dict(units)
        missing.pop("setup_s")
        with self.assertRaises(ValueError):
            run.validate_result(good_line(missing), units)
        wrong_unit = dict(units, setup_s="ms")
        with self.assertRaises(ValueError):
            run.validate_result(good_line(wrong_unit), units)
        with self.assertRaises(ValueError):
            run.validate_result(good_line(units).replace("1.5", "NaN", 1), units)

    def test_cpp_checks(self):
        # Dropped, duplicated and altered envelopes and a broken chain each
        # fail the run; the port picker retries past a taken port.
        proc = subprocess.run([str(self.build_dir / "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run([str(self.build_dir / "perfbench_run"), "--workload", "nope",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
