"""Self-tests of the benchmark: quick runs, and checks that reject corrupted results.

    python3 perfbench/selftest.py

The quick mode runs every workload on tiny inputs.  The corruption tests take
real outputs of a quick pass, alter one result value, and require the
matching check in oracle.py to reject it; the program itself is not touched.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest

import oracle
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuickRuns(unittest.TestCase):
    def test_every_workload_runs_and_passes_its_checks(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--quick")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = last_json(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], run.MIN_PASSES)
                self.assertEqual(set(result["metrics"]), names)

    def test_traced_run_prints_every_per_layer_metric(self):
        proc = bench("--workload", "accept-grid", "--seed", "3", "--seconds", "1", "--trace", "1", "--quick")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = last_json(proc)["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})
        self.assertGreater(metrics["fields.evaluate_calls"]["value"], 0)
        self.assertGreater(metrics["f2cohomology.products"]["value"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = run.RESULTS / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "clifford-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.RESULTS.mkdir(exist_ok=True)
        cls.accept = run.run_pass("accept-grid", 5, True, False)["outputs"]
        cls.ladder = run.run_pass("clifford-ladder", 5, True, False)["outputs"]
        cls.sweep = run.run_pass("obstruction-sweep", 5, True, False)["outputs"]

    def corrupt_report(self, edit) -> str:
        report = json.loads(self.accept["report"])
        edit(report["cases"][-1])
        return json.dumps(report, indent=2) + "\n"

    def test_real_outputs_pass(self):
        self.assertEqual(oracle.check_accept(self.accept["verdict"], self.accept["report"]), [])
        for row in self.ladder:
            self.assertEqual(oracle.check_clifford(row), [])
        for row in self.sweep:
            self.assertEqual(oracle.check_obstruction(row, oracle.rendered_total_sw(row["m"], row["n"])), [])

    def test_bound_below_pspan(self):
        def lower(case):
            case["cohomology"]["swUpperBound"] = case["formulas"]["pspan"] - 1

        self.assertTrue(oracle.check_accept(True, self.corrupt_report(lower)))
        row = dict(self.sweep[0], bound=oracle.closed_form(self.sweep[0]["m"], self.sweep[0]["n"]) - 1)
        self.assertTrue(oracle.check_obstruction(row, oracle.rendered_total_sw(row["m"], row["n"])))

    def test_flipped_sign(self):
        def flip(case):
            entry = case["signs"]["entries"][0]
            entry["observed"] = -entry["observed"]

        self.assertTrue(oracle.check_accept(True, self.corrupt_report(flip)))

    def test_failed_verdict(self):
        self.assertTrue(oracle.check_accept(False, self.accept["report"]))

    def test_differing_repeat_report(self):
        report = self.accept["report"]
        self.assertEqual(oracle.check_repeats([report, report]), [])
        changed = report.replace('"minOfMinRelativeSv": ', '"minOfMinRelativeSv": 1', 1)
        self.assertTrue(oracle.check_repeats([report, changed]))

    def test_wrong_total_sw_monomial(self):
        row = copy.deepcopy(self.sweep[-1])
        expected = oracle.rendered_total_sw(row["m"], row["n"])
        monos = row["w"].split(" + ")
        for wrong in (monos[:-1], monos + ["x*c*d"]):
            self.assertTrue(oracle.check_obstruction(dict(row, w=" + ".join(wrong)), expected))

    def test_clifford_identity_and_count(self):
        row = self.ladder[-1]
        for bad in ({"count": row["count"] + 2}, {"verified": False}, {"square": 1e-9}, {"gram": 1e-9}, {"conj": 2.0}):
            self.assertTrue(oracle.check_clifford(dict(row, **bad)), bad)


class Oracle(unittest.TestCase):
    def test_closed_form(self):
        # n+1 = 8 -> nu = 3; n+1 = 12 -> nu = 2
        self.assertEqual(oracle.closed_form(2, 7), 9)
        self.assertEqual(oracle.closed_form(1, 11), 6)

    def test_total_sw_small(self):
        # Q(1, 0): (1+c+x)(1+c) = 1 + x + c^2 + x*c, and c^2 = c*x
        self.assertEqual(oracle.rendered_total_sw(1, 0), {"1", "x"})

    def test_sign_rule(self):
        # nu = 1: A_1 = g1 and A_2 = g2 anticommute with conjugation, A_3 = iT commutes
        self.assertEqual([oracle.clifford_sign(j, 1) for j in (1, 2, 3)], [-1, -1, 1])
        self.assertEqual(oracle.field_sign(4, "tau", 1, 1), -1)
        self.assertEqual(oracle.field_sign(4, "sigma", 1, 1), -1)


if __name__ == "__main__":
    unittest.main()
