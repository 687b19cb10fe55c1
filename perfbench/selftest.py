"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes.  The file name
keeps pytest's default collection away from it: these tests run the
benchmark end to end and belong to the benchmark, not to the package's
test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300
    )


def declared() -> dict[str, set[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"] for m in spec["end_to_end"]},
        "per_layer": {m["name"] for m in spec["per_layer"]},
        "workloads": {w["name"] for w in spec["workloads"]},
    }


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                first = workloads.OpStream(w, 7).take(400)
                self.assertEqual(first, workloads.OpStream(w, 7).take(400))
                self.assertNotEqual(first, workloads.OpStream(w, 8).take(400))
                self.assertEqual(workloads.fixed_ops(w, 7), workloads.fixed_ops(w, 7))

    def test_workloads_match_declaration(self):
        self.assertEqual(set(workloads.WORKLOADS), declared()["workloads"])


class CorrectnessCheck(unittest.TestCase):
    def verdict(self, value: complex) -> dict:
        import worker

        tally = worker.Tally(Exception, keep_records=True)
        tally.points = 1
        tally.records.append((("eval", complex(0.5), complex(0.3)), value, 1e-12))
        worker.check_records(tally, 1)
        return worker.verdict(tally)

    def test_value_within_its_bound_is_correct(self):
        import reference

        res = self.verdict(reference.li(complex(0.5), complex(0.3)))
        self.assertEqual((res["correct"], res["failed"], res["detail"]["checked"]), (True, 0, 1))

    def test_value_outside_its_bound_fails(self):
        res = self.verdict(complex(0.0))
        self.assertEqual((res["correct"], res["failed"], res["detail"]["failures"]), (True, 1, {"bound": 1}))
        self.assertEqual(len(res["detail"]["outside_err_estimate"]), 1)

    def test_broken_interface_is_incorrect(self):
        import worker

        tally = worker.Tally(ValueError)
        tally.add(("eval", complex(0.5), complex(0.3)), TypeError("untyped"))
        res = worker.verdict(tally)
        self.assertEqual((res["correct"], res["failed"]), (False, 1))


class ProcessIsolation(unittest.TestCase):
    def worker(self, mode: str) -> dict:
        proc = run([os.path.join(HERE, "worker.py"), "--workload", "point", "--seed", "3", "--mode", mode])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_untraced_process_runs_original_functions(self):
        self.assertEqual(self.worker("fixed")["env"]["patched"], 0)

    def test_traced_process_patches_every_layer(self):
        res = self.worker("traced")
        self.assertEqual(res["absent"], [])
        self.assertEqual(set(res["spans"]), set(tracer.SPAN_NAMES))
        self.assertGreater(res["env"]["patched"], len(tracer.SPAN_NAMES))


class PrintedMetrics(unittest.TestCase):
    def result(self, workload: str, trace: int) -> dict:
        proc = run(
            ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_printed_metric_is_declared(self):
        spec = declared()
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.result(w, 0)["metrics"]
                self.assertEqual(set(metrics), spec["end_to_end"])
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)
        self.assertEqual(set(self.result("point", 1)["metrics"]), spec["per_layer"])

    def test_counts_do_not_depend_on_the_time_limit(self):
        # both modes count the same fixed prefix of the seeded stream
        untraced = self.result("cover", 0)
        traced = self.result("cover", 1)
        self.assertEqual(untraced["attempted"], workloads.FIXED_OPS["cover"])
        self.assertEqual(
            (untraced["attempted"], untraced["failed"], untraced["correct"]),
            (traced["attempted"], traced["failed"], traced["correct"]),
        )

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = run(
                ["perfbench/run.py", "--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
