"""Tests of the benchmark itself.

    python3 perfbench/check_bench.py

They are named so that the repository's own test run does not collect
them.  A smoke run of every workload takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_and_reports_its_metrics(self):
        names = {"end_to_end": [m["name"] for m in SPEC["end_to_end"]],
                 "per_layer": [m["name"] for m in SPEC["per_layer"]]}
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    child = bench("--workload", workload, "--seed", "3",
                                  "--seconds", "0.3", "--trace", trace)
                    self.assertEqual(child.returncode, 0, child.stderr)
                    result = json.loads(child.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], child.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(names[kind]))

    def test_without_the_program_it_fails_and_prints_no_result(self):
        os.makedirs(run.RUN_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("_run", "__pycache__"))
            child = bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        self.assertNotEqual(child.returncode, 0)
        self.assertEqual(child.stdout, "")


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_every_input_distinct(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.generate(workload, 5, 40, os.path.join(run.RUN_DIR, "a"))
                second = workloads.generate(workload, 5, 40, os.path.join(run.RUN_DIR, "b"))
                self.assertEqual([j.data for j in first], [j.data for j in second])
                keys = [json.dumps(j.data) if j.data else " ".join(j.argv) for j in first]
                self.assertEqual(len(set(keys)), len(keys))


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.package = run.import_liecoh()

    def first_job(self, workload, command, fmt):
        for job in workloads.generate(workload, 7, 60, os.path.join(run.RUN_DIR, "oracle")):
            if job.command == command and job.fmt == fmt and job.data is not None:
                return job
        raise AssertionError(f"no {command} {fmt} job in {workload}")

    def judge(self, job, out):
        return run.check(self.package, [job], [(0, False, 0, out, 0.1)])

    def test_correct_outputs_pass(self):
        for workload, command, fmt in (("profile-heis", "profile", "json"),
                                       ("profile-diamond", "profile", "table"),
                                       ("cocycles", "cocycles", "json"),
                                       ("ingest", "betti", "csv")):
            with self.subTest(workload=workload, fmt=fmt):
                job = self.first_job(workload, command, fmt)
                code, out, _ = run.run_job(self.package.cli, job.argv)
                self.assertEqual(code, 0)
                self.assertEqual(self.judge(job, out), [])

    def test_a_flipped_betti_number_is_counted_as_failed(self):
        job = self.first_job("profile-heis", "profile", "json")
        _, out, _ = run.run_job(self.package.cli, job.argv)
        doc = json.loads(out)
        doc["betti"][3] += 1
        self.assertEqual(len(self.judge(job, json.dumps(doc))), 1)
        job = self.first_job("ingest", "betti", "table")
        _, out, _ = run.run_job(self.package.cli, job.argv)
        self.assertEqual(len(self.judge(job, f"{int(out) + 1}\n")), 1)

    def test_a_representative_that_is_not_closed_is_counted_as_failed(self):
        job = self.first_job("cocycles", "cocycles", "json")
        _, out, _ = run.run_job(self.package.cli, job.argv)
        doc = json.loads(out)
        names = job.data.get("labels") or [f"e{k}" for k in range(job.data["dim"])]
        exterior, cochain = self.package.exterior, self.package.cochain
        algebra = self.package.lie_algebra.algebra_from_json(job.data)
        for key in exterior.basis(algebra.dim, job.degree):
            form = exterior.ExteriorForm(algebra.dim, job.degree, {key: 1})
            if not cochain.apply_coboundary(algebra, form).is_zero():
                break
        doc["representatives"][0] = exterior.format_form(form, names)
        self.assertEqual(len(self.judge(job, json.dumps(doc))), 1)
        doc["representatives"] = doc["representatives"][1:]
        doc["betti"] -= 1
        self.assertEqual(len(self.judge(job, json.dumps(doc))), 1)


class TracerTest(unittest.TestCase):
    def test_self_times_partition_the_job_and_uninstall_restores(self):
        package = run.import_liecoh()
        original = package.cochain.basis
        self.assertIs(original, package.exterior.basis)
        tracer = tracing.Tracer(package)
        job = workloads.generate("cocycles", 1, 1, os.path.join(run.RUN_DIR, "trace"))[0]
        tracer.begin(0)
        self.assertIsNot(package.cochain.basis, original)
        self.assertIsNot(package.exterior.basis, original)
        run.run_job(package.cli, job.argv)
        elapsed = tracer.end()
        self.assertIs(package.cochain.basis, original)
        self.assertIs(package.exterior.basis, original)
        totals = tracer.self_times()
        self.assertAlmostEqual(sum(totals.values()), elapsed, delta=1e-6 * len(tracer.spans))
        self.assertGreater(tracer.counts["scalars.allocs"], 0)
        self.assertGreater(tracer.counts["linalg.span_adds"], 0)
        self.assertGreater(totals["linalg.rref"], 0)


if __name__ == "__main__":
    unittest.main()
