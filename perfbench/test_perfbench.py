#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Builds vsbench through run.py, then checks that a short run of every
workload prints every metric BENCHMARK.json names with its unit, that the
vsbench's own checks hold (traced and untraced runs simulate the same thing,
cluster_chaos and obs_replay agree, the pinned digests match, a perturbed
result trips them), that the benchmark refuses to run without the library
sources, and that compare.py refuses runs from different host contexts.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
COMPARE = os.path.join(ROOT, "perfbench", "compare.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# End-to-end metrics each workload prints on its `e2e` lines besides the
# ones BENCHMARK.json names.
EXTRA_E2E = {
    "board_sweep": {"speedup_vs_baseline": "x", "lut_util": "fraction",
                    "ff_util": "fraction"},
    "serve_mt": {"slo_attainment": "fraction"},
}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def lines_of(stdout, kind):
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == kind:
            found[parts[1]] = (float(parts[2]), parts[3])
    return found


class BenchmarkTest(unittest.TestCase):
    def smoke(self, workload, trace):
        proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return proc.stdout, result

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout, result = self.smoke(workload, 0)
                printed = lines_of(stdout, "e2e")
                wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
                self.assertEqual({k: v["unit"]
                                  for k, v in result["metrics"].items()},
                                 wanted)
                wanted.update(EXTRA_E2E.get(workload, {}))
                wanted["failed_ratio"] = "fraction"
                for name, unit in wanted.items():
                    self.assertIn(name, printed)
                    self.assertEqual(printed[name][1], unit, name)
                for m in BENCHMARK["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                self.assertEqual(printed["failed_ratio"][0], 0)

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout, result = self.smoke(workload, 1)
                wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
                self.assertEqual({k: v["unit"]
                                  for k, v in result["metrics"].items()},
                                 wanted)
                metrics = result["metrics"]
                self.assertGreater(metrics["sim.events"]["value"], 0)
                self.assertGreater(metrics["runtime.items_executed"]["value"], 0)
                self.assertIn("trace.overhead_s", lines_of(stdout, "layer"))
                self.assertIn("sim.step", lines_of(stdout, "self"))

    def test_layers_report_where_they_work(self):
        stdout, sweep = self.smoke("board_sweep", 1)
        self.assertIn("policy.on_pass_s", lines_of(stdout, "layer"))
        self.assertEqual(sweep["metrics"]["serve.arrivals"]["value"], 0)
        _, serve = self.smoke("serve_mt", 1)
        self.assertGreater(serve["metrics"]["serve.arrivals"]["value"], 0)
        self.assertGreater(serve["metrics"]["serve.rejected"]["value"], 0)
        # serve_mt injects no faults, so the fault plane does no work.
        self.assertEqual(serve["metrics"]["cluster.availability"]["value"], 0)
        stdout, obs = self.smoke("obs_replay", 1)
        self.assertIn("obs.run_overhead_s", lines_of(stdout, "layer"))
        self.assertGreater(obs["metrics"]["obs.export_bytes"]["value"], 0)
        # Crashes take boards down for part of the simulated span.
        availability = obs["metrics"]["cluster.availability"]["value"]
        self.assertGreater(availability, 0)
        self.assertLess(availability, 0.999)

    def test_vsbench_self_test(self):
        proc = run("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-test ok", proc.stdout)

    def test_refuses_to_run_without_the_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve_mt",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_compare_refuses_across_host_contexts(self):
        result = ('{"correct": true, "attempted": 1, "failed": 0, "metrics": '
                  '{"wall_s": {"value": 1.0, "unit": "s"}}}\n')
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            paths = []
            for nproc in (4, 1):
                path = os.path.join(d, "runs-%d.txt" % nproc)
                context = {"workload": "serve_mt", "trace": 0, "seconds": 10,
                           "nproc": nproc, "cpu_model": "x", "compiler": "y",
                           "build_type": "RelWithDebInfo", "sweep_workers": 4,
                           "vs_log": "warn"}
                with open(path, "w") as f:
                    f.write("context " + json.dumps(context) + "\n" + result)
                paths.append(path)
            same = subprocess.run([sys.executable, COMPARE, paths[0], paths[0]],
                                  capture_output=True, text=True)
            self.assertEqual(same.returncode, 0, same.stdout + same.stderr)
            mixed = subprocess.run([sys.executable, COMPARE, *paths],
                                   capture_output=True, text=True)
            self.assertEqual(mixed.returncode, 2)
            self.assertIn("nproc differs", mixed.stdout)


if __name__ == "__main__":
    unittest.main()
