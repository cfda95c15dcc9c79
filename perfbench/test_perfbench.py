#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/test_perfbench.py          # from the repo root

Builds the perfbench binary like run.py does (into $CARGO_TARGET_DIR, default
.bench_build) and checks, at smoke sizes:
  * every workload emits every metric BENCHMARK.json names, with its unit,
    and fails no op;
  * a seed repeats exactly, and meta_failover's fault schedule follows the
    seed;
  * ckpt_n1 in fig4's configuration reproduces fig4's ParallelRead cells;
  * the benchmark exits non-zero without a result where the simulator
    sources are missing.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

WORKLOADS = ["ckpt_n1", "nn_storm", "cb_kernels", "meta_failover"]


@functools.lru_cache(maxsize=None)
def executable():
    exe = run.build()
    if exe is None:
        raise RuntimeError("perfbench build failed")
    return exe


def perfbench(*args):
    out = subprocess.run([executable()] + list(args), stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def smoke(workload, seed, trace=0):
    return perfbench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--smoke")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        executable()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_py(self, workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, workload)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric_and_fails_nothing(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_py(workload, 7, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.assertEqual(result["metrics"]["fail_ratio"]["value"], 0)
                        self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"], 0)
                    else:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_seed_repeats_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = smoke(workload, 3)
                b = smoke(workload, 3, trace=1)
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                # The traced iteration matched the untraced ones too.
                self.assertEqual(b["failed"], 0)
                self.assertEqual(a["config"], b["config"])

    def test_seeds_change_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = smoke(workload, 3), smoke(workload, 4)
                self.assertNotEqual(a["config"], b["config"])
                self.assertNotEqual(a["metrics"]["sim_total_s"], b["metrics"]["sim_total_s"])

    def test_failover_fault_schedule_follows_the_seed(self):
        a, b = smoke("meta_failover", 1), smoke("meta_failover", 2)
        self.assertNotEqual(a["config"]["fault_plan"], b["config"]["fault_plan"])
        for r in (a, b):
            self.assertIn("server_outage=", r["config"]["fault_plan"])
        # The schedules differ in effect, not just in spelling.
        faults = [
            {k: v for k, v in r["fingerprint"].items()
             if k.startswith(("counter.plfs.fault.", "counter.raft."))}
            for r in (a, b)
        ]
        self.assertTrue(faults[0] and faults[1])
        self.assertNotEqual(faults[0], faults[1])

    def test_ckpt_in_fig4_configuration_reproduces_fig4_parallel_read_cells(self):
        # bench/fig4_read_scaling --max-streams=128 --json=..., row 128:
        # read_open_s.parallel_read, read_bw_mbps.parallel_read,
        # write_close_s.noflatten, write_bw_mbps.noflatten.
        cells = perfbench("--fig4", "128")
        self.assertEqual(cells, {"streams": 128, "read_open_s": 0.146866,
                                 "read_bw_mbps": 1150.129, "write_close_s": 0.065343,
                                 "write_bw_mbps": 1137.052})

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(run.build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ckpt_n1", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
