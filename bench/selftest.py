"""Self-test of the benchmark harness.

Run from the root of the checkout:

    python3 bench/selftest.py

It checks the span self-time arithmetic, the speed calibration and that its
profiling timer comes off, that the wrappers come off after a traced run, that BENCHMARK.json names the metrics the harness reports, that
the harness refuses a directory without the program, and it runs every
workload path, untraced and traced, at a tiny size.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "desk-1d": ("grid.shape=[9]", "time.steps=8", "ssc.n_samples=2"),
    "rect-2d": ("grid.dim=2", "grid.shape=[5,5]", "grid.lengths=[1.0,1.0]",
                "time.steps=4", "ssc.n_samples=2"),
    # too coarse for the refinement checks: the gate fails on purpose here,
    # which exercises the failure path
    "verify-coarse": ("grid.shape=[9]", "time.steps=4"),
    "track-1d": ("grid.shape=[9]", "time.steps=10", "cost.b0=0.01"),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], name=f"selftest-{name}",
                               sets=TINY[name], reference_cost=None)


class SpanArithmetic(unittest.TestCase):
    def test_nested_self_times(self):
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
        spans = [[0, -1, "a", 0.0, 10.0, None], [1, 0, "b", 1.0, 4.0, None],
                 [2, 1, "c", 2.0, 3.0, None], [3, 0, "d", 5.0, 9.0, None],
                 [4, -1, "e", 11.0, 12.0, None]]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0, 1.0])
        self.assertEqual(tracing.roots(spans), [0, 0, 0, 0, 4])
        self.assertEqual(sum(tracing.self_times(spans)), 11.0)

    def test_cache_misses_and_pgd_solves(self):
        spans = [
            [0, -1, "optimize.projected_gradient", 0.0, 10.0, 2],
            [1, 0, "state.solve_state", 0.0, 1.0, 7],
            [2, 0, "state.solve_state", 1.0, 2.0, 5],
            [3, 0, "sensitivity.lu", 2.0, 3.0, None],
            [4, 3, "stepper.factorize", 2.0, 3.0, None],
            [5, 0, "sensitivity.lu", 3.0, 3.5, None],
            [6, -1, "state.solve_state", 11.0, 12.0, 3],
            [7, 6, "stepper.factorize", 11.0, 11.5, None],
        ]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["state.newton_iters"], 15)
        self.assertEqual(m["sensitivity.lu_requests"], 2)
        self.assertEqual(m["sensitivity.lu_factorizations"], 1)
        self.assertEqual(m["sensitivity.lu_hit_ratio"], 0.5)
        self.assertEqual(m["optimize.pgd_iters"], 2)
        self.assertEqual(m["optimize.solves_per_iter"], 1.0)
        self.assertEqual(m["state.self_s"], 3.0 - 0.5)


class Calibration(unittest.TestCase):
    def test_normalize(self):
        # 1 s of the 10 s went to samples; the machine ran at half speed
        record = {"samples": 4, "spent_s": 1.0, "speed": 0.5}
        self.assertEqual(calibrate.normalize(10.0, record), 4.5)

    def test_speed_weights_samples_by_their_speed(self):
        sampler = calibrate.Sampler(lambda: None, 1.0)
        sampler.times = [1.0, 4.0]
        self.assertEqual(sampler.record(),
                         {"samples": 2, "spent_s": 5.0, "speed": 0.625})

    def test_sampler_samples_then_restores_the_timer(self):
        before = signal.getsignal(signal.SIGPROF)
        kernel = calibrate.make_sparse_kernel()
        with calibrate.Sampler(kernel, calibrate.SPARSE_NOMINAL_S) as sampler:
            calibrate.python_kernel()
            end = time.process_time() + 0.2
            while time.process_time() < end:
                calibrate.python_kernel()
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGPROF), before)
        record = sampler.record()
        self.assertGreater(record["samples"], 2)
        self.assertGreater(record["speed"], 0.0)


class Wrappers(unittest.TestCase):
    def test_install_then_restore(self):
        import tumoropt.cli  # noqa: F401  (loads every tumoropt module)
        modules = {n: m for n, m in sys.modules.items()
                   if n == "tumoropt" or n.startswith("tumoropt.")}
        before = {n: dict(vars(m)) for n, m in modules.items()}
        classes = [v for m in modules.values() for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("tumoropt")]
        class_before = {c: dict(vars(c)) for c in classes}

        tracer = tracing.Tracer("selftest")
        patched, missing = tracing.install(tracer)
        self.assertEqual(missing, [])
        # patched where ControlProblem.solve looks it up
        self.assertIsNot(vars(modules["tumoropt.problem"])["solve_state"],
                         before["tumoropt.problem"]["solve_state"])
        self.assertEqual(tracing.uninstall(patched), [])

        for n, m in modules.items():
            for key, val in before[n].items():
                self.assertIs(vars(m)[key], val, f"{n}.{key}")
        for c, attrs in class_before.items():
            for key, val in attrs.items():
                self.assertIs(vars(c)[key], val, f"{c.__name__}.{key}")


class BenchmarkJson(unittest.TestCase):
    def test_names_match_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracing.PER_LAYER)

    def test_refuses_a_directory_without_the_program(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "desk-1d",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TinyWorkloads(unittest.TestCase):
    def check(self, name: str, trace: bool) -> dict:
        workload = tiny(name)
        res = run.run_benchmark(ROOT, workload, seed=3, seconds=0.0,
                                trace=trace)
        expected = tracing.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(res["metrics"]), set(expected))
        per_pass = len(workload.commands)
        self.assertEqual(res["attempted"], per_pass * (2 if trace else 1))
        if name == "verify-coarse":
            self.assertFalse(res["correct"])
            self.assertEqual(res["failed"], res["attempted"])
            # exit code 4 is the CLI's verification-gate failure
            self.assertIn("verify: exit code 4", res["problems"])
            self.assertIsNone(res["metrics"]["workload_s" if not trace
                                             else "trace.workload_s"])
            return res
        self.assertTrue(res["correct"], res["problems"])
        self.assertEqual(res["failed"], 0)
        self.assertTrue(all(v is not None for v in res["metrics"].values()))
        self.assertTrue(all(res["fingerprints"].values()))
        if not trace:
            timed = [c for p in res["passes"] for c in p]
            self.assertTrue(all(c["calibration"]["samples"] >= 1
                                and c["norm_seconds"] > 0 for c in timed))
        if trace:
            self.assertEqual(res["extra"]["missing_targets"], [])
            self.assertGreater(res["metrics"]["state.solves"], 0)
        return res

    def test_every_workload_untraced_and_traced(self):
        for name in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)

    def test_traced_counts_match_outputs(self):
        res = self.check("desk-1d", True)
        sim, opt, ana = res["extra"]["command_counts"]
        self.assertEqual(sim["newton_iters"],
                         res["output_counts"]["simulate"]["newton_iters"])
        self.assertEqual(opt["pgd_iters"],
                         res["output_counts"]["optimize"]["pgd_iters"])
        self.assertEqual(ana["forms"], 2)


if __name__ == "__main__":
    unittest.main()
