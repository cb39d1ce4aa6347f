"""Benchmark of the tumoropt CLI: end-to-end times or per-layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-1d --seed 0 --seconds 20 --trace 0

The program runs from `src/` (no install step).  Every run starts fresh
interpreters (bench/worker.py), one at a time, with one BLAS/OpenMP thread
each, and passes the seed on as the CLI's `--seed`.

--trace 0  times seven set-up probes, then runs the workload's commands in
           passes for about --seconds seconds (at least one pass) and reports
           the end-to-end metrics.  These times are rescaled to a reference
           machine speed sampled while they run (calibrate.py); the raw wall
           times are reported alongside.
--trace 1  runs one untraced and one traced pass and reports the per-layer
           metrics in raw wall time; the tracing overhead is the difference
           of the two.

Every command's outputs are checked, fingerprinted and counted; a command
that fails counts in "failed" and its time is discarded.  Outputs, the full
results and the spans go to `.bench_out/` in the checkout.  The last line of
standard output is the JSON result.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import normalize
from tracing import PER_LAYER, WORKLOAD_LAYER_TIMES
from workloads import (CONFIG, COST_RTOL, MASS_RESIDUAL_MAX, WORKLOADS,
                       Workload)

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0   # every run must end within 180 s
END_TO_END = {"setup_s": "s", "workload_s": "s"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# output checks


def fingerprint(out_dir: Path) -> str:
    """SHA-256 over a command's output files, JSON "timestamp" keys removed."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            report.pop("timestamp", None)
            data = json.dumps(report, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0"
                      + hashlib.sha256(data).digest())
    return digest.hexdigest()


def check_outputs(command: str, out_dir: Path,
                  workload: Workload) -> tuple[str | None, dict]:
    """Correctness failure (None if the outputs pass) and the deterministic
    counts the outputs record."""
    if command == "simulate":
        with open(out_dir / "diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        worst = max(float(r["mass_residual"]) for r in rows)
        counts = {"newton_iters": sum(int(r["newton_iters"]) for r in rows)}
        if not worst <= MASS_RESIDUAL_MAX:
            return f"max mass_residual {worst:.3e} > {MASS_RESIDUAL_MAX}", counts
        return None, counts
    if command == "optimize":
        import yaml
        tol = float(yaml.safe_load(
            (out_dir / "resolved_config.yaml").read_text())["optimizer"]["tol"])
        report = json.loads((out_dir / "optimize_report.json").read_text())
        with open(out_dir / "history.csv", newline="") as fh:
            counts = {"pgd_iters": len(list(csv.DictReader(fh))) - 1}
        if not (report["converged"] and report["stationarity"] <= tol):
            return (f"not converged (stationarity {report['stationarity']:.3e}"
                    f", tol {tol:g})"), counts
        ref = workload.reference_cost
        if ref is not None and abs(report["cost"] - ref) > COST_RTOL * abs(ref):
            return f"cost {report['cost']!r} differs from {ref!r}", counts
        return None, counts
    if command == "analyze":
        ssc = json.loads((out_dir / "ssc_report.json").read_text())["ssc"]
        counts = {"sample_count": ssc["sample_count"]}
        if not (ssc["satisfied"] and ssc["sample_count"] > 0):
            return "SSC not satisfied", counts
        return None, counts
    report = json.loads((out_dir / "verification_report.json").read_text())
    if not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"verify gate failed: {failed}", {}
    return None, {}


def judge_pass(commands: list[dict], workload: Workload) -> list[dict]:
    """Add error, counts and fingerprint to each command of one pass."""
    for cmd in commands:
        out_dir = Path(cmd["out_dir"])
        cmd["counts"] = {}
        cmd["fingerprint"] = None
        if cmd["exit_code"] != 0:
            cmd["error"] = f"exit code {cmd['exit_code']}"
            continue
        try:
            cmd["error"], cmd["counts"] = check_outputs(
                cmd["command"], out_dir, workload)
            cmd["fingerprint"] = fingerprint(out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            cmd["error"] = f"unreadable outputs: {exc!r}"
    return commands


# ---------------------------------------------------------------------------
# running fresh interpreters


class Runner:
    """Starts the worker interpreters of one benchmark run, one at a time."""

    def __init__(self, root: Path, out_root: Path, deadline: float):
        self.root = root
        self.out_root = out_root
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for var in THREAD_VARS:
            self.env[var] = "1"
        tmp = out_root / "tmp"
        tmp.mkdir(parents=True)
        self.env["TMPDIR"] = str(tmp)
        self._jobs = 0

    def run(self, job: dict) -> tuple[float, bool]:
        """Run one worker; wall time and whether it exited cleanly."""
        self._jobs += 1
        path = self.out_root / f"job{self._jobs}.json"
        path.write_text(json.dumps(job))
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), str(path)],
                              cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL) as proc:
            # a blocking wait, unlike wait(timeout), which polls every 50 ms
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
        seconds = time.perf_counter() - start
        if code < 0:
            print(f"worker job {path.name} killed (time limit)", file=sys.stderr)
        return seconds, code == 0

    def passes(self, workload: Workload, seed: int, seconds: float,
               max_passes: int, trace: bool, calibrate: bool,
               tag: str) -> dict | None:
        """Run the workload in one interpreter; its result, None on a crash."""
        out_dir = self.out_root / tag
        job = {"mode": "passes", "config": CONFIG, "sets": list(workload.sets),
               "commands": list(workload.commands), "seed": seed,
               "seconds": seconds, "max_passes": max_passes, "trace": trace,
               "calibrate": calibrate,
               "run_id": f"{workload.name}-seed{seed}-{tag}",
               "out_dir": str(out_dir), "result": str(out_dir / "result.json"),
               "spans": str(out_dir / "spans.jsonl")}
        out_dir.mkdir()
        _, ok = self.run(job)
        if not ok:
            return None
        result = json.loads((out_dir / "result.json").read_text())
        for commands in result["passes"]:
            judge_pass(commands, workload)
        return result

    def probe(self, workload: Workload) -> tuple[float, float] | None:
        """Wall and speed-normalized time of one set-up probe."""
        path = self.out_root / f"probe{self._jobs + 1}.json"
        seconds, ok = self.run({"mode": "probe", "config": CONFIG,
                                "sets": list(workload.sets),
                                "result": str(path)})
        if not ok:
            return None
        return seconds, normalize(seconds, json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# summaries


def good_passes(result: dict | None) -> list[list[dict]]:
    if result is None:
        return []
    return [p for p in result["passes"] if all(c["error"] is None for c in p)]


def pass_seconds(passes: list[list[dict]],
                 key: str = "seconds") -> float | None:
    """Median over passes of the summed command times."""
    if not passes:
        return None
    return statistics.median(sum(c[key] for c in p) for p in passes)


def command_medians(result: dict | None, key: str,
                    suffix: str) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for commands in (result or {}).get("passes", []):
        for c in commands:
            if c["error"] is None:
                times.setdefault(c["command"], []).append(c[key])
    return {f"{k}{suffix}": statistics.median(v) for k, v in times.items()}


def signature(commands: list[dict]) -> list:
    """What must repeat exactly between passes: fingerprints and counts."""
    return [(c["command"], c["fingerprint"], c["counts"]) for c in commands]


def consistency(results: list[dict | None]) -> list[str]:
    """Problems with fingerprints or counts that differ between passes."""
    sigs = [signature(p) for r in results if r is not None
            for p in r["passes"]]
    if any(s != sigs[0] for s in sigs[1:]):
        return ["fingerprints or output counts differ between passes"]
    return []


def traced_consistency(traced: dict) -> list[str]:
    """Traced counts must match the outputs; wrappers must come off."""
    problems = []
    expected = {"simulate": ("newton_iters", "newton_iters"),
                "optimize": ("pgd_iters", "pgd_iters"),
                "analyze": ("sample_count", "forms")}
    for cmd, traced_counts in zip(traced["passes"][0], traced["command_counts"]):
        if cmd["command"] in expected:
            out_key, span_key = expected[cmd["command"]]
            if cmd["counts"].get(out_key) != traced_counts[span_key]:
                problems.append(f"{cmd['command']}: traced {span_key} "
                                f"{traced_counts[span_key]} != output "
                                f"{out_key} {cmd['counts'].get(out_key)}")
    if traced["not_restored"]:
        problems.append(f"wrappers not restored: {traced['not_restored']}")
    return problems


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(root: Path, versions: dict | None) -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "versions": versions or {},
            "thread_vars": {var: "1" for var in THREAD_VARS},
            "inherited_thread_vars": {var: os.environ.get(var)
                                      for var in THREAD_VARS},
            "git_commit": git_commit(root)}


# ---------------------------------------------------------------------------


def run_benchmark(root: Path, workload: Workload, seed: int, seconds: float,
                  trace: bool) -> dict:
    """One benchmark run; returns the full results (see README.md)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = root / ".bench_out" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_root, ignore_errors=True)
    runner = Runner(root, out_root, deadline)
    problems: list[str] = []

    if not trace:
        probes = [runner.probe(workload) for _ in range(SETUP_PROBES)]
        if None in probes:
            problems.append("a set-up probe failed")
        result = runner.passes(workload, seed, seconds, 1_000_000, False,
                               True, "untraced")
        runs = [result]
        ok_probes = [p for p in probes if p is not None]
        passes = good_passes(result)
        metrics = {
            "setup_s": statistics.median(p[1] for p in ok_probes)
            if ok_probes else None,
            "workload_s": pass_seconds(passes, "norm_seconds"),
        }
        extra = {"setup_probes_wall_s": [p and p[0] for p in probes],
                 "setup_probes_s": [p and p[1] for p in probes],
                 "setup_wall_s": statistics.median(p[0] for p in ok_probes)
                 if ok_probes else None,
                 "workload_wall_s": pass_seconds(passes),
                 "passes_timed": len(passes),
                 "peak_rss_mb": result["peak_rss_mb"] if result else None,
                 **command_medians(result, "norm_seconds", "_s"),
                 **command_medians(result, "seconds", "_wall_s")}
    else:
        untraced = runner.passes(workload, seed, 0.0, 1, False, False,
                                 "untraced")
        traced = runner.passes(workload, seed, 0.0, 1, True, False, "traced")
        runs = [untraced, traced]
        extra = {}
        if untraced is not None and traced is not None:
            problems += traced_consistency(traced)
            plain_s = pass_seconds(good_passes(untraced))
            traced_s = pass_seconds(good_passes(traced))
            layers = traced["layers"]
            # the untraced interpreter's peak, free of the spans' memory
            layers["peak_rss_mb"] = untraced["peak_rss_mb"]
            if plain_s is not None and traced_s is not None:
                layers["trace.workload_s"] = traced_s
                layers["trace.overhead_s"] = traced_s - plain_s
                # self times of the spans under cli.main add up to the
                # command times up to the harness's own clock reads
                gap = traced_s - traced["self_total_s"]
                extra["self_time_gap_s"] = gap
                if abs(gap) > max(abs(layers["trace.overhead_s"]), 1e-3):
                    problems.append(f"layer self times miss {gap:.3e} s")
            metrics = {name: layers.get(name) for name in PER_LAYER}
            extra.update(
                untraced_workload_s=plain_s,
                workload_layer_times={k: layers[k] for k in WORKLOAD_LAYER_TIMES},
                layers=layers, command_counts=traced["command_counts"],
                missing_targets=traced["missing"],
                wrappers_patched=traced["patched"])
        else:
            metrics = {name: None for name in PER_LAYER}

    if any(r is None for r in runs):
        problems.append("a worker interpreter failed")
    problems += consistency(runs)
    commands = [c for r in runs if r is not None for p in r["passes"] for c in p]
    lost = len(workload.commands) * sum(r is None for r in runs)
    failed = sum(c["error"] is not None for c in commands) + lost
    attempted = len(commands) + lost
    problems += [f"{c['command']}: {c['error']}" for c in commands
                 if c["error"] is not None]
    if None in metrics.values():
        problems.append("metrics missing")
    first = next((r for r in runs if r is not None), None)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics, "extra": extra,
        "fingerprints": {c["command"]: c["fingerprint"] for c in commands},
        "output_counts": {c["command"]: c["counts"] for c in commands},
        "passes": [p for r in runs if r is not None for p in r["passes"]],
        "machine": machine(root, first["versions"] if first else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not ((root / "src" / "tumoropt" / "cli.py").is_file()
            and (root / CONFIG).is_file()):
        print(f"error: run from the root of a tumoropt checkout "
              f"(no src/tumoropt or {CONFIG} under {root})", file=sys.stderr)
        return 2

    results = run_benchmark(root, WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace))
    out_root = root / ".bench_out"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_root / name / "results.json").write_text(
        json.dumps(results, indent=1) + "\n")

    units = PER_LAYER if args.trace else END_TO_END
    for key, value in results["extra"].items():
        if not isinstance(value, (dict, list)):
            print(f"{key}: {value}")
    for key, value in results["extra"].get("workload_layer_times", {}).items():
        print(f"{key}: {value}")
    for command, digest in results["fingerprints"].items():
        print(f"fingerprint {command}: {digest} "
              f"counts {results['output_counts'][command]}")
    for problem in results["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": results["correct"], "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in results["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
