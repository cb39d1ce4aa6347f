"""One fresh interpreter of the benchmark: a set-up probe or workload passes.

Usage: python3 bench/worker.py JOB.json

The job file (written by run.py) names the mode:

* "probe": import tumoropt, read the config and build the setup, then exit.
  run.py times the whole process, interpreter start-up included; the
  probe samples the machine's speed meanwhile (calibrate.py) and writes the
  samples to the job's "result" path.
* "passes": import tumoropt, build the setup once, then run the workload's
  CLI commands through `tumoropt.cli.main` in passes until the time budget
  is spent (at least one pass, at most `max_passes`).  With "calibrate" set
  each command is timed with the machine's speed sampled alongside it
  (calibrate.py).  With "trace" set the public callables are wrapped
  (tracing.py) for the whole run and restored before the result is written.

The result (timings, exit codes, peak RSS, versions, spans) goes to the
job's "result" path as JSON; spans go to "spans" as JSON lines.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate

START = time.perf_counter()


def run_cli(cli, argv: list[str]) -> int:
    """Exit code of one CLI call; a crash counts as exit code 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    if job["mode"] == "probe":
        with calibrate.Sampler(calibrate.python_kernel,
                               calibrate.PYTHON_NOMINAL_S) as sampler:
            import tumoropt.cli  # noqa: F401
            import tumoropt.config
            tumoropt.config.build_setup(tumoropt.config.RunConfig.from_file(
                job["config"], overrides=tuple(job["sets"])))
        Path(job["result"]).write_text(json.dumps(sampler.record()))
        return 0

    import tumoropt.cli as cli
    imported = time.perf_counter()
    import tumoropt.config

    import tracing

    tracer = patched = sampler = None
    missing: list[str] = []
    if job["trace"]:
        tracer = tracing.Tracer(job["run_id"])
        tracer.add("cli.import", START, imported)
        patched, missing = tracing.install(tracer)
    elif job["calibrate"]:
        sampler = calibrate.Sampler(calibrate.make_sparse_kernel(),
                                    calibrate.SPARSE_NOMINAL_S)
    try:
        t0 = time.perf_counter()
        tumoropt.config.build_setup(tumoropt.config.RunConfig.from_file(
            job["config"], overrides=tuple(job["sets"])))
        config_s = time.perf_counter() - t0

        passes = []
        begin = time.perf_counter()
        while True:
            index = len(passes)
            commands = []
            for command in job["commands"]:
                out_dir = Path(job["out_dir"]) / f"pass{index}" / command
                argv = [command, "--config", job["config"], "--out-dir",
                        str(out_dir), "--seed", str(job["seed"]), "--quiet"]
                for assignment in job["sets"]:
                    argv += ["--set", assignment]
                t0, c0 = time.perf_counter(), time.process_time()
                if sampler is None:
                    code = run_cli(cli, argv)
                else:
                    with sampler:
                        code = run_cli(cli, argv)
                seconds = time.perf_counter() - t0
                commands.append({"command": command, "exit_code": code,
                                 "seconds": seconds,
                                 "cpu_seconds": time.process_time() - c0,
                                 "out_dir": str(out_dir)})
                if sampler is not None:
                    record = sampler.record()
                    commands[-1].update(
                        calibration=record,
                        norm_seconds=calibrate.normalize(seconds, record))
            passes.append(commands)
            elapsed = time.perf_counter() - begin
            per_pass = elapsed / len(passes)
            if (len(passes) >= job["max_passes"]
                    or elapsed + per_pass > job["seconds"]):
                break
    finally:
        not_restored = tracing.uninstall(patched) if patched else []

    import numpy
    import scipy
    result = {
        "import_s": imported - START,
        "config_s": config_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        spans = tracer.spans
        result.update(
            layers=tracing.layer_metrics(spans),
            command_counts=tracing.command_counts(spans),
            self_total_s=sum(own for own, root in zip(
                tracing.self_times(spans), tracing.roots(spans))
                if spans[root][2] == "cli.main"),
            patched=len(patched), missing=missing, not_restored=not_restored)
        with open(job["spans"], "w") as fh:
            for span in spans:
                fh.write(json.dumps({
                    "run": tracer.run_id, "id": span[0], "parent": span[1],
                    "name": span[2], "start": span[3], "end": span[4],
                    "value": span[5]}) + "\n")
    Path(job["result"]).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
