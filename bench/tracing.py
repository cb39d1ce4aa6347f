"""Spans around tumoropt's public callables, installed from outside `src/`.

`install` replaces each target callable with a wrapper that records a span
(id, parent id, name, start, end, value) in memory.  A module-level function
is replaced in every loaded `tumoropt` module that holds it, because names
imported with `from .x import f` are looked up in the importing module; a
method is replaced on its class.  `uninstall` puts every original back.

`layer_metrics` turns the spans of one workload pass into the per-layer
metrics documented in README.md.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute, value recorded from the result)
TARGETS = (
    ("cli.main", "tumoropt.cli", "main", None),
    ("config.from_file", "tumoropt.config", "RunConfig.from_file", None),
    ("config.build_setup", "tumoropt.config", "build_setup", None),
    ("state.solve_state", "tumoropt.state", "solve_state",
     lambda traj: int(traj.newton_iters.sum())),
    ("stepper.residual", "tumoropt.stepper", "Stepper.residual", None),
    ("stepper.assemble", "tumoropt.stepper", "Stepper.assemble", None),
    ("stepper.factorize", "tumoropt.stepper", "Stepper.factorize", None),
    ("stepper.splu", "tumoropt.stepper", "splu",
     lambda lu: int(lu.L.nnz + lu.U.nnz)),
    ("stepper.solve_adjoint_step", "tumoropt.stepper",
     "Stepper.solve_adjoint_step", None),
    ("sensitivity.lu", "tumoropt.sensitivity", "StepFactors.lu", None),
    ("sensitivity.linear_march", "tumoropt.sensitivity",
     "solve_generalized_linear", None),
    ("sensitivity.bilinear_march", "tumoropt.sensitivity",
     "solve_bilinearized", None),
    ("adjoint.march", "tumoropt.adjoint", "solve_adjoint", None),
    ("optimize.reduced_gradient", "tumoropt.optimize", "reduced_gradient",
     None),
    ("optimize.cost_eval", "tumoropt.optimize", "cost_eval", None),
    ("optimize.projected_gradient", "tumoropt.optimize", "projected_gradient",
     lambda result: int(result.n_iter)),
    ("optimize.form", "tumoropt.optimize", "SecondOrderContext.form", None),
    ("optimize.linearize", "tumoropt.optimize",
     "SecondOrderContext.linearize", None),
    ("verify.run_verification", "tumoropt.verify", "run_verification", None),
    ("verify.duality", "tumoropt.verify", "check_duality", None),
    ("verify.gradient_fd", "tumoropt.verify", "check_gradient_fd", None),
    ("verify.taylor", "tumoropt.verify", "check_taylor_orders", None),
    ("verify.stability", "tumoropt.verify", "check_stability_ratios", None),
    ("verify.adjoint_strong_form", "tumoropt.verify",
     "adjoint_continuous_residual", None),
)

VERIFY_CHECKS = ("verify.duality", "verify.gradient_fd", "verify.taylor",
                 "verify.stability", "verify.adjoint_strong_form")

# Per-layer metrics reported by every traced run (BENCHMARK.json "per_layer").
# Each is measured on every workload; the layer times below that only some
# workloads exercise go to the results file instead (WORKLOAD_LAYER_TIMES).
PER_LAYER = {
    "cli.import_s": "s", "config.setup_s": "s", "cli.self_s": "s",
    "state.solves": "count", "state.solve_s": "s", "state.self_s": "s",
    "state.newton_iters": "count", "state.residuals_per_newton": "ratio",
    "stepper.residual_calls": "count", "stepper.residual_s": "s",
    "stepper.assemble_calls": "count", "stepper.assemble_s": "s",
    "stepper.splu_calls": "count", "stepper.splu_s": "s",
    "stepper.lu_nnz": "count",
    "stepper.adjoint_solve_calls": "count", "stepper.adjoint_solve_s": "s",
    "sensitivity.lu_requests": "count",
    "sensitivity.lu_factorizations": "count",
    "sensitivity.lu_hit_ratio": "ratio", "sensitivity.factor_pass_s": "s",
    "sensitivity.linear_marches": "count",
    "sensitivity.bilinear_marches": "count",
    "adjoint.marches": "count", "adjoint.march_s": "s",
    "optimize.pgd_iters": "count", "optimize.solves_per_iter": "ratio",
    "optimize.gradient_s": "s", "optimize.cost_eval_s": "s",
    "optimize.forms": "count", "verify.checks": "count",
    "trace.spans": "count", "trace.workload_s": "s", "trace.overhead_s": "s",
    # ru_maxrss of the untraced pass; too unsteady for an end-to-end bound
    "peak_rss_mb": "MiB",
}

WORKLOAD_LAYER_TIMES = (
    "sensitivity.linear_march_s", "sensitivity.bilinear_march_s",
    "optimize.form_s", "verify.duality_s", "verify.gradient_fd_s",
    "verify.taylor_s", "verify.stability_s", "verify.adjoint_strong_form_s",
    "verify.self_s")


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [id, parent, name, start, end, value]
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, e.g. an import."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([len(self.spans), parent, name, start, end, None])

    def wrap(self, name: str, fn, value_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(),
                    0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if value_of is not None:
                span[5] = value_of(result)
            return result

        return traced


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every target; return the (owner, attribute, original) records
    needed by `uninstall` and the targets this version of the code lacks."""
    patched: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for name, module_name, attr, value_of in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            raw = vars(cls).get(member) if cls is not None else None
            if raw is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, value_of))
            else:
                new = tracer.wrap(name, raw, value_of)
            setattr(cls, member, new)
            patched.append((cls, member, raw))
            continue
        original = getattr(module, member, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        new = tracer.wrap(name, original, value_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tumoropt" and not mod_name.startswith("tumoropt."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, new)
                    patched.append((mod, key, original))
    return patched, missing


def uninstall(patched: list) -> list[str]:
    """Restore every original; return the attributes that did not restore."""
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)
    return [f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, original in patched
            if vars(owner).get(key) is not original]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] >= 0:
            out[span[1]] -= span[4] - span[3]
    return out


def roots(spans: list[list]) -> list[int]:
    """Id of the top-level span each span descends from (parents come first)."""
    out: list[int] = []
    for span in spans:
        out.append(span[0] if span[1] < 0 else out[span[1]])
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one workload pass (see README.md)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    values: dict[str, list] = {}
    for span, own_s in zip(spans, own):
        name = span[2]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (span[4] - span[3])
        self_s[name] = self_s.get(name, 0.0) + own_s
        if span[5] is not None:
            values.setdefault(name, []).append(span[5])

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    # a factorization requested through StepFactors.lu is a cache miss
    misses = sum(1 for s in spans
                 if s[2] == "stepper.factorize" and s[1] >= 0
                 and spans[s[1]][2] == "sensitivity.lu")
    pgd_solves = 0
    for s in spans:
        if s[2] == "state.solve_state":
            anc = s[1]
            while anc >= 0 and spans[anc][2] != "optimize.projected_gradient":
                anc = spans[anc][1]
            pgd_solves += anc >= 0
    newton = sum(values.get("state.solve_state", []))
    pgd_iters = sum(values.get("optimize.projected_gradient", []))
    requests = n("sensitivity.lu")
    m = {
        "cli.import_s": t("cli.import"),
        "config.setup_s": t("config.from_file") + t("config.build_setup"),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "state.solves": n("state.solve_state"),
        "state.solve_s": t("state.solve_state"),
        "state.self_s": self_s.get("state.solve_state", 0.0),
        "state.newton_iters": newton,
        "state.residuals_per_newton":
            n("stepper.residual") / newton if newton else 0.0,
        "stepper.residual_calls": n("stepper.residual"),
        "stepper.residual_s": t("stepper.residual"),
        "stepper.assemble_calls": n("stepper.assemble"),
        "stepper.assemble_s": t("stepper.assemble"),
        "stepper.splu_calls": n("stepper.splu"),
        "stepper.splu_s": t("stepper.splu"),
        "stepper.lu_nnz": max(values.get("stepper.splu", [0])),
        "stepper.adjoint_solve_calls": n("stepper.solve_adjoint_step"),
        "stepper.adjoint_solve_s": t("stepper.solve_adjoint_step"),
        "sensitivity.lu_requests": requests,
        "sensitivity.lu_factorizations": misses,
        "sensitivity.lu_hit_ratio":
            1.0 - misses / requests if requests else 0.0,
        "sensitivity.factor_pass_s": t("sensitivity.lu"),
        "sensitivity.linear_marches": n("sensitivity.linear_march"),
        "sensitivity.linear_march_s": t("sensitivity.linear_march"),
        "sensitivity.bilinear_marches": n("sensitivity.bilinear_march"),
        "sensitivity.bilinear_march_s": t("sensitivity.bilinear_march"),
        "adjoint.marches": n("adjoint.march"),
        "adjoint.march_s": t("adjoint.march"),
        "optimize.pgd_iters": pgd_iters,
        "optimize.solves_per_iter":
            pgd_solves / pgd_iters if pgd_iters else 0.0,
        "optimize.gradient_s": t("optimize.reduced_gradient"),
        "optimize.cost_eval_s": t("optimize.cost_eval"),
        "optimize.forms": n("optimize.form"),
        "optimize.form_s": self_s.get("optimize.form", 0.0),
        "verify.checks": sum(n(c) for c in VERIFY_CHECKS),
        "verify.self_s": self_s.get("verify.run_verification", 0.0),
        "trace.spans": len(spans),
    }
    for check in VERIFY_CHECKS:
        m[check + "_s"] = t(check)
    return m


def command_counts(spans: list[list]) -> list[dict[str, int]]:
    """Counts per cli.main call, in call order, that the CLI also writes to
    its outputs: Newton iterations, PGD iterations and curvature forms."""
    top = roots(spans)
    mains = [s[0] for s in spans if s[2] == "cli.main" and s[1] < 0]
    out = {i: {"newton_iters": 0, "pgd_iters": 0, "forms": 0} for i in mains}
    for span, root in zip(spans, top):
        if root not in out:
            continue
        if span[2] == "state.solve_state":
            out[root]["newton_iters"] += span[5]
        elif span[2] == "optimize.projected_gradient":
            out[root]["pgd_iters"] += span[5]
        elif span[2] == "optimize.form":
            out[root]["forms"] += 1
    return [out[i] for i in mains]
