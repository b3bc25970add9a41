"""Span tracer that times the bspdelab layers from outside the package.

`Tracer.install` wraps every public function of the layer modules, plus
`CoefficientSet.sample` and the `splu` factoriser the solver imported.
Modules bind names at import (`from .grid import axis_derivative`), so each
binding is patched in every module that holds it; `restore` puts every
original back.  The factor `splu` returns is proxied so its `.solve` is a
span too.

A span is (id, parent id, task id, name, start ns, end ns).  Spans and
counters stay in memory until the run writes them out.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "bspdelab"
LAYERS = ("grid", "lattice", "coefficients", "solver", "energy", "oracles", "control", "expr", "cli")

TASK_SPAN = "task"
LU_FACTOR = "solver.lu_factor"
LU_SOLVE = "solver.lu_solve"

# metric -> span names whose self time it sums
TIME_METRICS = {
    "grid.stencil_s": ("grid.axis_derivative", "grid.diff", "grid.batch_gradient", "grid.batch_divergence"),
    "grid.norm_s": ("grid.level_norm_sq", "grid.sobolev_norm", "grid.inner_product"),
    "lattice.cond_s": ("lattice.level_conditional_expectation", "lattice.level_martingale_representation"),
    "coefficients.sample_s": ("coefficients.CoefficientSet.sample",),
    "coefficients.parabolicity_s": ("coefficients.check_parabolicity",),
    "solver.cfl_s": ("solver.estimate_cfl",),
    "solver.weak_form_s": ("solver.weak_form_residual",),
    "solver.lu_factor_s": (LU_FACTOR,),
    "solver.lu_solve_s": (LU_SOLVE,),
    "energy.estimates_s": ("energy.verify_main_estimates",),
    "oracles.error_s": ("oracles.solution_error",),
    "oracles.exact_s": ("oracles.exact_level_fields",),
    "control.exhaustive_s": ("control.exhaustive_policy_search",),
    "control.forward_s": ("control.solve_forward",),
    "control.adjoint_s": ("control.solve_adjoint",),
    "control.iteration_s": ("control.policy_iteration",),
    "control.check_s": ("control.check_max_principle", "control.duality_check"),
    "expr.eval_s": ("expr.evaluate",),
}
# layer catch-alls: every span of the layer that no metric above claims
LAYER_REST_METRICS = {"solver": "solver.self_s", "cli": "cli.self_s"}
SECONDS_METRICS = frozenset(TIME_METRICS) | frozenset(LAYER_REST_METRICS.values())

# metric -> span names whose calls it counts
CALL_METRICS = {
    "grid.stencil_calls": ("grid.axis_derivative",),
    "lattice.cond_calls": TIME_METRICS["lattice.cond_s"],
    "coefficients.sample_calls": ("coefficients.CoefficientSet.sample",),
    "solver.solve_calls": ("solver.solve",),
    "solver.lu_factor_count": (LU_FACTOR,),
    "solver.lu_solve_calls": (LU_SOLVE,),
    "energy.estimates_calls": ("energy.verify_main_estimates",),
    "expr.eval_calls": ("expr.evaluate",),
}

# metrics the hooks below accumulate
HOOK_METRICS = (
    "grid.stencil_mb",
    "lattice.cond_mb",
    "solver.retained_mib",
    "solver.lu_factor_nnz",
    "solver.lu_solve_rhs",
    "oracles.exact_rows",
    "control.policies",
    "control.iterations",
)


# every per-layer metric a traced run reports, with its unit
UNITS = {
    "grid.stencil_calls": "count",
    "grid.stencil_s": "s",
    "grid.stencil_mb": "MB",
    "grid.norm_s": "s",
    "lattice.cond_calls": "count",
    "lattice.cond_s": "s",
    "lattice.cond_mb": "MB",
    "coefficients.sample_calls": "count",
    "coefficients.sample_s": "s",
    "coefficients.sample_unique_ratio": "ratio",
    "coefficients.parabolicity_s": "s",
    "solver.solve_calls": "count",
    "solver.self_s": "s",
    "solver.cfl_s": "s",
    "solver.weak_form_s": "s",
    "solver.retained_mib": "MiB",
    "solver.lu_factor_count": "count",
    "solver.lu_factor_s": "s",
    "solver.lu_factor_nnz": "count",
    "solver.lu_solve_calls": "count",
    "solver.lu_solve_rhs": "count",
    "solver.lu_solve_s": "s",
    "solver.lu_reuse": "ratio",
    "energy.estimates_calls": "count",
    "energy.estimates_s": "s",
    "oracles.error_s": "s",
    "oracles.exact_rows": "count",
    "oracles.exact_s": "s",
    "control.exhaustive_s": "s",
    "control.policies": "count",
    "control.forward_s": "s",
    "control.adjoint_s": "s",
    "control.iteration_s": "s",
    "control.iterations": "count",
    "control.check_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def _span_metric(name: str) -> str | None:
    for metric, names in TIME_METRICS.items():
        if name in names:
            return metric
    return LAYER_REST_METRICS.get(name.split(".", 1)[0])


class _TracedFactor:
    """An splu factor whose solve calls are spans."""

    def __init__(self, tracer: "Tracer", factor):
        self._tracer = tracer
        self._factor = factor

    def solve(self, rhs, *args, **kwargs):
        rhs_arr = np.asarray(rhs)
        self._tracer.count("solver.lu_solve_rhs", rhs_arr.shape[1] if rhs_arr.ndim == 2 else 1)
        return self._tracer.call(LU_SOLVE, self._factor.solve, (rhs, *args), kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.states: dict = defaultdict(set)
        self.task_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def count(self, metric: str, amount: float) -> None:
        self.counters[self.task_id][metric] += amount

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else -1, self.task_id, name, 0, 0]
        self.spans.append(record)
        self._stack.append(sid)
        record[4] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()

    def task(self, task_id: int, fn):
        """Run one task under a root span; its spans carry `task_id`."""
        self.task_id = task_id
        try:
            return self.call(TASK_SPAN, fn, (), {})
        finally:
            self.task_id = -1

    # -- patching -----------------------------------------------------------

    def _hook(self, name: str, args, kwargs, result) -> None:
        def arg(index: int, key: str):
            return kwargs[key] if key in kwargs else args[index]

        if name == "grid.axis_derivative":
            order = arg(1, "order")
            # a centred stencil of order k reads the field k + 1 times
            if order:
                self.count("grid.stencil_mb", np.asarray(arg(0, "field")).nbytes * (order + 1) / 1e6)
        elif name in TIME_METRICS["lattice.cond_s"]:
            self.count("lattice.cond_mb", np.asarray(arg(1, "field_next")).nbytes / 1e6)
        elif name == "coefficients.CoefficientSet.sample":
            t, w = arg(1, "t"), arg(2, "w")
            state = (float(t), tuple(np.asarray(w, dtype=float).ravel().tolist()))
            self.states[self.task_id].add((args[0].name, state))
        elif name == "solver.solve":
            nbytes = sum(arr.nbytes for part in (result.u, result.q, result.r) for arr in part.levels)
            metric = self.counters[self.task_id]
            metric["solver.retained_mib"] = max(metric["solver.retained_mib"], nbytes / 2**20)
        elif name == "oracles.exact_level_fields":
            tree, level = arg(1, "tree"), arg(2, "level")
            self.count("oracles.exact_rows", len(np.unique(tree.level_w(level), axis=0)))
        elif name == "control.exhaustive_policy_search":
            self.count("control.policies", result.n_policies)
        elif name == "control.policy_iteration":
            self.count("control.iterations", result.n_iterations)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            tracer._hook(name, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped_by_bench__ = fn
        return traced

    def _wrap_splu(self, splu):
        tracer = self

        def traced_splu(*args, **kwargs):
            factor = tracer.call(LU_FACTOR, splu, args, kwargs)
            tracer.count("solver.lu_factor_nnz", factor.nnz)
            return _TracedFactor(tracer, factor)

        traced_splu.__wrapped_by_bench__ = splu
        return traced_splu

    def install(self) -> None:
        """Wrap the layers' public functions in every module that binds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        solver = sys.modules[f"{PACKAGE}.solver"]
        targets[id(solver.splu)] = (solver.splu, self._wrap_splu(solver.splu))

        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        try:
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    hit = targets.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patched.append((ns, attr, obj))
                        setattr(ns, attr, hit[1])
            coeff_set = sys.modules[f"{PACKAGE}.coefficients"].CoefficientSet
            self._patched.append((coeff_set, "sample", coeff_set.sample))
            coeff_set.sample = self._wrap("coefficients.CoefficientSet.sample", coeff_set.sample)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def self_times(self, task_id: int) -> dict:
        """Per span name: (calls, self seconds) over the spans of one task."""
        spans = [s for s in self.spans if s[2] == task_id]
        child_ns = defaultdict(int)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: [0, 0.0])
        for sid, _, _, name, start, end in spans:
            row = table[name]
            row[0] += 1
            row[1] += (end - start - child_ns[sid]) / 1e9
        return {name: tuple(row) for name, row in table.items()}

    def task_metrics(self, task_id: int) -> dict:
        """Every per-layer metric of one traced task."""
        table = self.self_times(task_id)
        out = {metric: 0.0 for metric in SECONDS_METRICS}
        for name, (_, self_s) in table.items():
            metric = _span_metric(name)
            if metric is not None:
                out[metric] += self_s
        for metric, names in CALL_METRICS.items():
            out[metric] = sum(table.get(name, (0, 0.0))[0] for name in names)
        counters = self.counters[task_id]
        for metric in HOOK_METRICS:
            out[metric] = counters.get(metric, 0.0)
        calls = out["coefficients.sample_calls"]
        out["coefficients.sample_unique_ratio"] = len(self.states[task_id]) / calls if calls else 0.0
        factors = out["solver.lu_factor_count"]
        out["solver.lu_reuse"] = out["solver.lu_solve_calls"] / factors if factors else 0.0
        out["trace.spans"] = sum(calls for calls, _ in table.values())
        return {m: int(v) if UNITS.get(m) == "count" else v for m, v in out.items()}


def summarise(per_task: list[dict]) -> dict:
    """Median over traced tasks for times; the first task's value for counts."""
    out = {}
    for metric in per_task[0]:
        values = [m[metric] for m in per_task]
        out[metric] = statistics.median(values) if metric in SECONDS_METRICS else values[0]
    return out


def count_mismatches(per_task: list[dict]) -> list:
    """Count metrics that differ between traced tasks (they must repeat exactly)."""
    return sorted(
        metric for metric in per_task[0]
        if metric not in SECONDS_METRICS and len({m[metric] for m in per_task}) > 1
    )


def leftover_patches(namespaces) -> list:
    """Attributes still bound to a tracer wrapper, as 'namespace.attr'."""
    found = []
    for ns in namespaces:
        for attr, obj in vars(ns).items():
            if hasattr(obj, "__wrapped_by_bench__"):
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
    return found
