"""Smoke tests of the benchmark itself, on every workload at a tiny size.

    python3 -m pytest -q bench/smoke.py      (or: python3 bench/smoke.py)

They check that a run emits every metric BENCHMARK.json names, with its
unit; that self times are non-negative and sum to no more than the task
span; that traced tasks give the untraced outputs exactly; and that the
tracer leaves no patched attribute behind, also when a task raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "degenerate_full": {"M": 8, "n": 2, "T": 0.02},
    "oracle_refine": {
        "heat_M": 8, "heat_n": 2, "heat_T": 0.5, "wiener_M": 16, "wiener_n": (4, 8), "wiener_T": 1.0,
    },
    "varying_cli": {"M": 16, "n": 4, "T": 0.5},
    "control_search": {"steer_M": 8, "steer_n": 2, "dual_M": 16, "dual_n": (4, 8)},
}
SMOKE_SEED = 1


def _tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], sizes=TINY[name])


def _bindings() -> dict:
    """(module, attr) -> object for every bspdelab module, plus CoefficientSet.sample."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "bspdelab" or name.startswith("bspdelab."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
    coeff_set = sys.modules["bspdelab.coefficients"].CoefficientSet
    out[("CoefficientSet", "sample")] = coeff_set.__dict__["sample"]
    return out


def _run_main(name: str, trace: int, out_dir: str) -> dict:
    saved = workloads.WORKLOADS[name]
    workloads.WORKLOADS[name] = _tiny(name)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main([
                "--workload", name, "--seed", str(SMOKE_SEED), "--seconds", "0.01",
                "--trace", str(trace), "--out", out_dir,
            ])
    finally:
        workloads.WORKLOADS[name] = saved
    assert code == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def test_every_metric_emitted_with_its_unit():
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = _run_main(name, trace, tmp)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["attempted"] >= 1
                emitted = {m: v["unit"] for m, v in result["metrics"].items()}
                assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}, (name, trace)
                assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_self_times_within_task_and_outputs_unchanged():
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            workload = _tiny(name)
            inputs = workload.make(SMOKE_SEED, workload.sizes, tmp)
            try:
                plain = workload.task(inputs)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = tracer.task(0, lambda: workload.task(inputs))
                finally:
                    tracer.restore()
            finally:
                workloads.cleanup(inputs)
            assert traced == plain, name
            table = tracer.self_times(0)
            assert all(self_s >= 0 for _, self_s in table.values()), name
            (task_span,) = [s for s in tracer.spans if s[3] == tracing.TASK_SPAN]
            task_s = (task_span[5] - task_span[4]) / 1e9
            layer_self = sum(self_s for span, (_, self_s) in table.items() if span != tracing.TASK_SPAN)
            assert 0 < layer_self <= task_s, name
            assert abs(sum(self_s for _, self_s in table.values()) - task_s) < 1e-6, name
            metrics = tracer.task_metrics(0)
            assert set(metrics) | {"cli.artifact_bytes", "trace.overhead_frac"} == set(tracing.UNITS)


def test_tracer_leaves_no_patch_behind():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    assert tracing.leftover_patches([sys.modules["bspdelab.solver"]])
    tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    modules = [m for n, m in sys.modules.items() if n == "bspdelab" or n.startswith("bspdelab.")]
    assert tracing.leftover_patches(modules) == []

    tracer.install()
    try:
        tracer.task(0, lambda: 1 / 0)
    except ZeroDivisionError:
        pass
    finally:
        tracer.restore()
    assert all(_bindings()[key] is before[key] for key in before)


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    pairs = lambda a, b: list(zip(a, b))  # noqa: E731
    assert compare.verdict(base, faster, pairs(base, faster), "lower", 0.1) == "improved"
    assert compare.verdict(base, base, pairs(base, base), "lower", 0.1) == "no worse"
    assert compare.verdict(base, slower, pairs(base, slower), "lower", 0.1) == "worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert compare.verdict(base, noisy, pairs(base, noisy), "lower", 0.1) == "unresolved"


if __name__ == "__main__":
    for test in (v for k, v in sorted(globals().items()) if k.startswith("test_")):
        test()
        print(f"ok {test.__name__}")
