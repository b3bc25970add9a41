"""Benchmark runner: one workload, one seed, one fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

With --trace 0 it times whole tasks with tracing off and prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced tasks
and prints the per-layer metrics.  Every task's outputs are checked; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full result (provenance, quartiles,
outputs, per-function self times) goes to DIR (default bench/out), and a
traced run also writes its spans there.

The program is imported from src/ next to this directory and nowhere else;
without it the run exits 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BLAS pools read these once, at numpy import; one thread per pool
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {"task_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "pass_frac": "ratio"}
REFERENCE_PATH = BENCH / "reference.json"
REFERENCE_RTOL = 1e-12
GEN_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=str(BENCH / "out"))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error(f"--seed must lie in [0, 2^63), got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def import_program():
    """Import bspdelab from SRC only; None when it is not there."""
    if not (SRC / "bspdelab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bspdelab

    if Path(bspdelab.__file__).resolve().parent != SRC / "bspdelab":
        return None
    return bspdelab


# -- provenance ---------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "bspdelab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, workload):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc_trim_between_tasks": MALLOC_TRIM is not None,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
    }


# -- checking -----------------------------------------------------------------


def _same(value, ref) -> bool:
    if isinstance(ref, float) and isinstance(value, (int, float)):
        return abs(value - ref) <= REFERENCE_RTOL * abs(ref)
    return value == ref


def reference_misses(workload, outputs: dict) -> list:
    """Outputs that differ from the stored default-seed reference."""
    ref = json.loads(REFERENCE_PATH.read_text())[workload.name]
    return [
        f"{key} = {outputs.get(key)!r}, reference {value!r}"
        for key, value in ref.items()
        if not _same(outputs.get(key), value)
    ]


# glibc's malloc_trim, looked up in the running process; None on other libcs
MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def reset_heap() -> None:
    """Start every task from the same heap: collect cycles, return freed pages.

    glibc keeps freed pages after the many mid-sized SuperLU allocations of
    varying_cli, so without the trim the peak RSS grows with the number of
    tasks a run fits in, not with what one task needs.
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


class Ledger:
    """Attempted and failed tasks, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def run(self, workload, fn, baseline=None, reference=False):
        """Time fn() from a reset heap; returns (seconds, outputs or None)."""
        self.attempted += 1
        reset_heap()
        start = time.perf_counter()
        try:
            outputs = fn()
        except Exception:  # noqa: BLE001 - a raising task is a failed task
            elapsed = time.perf_counter() - start
            self.failures.append({"task": self.attempted, "raised": traceback.format_exc(limit=4)})
            return elapsed, None
        elapsed = time.perf_counter() - start
        missed = list(workload.check(outputs))
        if baseline is not None and outputs != baseline:
            missed.append("outputs differ from the warm-up task's")
        if reference:
            missed += [f"reference: {m}" for m in reference_misses(workload, outputs)]
        if missed:
            self.failures.append({"task": self.attempted, "missed": missed})
        return elapsed, outputs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


# -- the run ------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if import_program() is None:
        print(f"bench: bspdelab not found under {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the solver's own step-size and coupling warnings are expected here
    from bspdelab import solver

    warnings.simplefilter("ignore", solver.StochasticCouplingWarning)
    warnings.simplefilter("ignore", solver.TransportCflWarning)
    import_s = time.perf_counter() - T_START

    gen_times = []
    inputs = None
    for _ in range(GEN_REPEATS):
        if inputs is not None:
            workloads.cleanup(inputs)
        start = time.perf_counter()
        inputs = workload.make(args.seed, workload.sizes, str(out_dir))
        gen_times.append(time.perf_counter() - start)

    ledger = Ledger()
    task = lambda: workload.task(inputs)  # noqa: E731
    try:
        warm_s, baseline = ledger.run(
            workload, task, reference=args.seed == workloads.DEFAULT_SEED
        )
        setup_s = import_s + statistics.median(gen_times) + warm_s
        if args.trace:
            result = traced_phase(args, workload, task, ledger, baseline, tracing)
        else:
            result = timed_phase(args, workload, task, ledger, baseline)
    finally:
        workloads.cleanup(inputs)

    failed = len(ledger.failures)
    record = {
        "provenance": provenance(args, workload),
        "why": workload.why,
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "fail_frac": failed / ledger.attempted,
        "failures": ledger.failures,
        "setup": {"setup_s": setup_s, "import_s": import_s, "gen_s": gen_times, "warmup_s": warm_s},
        "outputs": baseline,
        **result,
    }
    if not args.trace:
        record["metrics"]["setup_s"] = setup_s
        record["metrics"]["pass_frac"] = 1.0 - record["fail_frac"]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(_jsonable(record), indent=1, sort_keys=True) + "\n")

    units = END_TO_END_UNITS if not args.trace else tracing.UNITS
    for failure in ledger.failures:
        print(f"FAILED task {failure['task']}: {failure.get('missed') or failure.get('raised')}")
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {result['summary']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


def _time_until(seconds: float, step) -> None:
    """Call step() until the next call would likely overrun `seconds`."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return


def timed_phase(args, workload, task, ledger, baseline) -> dict:
    times = []

    def step():
        elapsed, _ = ledger.run(workload, task, baseline)
        times.append(elapsed)
        return elapsed

    _time_until(args.seconds, step)
    q1, median, q3 = quartiles(times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "task_s": {"median": median, "q1": q1, "q3": q3, "n": len(times), "samples": times},
        "metrics": {"task_s": median, "peak_rss_mib": rss_mib},
        "summary": f"task_s median {median:.4f} s [q1 {q1:.4f}, q3 {q3:.4f}] n={len(times)}, "
        f"peak RSS {rss_mib:.1f} MiB",
    }


def traced_phase(args, workload, task, ledger, baseline, tracing) -> dict:
    """Alternate untraced and traced tasks; per-layer metrics from the traced."""
    tracer = tracing.Tracer()
    plain_times, traced_times, per_task = [], [], []

    def step():
        elapsed, _ = ledger.run(workload, task, baseline)
        plain_times.append(elapsed)
        task_id = len(traced_times)
        tracer.install()
        try:
            traced_s, outputs = ledger.run(workload, lambda: tracer.task(task_id, task), baseline)
        finally:
            tracer.restore()
        traced_times.append(traced_s)
        metrics = tracer.task_metrics(task_id)
        metrics["cli.artifact_bytes"] = (outputs or {}).get("artifact_bytes", 0)
        per_task.append(metrics)
        return elapsed + traced_s

    _time_until(args.seconds, step)
    mismatched = tracing.count_mismatches(per_task)
    if mismatched:
        ledger.failures.append({"task": None, "missed": [f"trace counts differ between tasks: {mismatched}"]})
    metrics = tracing.summarise(per_task)
    plain, traced = statistics.median(plain_times), statistics.median(traced_times)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    spans_path = Path(args.out) / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["id", "parent", "task", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
    }) + "\n")
    return {
        "metrics": metrics,
        "per_task_metrics": per_task,
        "self_times": {
            name: {"calls": calls, "self_s": self_s}
            for name, (calls, self_s) in sorted(tracer.self_times(0).items())
        },
        "untraced_task_s": plain_times,
        "traced_task_s": traced_times,
        "summary": f"{len(traced_times)} traced tasks, tracing overhead "
        f"{100 * metrics['trace.overhead_frac']:.1f}% ({traced:.4f} s vs {plain:.4f} s)",
    }


if __name__ == "__main__":
    sys.exit(main())
