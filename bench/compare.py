"""Compare two sets of benchmark results, one row per workload and metric.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the untraced result files (`*-trace0.json`) that
bench/run.py wrote with --out.  Runs pair up by seed.  The verdict follows
the pairwise rule of the metrics guide:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, in the better direction, by more
  than the base's own spread (q3 - q1);
- unresolved: either side's spread, as a share of its median, is wider than
  the metric's bound, and not every change run beats every base run;
- worse: the change's median is worse than the base's by more than the
  bound (a share of the base median) from BENCHMARK.json;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(directory: Path) -> dict:
    """workload -> seed -> result record."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        out.setdefault(prov["workload"], {})[prov["seed"]] = record
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _wins(pairs: list, sign: float) -> int:
    return sum(1 for b, c in pairs if sign * (c - b) > 0)


def verdict(base: list, change: list, pairs: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = _quartiles(base)
    c1, cmed, c3 = _quartiles(change)
    if pairs and _wins(pairs, sign) >= 0.9 * len(pairs) and sign * (cmed - bmed) > b3 - b1:
        return "improved"
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0, (c3 - c1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "no worse"
        return "unresolved"
    if sign * (cmed - bmed) < -bound * abs(bmed):
        return "worse"
    return "no worse"


def compare(base_dir: Path, change_dir: Path, spec: dict) -> list:
    """One row per workload and end-to-end metric."""
    base, change = load_results(base_dir), load_results(change_dir)
    rows = []
    for workload in sorted(set(base) | set(change)):
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            row = {"workload": workload, "metric": name, "verdict": "missing"}
            rows.append(row)
            b_vals = [r["metrics"][name] for r in b_runs.values()]
            c_vals = [r["metrics"][name] for r in c_runs.values()]
            if not b_vals or not c_vals:
                continue
            pairs = [(b_runs[s]["metrics"][name], c_runs[s]["metrics"][name]) for s in seeds]
            row.update(
                base=(_quartiles(b_vals), len(b_vals)),
                change=(_quartiles(c_vals), len(c_vals)),
                wins=f"{_wins(pairs, 1.0 if better == 'higher' else -1.0)}/{len(pairs)}",
                verdict=verdict(b_vals, c_vals, pairs, better, metric["bound"]),
            )
    return rows


def _fmt(side) -> str:
    if side is None:
        return "-"
    (q1, med, q3), n = side
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={n}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':16} {'metric':13} {'base median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'wins':>7}  verdict")
    for row in compare(Path(argv[0]), Path(argv[1]), spec):
        print(f"{row['workload']:16} {row['metric']:13} {_fmt(row.get('base')):32} "
              f"{_fmt(row.get('change')):32} {row.get('wins', '-'):>7}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
