"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the standard output of ``bench/run.py`` runs, one
file per run (``bench/collect.py`` writes them).  Runs are paired by
workload and seed.  For every end-to-end metric of ``BENCHMARK.json`` the
row shows the median and quartiles of each side and a label:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the base's
  inter-quartile distance;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: the spread of either side (inter-quartile distance over
  median) is wider than the bound, unless every change run beats every
  base run.  ``setup_s`` is never unresolved: only its median counts;
* ``unchanged``: none of the above.

The exit code is 0 only when no row is worse or unresolved, every run
checked its outputs as correct, and both sides failed the same share of
operations.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> {"result": last-line JSON, "bench": description}
    for the untraced runs in ``directory``."""
    runs = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        try:
            info = json.loads(lines[-2])["bench"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError, TypeError):
            print(f"skipping {path}: not a finished run", file=sys.stderr)
            continue
        if info["trace"]:
            continue
        runs[(info["workload"], info["seed"])] = {"result": result, "bench": info}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def label(base: list[float], change: list[float], better: str, bound: float,
          median_only: bool = False) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    won = f"{wins}/{len(pairs)}"
    if wins >= 0.9 * len(pairs) and sign * (cm - bm) > b3 - b1:
        return "improved", won
    if sign * (cm - bm) < -bound * abs(bm):
        return "worse", won
    if not median_only and ((b3 - b1) > bound * abs(bm) or (c3 - c1) > bound * abs(cm)):
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "improved", won
        return "unresolved", won
    return "unchanged", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    base, change = load_runs(args.base), load_runs(args.change)
    ok = True
    row = "{:<20} {:<12} {:<5} {:<34} {:<34} {:>8} {:>6}  {}"
    print(row.format("workload", "metric", "unit", "base median [q1, q3]",
                     "change median [q1, q3]", "delta", "won", "label"))
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (w, s) in base if w == workload and (w, s) in change)
        if not seeds:
            print(f"{workload:<20} no runs on both sides")
            ok = False
            continue
        a = [base[(workload, s)]["result"] for s in seeds]
        b = [change[(workload, s)]["result"] for s in seeds]
        if not all(r["correct"] for r in a + b):
            print(f"{workload:<20} some runs reported incorrect outputs")
            ok = False
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if share_a != share_b:
            print(f"{workload:<20} failed share differs: {share_a:.6g} vs {share_b:.6g}")
            ok = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            verdict, won = label(va, vb, metric["better"], metric["bound"],
                                 median_only=name == "setup_s")
            if verdict in ("worse", "unresolved"):
                ok = False
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            print(row.format(workload, name, metric["unit"],
                             f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]",
                             f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]",
                             f"{delta:+.1%}", won, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
