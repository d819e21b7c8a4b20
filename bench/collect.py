"""Collect sets of benchmark runs for ``compare.py``, one fresh process per run.

Usage::

    python3 bench/collect.py OUT_DIR --seeds 1-10
    python3 bench/collect.py OUT_DIR --seeds 1-10 --root ../parent --root .

Each run's standard output goes to ``OUT_DIR/<side>/<workload>-s<seed>-t<trace>.txt``,
where ``<side>`` numbers the ``--root`` checkouts from 0.  With several
roots, every (seed, workload) pair runs once per root, and the root that
goes first alternates from one pair to the next.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="comma list of seeds and ranges, e.g. 1-10 or 3,7,11-12")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: every workload of BENCHMARK.json)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, action="append", default=None,
                        help="checkout to run; repeat to alternate between checkouts")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    roots = [r.resolve() for r in (args.root or [ROOT])]
    failures = 0
    pair = 0
    for seed in args.seeds:
        for name in names:
            order = list(enumerate(roots))
            if pair % 2:
                order.reverse()
            pair += 1
            for side, root in order:
                out = args.out / str(side)
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"{name}-s{seed}-t{args.trace}.txt"
                with open(path, "w", encoding="utf-8") as fh:
                    done = subprocess.run(
                        [sys.executable, "bench/run.py", "--workload", name,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(args.trace)], cwd=root, stdout=fh)
                failures += done.returncode != 0
                print(f"side {side} {name} seed {seed}: exit {done.returncode} -> {path}",
                      flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
