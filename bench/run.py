"""Benchmark of the lqrfopid design pipeline.

Usage, from the root of a checkout::

    python3 bench/run.py --workload search-osc-fine --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one fresh process each

A run repeats whole rounds of its workload for about ``--seconds``,
checks the outputs against the independent computations in
``oracle.py``, prints one line describing the run and its machine, and
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; it exits with 0 whenever it prints that line.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The package is imported from ``src/`` of the
same checkout.
"""
import os

# pinned before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
EXIT_NO_PACKAGE = 2


def import_package():
    """Import ``lqrfopid`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import lqrfopid

    if Path(lqrfopid.__file__).resolve().parent != ROOT / "src" / "lqrfopid":
        raise ImportError(f"lqrfopid imported from {lqrfopid.__file__}, not from src/")
    return lqrfopid


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-only"], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def fresh_round(workload, inputs, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    return workload.run_round(inputs, out_dir)


def traced_pair(workload, inputs, out_dir, tracer, traced_first):
    """One untraced and one traced round."""
    if traced_first:
        with tracer:
            traced = fresh_round(workload, inputs, out_dir)
    plain = fresh_round(workload, inputs, out_dir)
    if not traced_first:
        with tracer:
            traced = fresh_round(workload, inputs, out_dir)
    return plain, traced


def run_rounds(one_round, seconds):
    """Whole rounds, at least one, while the next is expected to end in time."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def fastest(rounds) -> float:
    """Round time with every part at its fastest repeat.

    The shared host switches between a fast regime and one about half as
    fast, for seconds to a minute at a time; the fastest repeat of each
    short part is the figure that repeats from run to run.
    """
    return sum(min(r.parts.get(name, r.seconds) for r in rounds) for name in rounds[0].parts)


def end_to_end(workload, rounds, setup_times) -> dict:
    front_s = fastest(rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "front_s": (front_s, "s"),
        "evals_per_s": (rounds[0].ops / front_s, "1/s"),
    }
    for name, value in workload.quality(rounds[-1]).items():
        metrics[name] = (value, "1")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return metrics


def run_workload(args) -> int:
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, str(BENCH))
    import workloads as wl
    from spans import Tracer, layer_metrics

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    if args.setup_only:
        workload.inputs(args.seed)
        return 0
    inputs = workload.inputs(args.seed)
    out_dir = OUT / f"{args.workload}-{args.seed}"
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(), "config": workload.describe()}
    if args.trace:
        tracer, order = Tracer(), itertools.count()
        pairs = run_rounds(lambda: traced_pair(workload, inputs, out_dir, tracer,
                                               traced_first=next(order) % 2 == 1),
                           args.seconds)
        metrics = layer_metrics(tracer.spans, len(pairs))
        overhead = fastest([t for _, t in pairs]) - fastest([u for u, _ in pairs])
        metrics["trace.overhead_s"] = (overhead, "s")
        rounds = [r for pair in pairs for r in pair]
    else:
        # set-up probes are spread over the run, one before each early round;
        # only the last round keeps its outputs, so memory does not grow
        setup_times, previous = [], []

        def probed_round():
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(time_setup(args))
            for earlier in previous:
                earlier.outputs = None
            previous[:] = [fresh_round(workload, inputs, out_dir)]
            return previous[0]

        rounds = run_rounds(probed_round, args.seconds)
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(args))
        metrics = end_to_end(workload, rounds, setup_times)
    problems, details = workload.check(inputs, rounds)
    info["round_seconds"] = [r.seconds for r in rounds]
    info.update(details)
    info["problems"] = problems
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"bench": info}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload of BENCHMARK.json in a fresh interpreter, one after another."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    worst = 0
    for name in names:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="workload name; omit to run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
