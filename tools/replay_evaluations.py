"""Replay the design evaluations of one benchmark round, layer by layer.

Usage, from the root of a checkout::

    python3 tools/replay_evaluations.py --workload search-slug-coarse --repeats 5

It records one round of a search workload of ``bench/workloads.py`` (the
in-process ``lqrfopid design`` run), keeping the arguments of every
evaluation.  It then replays the evaluations in the order of the round.
Each layer of an evaluation is timed ``--repeats`` times, and the fastest
time is kept.

Layers: the gain map (``design_from_vars``); the controller set-up (a new
controller entry and its H to the first stage); the first block (the
engine on that entry, for loops that cross within the first stage); the
whole evaluation (``evaluate_design_objectives``, which builds its own
controller entry).  The per-layer figures are medians over the
evaluations whose loop crosses within the first stage, the penalized
evaluations of an early search; the sum over all evaluations is printed
too.  The evaluations the early verdict decides (no controller entry or
loop built) are counted, and their whole evaluations timed, apart by
the sample that decided them, d + 1 or 2 (d + 1), and apart from the
other early crossings.  Every replayed objective must equal the recorded
one to the bit.

Kept out of the test suite: its figures are timings.
"""
import os

# pinned before numpy loads its BLAS, as bench/run.py pins them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import lqrfopid.nsga2  # noqa: E402
from lqrfopid import sim  # noqa: E402
from lqrfopid.design import design_from_vars, LqrDesignVars  # noqa: E402
from lqrfopid.matops import CareFailure  # noqa: E402

import workloads  # noqa: E402

LAYERS = ("gain_map", "controller_setup", "first_block", "evaluation")


def record(name: str):
    """The (plant, vars, method, scenario, objectives) of every evaluation of
    one round of the workload, in order."""
    workload = workloads.WORKLOADS[name]
    calls = []
    evaluate = lqrfopid.nsga2.evaluate_design_objectives

    def recorded(plant, vars, method, scenario):
        calls.append((plant, vars, method, scenario, evaluate(plant, vars, method, scenario)))
        return calls[-1][-1]

    lqrfopid.nsga2.evaluate_design_objectives = recorded
    try:
        with tempfile.TemporaryDirectory() as out:
            workload.run_round(workload.inputs(1), Path(out))
    finally:
        lqrfopid.nsga2.evaluate_design_objectives = evaluate
    return calls


def fastest(run, repeats):
    """The fastest of ``repeats`` calls of ``run`` (seconds) and its last
    result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def verdict_of(crossed, plant, scenario):
    """What the early verdict made of an evaluation from the sample it
    returned, ``crossed``: ``first`` (decided at sample d + 1), ``second``
    (decided at 2 (d + 1)) or None (left to the engine)."""
    if crossed is None:
        return None
    return "first" if crossed == int(round(plant.L / scenario.step_size)) + 1 else "second"


def replay(call, repeats):
    """The fastest time of each layer of one evaluation, its objectives,
    whether its loop crossed within the first stage and what the early
    verdict made of it."""
    plant, vars, method, scenario, _ = call
    h, n, band = scenario.step_size, scenario.n_steps, sim.DEFAULT_BAND

    def evaluation():
        return sim.evaluate_design_objectives(plant, vars, method, scenario)

    times = {}
    try:
        design = LqrDesignVars.from_array(np.asarray(vars, dtype=float))
        times["gain_map"], controller = fastest(lambda: design_from_vars(plant, design, method),
                                                repeats)
    except (CareFailure, ValueError):
        controller = None
    crossed_early, verdict = False, None
    if controller is not None:
        verdict = verdict_of(sim._early_verdict(plant, controller, scenario), plant, scenario)
        first = sim._next_stage(0, n)

        def setup():
            runs = sim._ControllerRuns(controller, h, "oustaloup", band, n)
            runs.grown(first)
            return runs

        times["controller_setup"], _ = fastest(setup, repeats)
        at_rest = sim._PlantAtRest(replace(plant, L=0.0), h, "oustaloup", band, n)
        r = scenario.setpoint
        loop = (at_rest, [int(round(plant.L / h))], None, r,
                sim._first_sample_at(n, h, scenario.disturbance_time),
                scenario.disturbance_magnitude, sim._divergence_bound(r), n)
        runs = [setup() for _ in range(repeats)]
        [(_, k)] = sim._loop_output(*loop[:2], runs[0], *loop[3:])
        # the terms of H the loop grew its entry to
        crossed_early = k is not None and runs[0].H.terms.size <= first
        if crossed_early:
            times["first_block"] = min(fastest(lambda: sim._loop_output(
                *loop[:2], entry, *loop[3:]), 1)[0] for entry in runs)
    times["evaluation"], objectives = fastest(evaluation, repeats)
    return times, objectives, crossed_early, verdict


def repeat_count(text: str) -> int:
    """A --repeats value: a whole number of at least 1."""
    try:
        repeats = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
    if repeats < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {repeats}")
    return repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="search-slug-coarse",
                        choices=[n for n in workloads.WORKLOADS if n.startswith("search-")])
    parser.add_argument("--repeats", type=repeat_count, default=5)
    args = parser.parse_args(argv)
    calls = record(args.workload)
    n = calls[0][3].n_steps

    layers = {layer: [] for layer in LAYERS}
    total = 0.0
    counts = dict(early=0, controllers=0, first=0, second=0)
    # whole evaluations decided by the early verdict, by the sample that
    # decided them, and of the other early crossings
    kinds = ("first", "second", "other")
    decided = {kind: [] for kind in kinds}
    mismatches = 0
    for call in calls:
        times, objectives, crossed, verdict = replay(call, args.repeats)
        total += times["evaluation"]
        mismatches += [v.hex() for v in objectives] != [v.hex() for v in call[4]]
        if crossed:
            for layer in LAYERS:
                layers[layer].append(times[layer])
        kind = verdict or ("other" if crossed else None)
        if kind is not None:
            decided[kind].append(times["evaluation"])
        if "controller_setup" in times:
            counts["controllers"] += 1
            counts["early"] += crossed
            if verdict is not None:
                counts[verdict] += 1

    print(f"workload {args.workload}: {len(calls)} evaluations, {counts['controllers']} "
          f"with a controller, {counts['early']} of them crossing within the first stage "
          f"({sim._next_stage(0, n)} of N = {n} terms); fastest of {args.repeats}, "
          f"BLAS threads 1")
    print(f"objectives equal to the round's, to the bit: "
          f"{'yes' if not mismatches else f'NO ({mismatches} differ)'}")
    print(f"median ms, early crossings ({len(layers['evaluation'])})")
    for layer in LAYERS:
        ms = statistics.median(layers[layer]) * 1e3 if layers[layer] else float("nan")
        print(f"  {layer:50s} {ms:9.4f}")
    print(f"early verdict, of {counts['controllers']} evaluations with a controller: "
          f"{counts['first']} decided at sample d + 1, {counts['second']} at sample 2 (d + 1)")
    labels = {"first": "decided at d + 1", "second": "decided at 2 (d + 1)",
              "other": "other early crossings"}
    for kind in kinds:
        ms = statistics.median(decided[kind]) * 1e3 if decided[kind] else float("nan")
        label = f"median evaluation ms, {labels[kind]} ({len(decided[kind])})"
        print(f"  {label:50s} {ms:9.4f}")
    print(f"{'all evaluations, summed (ms)':52s} {total * 1e3:9.2f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
