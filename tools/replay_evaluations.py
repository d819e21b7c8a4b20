"""Replay the design evaluations of one benchmark round, layer by layer,
outside and inside a design run's order table.

Usage, from the root of a checkout::

    python3 tools/replay_evaluations.py --workload search-slug-coarse --repeats 5

It records one round of a search workload of ``bench/workloads.py`` (the
in-process ``lqrfopid design`` run), keeping the arguments of every
evaluation.  It then replays the evaluations in the order of the round.
Each evaluation is timed ``--repeats`` times per side, the two sides
alternating, and the fastest time is kept:

* outside: no table, as any caller outside a design run sees it;
* inside: one table for the whole replay, as the round's ``design`` run
  holds it, in the state the round left it in before that evaluation.

Layers: the gain map (``design_from_vars``); the controller set-up (a new
controller entry and its H to the first stage); the first block (the
engine on that entry, for loops that cross within the first stage); the
whole evaluation (``evaluate_design_objectives``, which builds its own
controller entry).  The per-layer figures are medians over the evaluations whose loop
crosses within the first stage, the penalized evaluations of an early
search, apart for those whose two orders the table already holds and the
rest; the sum over all evaluations is printed too.  The evaluations the
early verdict decides (no controller entry or kernel built) are counted,
and their whole evaluations timed, apart by the sample that decided
them, d + 1 or 2 (d + 1), and apart from the other early crossings; so
are the candidates at 2 (d + 1) it builds the modes for and leaves to
the engine.  Every replayed
objective must equal the recorded one to the bit.  Then the table: order
lookups, hits (within one search and across searches), the controllers
with both orders known and how many of those grow past the first stage,
entries and bytes.

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
    one round of the workload, in order, and the evaluations per search."""
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
    return calls, workload.pop * (workload.gens + 1)


def fastest(run, repeats, undo=None):
    """The fastest of ``repeats`` calls of ``run`` (seconds) and its last
    result; ``undo()`` after every call but the last."""
    best = float("inf")
    for i in range(repeats):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
        if undo is not None and i < repeats - 1:
            undo()
    return best, result


def verdict_of(plant, controller, scenario):
    """What the early verdict made of an evaluation: ``first`` (decided at
    sample d + 1), ``second`` (decided at 2 (d + 1)), ``candidate`` (modes
    built, left to the engine) or None."""
    crossed, modes = sim._early_verdict(plant, controller, scenario)
    if crossed is None:
        return None if modes is None else "candidate"
    return "first" if crossed == int(round(plant.L / scenario.step_size)) + 1 else "second"


def replay(call, repeats, inside: bool):
    """The fastest time of each layer of one evaluation, its objectives,
    whether its loop crossed within the first stage, whether it grew past
    it and what the early verdict made of it; inside the table, the
    entries the evaluation adds are taken out after every repeat but the
    last, so each repeat meets the table as the round did."""
    plant, vars, method, scenario, _ = call
    h, n, band = scenario.step_size, scenario.n_steps, sim.DEFAULT_BAND
    table = sim._ORDER_TABLE if inside else None
    new = [key for key in order_keys(call) if table is not None and key not in table]

    def undo():
        for key in new:
            table.pop(key, None)

    def evaluation():
        return sim.evaluate_design_objectives(plant, vars, method, scenario)

    times = {}
    try:
        design = LqrDesignVars.from_array(np.asarray(vars, dtype=float))
        times["gain_map"], controller = fastest(lambda: design_from_vars(plant, design, method),
                                                repeats)
    except (CareFailure, ValueError):
        controller = None
    crossed_early = grew = False
    verdict = None
    if controller is not None:
        verdict = verdict_of(plant, controller, scenario)
        first = sim._next_stage(0, n)

        def setup():
            runs = sim._ControllerRuns(controller, h, "oustaloup", band, n)
            runs.grown(first)
            return runs

        times["controller_setup"], _ = fastest(setup, repeats, undo)
        undo()
        at_rest = sim._PlantAtRest(replace(plant, L=0.0), h, "oustaloup", band, n)
        r = scenario.setpoint
        loop = (at_rest, [int(round(plant.L / h))], None, r,
                sim._first_sample_at(n, h, scenario.disturbance_time),
                scenario.disturbance_magnitude, sim._divergence_bound(r), n)
        runs = []
        for _ in range(repeats):
            runs.append(setup())
            undo()
        [(_, k)] = sim._loop_output(*loop[:2], runs[0], *loop[3:])
        # the terms of H the loop grew its entry to
        built = runs[0].H.terms.size
        crossed_early, grew = k is not None and built <= first, built > first
        if crossed_early:
            times["first_block"] = min(fastest(lambda: sim._loop_output(
                *loop[:2], entry, *loop[3:]), 1)[0] for entry in runs)
    times["evaluation"], objectives = fastest(evaluation, repeats, undo)
    return times, objectives, crossed_early, grew, verdict


def order_keys(call):
    """The table keys of the two operator orders of an evaluation."""
    _, vars, _, scenario, _ = call
    lam, mu = np.asarray(vars, dtype=float)[4:6].tolist()
    return [(g, scenario.step_size, sim.DEFAULT_BAND, scenario.n_steps) for g in (-lam, mu)]


def table_bytes(table) -> tuple[int, int]:
    """Bytes of the table's entries (keys, tuples, arrays and the arrays
    they view), and of the dict itself."""
    seen, total = set(), 0

    def size(obj):
        nonlocal total
        if id(obj) in seen:
            return
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, tuple):
            for item in obj:
                size(item)
        elif isinstance(obj, np.ndarray) and obj.base is not None:
            size(obj.base)

    seen.add(id(sim.DEFAULT_BAND))  # shared by every key
    for key, entry in table.items():
        size(key)
        size(entry)
    return total, sys.getsizeof(table)


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
    calls, per_search = record(args.workload)
    n = calls[0][3].n_steps

    groups = ("both orders known", "a new order")
    layers = {(group, side): {layer: [] for layer in LAYERS}
              for group in groups for side in ("outside", "inside")}
    totals = {"outside": 0.0, "inside": 0.0}
    searches_seen = {}
    counts = dict(lookups=0, hits=0, hits_in_search=0, both=0, grown=0, early=0, controllers=0,
                  first=0, second=0, candidate=0)
    # whole evaluations decided by the early verdict, by the sample that
    # decided them, and of the other early crossings
    kinds = ("first", "second", "other")
    decided = {(kind, side): [] for kind in kinds for side in ("outside", "inside")}
    mismatches = 0
    with sim._design_run():
        table = sim._ORDER_TABLE
        for i, call in enumerate(calls):
            keys = order_keys(call)
            search = searches_seen.setdefault(i // per_search, set())
            known = [key in table for key in keys]
            results = {}
            # alternate which side goes first
            for side in (("outside", "inside") if i % 2 else ("inside", "outside")):
                if side == "outside":
                    sim._ORDER_TABLE = None
                try:
                    results[side] = replay(call, args.repeats, side == "inside")
                finally:
                    sim._ORDER_TABLE = table
            crossed, grew, verdict = results["outside"][2:]
            kind = verdict if verdict in ("first", "second") else "other" if crossed else None
            for side, (times, objectives, *_) in results.items():
                totals[side] += times["evaluation"]
                mismatches += [v.hex() for v in objectives] != [v.hex() for v in call[4]]
                if crossed:
                    for layer in LAYERS:
                        layers[groups[not all(known)], side][layer].append(times[layer])
                if kind is not None:
                    decided[kind, side].append(times["evaluation"])
            if "controller_setup" in results["outside"][0]:
                counts["controllers"] += 1
                counts["lookups"] += 2
                counts["hits"] += sum(known)
                counts["hits_in_search"] += sum(key in search for key in keys)
                counts["both"] += all(known)
                counts["grown"] += all(known) and grew
                counts["early"] += crossed
                if verdict is not None:
                    counts[verdict] += 1
                search.update(keys)
        entries = len(table)
        entry_bytes, dict_bytes = table_bytes(table)

    print(f"workload {args.workload}: {len(calls)} evaluations, {counts['controllers']} "
          f"with a controller, {counts['early']} of them crossing within the first stage "
          f"({sim._next_stage(0, n)} of N = {n} terms); fastest of {args.repeats}, "
          f"BLAS threads 1")
    print(f"objectives equal to the round's, to the bit: "
          f"{'yes' if not mismatches else f'NO ({mismatches} differ)'}")
    for group in groups:
        early = len(layers[group, "outside"]["evaluation"])
        print(f"{f'median ms, early crossings with {group} ({early})':52s} "
              f"{'outside':>9s} {'inside':>9s}")
        for layer in LAYERS:
            a, b = (statistics.median(layers[group, s][layer]) * 1e3
                    if layers[group, s][layer] else float("nan") for s in ("outside", "inside"))
            print(f"  {layer:50s} {a:9.4f} {b:9.4f}")
    print(f"early verdict, of {counts['controllers']} evaluations with a controller: "
          f"{counts['first']} decided at sample d + 1, {counts['second']} at sample "
          f"2 (d + 1), {counts['candidate']} candidates at 2 (d + 1) left to the engine")
    labels = {"first": "decided at d + 1", "second": "decided at 2 (d + 1)",
              "other": "other early crossings"}
    for kind in kinds:
        a, b = (statistics.median(decided[kind, s]) * 1e3
                if decided[kind, s] else float("nan") for s in ("outside", "inside"))
        label = f"median evaluation ms, {labels[kind]} ({len(decided[kind, 'outside'])})"
        print(f"  {label:50s} {a:9.4f} {b:9.4f}")
    print(f"{'all evaluations, summed (ms)':52s} {totals['outside'] * 1e3:9.2f} "
          f"{totals['inside'] * 1e3:9.2f}")
    print(f"table: {counts['lookups']} order lookups, {counts['hits']} hits "
          f"({counts['hits_in_search']} within their own search), {counts['both']} controllers "
          f"with both orders known ({counts['grown']} growing past the first stage); "
          f"{entries} entries, {entry_bytes} bytes "
          f"({entry_bytes / max(entries, 1):.0f} per entry) plus {dict_bytes} for the dict")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
