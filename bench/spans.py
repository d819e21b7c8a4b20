"""In-memory spans around the package's public functions.

:class:`Tracer` replaces a function in the module that looks it up at
call time (``lqrfopid.sim.simulate_closed_loop`` for the calls inside
``sim``, ``lqrfopid.design.solve_care`` for those inside ``design``, ...)
with a wrapper that records a span: layer name, start, end, parent span
and a few attributes read from the arguments and the result.  Nothing in
``src/`` changes.  :func:`layer_metrics` turns the spans of a run into the
per-layer metrics listed in the benchmark's README.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# (module that looks the function up, attribute, span name)
TRACE_POINTS = (
    ("lqrfopid.cli", "run_nsga2", "nsga2.run"),
    ("lqrfopid.cli", "write_front_csv", "cli.write_front_csv"),
    ("lqrfopid.nsga2", "evaluate_design_objectives", "nsga2.objective"),
    ("lqrfopid.nsga2", "fast_nondominated_sort", "nsga2.sort"),
    ("lqrfopid.nsga2", "crowding_distance", "nsga2.crowding"),
    ("lqrfopid.nsga2", "make_offspring", "nsga2.offspring"),
    ("lqrfopid.nsga2", "design_from_vars", "design.gain_map"),
    ("lqrfopid.sim", "design_from_vars", "design.gain_map"),
    ("lqrfopid.design", "solve_care", "matops.solve_care"),
    ("lqrfopid.design", "expm", "matops.expm"),
    ("lqrfopid.sim", "expm", "matops.expm"),
    ("lqrfopid.sim", "differintegrator_ss", "fracnum.realize"),
    ("lqrfopid.sim", "gl_coefficients", "fracnum.realize"),
    ("lqrfopid.sim", "simulate_closed_loop", "sim.closed_loop"),
    ("lqrfopid.sim", "simulate_open_loop_step", "sim.open_loop"),
    ("lqrfopid.sim", "performance_indices", "sim.indices"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _sim_attrs(span: Span, args, kwargs, result) -> None:
    span.attrs["solver"] = kwargs.get("solver", args[3] if len(args) > 3 else "oustaloup")
    span.attrs["samples"] = int(result.t.shape[0])
    span.attrs["diverged"] = bool(result.diverged)


ATTRIBUTES = {"sim.closed_loop": _sim_attrs}


class Tracer:
    """Wraps the trace points while active; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        attrs_of = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, start=time.perf_counter(), parent=parent)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            else:
                if attrs_of is not None:
                    attrs_of(span, args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.duration

        return wrapper

    def __enter__(self):
        for module_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``*_p50`` / ``*_p90`` are per-call percentiles,
    counts and ``*_ms`` / ``*_s`` totals are per round."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name):
        return [s.duration for s in by_name.get(name, [])]

    def total(name):
        return sum(durations(name))

    closed = by_name.get("sim.closed_loop", [])
    ous = [s for s in closed if s.attrs.get("solver") == "oustaloup"]
    ous_samples = sum(s.attrs["samples"] for s in ous)
    gain_maps = by_name.get("design.gain_map", [])

    # an evaluation is penalized for the first step under it that failed:
    # no gain map (the variables were out of bounds), a failed gain map, or a
    # diverged simulation
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    causes = {"bounds": 0, "care": 0, "diverged": 0}
    objectives = [(i, s) for i, s in enumerate(spans) if s.name == "nsga2.objective"]
    for i, s in objectives:
        kids = children.get(i, [])
        design = [k for k in kids if k.name == "design.gain_map"]
        sims = [k for k in kids if k.name == "sim.closed_loop"]
        if not design:
            causes["bounds"] += 1
        elif "error" in design[0].attrs:
            causes["care"] += 1
        elif sims and sims[0].attrs["diverged"]:
            causes["diverged"] += 1
    evals = len(objectives)
    penalized = sum(causes.values())
    nsga2_self = total("nsga2.run") - sum(s.duration for _, s in objectives)

    per_round = 1.0 / max(rounds, 1)
    m = {
        "sim.ns_per_sample": (1e9 * sum(s.self_time for s in ous) / ous_samples
                              if ous_samples else 0.0, "ns"),
        "sim.closed_loop_ms_p50": (_ms([s.duration for s in ous], 50), "ms"),
        "sim.closed_loop_ms_p90": (_ms([s.duration for s in ous], 90), "ms"),
        "sim.samples": (per_round * sum(s.attrs["samples"] for s in closed), "count"),
        "sim.gl_closed_loop_ms_p50": (
            _ms([s.duration for s in closed if s.attrs.get("solver") == "gl"], 50), "ms"),
        "sim.open_loop_ms_p50": (_ms(durations("sim.open_loop"), 50), "ms"),
        "sim.indices_ms_p50": (_ms(durations("sim.indices"), 50), "ms"),
        "sim.diverged": (per_round * sum(s.attrs["diverged"] for s in closed), "count"),
        "fracnum.realize_ms_p50": (_ms(durations("fracnum.realize"), 50), "ms"),
        "fracnum.realize_calls": (per_round * len(durations("fracnum.realize")), "count"),
        "design.gain_map_ms_p50": (_ms([s.duration for s in gain_maps], 50), "ms"),
        "design.gain_map_ms_p90": (_ms([s.duration for s in gain_maps], 90), "ms"),
        "design.calls": (per_round * len(gain_maps), "count"),
        "design.care_failures": (
            per_round * sum("error" in s.attrs for s in gain_maps), "count"),
        "matops.solve_care_ms_p50": (_ms(durations("matops.solve_care"), 50), "ms"),
        "matops.expm_ms_p50": (_ms(durations("matops.expm"), 50), "ms"),
        "nsga2.self_s": (per_round * nsga2_self, "s"),
        "nsga2.sort_ms": (per_round * 1e3 * total("nsga2.sort"), "ms"),
        "nsga2.crowding_ms": (per_round * 1e3 * total("nsga2.crowding"), "ms"),
        "nsga2.offspring_ms": (per_round * 1e3 * total("nsga2.offspring"), "ms"),
        "nsga2.evals": (per_round * evals, "count"),
        "nsga2.penalized_bounds": (per_round * causes["bounds"], "count"),
        "nsga2.penalized_care": (per_round * causes["care"], "count"),
        "nsga2.penalized_diverged": (per_round * causes["diverged"], "count"),
        "nsga2.useful_ratio": ((evals - penalized) / evals if evals else 0.0, "1"),
        "cli.write_front_csv_ms": (per_round * 1e3 * total("cli.write_front_csv"), "ms"),
    }
    return m
