"""The benchmark under ``bench/`` reaches into the package by module
attribute, by import and by command line.  These checks fail when a change
to the package breaks one of those entry points; ``bench/`` is only read."""
import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from lqrfopid import (FopidController, NioptdPlant, Scenario, robustness_sweep,
                      simulate_closed_loop, simulate_open_loop_step)
from lqrfopid.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("spans", "workloads", "oracle"):
            sys.modules.pop(name, None)


def test_trace_points_resolve(bench_modules):
    spans, _ = bench_modules
    for module_name, attr, _ in spans.TRACE_POINTS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_search_workload_argv_parses(bench_modules):
    _, workloads = bench_modules
    searches = [w for w in workloads.WORKLOADS.values()
                if isinstance(w, workloads.SearchWorkload)]
    assert searches
    for workload in searches:
        # a parse error exits through SystemExit and fails the test
        args = build_parser().parse_args(workload.inputs(1) + ["--out-dir", "out"])
        assert args.command == "design"


def test_imported_names_resolve():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.module or "").split(".")[0] == "lqrfopid":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def _bench_target(func, imported):
    """The package object a call in ``bench/`` names: a name imported from
    ``lqrfopid`` or an attribute chain ``lqrfopid.<module>.<name>``; None
    for any other call."""
    if isinstance(func, ast.Name):
        return imported.get(func.id)
    chain = []
    while isinstance(func, ast.Attribute):
        chain.append(func.attr)
        func = func.value
    if not (isinstance(func, ast.Name) and func.id == "lqrfopid" and len(chain) >= 2):
        return None
    target = importlib.import_module(f"lqrfopid.{chain.pop()}")
    while chain:
        target = getattr(target, chain.pop())
    return target


def test_calls_bind_to_signatures():
    """Every call ``bench/`` makes into the package, with the positional and
    keyword arguments it passes, binds to the callee's signature; calls
    with star arguments are skipped."""
    bound, problems = 0, []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lqrfopid":
                module = importlib.import_module(node.module)
                imported.update((a.asname or a.name, getattr(module, a.name)) for a in node.names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _bench_target(node.func, imported)
            if target is None or any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                continue
            try:
                inspect.signature(target).bind(*node.args, **{k.arg: k for k in node.keywords})
            except TypeError as exc:
                problems.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}: {exc}")
            bound += 1
    assert problems == []
    assert bound > 0


# what bench/ reads off results: spans._sim_attrs (t, diverged), the
# workload checks and digests (y, u, x2, itse, isdco), the sweep surfaces
# and, through write_sweep_csv, the grids
RESULT_ATTRIBUTES = ("t", "y", "u", "x2", "itse", "isdco", "diverged")
SWEEP_ATTRIBUTES = ("L_grid", "T_grid", "itse", "isdco", "diverged")


def _assert_readable(result, names):
    for name in names:
        value = getattr(result, name)
        if name == "diverged" and not isinstance(value, np.ndarray):
            assert isinstance(value, bool), name
        else:
            assert isinstance(value, (np.ndarray, float)), (name, type(value))


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
def test_result_attributes_bench_reads(solver):
    """Open loops, a surviving and a diverging closed loop, and a sweep give
    every attribute bench/ reads as an ndarray or a float (a bool flag)."""
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=1.5)
    scenario = Scenario(horizon=20.0, disturbance_time=10.0, disturbance_magnitude=0.1)
    controllers = (FopidController(kp=0.7, ki=0.5, kd=1.8, lam=1.1, mu=0.45),
                   FopidController(kp=8.0, ki=0.5, kd=0.0, lam=1.0, mu=0.5))
    results = [simulate_open_loop_step(plant, horizon=20.0, solver=solver)]
    results += [simulate_closed_loop(plant, c, scenario, solver=solver) for c in controllers]
    assert [r.diverged for r in results] == [False, False, True]
    for result in results:
        _assert_readable(result, RESULT_ATTRIBUTES)
    sweep = robustness_sweep(plant, controllers[0], [0.4, 0.6], [2.0], scenario)
    _assert_readable(sweep, SWEEP_ATTRIBUTES)
