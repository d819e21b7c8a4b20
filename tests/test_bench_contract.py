"""The benchmark under ``bench/`` reaches into the package by module
attribute, by import and by command line.  These checks fail when a change
to the package breaks one of those entry points; ``bench/`` is only read."""
import ast
import importlib
import sys
from pathlib import Path

import pytest

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
