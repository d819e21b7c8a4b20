"""The scripts under ``tools/`` read private names of the package that no
other test reaches.  These checks fail when a change to the package breaks
one of them: every ``lqrfopid`` name a script reads resolves, every call it
makes into the package binds to the callee's signature, and its ``--help``
exits 0.  ``tier1_gate.py`` reads no package name; it is imported, and its
reading of a JUnit report checked.  ``tools/`` is only read."""
import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "tools").glob("*.py"))


def _package_bindings(tree):
    """The names a script binds to package objects: ``lqrfopid`` for an
    ``import lqrfopid...``, and each name of a ``from lqrfopid... import``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lqrfopid":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "lqrfopid"] = (
                        module if alias.asname else importlib.import_module("lqrfopid"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lqrfopid":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def _chain(node):
    """(root name, attribute names) of an attribute chain, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, names[::-1]) if isinstance(node, ast.Name) else None


def _resolve(bound, root, names):
    target = bound[root]
    for name in names:
        target = getattr(target, name)
    return target


# the scripts that read the package, which the name and call checks cover
PACKAGE_SCRIPTS = [script for script in SCRIPTS if _package_bindings(
    ast.parse(script.read_text(encoding="utf-8")))]


@pytest.mark.parametrize("script", PACKAGE_SCRIPTS, ids=lambda p: p.name)
def test_package_names_resolve(script):
    """Every attribute chain a script reads off a package name resolves."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    bound = _package_bindings(tree)
    chains, problems = set(), []
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            chains.add((chain[0], tuple(chain[1])))
    for root, names in sorted(chains):
        try:
            _resolve(bound, root, names)
        except AttributeError as exc:
            problems.append(f"{script.name}: {'.'.join((root, *names))}: {exc}")
    assert problems == []
    assert chains


@pytest.mark.parametrize("script", PACKAGE_SCRIPTS, ids=lambda p: p.name)
def test_calls_bind_to_signatures(script):
    """Every call a script makes into the package binds to the callee's
    signature; calls with star arguments are skipped."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    bound, problems, checked = _package_bindings(tree), [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        chain = (node.func.id, []) if isinstance(node.func, ast.Name) else _chain(node.func)
        if not chain or chain[0] not in bound:
            continue
        try:
            target = _resolve(bound, *chain)
        except AttributeError:  # test_package_names_resolve reports it
            continue
        if not callable(target):
            continue
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            problems.append(f"{script.name}:{node.lineno} {ast.unparse(node.func)}: {exc}")
        checked += 1
    assert problems == []
    assert checked > 0


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(script):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(script), "--help"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_replay_rejects_fewer_than_one_repeat():
    """``--repeats`` below 1 is refused when the arguments are parsed, with
    exit 2 and a message naming it, before any round is recorded."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for value in ("0", "-3", "two"):
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "replay_evaluations.py"),
                               "--repeats", value], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 2, (value, done.stderr)
        assert "--repeats" in done.stderr and "Traceback" not in done.stderr, done.stderr


def test_tier1_gate_reads_failures_from_junit(tmp_path):
    """The gate imports, expects only the documented reference row to fail,
    and names each failed or errored case of a JUnit report by its pytest
    node id; passed and skipped cases are not failures."""
    spec = importlib.util.spec_from_file_location("tier1_gate", ROOT / "tools" / "tier1_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert gate.EXPECTED_FAILURES == {
        "tests/test_acceptance.py::test_criterion_5_reference_index_reproduction[slug_low_isdco]"}
    report = tmp_path / "report.xml"
    report.write_text(
        '<testsuites><testsuite name="pytest">'
        '<testcase classname="tests.test_acceptance" '
        'name="test_criterion_5_reference_index_reproduction[slug_low_isdco]">'
        '<failure message="off"/></testcase>'
        '<testcase classname="tests.test_nsga2.TestOffspring" name="test_a"><error/></testcase>'
        '<testcase classname="tests.test_nsga2.TestOffspring" name="test_b"/>'
        '<testcase classname="tests.test_rules" name="test_c"><skipped/></testcase>'
        '</testsuite></testsuites>', encoding="utf-8")
    assert gate.failed_ids(report, ROOT) == {
        "tests/test_acceptance.py::test_criterion_5_reference_index_reproduction[slug_low_isdco]",
        "tests/test_nsga2.py::TestOffspring::test_a"}
