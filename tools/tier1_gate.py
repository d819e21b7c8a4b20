"""Run the tier-1 test suite and pass only on its documented outcome.

Usage, from anywhere in a checkout::

    python3 tools/tier1_gate.py

It runs ROADMAP's tier-1 command from the root of the checkout,

    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

with ``--junitxml`` into a temporary file, and reads the ids of the tests
that failed or errored.  It exits 0 only when that set is exactly
EXPECTED_FAILURES: the ``slug_low_isdco`` reference row, whose stored
index pair its own parameters cannot produce (README, "Known
discrepancies").  Any other failure or error is printed and the exit is
1; so is a pass of that row, which means the data or the simulation
changed, and a run that stops before its report.  It deselects and skips
no test, and changes no test and no test data.

Kept out of the test suite: it runs the test suite.
"""
import argparse
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
EXPECTED_FAILURES = frozenset({
    "tests/test_acceptance.py::test_criterion_5_reference_index_reproduction[slug_low_isdco]",
})


def node_id(classname: str, name: str, root: Path = ROOT) -> str:
    """The pytest node id of a JUnit test case: the longest dotted prefix of
    ``classname`` that names a file under ``root`` is the module, the rest
    its classes."""
    parts = classname.split(".") if classname else []
    for cut in range(len(parts), 0, -1):
        module = Path(*parts[:cut]).with_suffix(".py")
        if (root / module).is_file():
            return "::".join([module.as_posix(), *parts[cut:], name])
    return "::".join(filter(None, [classname, name]))


def failed_ids(junit: Path, root: Path = ROOT) -> set[str]:
    """The ids of the test cases of a JUnit XML report that failed or
    errored."""
    return {node_id(case.get("classname", ""), case.get("name", ""), root)
            for case in ET.parse(junit).getroot().iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description="Run the tier-1 test suite; exit 0 only when exactly the documented "
                    "failures fail.").parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        code = subprocess.run([sys.executable, *TIER1, f"--junitxml={junit}"],
                              cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not junit.is_file():
            print(f"tier-1 gate: pytest exited {code} without a full report", file=sys.stderr)
            return 1
        failed = failed_ids(junit)
    unexpected, passing = failed - EXPECTED_FAILURES, EXPECTED_FAILURES - failed
    for test in sorted(unexpected):
        print(f"tier-1 gate: unexpected failure: {test}", file=sys.stderr)
    for test in sorted(passing):
        print(f"tier-1 gate: documented failure now passes: {test}", file=sys.stderr)
    if unexpected or passing:
        return 1
    print(f"tier-1 gate: only the documented failures failed ({len(failed)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
