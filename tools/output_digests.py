"""Print, as one JSON object, digests of what the benchmark's workloads
compute, so two checkouts can be compared bit for bit.

Usage, from the root of a checkout::

    python3 tools/output_digests.py > digests.json

Run it in two checkouts and ``diff`` the outputs: equal digests mean equal
outputs.  It prints

* each search workload's round digest (``bench/workloads.py``: the exit
  code, stdout, ``front_cai.csv`` and ``front_he.csv`` of one in-process
  ``lqrfopid design`` run);
* the number of design evaluations of those rounds and one SHA-256 over
  all their objectives, each written in hex (``float.hex``), in order;
* the ``sweep-verify`` round digest for each of the seeds 1 to 10.

Each round writes its files under a temporary directory, given to the
workloads by the same relative path in every checkout, since the design
run prints where it wrote its fronts.  ``bench/`` is only read.

Kept out of the test suite: it runs whole benchmark rounds.
"""
import os

# pinned before numpy loads its BLAS, as bench/run.py pins them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import lqrfopid.nsga2  # noqa: E402
from lqrfopid.sim import evaluate_design_objectives  # noqa: E402

import workloads  # noqa: E402

SWEEP_SEEDS = range(1, 11)


def digests() -> dict:
    """The digests of one round of each search workload, of the objectives
    their evaluations returned, and of sweep-verify for each seed."""
    objectives = []

    def recorded(plant, vars, method, scenario):
        result = evaluate_design_objectives(plant, vars, method, scenario)
        objectives.append(" ".join(v.hex() for v in result))
        return result

    out = {}
    lqrfopid.nsga2.evaluate_design_objectives = recorded
    try:
        for name, workload in workloads.WORKLOADS.items():
            if name.startswith("search-"):
                out[name] = workload.run_round(workload.inputs(1), Path(name)).digest
    finally:
        lqrfopid.nsga2.evaluate_design_objectives = evaluate_design_objectives
    out["evaluations"] = len(objectives)
    out["objectives"] = hashlib.sha256("\n".join(objectives).encode()).hexdigest()
    sweep = workloads.WORKLOADS["sweep-verify"]
    out[sweep.name] = {seed: sweep.run_round(sweep.inputs(seed), Path(f"{sweep.name}-{seed}"))
                       .digest for seed in SWEEP_SEEDS}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            result = digests()
        finally:
            os.chdir(here)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
