"""Single-call timings of the pipeline's stages, for the README's reference table.

Usage, from the root of a checkout::

    python3 bench/reference_figures.py

Prints one line per stage with the median and quartiles of repeated
calls, in milliseconds, and the line count of ``src/``.  Each stage runs
on the oscillatory reference design ``osc_median`` (He method) at the
default grid, h = 0.01 s and a 100 s horizon.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lqrfopid import (  # noqa: E402
    DelayMethod,
    LqrDesignVars,
    MooConfig,
    NioptdPlant,
    Scenario,
    design_from_vars,
    differintegrator_ss,
    evaluate_design_objectives,
    performance_indices,
    simulate_closed_loop,
)
from lqrfopid.nsga2 import _survival  # noqa: E402
from lqrfopid.sim import _plant_ss, _zoh  # noqa: E402


def timed(label, fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"{label:<44} {q2:9.3f} ms  [{q1:.3f}, {q3:.3f}]  n={repeats}")


def main():
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=1.5)
    weights = LqrDesignVars(0.643793, 0.02965, 0.062444, 0.34342, 1.133782, 0.449655)
    controller = design_from_vars(plant, weights, DelayMethod.HE)
    x = weights.as_array()
    band, order, h = (1e-3, 1e3), 5, 0.01
    rng = np.random.default_rng(0)
    e, u = rng.standard_normal(10_000), rng.standard_normal(10_000)
    F = rng.random((200, 2))
    X = rng.random((200, 6))
    config = MooConfig(population=100)

    def realize():
        differintegrator_ss(-controller.lam, band, order)
        differintegrator_ss(controller.mu, band, order)
        Ap, Bp, _, _ = _plant_ss(plant, band, order)
        _zoh(Ap, Bp, h)

    timed("evaluation, Oustaloup path (N = 10^4)",
          lambda: evaluate_design_objectives(plant, x, DelayMethod.HE), 15)
    timed("closed loop, GL path (N = 10^4)",
          lambda: simulate_closed_loop(plant, controller, Scenario(), solver="gl"), 5)
    timed("gain map, He (CARE + delay correction)",
          lambda: design_from_vars(plant, weights, DelayMethod.HE), 200)
    timed("gain map, Cai (delay correction + CARE)",
          lambda: design_from_vars(plant, weights, DelayMethod.CAI), 200)
    timed("realization and ZOH (3 operators)", realize, 200)
    timed("indices (N = 10^4)", lambda: performance_indices(e, u, 1.0, h), 200)
    timed("survival (200 -> 100)", lambda: _survival(X, F, config), 100)
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src").rglob("*.py")))
    print(f"{'lines of Python in src/':<44} {lines}")


if __name__ == "__main__":
    main()
