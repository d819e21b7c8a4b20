"""Trade-off search over the LQR weights and controller orders.

Fast set-point tracking and calm control action pull in opposite
directions, so there is no single best weight choice; the interesting
object is the non-dominated front in (ITSE, ISDCO) space.  This script
runs a reduced-scale NSGA-II search for both delay-handling methods on
the sluggish benchmark plant, compares the two fronts, and picks the
median solution of each as the balanced design.

A production-scale run uses population and generation counts of 100
(the MooConfig defaults); this demo is scaled down to finish in about a
minute.  Only those counts, the bounds and the seed are settings: the
Pareto fraction (0.7), intermediate crossover and single-coordinate
mutation are the protocol's, fixed in ``lqrfopid.nsga2``.

Run:  python demos/04_pareto_tradeoff.py
"""
import pathlib

from lqrfopid import (
    DelayMethod,
    MooConfig,
    NioptdPlant,
    Scenario,
    compare_fronts,
    median_solution,
    run_nsga2,
    write_front_csv,
)

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=0.5)
scenario = Scenario(horizon=100.0, step_size=0.02)
config = MooConfig(population=30, generations=15, seed=11)

fronts = {}
for method in (DelayMethod.CAI, DelayMethod.HE):
    front = run_nsga2(plant, method, config, scenario)
    fronts[method] = front
    path = OUT / f"front_{method.value}.csv"
    write_front_csv(path, front)
    objs = front.objectives_array()
    print(f"{method.value:>3s}: {len(front):2d} non-dominated designs, "
          f"ITSE in [{objs[:, 0].min():7.3f}, {objs[:, 0].max():7.3f}], "
          f"ISDCO in [{objs[:, 1].min():7.3f}, {objs[:, 1].max():7.3f}]  -> {path}")

verdict = compare_fronts(fronts[DelayMethod.CAI], fronts[DelayMethod.HE])
print(f"\nfront comparison verdict: {verdict}")

for method, front in fronts.items():
    entry = median_solution(front)
    c = entry.controller
    print(f"median [{method.value}]: ITSE={entry.objectives[0]:.4f} "
          f"ISDCO={entry.objectives[1]:.4f} | kp={c.kp:.4f} ki={c.ki:.4f} "
          f"kd={c.kd:.4f} lam={c.lam:.4f} mu={c.mu:.4f}")
