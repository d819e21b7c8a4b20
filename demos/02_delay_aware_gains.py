"""From LQR weights to FOPID gains, with and without delay handling.

The error-state formulation turns the five-knob fractional PID into a
state-feedback problem: solving one algebraic Riccati equation for a
weight choice (Q1, Q2, Q3, R) yields (kp, ki, kd), while the operator
orders (lam, mu) remain free knobs.  Process delay enters in one of two
ways:

* Cai's method folds exp(-A L) into the input matrix before solving;
* He's method solves the delay-free problem and multiplies the gain row
  by the matrix exponential of the closed loop.

This script computes all three variants for one weight set and shows how
strongly the delay correction bends the gains, plus a structural identity
worth knowing: the integral gain of the delay-free and the Cai designs is
exactly sqrt(Q1/R).

Run:  python demos/02_delay_aware_gains.py
"""
import math

import numpy as np

from lqrfopid import (
    DelayMethod,
    LqrDesignVars,
    NioptdPlant,
    design_from_vars,
)

plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=1.5)
vars = LqrDesignVars(q1=0.643793, q2=0.02965, q3=0.062444, r=0.34342,
                     lam=1.133782, mu=0.449655)

print(f"plant: K={plant.K}, L={plant.L}, T={plant.T}, alpha={plant.alpha}")
print(f"weights: Q=diag({vars.q1}, {vars.q2}, {vars.q3}), R={vars.r}\n")

for method in (DelayMethod.DELAY_FREE, DelayMethod.CAI, DelayMethod.HE):
    c = design_from_vars(plant, vars, method)
    print(f"{method.value:>10s}: kp={c.kp:7.4f}  ki={c.ki:7.4f}  kd={c.kd:7.4f}")

print(f"\nsqrt(Q1/R) = {math.sqrt(vars.q1 / vars.r):.4f}"
      "  (equals ki for delay_free and cai above)")

# the He correction shrinks toward zero as the delay grows
print("\nHe-corrected gain row norm vs delay (fixed weights):")
for L in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    g = design_from_vars(NioptdPlant(K=1.0, L=L, T=2.0, alpha=1.5), vars, DelayMethod.HE)
    row = -np.array([g.ki, g.kp, g.kd])
    print(f"  L={L:4.1f}: |row|={np.linalg.norm(row):7.4f}  "
          f"(kp={g.kp:6.3f}, ki={g.ki:6.3f}, kd={g.kd:6.3f})")
