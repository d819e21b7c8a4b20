"""Polynomial tuning rules: evaluate, refit, screen outliers.

Running the full multi-objective search for every new process is costly.
The bundled tuning rules compress a family of balanced (median) designs
into a 12-term polynomial in the delay-to-lag ratio L/T and the process
order alpha, one polynomial per FOPID parameter; the three gains then
scale by 1/K.  This script

1. evaluates the rules across the fitted domain,
2. refits each parameter from the bundled median-solution dataset and
   reports the goodness of fit, and
3. shows the one-at-a-time outlier screening, the only screening the
   package has, on the derivative-gain column (one dataset row is a
   genuine outlier; the bundled kd fit is the refit without it, n = 23).

Run:  python demos/06_tuning_rules.py
"""
import numpy as np

from lqrfopid import (
    detect_outliers,
    eval_tuning_rule,
    fit_polynomial_surface,
    load_median_solutions,
)

print("rule evaluations across the fitted domain (K = 1):")
print(f"{'L/T':>5s} {'alpha':>6s} | {'kp':>7s} {'ki':>7s} {'kd':>7s} {'lam':>7s} {'mu':>7s}")
for lt in (0.25, 1.0, 4.0):
    for alpha in (0.4, 1.0, 1.6):
        c = eval_tuning_rule(lt, alpha, 1.0)
        print(f"{lt:5.2f} {alpha:6.2f} | {c.kp:7.4f} {c.ki:7.4f} {c.kd:7.4f} "
              f"{c.lam:7.4f} {c.mu:7.4f}")

data = load_median_solutions()
x, y = data[:, 5], data[:, 6]
columns = {"kp": 0, "ki": 1, "kd": 2, "lam": 3, "mu": 4}

print("\nrefit quality per parameter (all 24 dataset points):")
for name, col in columns.items():
    _, diag = fit_polynomial_surface(np.column_stack([x, y, data[:, col]]))
    print(f"  {name:>3s}: R2={diag.r2:6.4f}  adjusted R2={diag.adjusted_r2:7.4f}  "
          f"RMSE={diag.rmse:.4f}")

print("\noutlier screening on the derivative-gain column:")
pts = np.column_stack([x, y, data[:, 2]])
flagged = detect_outliers(pts, max_outliers=3)
for idx in flagged:
    print(f"  flagged row {idx}: (L/T={x[idx]:.2f}, alpha={y[idx]:.2f}, "
          f"kd={data[idx, 2]:.4f})")
mask = np.ones(len(pts), dtype=bool)
mask[flagged] = False
_, diag_clean = fit_polynomial_surface(pts[mask])
print(f"  refit without it: R2={diag_clean.r2:6.4f}  "
      f"adjusted R2={diag_clean.adjusted_r2:6.4f}")
