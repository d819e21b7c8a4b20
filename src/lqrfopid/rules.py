"""Polynomial tuning-rule surface for the five FOPID parameters.

Each parameter is modeled as a 12-term polynomial in the delay-to-lag
ratio x = L/T (order 2) and the process order y = alpha (order 4):

    f(x, y) = p00 + p10 x + p01 y + p20 x^2 + p11 x y + p02 y^2
              + p21 x^2 y + p12 x y^2 + p03 y^3 + p22 x^2 y^2
              + p13 x y^3 + p04 y^4

The three gains scale as f(x, y) / K; the orders lam and mu are f(x, y)
directly.  The bundled coefficient set and the median-solution dataset it
was fitted from ship with the package; refitting, after screening out
one outlier at a time where the bundled fit did (the kp and kd fits at
n = 23), reproduces the bundled goodness-of-fit numbers.
"""
from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .design import FopidController

__all__ = [
    "TuningRuleCoefficients",
    "TuningRuleSet",
    "FitDiagnostics",
    "DEFAULT_TUNING_RULES",
    "FITTED_DOMAIN",
    "eval_tuning_rule",
    "fit_polynomial_surface",
    "detect_outliers",
    "load_median_solutions",
]

N_TERMS = 12
N_PREDICTORS = N_TERMS - 1  # intercept excluded
FITTED_DOMAIN = {"L_over_T": (0.25, 4.0), "alpha": (0.2, 1.8)}
OUTLIER_FACTOR = 3.0  # residual RMS past which a point is an outlier

COEFF_NAMES = ("p00", "p10", "p01", "p20", "p11", "p02",
               "p21", "p12", "p03", "p22", "p13", "p04")


@dataclass(frozen=True)
class TuningRuleCoefficients:
    """The 12 polynomial coefficients for one FOPID parameter."""

    p00: float
    p10: float
    p01: float
    p20: float
    p11: float
    p02: float
    p21: float
    p12: float
    p03: float
    p22: float
    p13: float
    p04: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COEFF_NAMES])

    @classmethod
    def from_array(cls, arr) -> "TuningRuleCoefficients":
        arr = np.asarray(arr, dtype=float).reshape(N_TERMS)
        return cls(**dict(zip(COEFF_NAMES, map(float, arr))))

    def evaluate(self, l_over_t, alpha):
        G = design_matrix(np.atleast_1d(l_over_t), np.atleast_1d(alpha))
        vals = G @ self.as_array()
        return vals if np.ndim(l_over_t) else float(vals[0])


@dataclass(frozen=True)
class TuningRuleSet:
    """One coefficient set per FOPID parameter."""

    kp: TuningRuleCoefficients
    ki: TuningRuleCoefficients
    kd: TuningRuleCoefficients
    lam: TuningRuleCoefficients
    mu: TuningRuleCoefficients


@dataclass(frozen=True)
class FitDiagnostics:
    """Least-squares goodness of fit.

    ``adjusted_r2 = 1 - (1 - r2)(n - 1)/(n - p - 1)`` with p = 11
    predictors; ``rmse = sqrt(SSE / (n - p - 1))`` (degrees-of-freedom
    convention, which reproduces the bundled reference values).
    """

    r2: float
    adjusted_r2: float
    rmse: float
    n: int


DEFAULT_TUNING_RULES = TuningRuleSet(
    kp=TuningRuleCoefficients(0.4225, -0.3738, -0.8846, 0.08037, 2.079, 0.05753,
                              -0.4099, -1.245, 0.935, 0.1884, 0.1266, -0.3623),
    ki=TuningRuleCoefficients(0.001375, 1.002, 0.7251, -0.2251, -1.216, -1.36,
                              0.3161, 0.09725, 1.389, -0.07726, 0.07146, -0.4156),
    kd=TuningRuleCoefficients(3.39, -3.976, -8.749, 0.8184, 7.177, 12.95,
                              -1.484, -3.758, -7.427, 0.6184, 0.3642, 1.508),
    lam=TuningRuleCoefficients(0.5972, -0.1805, -0.3615, 0.04781, -0.3342, 2.808,
                               0.08372, 0.03983, -2.304, -0.05261, 0.08205, 0.5399),
    mu=TuningRuleCoefficients(0.06535, 0.1732, -0.2331, 0.1506, -0.2898, 0.3122,
                              0.3712, 0.01343, -0.05011, -0.1479, 0.04369, -0.01218),
)


def design_matrix(x, y) -> np.ndarray:
    """Rows of the 12 basis monomials evaluated at (x, y) = (L/T, alpha)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.column_stack([
        np.ones_like(x), x, y, x ** 2, x * y, y ** 2,
        x ** 2 * y, x * y ** 2, y ** 3, x ** 2 * y ** 2, x * y ** 3, y ** 4,
    ])


def eval_tuning_rule(
    l_over_t: float,
    alpha: float,
    K: float,
) -> FopidController:
    """Controller from the bundled polynomial rules at one (L/T, alpha) point.

    Warns (does not reject) outside the fitted domain x in [0.25, 4],
    alpha in [0.2, 1.8]: extrapolation is the caller's risk.  The orders
    are clipped to the admissible [0, 2] box, which only matters when
    extrapolating.
    """
    if not np.all(np.isfinite([l_over_t, alpha, K])):
        raise ValueError(f"L/T, alpha and K must be finite, got {l_over_t}, {alpha} and {K}")
    if K == 0.0:
        raise ValueError("process gain K must be nonzero")
    # no plant has L < 0 or T <= 0
    if l_over_t < 0.0:
        raise ValueError(f"L/T must be non-negative, got {l_over_t}")
    xlo, xhi = FITTED_DOMAIN["L_over_T"]
    alo, ahi = FITTED_DOMAIN["alpha"]
    if not (xlo <= l_over_t <= xhi) or not (alo <= alpha <= ahi):
        warnings.warn(
            f"(L/T, alpha) = ({l_over_t}, {alpha}) is outside the fitted domain "
            f"[{xlo}, {xhi}] x [{alo}, {ahi}]; extrapolating",
            stacklevel=2,
        )
    # inputs that overflow the polynomials give non-finite gains, which the
    # controller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        kp = DEFAULT_TUNING_RULES.kp.evaluate(l_over_t, alpha) / K
        ki = DEFAULT_TUNING_RULES.ki.evaluate(l_over_t, alpha) / K
        kd = DEFAULT_TUNING_RULES.kd.evaluate(l_over_t, alpha) / K
        lam = float(np.clip(DEFAULT_TUNING_RULES.lam.evaluate(l_over_t, alpha), 0.0, 2.0))
        mu = float(np.clip(DEFAULT_TUNING_RULES.mu.evaluate(l_over_t, alpha), 0.0, 2.0))
    return FopidController(kp=kp, ki=ki, kd=kd, lam=lam, mu=mu)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array of (L/T, alpha, value)")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} is not finite: {pts[bad[0]].tolist()}")
    return pts


def fit_polynomial_surface(points) -> tuple[TuningRuleCoefficients, FitDiagnostics]:
    """Ordinary least squares on the 12-term basis.

    ``points`` is a sequence of (L/T, alpha, value) triples; at least 13
    points (one more than the coefficient count) are required.  A
    non-finite point or a rank-deficient design matrix is rejected.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < N_TERMS + 1:
        raise ValueError(f"need at least {N_TERMS + 1} points, got {n}")
    G = design_matrix(pts[:, 0], pts[:, 1])
    if np.linalg.matrix_rank(G) < N_TERMS:
        raise ValueError("rank-deficient design matrix: points do not span the basis")
    v = pts[:, 2]
    coef, *_ = np.linalg.lstsq(G, v, rcond=None)
    pred = G @ coef
    sse = float(np.sum((v - pred) ** 2))
    sst = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    dof = n - N_PREDICTORS - 1
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / dof
    rmse = float(np.sqrt(sse / dof))
    return (
        TuningRuleCoefficients.from_array(coef),
        FitDiagnostics(r2=float(r2), adjusted_r2=float(adjusted), rmse=rmse, n=n),
    )


def detect_outliers(points, max_outliers: int = 1) -> list[int]:
    """Indices of the points screened out one at a time: fit all of them by
    least squares, remove the single worst offender if its residual
    exceeds OUTLIER_FACTOR times the residual RMS, refit, and repeat up to
    ``max_outliers`` times.

    The threshold uses the raw residual root-mean-square sqrt(SSE/n) (the
    dof-corrected RMSE of :class:`FitDiagnostics` is too forgiving for
    screening); an exact fit flags nothing.  Raises ValueError unless
    ``max_outliers`` is a non-negative integer.
    """
    if not isinstance(max_outliers, numbers.Integral) or max_outliers < 0:
        raise ValueError(f"max_outliers must be a non-negative integer, got {max_outliers!r}")
    pts = _as_points(points)
    scale = max(1.0, float(np.max(np.abs(pts[:, 2]))))
    flagged: list[int] = []
    active, work = np.arange(pts.shape[0]), pts
    for _ in range(max_outliers):
        coefficients, _ = fit_polynomial_surface(work)
        residuals = np.abs(work[:, 2] - coefficients.evaluate(work[:, 0], work[:, 1]))
        rms = float(np.sqrt(np.mean(residuals ** 2)))
        if rms <= 1e-12 * scale:  # exact fit: nothing can be an outlier
            break
        worst = int(np.argmax(residuals))
        if residuals[worst] <= OUTLIER_FACTOR * rms:
            break
        flagged.append(int(active[worst]))
        mask = np.ones(work.shape[0], dtype=bool)
        mask[worst] = False
        work = work[mask]
        active = active[mask]
    return sorted(flagged)


def load_median_solutions() -> np.ndarray:
    """Bundled median-solution dataset as an (n, 7) array with columns
    (Kp, Ki, Kd, lambda, mu, L_over_T, alpha)."""
    ref = resources.files("lqrfopid.data").joinpath("median_solutions.csv")
    with ref.open("r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["Kp", "Ki", "Kd", "lambda", "mu", "L_over_T", "alpha"]
        if header != expected:
            raise ValueError(f"unexpected dataset header: {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    return np.asarray(rows)
