"""LQR-based FOPID gain design for delayed fractional-order processes.

The plant family is the non-integer-order-plus-time-delay (NIOPTD)
template ``K exp(-L s) / (T s**alpha + 1)``.  Choosing the loop error and
its fractional differintegrals as state variables turns FOPID tuning into
a state-feedback problem on a fixed 3x3 incommensurate state space whose
matrices depend only on (K, T).  Solving a CARE for a candidate weight
pair (Q, R) then yields the controller gains.

Input delay is handled by two alternative quadratic-regulator
formulations:

* Cai's method: fold the delay into the input matrix, B -> exp(-A L) B,
  and solve the modified CARE.
* He's method: solve the delay-free CARE for F and multiply by the matrix
  exponential of the closed loop, G = F exp((A - B F) L).

Both yield a constant steady-state gain row; the time-varying transient
segment for t < L is intentionally not modeled.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .matops import CareProblem, CareSolution, expm, solve_care

__all__ = [
    "NioptdPlant",
    "FopidController",
    "LqrDesignVars",
    "DelayMethod",
    "DESIGN_BOUNDS",
    "GainTriple",
    "build_state_space",
    "gains_from_row",
    "gains_delay_free",
    "gains_cai",
    "gains_he",
    "design_from_vars",
]


@dataclass(frozen=True)
class NioptdPlant:
    """Four-parameter process K exp(-L s) / (T s**alpha + 1).

    alpha < 1 gives sluggish (creeping) open-loop steps, alpha > 1 gives
    oscillatory ones.
    """

    K: float
    L: float
    T: float
    alpha: float

    def __post_init__(self):
        if self.K == 0.0 or not math.isfinite(self.K):
            raise ValueError(f"dc gain must be nonzero and finite, got {self.K}")
        if not (0.0 <= self.L < math.inf):
            raise ValueError(f"delay must be nonnegative and finite, got {self.L}")
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"pseudo time constant must be positive and finite, got {self.T}")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"fractional order must lie in (0, 2), got {self.alpha}")

    @property
    def is_oscillatory(self) -> bool:
        return self.alpha > 1.0


@dataclass(frozen=True)
class FopidController:
    """Five-knob fractional PID: u = kp*e + ki*I**lam[e] + kd*D**mu[e]."""

    kp: float
    ki: float
    kd: float
    lam: float
    mu: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.lam <= 2.0):
            raise ValueError(f"integral order must lie in [0, 2], got {self.lam}")
        if not (0.0 <= self.mu <= 2.0):
            raise ValueError(f"derivative order must lie in [0, 2], got {self.mu}")


# the box of the fields of LqrDesignVars; r is open at 0, as R must be > 0
DESIGN_BOUNDS = (
    (0.0, 100.0),  # q1
    (0.0, 100.0),  # q2
    (0.0, 100.0),  # q3
    (0.0, 100.0),  # r
    (0.0, 2.0),    # lam
    (0.0, 2.0),    # mu
)


@dataclass(frozen=True)
class LqrDesignVars:
    """Decision vector of the weight-selection search: diagonal LQR weights
    (q1, q2, q3), control weight r, and the controller orders (lam, mu),
    each within its interval of DESIGN_BOUNDS."""

    q1: float
    q2: float
    q3: float
    r: float
    lam: float
    mu: float

    def __post_init__(self):
        for field, (lo, hi) in zip(fields(self), DESIGN_BOUNDS):
            v, open_lo = getattr(self, field.name), field.name == "r"
            if not ((lo < v if open_lo else lo <= v) and v <= hi):
                raise ValueError(f"{field.name} must lie in {'(' if open_lo else '['}"
                                 f"{lo:g}, {hi:g}], got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3, self.r, self.lam, self.mu])

    @classmethod
    def from_array(cls, x) -> "LqrDesignVars":
        q1, q2, q3, r, lam, mu = (float(v) for v in x)
        return cls(q1=q1, q2=q2, q3=q3, r=r, lam=lam, mu=mu)

    @property
    def Q(self) -> np.ndarray:
        return np.diag([self.q1, self.q2, self.q3])

    @property
    def R(self) -> np.ndarray:
        return np.array([[self.r]])


class DelayMethod(enum.Enum):
    """How the process delay enters the quadratic-regulator design."""

    DELAY_FREE = "delay_free"
    CAI = "cai"
    HE = "he"


class GainTriple(NamedTuple):
    kp: float
    ki: float
    kd: float


def build_state_space(plant: NioptdPlant) -> tuple[np.ndarray, np.ndarray]:
    """State matrices of the error-state realization.

    States are (I**lam[e], e, D**mu[e]); the matrices depend only on K and
    T.  The fractional orders live in the differintegration operators, not
    in (A, B).
    """
    A = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -1.0 / plant.T, 0.0],
    ])
    B = np.array([[0.0], [0.0], [-plant.K / plant.T]])
    return A, B


def gains_from_row(row: np.ndarray) -> GainTriple:
    """Map a 1x3 state-feedback row to (kp, ki, kd).

    The feedback law u = -row @ x acts on x = (I**lam[e], e, D**mu[e]), so
    row = (-ki, -kp, -kd) componentwise.
    """
    row = np.asarray(row, dtype=float).reshape(3)
    return GainTriple(kp=float(-row[1]), ki=float(-row[0]), kd=float(-row[2]))


def gains_delay_free(
    plant: NioptdPlant, Q: np.ndarray, R: np.ndarray
) -> tuple[GainTriple, CareSolution]:
    """FOPID gains from the plain CARE, ignoring any process delay."""
    A, B = build_state_space(plant)
    sol = solve_care(CareProblem(A=A, B=B, Q=Q, R=R))
    return gains_from_row(sol.gain[0]), sol


def gains_cai(
    plant: NioptdPlant, Q: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, CareSolution]:
    """Steady-state gain row with the delay folded into the input matrix.

    Solves the CARE for (A, exp(-A L) B) and returns the effective row
    F = R^-1 (exp(-A L) B)' P together with the Riccati solution.
    """
    A, _ = build_state_space(plant)
    sol = solve_care(CareProblem(A=A, B=_cai_input_matrix(plant), Q=Q, R=R))
    return sol.gain[0].copy(), sol


@functools.lru_cache(maxsize=8)
def _cai_input_matrix(plant: NioptdPlant) -> np.ndarray:
    """Cai's input matrix exp(-A L) B; it depends on K, T and L only, so a
    search computes it once.  Read-only, as it is shared."""
    A, B = build_state_space(plant)
    B_mod = expm(-A * plant.L) @ B
    B_mod.flags.writeable = False
    return B_mod


def gains_he(
    plant: NioptdPlant, Q: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, CareSolution]:
    """Steady-state gain row from the delay-free CARE with the exponential
    closed-loop correction G = F exp((A - B F) L)."""
    A, B = build_state_space(plant)
    sol = solve_care(CareProblem(A=A, B=B, Q=Q, R=R))
    F = sol.gain
    closed = A - B @ F
    G = F @ expm(closed * plant.L)
    return G[0].copy(), sol


def design_from_vars(
    plant: NioptdPlant, vars: LqrDesignVars, method: DelayMethod
) -> FopidController:
    """Full design step: weights -> CARE (per delay method) -> controller.

    Propagates :class:`~lqrfopid.matops.CareFailure` for weights that do
    not admit a stabilizing solution; optimization layers turn that into a
    penalty.
    """
    Q, R = vars.Q, vars.R
    if method is DelayMethod.DELAY_FREE:
        triple, _ = gains_delay_free(plant, Q, R)
    elif method is DelayMethod.CAI:
        row, _ = gains_cai(plant, Q, R)
        triple = gains_from_row(row)
    elif method is DelayMethod.HE:
        row, _ = gains_he(plant, Q, R)
        triple = gains_from_row(row)
    else:
        raise ValueError(f"unknown delay method: {method!r}")
    return FopidController(
        kp=triple.kp, ki=triple.ki, kd=triple.kd, lam=vars.lam, mu=vars.mu
    )

