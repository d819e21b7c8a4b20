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
segment for t < L is intentionally not modeled.  ``design_from_vars`` is
the one gain map: it makes this choice, solves the one CARE and maps the
row to (kp, ki, kd).
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .matops import CareProblem, expm, solve_care

__all__ = [
    "NioptdPlant",
    "FopidController",
    "LqrDesignVars",
    "DelayMethod",
    "DESIGN_BOUNDS",
    "build_state_space",
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
        return np.array([[self.q1, 0.0, 0.0], [0.0, self.q2, 0.0], [0.0, 0.0, self.q3]])

    @property
    def R(self) -> np.ndarray:
        return np.array([[self.r]])


class DelayMethod(enum.Enum):
    """How the process delay enters the quadratic-regulator design."""

    DELAY_FREE = "delay_free"
    CAI = "cai"
    HE = "he"


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


@functools.lru_cache(maxsize=8)
def _cai_input_matrix(plant: NioptdPlant) -> np.ndarray:
    """Cai's input matrix exp(-A L) B; it depends on K, T and L only, so a
    search computes it once.  Read-only, as it is shared."""
    A, B = build_state_space(plant)
    B_mod = expm(-A * plant.L) @ B
    B_mod.flags.writeable = False
    return B_mod


def design_from_vars(
    plant: NioptdPlant, vars: LqrDesignVars, method: DelayMethod
) -> FopidController:
    """Full design step: weights -> CARE (per delay method) -> controller.

    The one gain map of the package.  Cai's method solves the CARE for
    (A, exp(-A L) B); the other two solve it for (A, B), and He's method
    then corrects the row to F exp((A - B F) L).  The feedback law
    u = -F x acts on x = (I**lam[e], e, D**mu[e]), so
    (ki, kp, kd) = -F componentwise.

    Propagates :class:`~lqrfopid.matops.CareFailure` for weights that do
    not admit a stabilizing solution; optimization layers turn that into a
    penalty.
    """
    if not isinstance(method, DelayMethod):
        raise ValueError(f"unknown delay method: {method!r}")
    A, B = build_state_space(plant)
    B_care = _cai_input_matrix(plant) if method is DelayMethod.CAI else B
    F = solve_care(CareProblem(A=A, B=B_care, Q=vars.Q, R=vars.R)).gain
    if method is DelayMethod.HE:
        F = F @ expm((A - B @ F) * plant.L)
    ki, kp, kd = (-F[0]).tolist()
    return FopidController(kp=kp, ki=ki, kd=kd, lam=vars.lam, mu=vars.mu)
