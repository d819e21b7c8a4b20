"""Dense-matrix control mathematics.

Matrix exponential, stabilizing solutions of the continuous algebraic
Riccati equation (CARE), and eigenvalue-based stability diagnostics.

The CARE is solved by Laub's ordered-Schur method (IEEE TAC 24, 1979):
the stable invariant subspace of the Hamiltonian matrix
``[[A, -B R^-1 B'], [-Q, -A']]``, spanned by the first n Schur vectors
once the open-left-half-plane eigenvalues are ordered first, gives
``P = Z21 Z11^-1``.  Every solution is then certified before it is
returned: finite, symmetric, a Hurwitz closed loop, a residual within
``CARE_RESIDUAL_RTOL`` (after at most five Newton-Kleinman steps) and
positive semidefinite.  A violated contract raises :class:`CareFailure`
so optimization layers can penalize rather than crash.  When fewer than
n eigenvalues lie in the open left half plane, as for the error-state
design with q1 = 0 (the integrator mode is then undetectable), no
stabilizing solution exists and the solver says so.

The solve and its certificate call LAPACK through ``scipy.linalg.lapack``
directly, without NumPy's ``linalg`` wrappers, which cost several times
the routine itself on these 1x1 to 6x6 matrices: ``dgesv`` for R^-1 B',
for Z21 Z11^-1 and for the gain R^-1 B' P, ``dgees`` for the ordered
Schur form of the Hamiltonian (which must be finite, with the workspace
size LAPACK asks for at that order), ``dgeev`` for the Hurwitz test and
``dsyev`` for the PSD test, and Frobenius norms as one dot product in
memory order.  These are the routines and the summation orders the
wrappers used, so every P, gain, residual and verdict is the one they
gave, bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg.lapack import dgees, dgeev, dgesv, dsyev

__all__ = [
    "CareFailure",
    "CareProblem",
    "CareSolution",
    "expm",
    "solve_care",
    "spectral_abscissa",
    "is_stabilizable",
]

CARE_RESIDUAL_RTOL = 1e-8
SYMMETRY_RTOL = 1e-10
PSD_ATOL_FACTOR = 1e-8
STABILIZABILITY_RTOL = 1e-10


class CareFailure(Exception):
    """Raised when no stabilizing Riccati solution could be certified."""


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential e**M (scaling-and-squaring accuracy class).

    Exact up to roundoff for nilpotent arguments (the series terminates).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not _finite(M):
        raise ValueError("matrix has non-finite entries")
    return linalg.expm(M)


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest real part over the eigenvalues of M, by LAPACK dgeev
    (eigenvalues only)."""
    M = np.asarray(M, dtype=float)
    if not _finite(M):
        raise ValueError("matrix has non-finite entries")
    wr, _, _, _, info = dgeev(M, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge: LAPACK dgeev reports "
                                    f"info = {info}")
    return float(wr.max())


def is_stabilizable(A: np.ndarray, B: np.ndarray) -> bool:
    """PBH test: every eigenvalue of A with Re >= 0 must be controllable.

    The rank threshold is relative (``STABILIZABILITY_RTOL * norm``)
    because the plant family used here has an exact zero eigenvalue that
    loose absolute thresholds would misclassify.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    scale = max(np.linalg.norm(A), np.linalg.norm(B), 1.0)
    for lam in np.linalg.eigvals(A):
        if lam.real < 0:
            continue
        pencil = np.hstack([A - lam * np.eye(n), B])
        s = np.linalg.svd(pencil, compute_uv=False)
        if s[-1] <= STABILIZABILITY_RTOL * scale:
            return False
    return True


@dataclass(frozen=True, eq=False)
class CareProblem:
    """Data of a continuous-time LQR problem: A, B, Q (PSD), R (PD)."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float, ndmin=2, copy=None)
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        Q = np.array(self.Q, dtype=float, ndmin=2, copy=None)
        R = np.array(self.R, dtype=float, ndmin=2, copy=None)
        n = A.shape[0]
        m = B.shape[1]
        if A.shape != (n, n) or B.shape != (n, m):
            raise ValueError(f"inconsistent A/B shapes: {A.shape}, {B.shape}")
        if Q.shape != (n, n) or R.shape != (m, m):
            raise ValueError(f"inconsistent Q/R shapes: {Q.shape}, {R.shape}")
        named = (("A", A), ("B", B), ("Q", Q), ("R", R))
        # one test over every entry; the matrices one by one only to name one
        if not _finite(np.concatenate([M.ravel() for _, M in named])):
            name = next(name for name, M in named if not _finite(M))
            raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True, eq=False)
class CareSolution:
    """Certified stabilizing CARE solution with its feedback gain."""

    P: np.ndarray
    gain: np.ndarray
    residual_norm: float


def solve_care(prob: CareProblem) -> CareSolution:
    """Stabilizing solution P of A'P + PA - P B R^-1 B' P + Q = 0.

    Returns P (symmetric PSD), the gain F = R^-1 B' P and the achieved
    residual norm.  Raises :class:`CareFailure` when the solver does not
    converge or the certified contracts (residual, symmetry, PSD,
    Hurwitz closed loop) do not hold, e.g. for non-stabilizable pairs or
    weight matrices losing detectability.
    """
    A, B, Q, R = prob.A, prob.B, prob.Q, prob.R
    n = A.shape[0]
    # Fortran order, so that LAPACK overwrites it in place; an overflow of
    # B R^-1 B' (r near 0) is caught as a non-finite entry below
    H = np.empty((2 * n, 2 * n), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        H[:n, :n], H[:n, n:] = A, -B @ _solve(R, B.T, "Riccati solver failed")
    H[n:, :n], H[n:, n:] = -Q, -A.T
    if not _finite(H):
        raise CareFailure("Riccati solver failed: Hamiltonian has non-finite entries")
    _, k, _, _, Z, _, info = dgees(_open_left, H, lwork=_gees_workspace(2 * n),
                                   overwrite_a=1, sort_t=1)
    if info != 0:
        raise CareFailure(f"Riccati solver failed: LAPACK dgees reports info = {info}")
    if k != n:
        raise CareFailure(f"Hamiltonian has {k} open-left-half-plane eigenvalues, need {n}")
    # P' solves Z11' P' = Z21'; P is laid out as the transpose of a
    # C-ordered solution, so every later product sums in the same order
    P = np.ascontiguousarray(_solve(Z[:n, :n].T, Z[n:, :n].T, "Riccati solver failed")).T
    return _certify(prob, P)


def _solve(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """a^-1 b by LAPACK dgesv (LU with partial pivoting); a singular a is a
    :class:`CareFailure` that starts with ``context``."""
    _, _, x, info = dgesv(a, b)
    if info != 0:
        raise CareFailure(f"{context}: Singular matrix")
    return x


def _finite(M: np.ndarray) -> bool:
    """Every entry of M is finite: ``np.isfinite(M).all()``, counted in C
    rather than reduced through the ufunc machinery."""
    return np.count_nonzero(np.isfinite(M)) == M.size


def _frobenius(M: np.ndarray) -> float:
    """The Frobenius norm of M, summed in memory order."""
    x = M.ravel(order="K")
    return math.sqrt(x.dot(x))


def _open_left(re: float, im: float) -> bool:
    """dgees's selector: the eigenvalue re + i im lies in the open left
    half plane."""
    return re < 0.0


@functools.lru_cache(maxsize=8)
def _gees_workspace(order: int) -> int:
    """The workspace size dgees asks for at this order; it depends on the
    order alone, so it is queried once per order."""
    return int(dgees(_open_left, np.zeros((order, order)), lwork=-1)[-2][0])


def _certify(prob: CareProblem, P: np.ndarray) -> CareSolution:
    """Check a candidate CARE solution P against the contracts, polishing
    it by Newton-Kleinman steps when only the residual falls short, and
    return it with its gain; raises :class:`CareFailure` otherwise."""
    A, B, Q, R = prob.A, prob.B, prob.Q, prob.R
    if not _finite(P):
        raise CareFailure("Riccati solver returned non-finite entries")

    sym_err = _frobenius(P - P.T)
    if sym_err > SYMMETRY_RTOL * max(1.0, _frobenius(P)):
        raise CareFailure(f"solution not symmetric: |P - P'| = {sym_err:.2e}")
    P = 0.5 * (P + P.T)

    def residual_of(P, gain):
        return _frobenius(A.T @ P + P @ A - P @ B @ gain + Q)

    gain = _solve(R, B.T @ P, "Riccati solver failed")
    if spectral_abscissa(A - B @ gain) >= 0.0:
        raise CareFailure("closed loop not Hurwitz: gain is not stabilizing")
    residual_norm = residual_of(P, gain)
    bound = CARE_RESIDUAL_RTOL * max(1.0, _frobenius(Q))

    # Newton-Kleinman polish: for ill-conditioned problems the direct
    # solver can land above the residual contract; a stabilizing iterate
    # converges quadratically, so a handful of Lyapunov solves suffices.
    for _ in range(5):
        if residual_norm <= bound:
            break
        rhs = -(Q + gain.T @ R @ gain)
        try:
            P = linalg.solve_lyapunov((A - B @ gain).T, rhs)
        except Exception as exc:
            raise CareFailure(f"refinement failed: {exc}") from exc
        P = 0.5 * (P + P.T)
        gain = _solve(R, B.T @ P, "refinement failed")
        if spectral_abscissa(A - B @ gain) >= 0.0:
            raise CareFailure("refinement lost stabilizability")
        residual_norm = residual_of(P, gain)
    if residual_norm > bound:
        raise CareFailure(f"Riccati residual too large: {residual_norm:.2e}")

    w, _, info = dsyev(P, compute_v=0, lower=1)
    if info != 0:
        raise CareFailure(f"PSD check failed: LAPACK dsyev reports info = {info}")
    eig_min = float(w.min())
    if eig_min < -PSD_ATOL_FACTOR * max(1.0, _frobenius(P)):
        raise CareFailure(f"solution not PSD: min eigenvalue {eig_min:.2e}")
    return CareSolution(P=P, gain=gain, residual_norm=residual_norm)
