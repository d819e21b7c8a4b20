"""Independent reference computations for the benchmark's output checks.

Nothing here calls into ``lqrfopid``: gains come from the Hamiltonian
stable subspace (the package uses ``scipy.linalg.solve_continuous_are``),
dominance and fronts from exhaustive enumeration, hypervolume from an
exact 2-D sweep, indices from compensated summation, and the alpha = 1
step from its closed form.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import linalg


def error_state_matrices(K: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """A, B of the error-state model x = (I^lam e, e, D^mu e)."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0 / T, 0.0]])
    B = np.array([[0.0], [0.0], [-K / T]])
    return A, B


def care_hamiltonian(A, B, Q, R) -> np.ndarray:
    """Stabilizing CARE solution from the stable invariant subspace of
    [[A, -B R^-1 B'], [-Q, -A']]."""
    R = np.atleast_2d(R)
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    w, V = np.linalg.eig(H)
    Vs = V[:, np.argsort(w.real)[:n]]
    P = np.real(Vs[n:, :] @ np.linalg.inv(Vs[:n, :]))
    return 0.5 * (P + P.T)


def fopid_gains(K, L, T, q1, q2, q3, r, method: str) -> np.ndarray:
    """(kp, ki, kd) for one delay method, "cai" or "he".

    Cai folds the delay into the input matrix, B -> expm(-A L) B; He
    corrects the delay-free row, F -> F expm((A - B F) L).  The row acts on
    (I^lam e, e, D^mu e) with u = -row x, so (kp, ki, kd) = -(row[1], row[0], row[2]).
    """
    A, B = error_state_matrices(K, T)
    Q = np.diag([q1, q2, q3])
    R = np.array([[r]])
    if method == "cai":
        B = linalg.expm(-A * L) @ B
        row = np.linalg.solve(R, B.T @ care_hamiltonian(A, B, Q, R))
    elif method == "he":
        F = np.linalg.solve(R, B.T @ care_hamiltonian(A, B, Q, R))
        row = F @ linalg.expm((A - B @ F) * L)
    else:
        raise ValueError(f"unknown delay method {method!r}")
    return -row[0, [1, 0, 2]]


def weakly_dominates(u, v) -> bool:
    """No component worse and at least one better."""
    return all(a <= b for a, b in zip(u, v)) and any(a < b for a, b in zip(u, v))


def strictly_dominates(u, v) -> bool:
    """Every component better."""
    return all(a < b for a, b in zip(u, v))


def nondominated(points) -> list[int]:
    """Indices of the points no other point weakly dominates."""
    return [i for i, p in enumerate(points)
            if not any(weakly_dominates(q, p) for j, q in enumerate(points) if j != i)]


def front_verdict(cai, he) -> str:
    """Front-level verdict under strict dominance, as the design CLI prints it."""
    def covered(front, by):
        return all(any(strictly_dominates(u, v) for u in by) for v in front)

    cai_covers, he_covers = covered(he, cai), covered(cai, he)
    if cai_covers and not he_covers:
        return "cai_dominant"
    if he_covers and not cai_covers:
        return "he_dominant"
    return "weak"


def hypervolume_2d(points, ref) -> float:
    """Exact area dominated by ``points`` inside the box below ``ref``
    (minimization); points not strictly below ``ref`` add nothing."""
    inside = sorted((float(a), float(b)) for a, b in points if a < ref[0] and b < ref[1])
    area, ceiling = 0.0, float(ref[1])
    for a, b in inside:
        if b < ceiling:
            area += (ref[0] - a) * (ceiling - b)
            ceiling = b
    return area


def normalized_hypervolume(points, ideal, ref) -> float:
    """Share of the box [ideal, ref] dominated by ``points``, after
    clipping each point to ``ideal`` from below."""
    clipped = [(max(a, ideal[0]), max(b, ideal[1])) for a, b in points]
    box = (ref[0] - ideal[0]) * (ref[1] - ideal[1])
    return hypervolume_2d(clipped, ref) / box


def indices(e, u, u_ss: float, h: float) -> tuple[float, float]:
    """Left-rectangular ITSE = h sum (k h) e_k^2 and ISDCO = h sum (u_k - u_ss)^2,
    with compensated summation."""
    itse = h * math.fsum(k * h * float(x) ** 2 for k, x in enumerate(e))
    isdco = h * math.fsum((float(x) - u_ss) ** 2 for x in u)
    return itse, isdco


def first_order_delayed_step(K: float, L: float, T: float, t) -> np.ndarray:
    """Unit-step response of K exp(-L s) / (T s + 1)."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= L, K * (1.0 - np.exp(-np.maximum(t - L, 0.0) / T)), 0.0)


def relative_error(a, b) -> float:
    """max |a - b| / max(|b|) over the components."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny))
