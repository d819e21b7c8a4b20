"""Independent reference implementations used only to check the library.

Everything here is deliberately written from first principles (truncated
series, eigen-decompositions, exhaustive enumeration, per-sample
recursions) so the production code paths and the checks never share an
algorithm.  The per-sample simulation loops at the end share only the
operator realizations with the package; they are the reference its
power-series engine must agree with.  Likewise the constructions the
package replaced are kept here as the references of their replacements:
scipy's CARE solver and its ordered Schur form, scipy's triangular solve
on a Toeplitz matrix, the fused ZOH of all loop blocks, the loop that
built a cascade realization and the sampling of each operator's and of
the plant's realization by a matrix exponential, then the plain Markov
recursion.  The closed-loop matrix Phi of the sampled Oustaloup loop and
its spectral radius are the reference of what "stable" means for a
design.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from lqrfopid.fracnum import differintegrator_ss, gl_coefficients
from lqrfopid.matops import CareFailure, _certify
from lqrfopid.sim import (
    DIVERGENCE_FACTOR,
    PENALTY_OBJECTIVE,
    SimResult,
    _plant_ss,
    _zoh,
    performance_indices,
)


def expm_series(M: np.ndarray, tol: float = 1e-30, max_terms: int = 300) -> np.ndarray:
    """Matrix exponential by the plain Taylor series (small-norm oracle)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, max_terms):
        term = term @ M / k
        acc = acc + term
        if np.linalg.norm(term) < tol * max(1.0, np.linalg.norm(acc)):
            break
    return acc


def care_hamiltonian(A, B, Q, R) -> np.ndarray:
    """Stabilizing CARE solution from the stable invariant subspace of the
    Hamiltonian matrix [[A, -B R^-1 B'], [-Q, -A']]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    H = np.block([
        [A, -B @ np.linalg.solve(R, B.T)],
        [-Q, -A.T],
    ])
    w, V = np.linalg.eig(H)
    stable = np.argsort(w.real)[:n]
    Vs = V[:, stable]
    X1, X2 = Vs[:n, :], Vs[n:, :]
    P = np.real(X2 @ np.linalg.inv(X1))
    return 0.5 * (P + P.T)


def care_newton(A, B, Q, R, P0=None, iters: int = 60) -> np.ndarray:
    """Newton-Kleinman iteration: repeated Lyapunov solves starting from a
    stabilizing guess (default: the Hamiltonian solution, perturbed)."""
    from scipy.linalg import solve_lyapunov

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if P0 is None:
        P0 = care_hamiltonian(A, B, Q, R)
        P0 = P0 + 1e-3 * np.eye(A.shape[0])
    P = P0
    for _ in range(iters):
        K = np.linalg.solve(R, B.T @ P)
        Ac = A - B @ K
        rhs = -(Q + K.T @ R @ K)
        P_new = solve_lyapunov(Ac.T, rhs)
        P_new = 0.5 * (P_new + P_new.T)
        if np.linalg.norm(P_new - P) <= 1e-12 * max(1.0, np.linalg.norm(P)):
            P = P_new
            break
        P = P_new
    return P


def care_scipy(prob):
    """The CARE solution the package certified before its Schur solver:
    ``scipy.linalg.solve_continuous_are`` followed by the package's own
    certification, so a comparison sees only the solving step."""
    try:
        P = linalg.solve_continuous_are(prob.A, prob.B, prob.Q, prob.R)
    except Exception as exc:  # scipy raises LinAlgError or ValueError
        raise CareFailure(f"Riccati solver failed: {exc}") from exc
    return _certify(prob, P)


def care_schur_scipy(prob):
    """The ordered-Schur CARE as the package solved it through
    ``scipy.linalg.schur(H, sort="lhp")`` before it called LAPACK dgees
    directly, followed by the package's own certification: the reference
    of that replacement, to the last bit."""
    A, B, Q, R = prob.A, prob.B, prob.Q, prob.R
    n = A.shape[0]
    try:
        H = np.empty((2 * n, 2 * n))
        with np.errstate(over="ignore", invalid="ignore"):
            H[:n, :n], H[:n, n:] = A, -B @ np.linalg.solve(R, B.T)
        H[n:, :n], H[n:, n:] = -Q, -A.T
        _, Z, k = linalg.schur(H, sort="lhp")
        if k != n:
            raise CareFailure(
                f"Hamiltonian has {k} open-left-half-plane eigenvalues, need {n}")
        P = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise CareFailure(f"Riccati solver failed: {exc}") from exc
    return _certify(prob, P)


def first_block_toeplitz(F: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The first F.size terms of 1 / F and q / F as the package solved them
    before it called LAPACK dtrtrs directly: scipy's triangular solve on
    the lower-triangular Toeplitz matrix of F."""
    rhs = np.zeros((F.size, 2))
    rhs[0, 0] = 1.0
    rhs[:min(q.size, F.size), 1] = q[:F.size]
    return linalg.solve_triangular(linalg.toeplitz(F, np.zeros(F.size)), rhs, lower=True,
                                   check_finite=False).T


def cascade_ss_loop(zeros, poles, gain, integrators: int = 0):
    """Series connection of first-order sections (s - z_i)/(s - p_i) times
    ``gain``, then ``integrators`` exact 1/s stages, built section by
    section with a running output map."""
    sections = [(p, p - z, 1.0) for z, p in zip(zeros, poles)]  # (a, c, d)
    sections += [(0.0, 1.0, 0.0)] * integrators
    n = len(sections)
    A = np.zeros((n, n))
    B = np.zeros((n, 1))
    C = np.zeros((1, n))
    D = np.array([[float(gain)]])
    for i, (a, c, d) in enumerate(sections):
        A[i, i] = a
        # section input = running output of everything before it
        A[i, :i] = C[0, :i]
        B[i, 0] = D[0, 0]
        # running output through this section: out = c*x_i + d*in
        C[0, :i] *= d
        C[0, i] = c
        D[0, 0] *= d
    return A, B, C, D


def fused_oustaloup_markov(plant, h, exponents, n, band=(1e-3, 1e3), order=5):
    """The first n Markov parameters of the sampled plant and of the
    operators s**gamma, from one matrix exponential that holds and samples
    the block-diagonal union of their realizations, then the plain
    recursion d, c b, c A b, ..."""
    systems = [_plant_ss(plant, band, order)] + [
        differintegrator_ss(g, band, order) for g in exponents]
    edges = np.cumsum([0] + [A.shape[0] for A, _, _, _ in systems])
    A, B = np.zeros((edges[-1], edges[-1])), np.zeros((edges[-1], len(systems)))
    for k, (i, j, (Ak, Bk, _, _)) in enumerate(zip(edges, edges[1:], systems)):
        A[i:j, i:j], B[i:j, k] = Ak, Bk[:, 0]
    Ad, Bd = _zoh(A, B, h)
    series = []
    for k, (i, j, (_, _, C, D)) in enumerate(zip(edges, edges[1:], systems)):
        out, x = [float(np.ravel(D)[0])], Bd[i:j, k]
        for _ in range(n - 1):
            out.append(float(C[0] @ x) if j > i else 0.0)
            x = Ad[i:j, i:j] @ x
        series.append(np.array(out))
    return series


def operator_markov(gamma, h, n, band=(1e-3, 1e3), order=5):
    """The first n Markov parameters of the ZOH-sampled realization
    ``differintegrator_ss(gamma)``: one matrix exponential, then the plain
    recursion d, c b, c A b, ... (zeros past d when it has no states)."""
    A, B, C, D = differintegrator_ss(gamma, band, order)
    out = np.zeros(n)
    out[0] = D[0, 0]
    if A.shape[0]:
        Ad, Bd = _zoh(A, B, h)
        x = Bd[:, 0]
        for k in range(1, n):
            out[k] = C[0] @ x
            x = Ad @ x
    return out


def plant_markov(plants, h, n, band=(1e-3, 1e3), order=5):
    """The first n Markov parameters of each ZOH-sampled plant realization
    ``_plant_ss``, one row per plant: one matrix exponential each, then the
    plain recursion d, c b, c A b, ..., stepped for all the plants at once
    (each realization zero-padded to the largest state count)."""
    systems = [_plant_ss(plant, band, order) for plant in plants]
    size = max(A.shape[0] for A, _, _, _ in systems)
    Ad, x, C = (np.zeros((len(plants), size, size)), np.zeros((len(plants), size)),
                np.zeros((len(plants), size)))
    out = np.zeros((len(plants), n))
    for i, (A, B, c, D) in enumerate(systems):
        m = A.shape[0]
        Ad[i, :m, :m], Bd = _zoh(A, B, h)
        x[i, :m], C[i, :m], out[i, 0] = Bd[:, 0], c[0], np.ravel(D)[0]
    for k in range(1, n):
        out[:, k] = np.einsum("pi,pi->p", C, x)
        x = np.einsum("pij,pj->pi", Ad, x)
    return out


def closed_loop_matrix(plant, controller, h, band=(1e-3, 1e3), order=5):
    """The sampled Oustaloup loop as one linear recursion
    X[k + 1] = Phi X[k] + gamma r, y[k] = c X[k]: returns (Phi, gamma, c).

    X holds the states of the integral and derivative operators and of the
    plant, each block ZOH-sampled from its own realization, then a buffer
    of the last d controls u[k - 1], ..., u[k - d], d = round(L/h), so the
    plant input at sample k is u[k - d].  The loop is stable exactly when
    rho(Phi) < 1.
    """
    d = int(round(plant.L / h))
    realizations = [differintegrator_ss(g, band, order) for g in (-controller.lam, controller.mu)]
    realizations.append(_plant_ss(plant, band, order))
    edges = np.cumsum([0] + [A.shape[0] for A, _, _, _ in realizations])
    blocks = [slice(i, j) for i, j in zip(edges, edges[1:])]
    buffer = edges[-1]
    Phi, gamma, c = (np.zeros((buffer + d, buffer + d)), np.zeros(buffer + d),
                     np.zeros(buffer + d))
    c[blocks[2]] = realizations[2][2][0]
    # with e[k] = r - c X[k], the control is u[k] = U X[k] + D r
    gains = (controller.ki, controller.kd)
    D = controller.kp + sum(g * float(r[3][0, 0]) for g, r in zip(gains, realizations))
    U = -D * c
    for gain, block, (_, _, C, _) in zip(gains, blocks, realizations):
        U[block] += gain * C[0]
    for block, (A, B, _, _) in zip(blocks[:2], realizations):
        # the operators read e[k]
        Ad, Bd = _zoh(A, B, h)
        Phi[block, block] = Ad
        Phi[block] -= np.outer(Bd[:, 0], c)
        gamma[block] = Bd[:, 0]
    Ad, Bd = _zoh(*realizations[2][:2], h)
    Phi[blocks[2], blocks[2]] = Ad
    plant_input = Bd[:, 0]
    if d == 0:
        Phi[blocks[2]] += np.outer(plant_input, U)
        gamma[blocks[2]] = plant_input * D
    else:
        Phi[blocks[2], buffer + d - 1] = plant_input
        Phi[buffer] = U
        gamma[buffer] = D
        Phi[buffer + 1:, buffer:buffer + d - 1] += np.eye(d - 1)
    return Phi, gamma, c


def spectral_radius(Phi: np.ndarray) -> float:
    """rho(Phi): the largest eigenvalue magnitude."""
    return float(np.max(np.abs(np.linalg.eigvals(Phi))))


def brute_force_fronts(objectives: np.ndarray) -> list[list[int]]:
    """Exhaustive O(n^2 * fronts) non-dominated peeling (weak dominance)."""
    F = np.asarray(objectives, dtype=float)
    remaining = list(range(F.shape[0]))
    fronts: list[list[int]] = []
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if i == j:
                    continue
                if np.all(F[j] <= F[i]) and np.any(F[j] < F[i]):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        fronts.append(front)
        remaining = [i for i in remaining if i not in set(front)]
    return fronts


def power_step_response(K: float, L: float, T: float, t: np.ndarray) -> np.ndarray:
    """Closed-form first-order-plus-delay unit step response (alpha = 1)."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= L, K * (1.0 - np.exp(-(np.maximum(t - L, 0.0)) / T)), 0.0)


def stabilizability_margin(A: np.ndarray, B: np.ndarray) -> float:
    """Smallest PBH singular value over the closed-right-half-plane modes
    (inf when A is already Hurwitz)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    worst = np.inf
    for lam in np.linalg.eigvals(A):
        if lam.real < 0:
            continue
        s = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)[-1]
        worst = min(worst, float(s))
    return worst


def random_stabilizable(rng, n: int, m: int = 1, min_margin: float = 0.1):
    """Normalized Ginibre state matrix with a comfortably stabilizable
    input map.  Unfiltered Gaussian draws occasionally carry strongly
    unstable, barely controllable modes whose Riccati solutions grow so
    large that no double-precision solver can certify an absolute residual
    bound; those tails are excluded by the margin filter."""
    while True:
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        B = rng.standard_normal((n, m))
        if stabilizability_margin(A, B) >= min_margin:
            return A, B


def _rev_window(arr: np.ndarray, k: int, width: int) -> np.ndarray:
    """arr[k], arr[k-1], ..., arr[k-width+1] as a view."""
    stop = k - width
    return arr[k::-1] if stop < 0 else arr[k:stop:-1]


def _loop_result(y, u, x1, x2, x3, k, h, u_ss, diverged):
    t = np.arange(y.size) * h
    if diverged:
        sl = slice(0, k + 1)
        t, y, u, x1, x2, x3 = (a[sl] for a in (t, y, u, x1, x2, x3))
        itse = isdco = PENALTY_OBJECTIVE
    else:
        itse, isdco = performance_indices(x2, u, u_ss, h)
    return SimResult(t=t, y=y, u=u, x1=x1, x2=x2, x3=x3,
                     itse=itse, isdco=isdco, diverged=diverged)


def open_loop_step_loop(plant, horizon, h, solver, band=(1e-3, 1e3), order=5):
    """Open-loop unit step, one sample at a time: GL recursion or the
    ZOH state update of the Oustaloup plant realization."""
    n = int(round(horizon / h))
    d = int(round(plant.L / h))
    y = np.zeros(n)
    threshold = DIVERGENCE_FACTOR * max(1.0, abs(plant.K))
    diverged = False
    k = 0
    if solver == "gl":
        ca = gl_coefficients(plant.alpha, n)
        Th = plant.T * h ** (-plant.alpha)
        for k in range(n):
            uin = 1.0 if k >= d + 1 else 0.0
            s = float(np.dot(ca[1:k + 1], _rev_window(y, k - 1, k))) if k > 0 else 0.0
            y[k] = (plant.K * uin - Th * s) / (Th + 1.0)
            if not math.isfinite(y[k]) or abs(y[k]) > threshold:
                diverged = True
                break
    else:
        Ap, Bp, Cp, _ = _plant_ss(plant, band, order)
        Ad, Bd = _zoh(Ap, Bp, h)
        z = np.zeros(Ap.shape[0])
        for k in range(n):
            y[k] = float(Cp[0] @ z)
            if not math.isfinite(y[k]) or abs(y[k]) > threshold:
                diverged = True
                break
            z = Ad @ z + Bd[:, 0] * (1.0 if k >= d else 0.0)
    zeros = np.zeros(n)
    return _loop_result(y, np.ones(n), zeros, 1.0 - y, zeros.copy(), k, h, 1.0, diverged)


def closed_loop_gl_loop(plant, controller, scenario):
    """GL closed loop, one sample at a time, full convolution memory.  Like
    the control input, the disturbance reaches y one sample after it
    arrives: y[k] sees it from t[k - 1] on."""
    h, r, n = scenario.step_size, scenario.setpoint, scenario.n_steps
    d = int(round(plant.L / h))
    ca = gl_coefficients(plant.alpha, n)
    ci = gl_coefficients(-controller.lam, n)
    cd = gl_coefficients(controller.mu, n)
    Th = plant.T * h ** (-plant.alpha)
    hi = h ** controller.lam
    hd = h ** (-controller.mu)
    t = np.arange(n) * h
    y, u, e, x1, x3 = (np.zeros(n) for _ in range(5))
    threshold = DIVERGENCE_FACTOR * max(1.0, abs(r))
    diverged = False
    k = 0
    for k in range(n):
        j = k - 1 - d
        uin = u[j] if j >= 0 else 0.0
        if k > 0 and t[k - 1] >= scenario.disturbance_time:
            uin += scenario.disturbance_magnitude
        s = float(np.dot(ca[1:k + 1], _rev_window(y, k - 1, k))) if k > 0 else 0.0
        y[k] = (plant.K * uin - Th * s) / (Th + 1.0)
        if not math.isfinite(y[k]) or abs(y[k]) > threshold:
            diverged = True
            break
        e[k] = r - y[k]
        win = _rev_window(e, k, k + 1)
        x1[k] = hi * float(np.dot(ci[:k + 1], win))
        x3[k] = hd * float(np.dot(cd[:k + 1], win))
        u[k] = controller.kp * e[k] + controller.ki * x1[k] + controller.kd * x3[k]
    u_ss = r / plant.K if controller.lam > 0 else float(u[-1])
    return _loop_result(y, u, x1, e, x3, k, h, u_ss, diverged)


def closed_loop_oustaloup_loop(plant, controller, scenario, band=(1e-3, 1e3), order=5):
    """Oustaloup closed loop, one sample at a time: the integral, derivative
    and plant realizations fused into one ZOH state update."""
    h, r, n = scenario.step_size, scenario.setpoint, scenario.n_steps
    d = int(round(plant.L / h))
    Ai, Bi, Ci, Di = differintegrator_ss(-controller.lam, band, order)
    Ad_, Bd_, Cd_, Dd_ = differintegrator_ss(controller.mu, band, order)
    Ap, Bp, Cp, _ = _plant_ss(plant, band, order)
    ni, nd, npl = Ai.shape[0], Ad_.shape[0], Ap.shape[0]
    nz = ni + nd + npl
    A = np.zeros((nz, nz))
    A[:ni, :ni] = Ai
    A[ni:ni + nd, ni:ni + nd] = Ad_
    A[ni + nd:, ni + nd:] = Ap
    B = np.zeros((nz, 2))  # inputs: (e, plant input)
    B[:ni, 0] = Bi[:, 0]
    B[ni:ni + nd, 0] = Bd_[:, 0]
    B[ni + nd:, 1] = Bp[:, 0]
    Adisc, Bdisc = _zoh(A, B, h)
    be, bu = Bdisc[:, 0], Bdisc[:, 1]
    ci_row, cd_row, cp_row = np.zeros(nz), np.zeros(nz), np.zeros(nz)
    ci_row[:ni] = Ci[0]
    cd_row[ni:ni + nd] = Cd_[0]
    cp_row[ni + nd:] = Cp[0]
    di, dd = float(Di[0, 0]), float(Dd_[0, 0])

    t = np.arange(n) * h
    y, u, e, x1, x3 = (np.zeros(n) for _ in range(5))
    z = np.zeros(nz)
    threshold = DIVERGENCE_FACTOR * max(1.0, abs(r))
    diverged = False
    kp, ki, kd = controller.kp, controller.ki, controller.kd
    k = 0
    for k in range(n):
        yk = float(cp_row @ z)
        if not math.isfinite(yk) or abs(yk) > threshold:
            y[k] = yk
            diverged = True
            break
        ek = r - yk
        x1k = float(ci_row @ z) + di * ek
        x3k = float(cd_row @ z) + dd * ek
        uk = kp * ek + ki * x1k + kd * x3k
        y[k], e[k], x1[k], x3[k], u[k] = yk, ek, x1k, x3k, uk
        uin = u[k - d] if k >= d else 0.0
        if t[k] >= scenario.disturbance_time:
            uin += scenario.disturbance_magnitude
        z = Adisc @ z + be * ek + bu * uin
    u_ss = r / plant.K if controller.lam > 0 else float(u[-1])
    return _loop_result(y, u, x1, e, x3, k, h, u_ss, diverged)
