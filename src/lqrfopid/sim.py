"""Fixed-step time-domain simulation of NIOPTD plants and FOPID loops.

Two interchangeable numerical paths realize the fractional operators:

* ``solver="gl"`` - Grunwald-Letnikov weights, full memory; closest to
  the ideal operators, used as the accuracy reference.
* ``solver="oustaloup"`` - the ZOH-sampled impulse responses of
  band-limited rational (Oustaloup) approximations, each block on its
  own; the closed-loop default.  Each block's comes in closed form from
  its poles and residues, with no realization and no matrix exponential:
  each controller operator's from its filter, grown in place on demand,
  the plant's from the modes of the unit-gain plant F / (T + F), F the
  filter of s**-alpha, times K.  One kernel object serves all the
  operators of a run, in one pass over their poles.

Both loops are linear and causal, so one engine solves them on power
series truncated to the N samples of a run: with the one-sample delay z,
plant num / den, controller H, delay d and set-point and disturbance
steps r and w, the error is e = (r den - num w) / (den + z**d num H).
The engine branches on the lengths of these series, never on the path.
Products are FFT convolutions; the first DIRECT_TERMS terms of the
reciprocal come by forward substitution (one LAPACK dtrtrs solve on the
Toeplitz matrix of the denominator), the rest by Newton doubling:
O(N log N) per run.  A run diverges at the first sample whose output is
non-finite or exceeds DIVERGENCE_FACTOR * max(1, |setpoint|) in
magnitude (max(1, |K|) for an open-loop step); the engine tests each
block a step adds and stops there, so a diverging tail never meets
earlier samples in an FFT.  Newton runs once, building the operator
kernels only as far as it has reached, RUN_GROWTH-fold from DIRECT_TERMS
terms and then to N: most diverging loops cross within a few hundred
samples and never build those of the whole horizon.

A closed loop forms only what its caller reads.  The last step of the
loop denominator transforms H at a size that also fits H e, so a run that
reaches the horizon gets u = H e from that transform with one more
forward and one inverse FFT, and its indices from e and u.  The states
x1 and x3 are formed on the first read of either, and so is the u of a
diverged run, whose indices are the penalty.

Where den is one term (the Oustaloup path) the right-hand side of a
disturbed loop with r != 0 stays split: each block multiplies r den by
1 / F directly, and num by 1 / F only from the disturbance's sample on,
so blocks before it make no FFT product for it.  Where num has more than
DIRECT_TERMS terms, num H is formed to the t terms of each growth length t
past the first block whatever the delay, which only shifts it.

Two caches hold what runs reuse; only their constructors know the solver.
One entry per plant at rest (K, T, alpha, step, solver, band, length)
samples the plant, from its modes or its GL weights: num, den and num's
transform at the size of a run's last product; a search builds it once, a
sweep once per lag.  One entry per controller (controller, step, solver,
band, length) holds its operator kernels, H as last grown, H's transform
and num H for the current plant at rest.  A robustness sweep walks its
grid lag by lag, so it builds the kernels and transforms H once and forms
num H once per lag, not once per cell.

Timing convention shared by both paths: num[0] = 0, so the plant state at
sample k has integrated the (zero-order-held, delayed) input, control and
disturbance alike, up to sample k - 1 - round(L/h): there is never an
algebraic loop, even at L = 0.  Rounding the delay to the grid induces at
most h/2 of delay error.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .design import (
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    design_from_vars,
)
from .fracnum import DEFAULT_BAND, differintegrator_modes, differintegrator_ss, gl_coefficients
from .matops import CareFailure, expm

__all__ = [
    "Scenario",
    "SimResult",
    "SweepResult",
    "PENALTY_OBJECTIVE",
    "simulate_open_loop_step",
    "frequency_response",
    "simulate_closed_loop",
    "performance_indices",
    "evaluate_design_objectives",
    "robustness_sweep",
    "write_trajectory_csv",
    "write_sweep_csv",
]

PENALTY_OBJECTIVE = 1e6
DIVERGENCE_FACTOR = 1e3
# below this many terms in a factor a direct product beats the FFT
DIRECT_TERMS = 128
# a kernel's exp(p h j) is exp(p h (j mod KERNEL_BLOCK)), computed once,
# times exp(p h KERNEL_BLOCK (j div KERNEL_BLOCK)), once per block; it
# grows by chunks of 1, 1, 2, 4 and 8 blocks, then GROW_BLOCKS blocks, so an
# early-diverging loop builds little and a long run few chunks
KERNEL_BLOCK = 128
GROW_BLOCKS = 16
MAX_SPREAD = 1e4
RUN_GROWTH = 8


@dataclass(frozen=True)
class Scenario:
    """Closed-loop experiment description.

    The disturbance is an input-additive step at the plant input; its
    default magnitude is zero so that tracking experiments measure the
    set-point response alone.  Every field must be finite, and the horizon
    a whole number of positive steps.
    """

    setpoint: float = 1.0
    horizon: float = 100.0
    step_size: float = 0.01
    disturbance_time: float = 70.0
    disturbance_magnitude: float = 0.0

    def __post_init__(self):
        for name in ("setpoint", "disturbance_time", "disturbance_magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.step_size}")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        steps = self.horizon / self.step_size
        if abs(steps - round(steps)) > 1e-6 * max(1.0, steps):
            raise ValueError(
                f"horizon {self.horizon} is not an integer number of steps of {self.step_size}"
            )
        if round(steps) < 1:
            raise ValueError(
                f"horizon {self.horizon} is shorter than one step of {self.step_size}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step_size))


class SimResult:
    """Sampled trajectories plus the two performance indices.

    x1, x2, x3 are the controller-side states (I**lam[e], e, D**mu[e]);
    x2 equals setpoint - y at every sample by construction.  A closed loop
    forms only what its indices read: u = H e where the run reached the
    horizon, and x1, x3 (and the u of a diverged run) when first read.
    """

    def __init__(self, t, y, u, x1, x2, x3, itse, isdco, diverged=False):
        self.t, self.y, self.x2 = t, y, x2
        self.itse, self.isdco, self.diverged = itse, isdco, diverged
        self._u, self._states = u, (x1, x3)

    @classmethod
    def _deferred(cls, t, y, u, x2, states, itse, isdco, diverged):
        """A result whose (x1, x3) is ``states()``, called on the first read
        of either; u is an array, or ``u(x1, x3)`` called on its first read."""
        result = cls(t, y, None, None, x2, None, itse, isdco, diverged)
        result._u, result._states = u, states
        return result

    @property
    def u(self) -> np.ndarray:
        if callable(self._u):
            self._u = self._u(self.x1, self.x3)
        return self._u

    @property
    def x1(self) -> np.ndarray:
        return self._controller_states()[0]

    @property
    def x3(self) -> np.ndarray:
        return self._controller_states()[1]

    def _controller_states(self):
        if callable(self._states):
            self._states = self._states()
        return self._states


@dataclass(eq=False)
class SweepResult:
    """Performance surfaces over a (delay, lag) grid, controller fixed."""

    L_grid: np.ndarray
    T_grid: np.ndarray
    itse: np.ndarray
    isdco: np.ndarray
    diverged: np.ndarray


def performance_indices(
    e: np.ndarray,
    u: np.ndarray,
    u_ss: float,
    h: float,
) -> tuple[float, float]:
    """Time-weighted squared error and squared control deviation integrals.

    Left-rectangular quadrature on the simulation grid (bit-reproducible):
    ``itse = h * sum t_k e_k**2`` and ``isdco = h * sum (u_k - u_ss)**2``
    over the samples both signals have.  An index past the float range is
    inf.
    """
    e = np.asarray(e, dtype=float)
    u = np.asarray(u, dtype=float)
    n = min(e.shape[0], u.shape[0])
    t = np.arange(n) * h
    with np.errstate(over="ignore"):
        itse = float(h * np.sum(t * e[:n] ** 2))
        isdco = float(h * np.sum((u[:n] - u_ss) ** 2))
    return itse, isdco


def frequency_response(plant: NioptdPlant, w) -> complex | np.ndarray:
    """Exact frequency response K e^{-jwL} / (T (jw)**alpha + 1).

    Uses the principal branch (jw)**alpha = w**alpha exp(j alpha pi/2);
    ``w`` is a positive scalar or array in rad/s.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w_arr <= 0.0):
        raise ValueError("frequencies must be positive")
    jw_alpha = w_arr ** plant.alpha * np.exp(1j * plant.alpha * np.pi / 2.0)
    resp = plant.K * np.exp(-1j * w_arr * plant.L) / (plant.T * jw_alpha + 1.0)
    return resp if np.ndim(w) else complex(resp[0])


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of the series a, zero-filled past its end."""
    out = np.zeros(n)
    out[:min(a.size, n)] = a[:n]
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fft_size(need: int) -> int:
    """The first 2**j, 3 * 2**j or 5 * 2**j that is at least need."""
    return min(p << ((need - 1) // p).bit_length() for p in (1, 3, 5))


def _series_mul(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo, ..., hi - 1 of the product of the series a and b."""
    return _series_products(a, (b,), lo, hi)[0]


def _series_products(a: np.ndarray, bs, lo: int, hi: int) -> list[np.ndarray]:
    """Coefficients lo, ..., hi - 1 of the product of a with each series of
    ``bs``, all of one length: a is transformed once."""
    a, bs = a[:hi], [b[:hi] for b in bs]
    if min(a.size, bs[0].size) <= DIRECT_TERMS:
        return [np.convolve(a, b)[lo:hi] for b in bs]
    # a cyclic product of length >= hi folds only the terms of degree >=
    # length, onto degrees below a.size + b.size - 1 - length <= lo
    size = _fft_size(max(hi, a.size + bs[0].size - 1 - lo))
    spectrum = np.fft.rfft(a, size)
    return [np.fft.irfft(spectrum * np.fft.rfft(b, size), size)[lo:hi] for b in bs]


def _first_block(F: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The first F.size terms of 1 / F and of q / F, by one forward
    substitution on the lower-triangular Toeplitz matrix of F (F[0] != 0):
    each term is summed directly from the earlier ones.  Row i of that
    matrix, F[i], ..., F[0], 0, ..., 0, is a window of F reversed and
    zero-padded, so the matrix is a view of that copy; LAPACK dtrtrs solves
    with its transpose (upper triangular, in Fortran order)."""
    n = F.size
    padded = np.zeros(2 * n)
    padded[:n] = F[::-1]
    lower = np.ndarray((n, n), buffer=padded, offset=(n - 1) * padded.itemsize,
                       strides=(-padded.itemsize, padded.itemsize))
    rhs = np.zeros((n, 2), order="F")
    rhs[0, 0], rhs[:, 1] = 1.0, _padded(q, n)
    x, info = dtrtrs(lower.T, rhs, lower=0, trans=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dtrtrs reports info = {info}")
    return x.T


def _newton_terms(F: np.ndarray, g: np.ndarray, m: int, t: int) -> np.ndarray:
    """Terms m, ..., t - 1 of 1 / F from its first m terms g (t <= 2 m):
    -g (F g)[m:t] by one Newton step.  On a whole doubling (t = 2 m) both
    products share the transform of g; on a shorter step the second uses
    g[:t - m] alone, whose later terms would only add their FFT rounding."""
    if t != 2 * m or m <= DIRECT_TERMS:
        return -_series_mul(g, _series_mul(F, g, m, t), 0, t - m)
    size = _fft_size(t)
    spectrum = np.fft.rfft(g, size)
    Fg = np.fft.irfft(np.fft.rfft(F[:t], size) * spectrum, size)[m:t]
    return -np.fft.irfft(spectrum * np.fft.rfft(Fg, size), size)[:m]


def _split_terms(split, g, m, t):
    """Terms m, ..., t - 1 of q g for q = a + z**w b, ``split`` = (a, w, b)
    with a short: a g, direct while a is, plus b g from sample w on."""
    a, w, b = split
    terms = _series_mul(a, g, m, t)
    if t > w:
        lo = max(m, w)
        terms[lo - m:] += _series_mul(b, g, lo - w, t - w)
    return terms


def _error_series(F_of, q, r, threshold, n, split=None):
    """The first n terms of e = (q / F) / (1 - z), cut at the first sample k
    whose output r - e[k] is non-finite or exceeds ``threshold`` in
    magnitude: returns (e[:k + 1], k, b) then, else (e, None, b), with b the
    number of terms F was built to (0 if none).

    The first DIRECT_TERMS terms of 1 / F and q / F come directly, then
    1 / F by Newton doubling, each step extending a prefix whose outputs
    all passed the test.  ``F_of(t)`` gives the first t terms of F,
    RUN_GROWTH times more whenever a step needs more, and all of them once
    that would pass half of them.  An FFT product spreads rounding errors
    of about sum|q| max|1 / F| over all its terms; past MAX_SPREAD times
    the threshold a block is halved, and at DIRECT_TERMS summed directly,
    which keeps each sample free of the later ones.  Leading zeros of q are
    split off first: e is zero there whatever 1 / F does.  Where q[0] != 0
    and ``split`` = (a, w, b) gives q = a + z**w b with a short, a block
    that passes that test takes q (1 / F) from :func:`_split_terms`, so it
    multiplies by b only from sample w on.
    """
    lead = np.flatnonzero(q[:n])
    s = int(lead[0]) if lead.size else n
    q, size = q[s:n], n - s
    F = g = e = np.zeros(0)
    m, t = 0, min(DIRECT_TERMS, size)
    with np.errstate(over="ignore", invalid="ignore"):
        while m < size:
            if t > F.size:
                grow = RUN_GROWTH * F.size or DIRECT_TERMS
                F = F_of(size if 2 * grow > size else grow)
            if m == 0:
                gt, terms = _first_block(F[:t], q)
            else:
                gt = np.concatenate([g, _newton_terms(F, g, m, t)])
                if min(q.size, t) > DIRECT_TERMS and not (
                        np.abs(q[:t]).sum() * np.abs(gt).max() <= MAX_SPREAD * threshold):
                    if t - m > DIRECT_TERMS:
                        t = m + (t - m) // 2
                        continue
                    terms = np.convolve(np.concatenate([np.zeros(t - 1 - m), q[:t]]), gt,
                                        "valid")
                elif split is not None:
                    terms = _split_terms(split, gt, m, t)
                else:
                    terms = _series_mul(q, gt, m, t)
            block = np.cumsum(terms) + (e[-1] if m else 0.0)
            bad = np.flatnonzero(~(np.abs(r - block) <= threshold))
            if bad.size:
                k = int(bad[0])
                return np.concatenate([np.zeros(s), e, block[:k + 1]]), s + m + k, F.size
            g, e, m, t = gt, np.concatenate([e, block]), t, min(2 * t, size)
    return np.concatenate([np.zeros(s), e]), None, F.size


def _loop_output(at_rest, delay, runs, r, w_start, w_mag, threshold, n):
    """Output of y = (num / den) (z**delay H (r - y) + w) to n samples for
    the num and den of ``at_rest``, a :class:`_PlantAtRest`, its first sample
    non-finite or past ``threshold`` (None if there is none), and the number
    of terms the loop denominator was built to (0 if none).

    The set-point r and the input disturbance w (w_mag from sample w_start
    on) are steps, so the error e = r - y solves
    e F = (r den - w_mag z**w_start num) / (1 - z) with
    F = den + z**delay num H, where H is that of ``runs``, the
    :class:`_ControllerRuns` of the controller (H = 0 where it is None).
    Where den is one term and r != 0 the right-hand side stays split:
    r den times 1 / F directly, and num times 1 / F only from sample w_start
    on.
    """
    num, den = at_rest.num, at_rest.den

    def F_of(t):
        F, hi = _padded(den, t), t - delay
        if runs is not None and hi > 0:
            F[delay:] += runs.num_H(t, hi)
        return F

    q, split = r * den, None
    if w_mag != 0.0 and w_start < n:
        w = -w_mag * num[:n - w_start]
        if den.size == 1 and r != 0.0:
            split = (q, w_start, w)
        q = _padded(q, n)
        q[w_start:] += _padded(w, n - w_start)
    e, k, built = _error_series(F_of, q, r, threshold, n, split)
    return r - e, k, built


def simulate_open_loop_step(
    plant: NioptdPlant,
    horizon: float = 100.0,
    h: float = 0.01,
    solver: str = "gl",
) -> SimResult:
    """Unit-step response of the plant alone.

    Solves T D**alpha y + y = K u(t - L) with u the unit step and zero
    initial conditions; the horizon must be a whole number of steps h, as
    in :class:`Scenario`.  x2 is filled with 1 - y; x1 and x3 stay zero.
    It diverges where y is non-finite or past DIVERGENCE_FACTOR max(1, |K|):
    where the unit-gain response passes DIVERGENCE_FACTOR max(1, |K|) / |K|,
    or K times it leaves the float range.
    """
    n = Scenario(horizon=horizon, step_size=h).n_steps
    K, delay = plant.K, int(round(plant.L / h))
    at_rest = _PlantAtRest(replace(plant, K=1.0, L=0.0), h, solver, DEFAULT_BAND, n)
    # the step reaches the plant input at sample ``delay``: feed it there as
    # a disturbance of an open loop (H = 0) with zero set-point.  The loop
    # runs at unit gain, y is that response times K, so no finite K
    # overflows a product of the engine.
    y, k, _ = _loop_output(at_rest, delay, None, 0.0, delay, 1.0,
                           max(DIVERGENCE_FACTOR, DIVERGENCE_FACTOR / abs(K)), n)
    with np.errstate(over="ignore"):
        y = K * y
    overflow = np.flatnonzero(~np.isfinite(y))
    if overflow.size:
        k = int(overflow[0])
        y = y[:k + 1]
    u, x2 = np.ones(y.size), 1.0 - y
    itse, isdco = ((PENALTY_OBJECTIVE, PENALTY_OBJECTIVE) if k is not None
                   else performance_indices(x2, u, 1.0, h))
    zeros = np.zeros(y.size)
    return SimResult(t=np.arange(y.size) * h, y=y, u=u, x1=zeros, x2=x2, x3=zeros.copy(),
                     itse=itse, isdco=isdco, diverged=k is not None)


# reference only, for tests/oracles.py and bench/: no pipeline path calls it
def _plant_ss(plant: NioptdPlant, band, order):
    """Continuous realization of y = K u / (T s**alpha + 1) via the anchored
    fractional integrator: y = s**-alpha (K u - y) / T, algebraic loop
    eliminated in closed form.  Anchoring makes the feedthrough exactly 0.
    """
    Af, Bf, Cf, Df = differintegrator_ss(-plant.alpha, band, order)
    d0 = float(Df[0, 0])
    denom = plant.T + d0
    Ap = Af - (Bf @ Cf) / denom
    Bp = plant.K * Bf / denom
    Cp = plant.T * Cf / denom
    Dp = plant.K * d0 / denom
    return Ap, Bp, Cp, Dp


# reference only, for tests/oracles.py and bench/: no pipeline path calls it
def _zoh(A: np.ndarray, B: np.ndarray, h: float):
    """Zero-order-hold discretization via one block matrix exponential."""
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = expm(M * h)
    return E[:n, :n], E[:n, n:]


_BLOCK_STEPS = np.arange(KERNEL_BLOCK)
# Gauss-Legendre rule of 10 nodes on [0, 1], its weights times u**j, j < 3
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)
_GAUSS_NODES = (_GAUSS_NODES + 1.0) / 2.0
_GAUSS_MOMENTS = _GAUSS_WEIGHTS[:, None] / 2.0 * _GAUSS_NODES[:, None] ** np.arange(3)


def _interval_moments(poles: np.ndarray, h: float, spans) -> np.ndarray:
    """The integrals of tau**j exp(p tau) over [0, h], j < count, for the
    poles[lo:hi] of each (lo, hi, count) of ``spans``, one row per pole
    (zero past its span's count), of the poles' dtype: h**(j + 1) J_j(p h)
    with J_j(x) the integral of u**j exp(x u) over [0, 1].
    J_0 = expm1(x) / x (1 at x = 0).  Past it the recurrence
    J_j = (exp(x) - j J_(j-1)) / x, which cancels for small x; where
    |x| < 1/2 the Gauss-Legendre rule instead, exact to rounding there (it
    integrates the terms x**n u**(n + j) / n! exactly up to degree 19).
    Each span's rule is a matrix product of the shape it has for those
    poles alone, so a span's moments do not depend on the others."""
    count = max(c for _, _, c in spans)
    x = poles * h
    out = np.zeros((x.size, count), dtype=x.dtype)
    out[:, 0] = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    if count > 1:
        small = np.abs(x) < 0.5
        nodes = np.exp(np.multiply.outer(x * small, _GAUSS_NODES))
        for lo, hi, c in spans:
            if c > 1:
                out[lo:hi, 1:c] = nodes[lo:hi] @ _GAUSS_MOMENTS[:, 1:c]
        x, moment = x[~small], out[~small, 0]
        for j in range(1, count):
            moment = (np.exp(x) - j * moment) / x
            out[~small, j] = moment
    return out * h ** np.arange(1, count + 1)


class _OperatorKernels:
    """The sampled kernels of the blocks of a run, in closed form from their
    modes, each a (d, poles, coeffs) of :func:`differintegrator_modes` or
    :func:`_plant_modes`, extended in place on demand.

    ``kernels(m)`` is the first m terms of each (read-only): g[0] is the
    feedthrough d and g[k] the integral of the impulse response
    sum_i sum_l c_il t**l exp(p_i t) over [(k - 1) h, k h], the ZOH Markov
    parameter (its real part, where poles come in conjugate pairs).  With
    s = (k - 1) h that is sum_i exp(p_i s) P_i(s), where P_i has the
    coefficient sum_l c_il binom(l, j) I_ij of s**(l - j) and I_ij is the
    integral of tau**j exp(p_i tau) over [0, h].

    For the KERNEL_BLOCK samples s = (b KERNEL_BLOCK + j) h of block b that
    is sum_l s**l (X_b R)[l, j], with X_b[i] = exp(p_i h KERNEL_BLOCK b) and
    R[i, (l, j)] = (coefficient of s**l in P_i) exp(p_i h j) built once
    (``bases``): a row of one small matrix product, then Horner in s.  The
    blocks are built in chunks of fixed bounds, so each is always the same
    row of a product of the same shape, and growing the kernels never
    changes the terms they already have nor what they will build.

    The operators share one pass over their poles: one table of the
    moments I_ij, one of exp(p h j) and one exp(p h KERNEL_BLOCK b) per
    chunk; each keeps its own block product and Horner step, so each
    kernel is the one it would be alone, bit for bit.
    """

    def __init__(self, modes, h: float):
        poles = np.concatenate([p for _, p, _ in modes])
        # block i has the poles poles[lo:hi] and coeffs.shape[1] powers
        self.spans, hi = [], 0
        for _, p, coeffs in modes:
            self.spans.append((hi, hi + p.size, coeffs.shape[1]))
            hi += p.size
        moments = _interval_moments(poles, h, self.spans)
        steps = np.exp(np.multiply.outer(poles * h, _BLOCK_STEPS))
        self.bases = []
        for (_, _, coeffs), (lo, hi, _) in zip(modes, self.spans):
            poly = coeffs * moments[lo:hi, :1]  # columns: powers of s
            for l in range(1, coeffs.shape[1]):
                for j in range(1, l + 1):
                    poly[:, l - j] += coeffs[:, l] * math.comb(l, j) * moments[lo:hi, j]
            self.bases.append((poly[:, :, None] * steps[lo:hi, None, :])
                              .reshape(hi - lo, poly.shape[1] * KERNEL_BLOCK))
        self.rates, self.h = poles * (KERNEL_BLOCK * h), h
        self.terms = [_read_only(np.array([d])) for d, _, _ in modes]

    def __call__(self, m: int) -> list[np.ndarray]:
        while self.terms[0].size < m:
            # the chunk of blocks [first, 2 first) while that is under
            # GROW_BLOCKS blocks, [first, first + GROW_BLOCKS) past it
            first = (self.terms[0].size - 1) // KERNEL_BLOCK
            blocks = np.arange(first, first + min(max(first, 1), GROW_BLOCKS))
            modes = np.exp(np.multiply.outer(blocks, self.rates))
            s = (blocks[:, None] * KERNEL_BLOCK + _BLOCK_STEPS) * self.h
            for i, ((lo, hi, powers), basis) in enumerate(zip(self.spans, self.bases)):
                rows = (modes[:, lo:hi] @ basis).reshape(blocks.size, powers, KERNEL_BLOCK)
                new = rows[:, -1]
                for l in range(powers - 2, -1, -1):
                    new = new * s + rows[:, l]
                self.terms[i] = _read_only(np.concatenate([self.terms[i], new.real.ravel()]))
        return [terms[:m] for terms in self.terms]


def _plant_modes(plant: NioptdPlant, band) -> tuple[float, np.ndarray, np.ndarray]:
    """The modes (d, poles, coeffs) of the unit-gain plant F / (T + F), with
    F = d_F + sum_i c_i / (s - p_i) those of s**-alpha (simple poles): poles
    at the zeros of T + F, the eigenvalues of diag(p) - c 1' / (T + d_F)
    polished by two Newton steps, real or in conjugate pairs; residues
    T / sum_i c_i / (pole - p_i)**2; feedthrough d_F / (T + d_F)."""
    d, p, c = differintegrator_modes(-plant.alpha, band)
    c, T = c[:, 0], plant.T
    poles = np.linalg.eigvals(np.diag(p) - c[:, None] / (T + d))
    for _ in range(2):
        inverse = 1.0 / (poles[:, None] - p)
        poles = poles + (T + d + inverse @ c) / (inverse * inverse @ c)
    inverse = 1.0 / (poles[:, None] - p)
    return d / (T + d), poles, (T / (inverse * inverse @ c))[:, None]


# What one search or one sweep reuses, in two caches, each a cached class
# (calling it returns the one instance of its key) and the only code that
# knows the solver: the plant at rest, shared by all delays, and the last
# controller.  A search makes a new controller at every evaluation and
# builds its entry; a sweep walks its grid lag by lag, so the controller
# keeps num H for one plant at rest at a time.  They are not sized to keep
# series for a later job, which only a repeat of the same job in one
# process would reuse.
@functools.lru_cache(maxsize=8)
class _PlantAtRest:
    """The plant sampled at step h, y = (num / den) u to n terms, num[0] = 0,
    and num's transform ``spectrum`` at _fft_size(2 n - 1), the size of a
    run's last product with H, taken on first use (read-only).  The delay is
    no part of them, so callers pass the plant at L = 0: built once per
    search, and once per lag of a sweep.  GL: den = 1 + T h**-alpha times
    the Grunwald-Letnikov weights, num = (0, K).  Oustaloup: den = 1, num
    the kernel of the unit-gain plant's modes (:func:`_plant_modes`) times
    K, so no finite K overflows the kernel."""

    def __init__(self, plant: NioptdPlant, h: float, solver: str,
                 band: tuple[float, float], n: int):
        if solver == "oustaloup":
            num, den = plant.K * _OperatorKernels([_plant_modes(plant, band)], h)(n)[0], np.ones(1)
        elif solver == "gl":
            num = np.array([0.0, plant.K])
            den = plant.T * h ** (-plant.alpha) * gl_coefficients(plant.alpha, n)
            den[0] += 1.0
        else:
            raise ValueError(f"unknown solver {solver!r}")
        self.num, self.den = _read_only(num), _read_only(den)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        return _read_only(np.fft.rfft(self.num, _fft_size(2 * self.num.size - 1)))


@functools.lru_cache(maxsize=1)
class _ControllerRuns:
    """What the runs of one controller at one step, solver, band and length
    n share, whatever the plant (read-only arrays): the operator kernels,
    H = kp + ki s**-lam + kd s**mu and its kernels as last grown, H's
    transform at _fft_size(2 n - 1), taken on first use, and num H to t
    terms for each growth length t past DIRECT_TERMS for the current plant
    at rest where num is longer than that, of which F = den + z**d num H
    takes the first t - d (a shorter product is direct, cheaper than keeping
    it).  ``count`` counts the runs of the controller.

    num H to all n terms is kept only from the controller's second run on:
    a search runs each controller once, and an n-term product kept past its
    run made the heap grow again, page by page, in the next evaluation.
    """

    def __init__(self, controller: FopidController, h: float, solver: str,
                 band: tuple[float, float], n: int):
        exponents = (-controller.lam, controller.mu)
        self.operators = (_OperatorKernels([differintegrator_modes(g, band) for g in exponents], h)
                          if solver == "oustaloup" else
                          lambda m: [h ** -g * gl_coefficients(g, m) for g in exponents])
        self.gains, self.n, self.count = (controller.kp, controller.ki, controller.kd), n, 0
        self.H, self.kernels, self.plant, self.products = np.zeros(0), [], None, {}

    def start(self, plant: _PlantAtRest) -> None:
        """Count a run on the plant entry ``plant``; a new plant drops the
        products of the last."""
        if plant is not self.plant:
            self.plant, self.products = plant, {}
        self.count += 1

    def grown(self, t: int):
        """The first t terms of H and of the operator kernels."""
        if self.H.size < t:
            kp, ki, kd = self.gains
            self.kernels = self.operators(t)
            self.H = ki * self.kernels[0] + kd * self.kernels[1]
            self.H[0] += kp
            _read_only(self.H)
        return self.H[:t], [kernel[:t] for kernel in self.kernels]

    @functools.cached_property
    def H_spectrum(self) -> np.ndarray:
        return _read_only(np.fft.rfft(self.grown(self.n)[0], _fft_size(2 * self.n - 1)))

    def num_H(self, t: int, hi: int) -> np.ndarray:
        """The first hi terms of num H for the current plant; past
        DIRECT_TERMS terms of both factors, those of num H to t terms, kept."""
        num = self.plant.num
        if min(num.size, t) <= DIRECT_TERMS:
            return _series_mul(num, self.grown(t)[0], 0, hi)
        product = self.products.get(t)
        if product is None:
            if t == self.n:
                # at a size that fits H e too; no term of degree < n folds
                spectrum = self.H_spectrum
                product = np.fft.irfft(self.plant.spectrum * spectrum, _fft_size(2 * t - 1))[:t]
            else:
                product = _series_mul(num, self.grown(t)[0], 0, t)
            if t < self.n or self.count > 1:
                self.products[t] = _read_only(product)
        return product[:hi]


@functools.lru_cache(maxsize=8)
def _first_sample_at(n: int, h: float, t: float) -> int:
    """The first of the n samples k h that is at or after t (n if none)."""
    return int(np.searchsorted(np.arange(n) * h, t))


def simulate_closed_loop(
    plant: NioptdPlant,
    controller: FopidController,
    scenario: Scenario | None = None,
    solver: str = "oustaloup",
    band: tuple[float, float] = DEFAULT_BAND,
) -> SimResult:
    """Unit-feedback FOPID loop on the delayed plant.

    Per sample: e = r - y, u = kp e + ki I**lam[e] + kd D**mu[e]; the plant
    input is the delayed control plus the scenario disturbance.  On
    divergence the trajectories are truncated after the first diverging
    sample, which keeps its output y while e, u, x1 and x3 are 0 there, and
    both indices are set to the penalty value.

    u = H e comes from H's transform at _fft_size(2 n - 1) where the loop
    denominator reached n terms, and is formed only for a run that reached
    the horizon; x1 and x3 are formed on first read.
    """
    scenario = scenario or Scenario()
    h, r, n = scenario.step_size, scenario.setpoint, scenario.n_steps
    at_rest = _PlantAtRest(replace(plant, L=0.0), h, solver, tuple(band), n)
    runs = _ControllerRuns(controller, h, solver, tuple(band), n)
    runs.start(at_rest)
    w_start = _first_sample_at(n, h, scenario.disturbance_time)
    y, k, built = _loop_output(at_rest, int(round(plant.L / h)), runs, r, w_start,
                               scenario.disturbance_magnitude,
                               DIVERGENCE_FACTOR * max(1.0, abs(r)), n)
    e, t = r - y, np.arange(y.size) * h
    # as the run last built them: they cover e past its leading zeros
    H, kernels = runs.grown(built) if built else (np.zeros(1), [np.zeros(1)] * 2)

    def states():
        x1, x3 = _series_products(e, kernels, 0, y.size)
        if k is not None:
            x1[k] = x3[k] = 0.0
        return x1, x3

    if k is not None:
        e[k] = 0.0
        return SimResult._deferred(
            t, y, lambda x1, x3: controller.kp * e + controller.ki * x1 + controller.kd * x3,
            e, states, PENALTY_OBJECTIVE, PENALTY_OBJECTIVE, diverged=True)
    if built == n > DIRECT_TERMS:
        size = _fft_size(2 * n - 1)
        u = np.fft.irfft(runs.H_spectrum * np.fft.rfft(e, size), size)[:n]
    else:
        u = _series_mul(e, H, 0, n)
    u_ss = r / plant.K if controller.lam > 0 else float(u[-1])
    itse, isdco = performance_indices(e, u, u_ss, h)
    return SimResult._deferred(t, y, u, e, states, itse, isdco, diverged=False)


def evaluate_design_objectives(
    plant: NioptdPlant,
    vars,
    method: DelayMethod,
    scenario: Scenario | None = None,
) -> tuple[float, float]:
    """(ITSE, ISDCO) of the closed loop designed from a decision vector.

    Any failure along the way - out-of-bounds variables, no stabilizing
    Riccati solution, diverging simulation - is encoded as the penalty
    pair instead of an exception, as the optimizer contract requires.
    """
    penalty = (PENALTY_OBJECTIVE, PENALTY_OBJECTIVE)
    try:
        if not isinstance(vars, LqrDesignVars):
            vars = LqrDesignVars.from_array(np.asarray(vars, dtype=float))
    except (ValueError, TypeError):
        return penalty
    try:
        controller = design_from_vars(plant, vars, method)
    except (CareFailure, ValueError):
        return penalty
    result = simulate_closed_loop(plant, controller, scenario)
    if result.diverged:
        return penalty
    return result.itse, result.isdco


def robustness_sweep(
    plant_nominal: NioptdPlant,
    controller: FopidController,
    L_grid,
    T_grid,
    scenario: Scenario | None = None,
) -> SweepResult:
    """Re-simulate a fixed controller over a grid of perturbed (L, T).

    Divergent cells are recorded (penalty indices, diverged mask) and the
    sweep continues.  The cells run lag by lag, T outer and L inner: the
    delay only shifts the plant's kernel, so one lag's cells share it and
    the controller's num H.
    """
    L_grid = np.asarray(L_grid, dtype=float)
    T_grid = np.asarray(T_grid, dtype=float)
    if not (L_grid.size and T_grid.size and np.all((0.0 <= L_grid) & (L_grid < math.inf))
            and np.all((0.0 < T_grid) & (T_grid < math.inf))):
        raise ValueError(f"grids must be non-empty with 0 <= L < inf and 0 < T < inf, "
                         f"got L {L_grid.tolist()} and T {T_grid.tolist()}")
    itse = np.empty((L_grid.size, T_grid.size))
    isdco = np.empty_like(itse)
    diverged = np.zeros(itse.shape, dtype=bool)
    for j, T in enumerate(T_grid):
        for i, L in enumerate(L_grid):
            perturbed = replace(plant_nominal, L=float(L), T=float(T))
            res = simulate_closed_loop(perturbed, controller, scenario)
            itse[i, j] = res.itse
            isdco[i, j] = res.isdco
            diverged[i, j] = res.diverged
    return SweepResult(L_grid=L_grid, T_grid=T_grid, itse=itse, isdco=isdco,
                       diverged=diverged)


def write_csv(path, header, rows) -> None:
    """The one CSV writer: a header row, then one line per row, UTF-8 with
    \\n line ends; numbers as .10g, strings verbatim."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else format(v, ".10g")
                              for v in row) + "\n")


def write_trajectory_csv(path, result: SimResult) -> None:
    """Trajectory CSV, one row per sample: t,y,u,x1,x2,x3."""
    write_csv(path, ("t", "y", "u", "x1", "x2", "x3"),
              np.column_stack([result.t, result.y, result.u, result.x1, result.x2, result.x3]))


def write_sweep_csv(path, sweep: SweepResult) -> None:
    """Sweep CSV, one row per grid cell: L,T,itse,isdco."""
    write_csv(path, ("L", "T", "itse", "isdco"),
              ((L, T, sweep.itse[i, j], sweep.isdco[i, j])
               for i, L in enumerate(sweep.L_grid) for j, T in enumerate(sweep.T_grid)))
