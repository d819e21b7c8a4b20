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
earlier samples in an FFT.  Newton runs once, building F and the operator
kernels only as far as it has reached, in the one schedule of stages of
:func:`_next_stage`, from DIRECT_TERMS terms to N: most diverging loops
cross within a few hundred samples and never build those of the whole
horizon.

The engine solves a stack of loops at once, one row each, that share the
plant, the controller, the right-hand side and the length and differ only
in their delay d: a single run is a stack of one, and a robustness sweep
solves the cells of one lag, all its delays, as one stack.  Each step
transforms the rows together, each row as it would be alone (NumPy's
FFT of a stack equals the FFTs of its rows bit for bit), and a factor
every row shares, num H or the right-hand side, once; forward
substitutions and direct products stay per row.  A row whose output
crosses leaves the stack there, and a row that fails the guard against
FFT rounding leaves it to go on alone, so each row is the single run on
its delay, bit for bit.

A closed loop forms only what its caller reads.  The last step of the
loop denominator transforms H at a size that also fits H e, so the rows
that reach the horizon get u = H e from that transform with one more
stacked forward and inverse FFT, and their indices from e and u.  The
states x1 and x3 are formed on the first read of either, and so is the u
of a diverged run, whose indices are the penalty.

Where den is one term (the Oustaloup path) the right-hand side of a
disturbed loop with r != 0 stays split: each block multiplies r den by
1 / F directly, and num by 1 / F only from the disturbance's sample on,
so blocks before it make no FFT product for it.  Where num has more than
DIRECT_TERMS terms, num H is formed to the t terms of each growth length t
past the first block, once for the whole stack whatever the delays, which
only shift it.

Two caches hold what runs reuse; only their constructors know the solver.
One entry per plant at rest (K, T, alpha, step, solver, band, length)
samples the plant, from its modes or its GL weights: num, den and num's
transform at the size of a run's last product; a search builds it once, a
sweep once per lag.  One entry per controller (controller, step, solver,
band, length) holds its operator kernels, H as last grown and H's
transform, which a sweep takes once for all its lags.

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
from .fracnum import (
    DEFAULT_BAND,
    OUSTALOUP_ORDER,
    _factors,
    differintegrator_modes,
    differintegrator_ss,
    gl_coefficients,
)
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
# times exp(p h KERNEL_BLOCK (j div KERNEL_BLOCK)), once per block; its
# blocks are built in chunks that end at the stages of _next_stage, so an
# early-diverging loop builds few blocks and a run to the horizon few chunks
KERNEL_BLOCK = 128
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
    ``w`` is a positive finite scalar or array in rad/s.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all((0.0 < w_arr) & (w_arr < np.inf)):
        raise ValueError("frequencies must be positive and finite")
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


def _next_stage(t: int, n: int) -> int:
    """The length a series of n terms grows to from t terms: DIRECT_TERMS
    first, then RUN_GROWTH times t, and all n once that would pass half of
    them.  The loop denominator and the kernels grow at these stages only."""
    grow = RUN_GROWTH * t or DIRECT_TERMS
    return n if 2 * grow > n else grow


def _series_mul(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo, ..., hi - 1 of the product of the series a and b,
    along the last axis.  Either may be a stack of series (2-D, one per
    row); a 1-D factor is shared by every row, and transformed once."""
    a, b = a[..., :hi], b[..., :hi]
    if min(a.shape[-1], b.shape[-1]) <= DIRECT_TERMS:
        if a.ndim == b.ndim == 1:
            return np.convolve(a, b)[lo:hi]
        rows = max(len(f) for f in (a, b) if f.ndim == 2)
        return np.array([np.convolve(x, y)[lo:hi] for x, y in
                         zip(*(f if f.ndim == 2 else [f] * rows for f in (a, b)))])
    # a cyclic product of length >= hi folds only the terms of degree >=
    # length, onto degrees below a.size + b.size - 1 - length <= lo
    size = _fft_size(max(hi, a.shape[-1] + b.shape[-1] - 1 - lo))
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[..., lo:hi]


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
    """Terms m, ..., t - 1 of 1 / F from its first m terms g (t <= 2 m), for
    each row of the stacks F and g: -g (F g)[m:t] by one Newton step.  On a
    whole doubling (t = 2 m) both products share the transform of g; on a
    shorter step the second uses g[:t - m] alone, whose later terms would
    only add their FFT rounding."""
    if t != 2 * m or m <= DIRECT_TERMS:
        return -_series_mul(g, _series_mul(F, g, m, t), 0, t - m)
    size = _fft_size(t)
    spectrum = np.fft.rfft(g, size)
    Fg = np.fft.irfft(np.fft.rfft(F[:, :t], size) * spectrum, size)[:, m:t]
    return -np.fft.irfft(spectrum * np.fft.rfft(Fg, size), size)[:, :m]


def _split_terms(split, g, m, t):
    """Terms m, ..., t - 1 of q g for q = a + z**w b, ``split`` = (a, w, b)
    with a short, for each row of the stack g: a g, direct while a is, plus
    b g from sample w on, b transformed once for all rows."""
    a, w, b = split
    terms = _series_mul(a, g, m, t)
    if t > w:
        lo = max(m, w)
        terms[:, lo - m:] += _series_mul(b, g, lo - w, t - w)
    return terms


def _error_series(F_of, q, r, threshold, n, count, split=None):
    """The first n terms of e = (q / F) / (1 - z) for each of ``count``
    loops that share q and differ only in F, as a list of (e, k, b), one
    per loop: e cut at the first sample k whose output r - e[k] is
    non-finite or exceeds ``threshold`` in magnitude (e[:k + 1], else k is
    None and e has n terms), and b the number of terms its F was built to
    (0 if none).

    The loops form a stack, one row each, which every step extends by one
    block (m, t) of terms: the first DIRECT_TERMS terms of 1 / F and q / F
    directly, one forward substitution per row, then 1 / F by Newton
    doubling, each step extending a prefix whose outputs all passed the
    test.  ``F_of(t, rows)`` gives the first t terms of F for the loops
    ``rows`` (an index array), asked for at the next stage of
    :func:`_next_stage` whenever a step needs more terms.  Transforms run
    over the rows at once, row by row the same as for one loop alone; a
    loop whose output crosses leaves the stack there.

    An FFT product spreads rounding errors of about sum|q| max|1 / F| over
    all its terms; a loop past MAX_SPREAD times the threshold leaves the
    stack with its block halved and goes on alone, and at DIRECT_TERMS its
    terms are summed directly, which keeps each sample free of the later
    ones.  Leading zeros of q are split off first: e is zero there whatever
    1 / F does.  Where q[0] != 0 and ``split`` = (a, w, b) gives
    q = a + z**w b with a short, a block that passes that test takes
    q (1 / F) from :func:`_split_terms`, so it multiplies by b only from
    sample w on.
    """
    lead = np.flatnonzero(q[:n])
    s = int(lead[0]) if lead.size else n
    q, size = q[s:n], n - s
    series = [None] * count
    empty = np.zeros((count, 0))
    # stacks still to extend: (rows, F, 1 / F, e, m, t) each
    stacks = [(np.arange(count), empty, empty, empty, 0, min(DIRECT_TERMS, size))]
    with np.errstate(over="ignore", invalid="ignore"):
        while stacks:
            rows, F, g, e, m, t = stacks.pop()
            while m < size:
                if t > F.shape[1]:
                    F = F_of(_next_stage(F.shape[1], size), rows)
                if m == 0:
                    blocks = np.concatenate([_first_block(row[:t], q) for row in F])
                    gt, terms = blocks[0::2], blocks[1::2]
                else:
                    gt = np.concatenate([g, _newton_terms(F, g, m, t)], axis=1)
                    wide = np.zeros(rows.size, dtype=bool)
                    if min(q.size, t) > DIRECT_TERMS:
                        wide = ~(np.abs(q[:t]).sum() * np.abs(gt).max(axis=1)
                                 <= MAX_SPREAD * threshold)
                    if wide.any() and t - m > DIRECT_TERMS:
                        # these rows go on alone with half the block
                        stacks.append((rows[wide], F[wide], g[wide], e[wide], m,
                                       m + (t - m) // 2))
                        rows, F, g, e, gt = (a[~wide] for a in (rows, F, g, e, gt))
                        wide = wide[~wide]
                        if not rows.size:
                            break
                    terms = (_split_terms(split, gt, m, t) if split is not None
                             else _series_mul(q, gt, m, t))
                    for i in np.flatnonzero(wide):
                        terms[i] = np.convolve(np.concatenate([np.zeros(t - 1 - m), q[:t]]),
                                               gt[i], "valid")
                block = np.cumsum(terms, axis=1) + (e[:, -1:] if m else 0.0)
                bad = ~(np.abs(r - block) <= threshold)
                crossed = np.flatnonzero(bad.any(axis=1))
                for i in crossed:
                    k = int(bad[i].argmax())
                    series[rows[i]] = (np.concatenate([np.zeros(s), e[i], block[i, :k + 1]]),
                                       s + m + k, F.shape[1])
                if crossed.size == rows.size:
                    break
                if crossed.size:
                    rows, F, gt, e, block = (np.delete(a, crossed, axis=0)
                                             for a in (rows, F, gt, e, block))
                g, e, m, t = gt, np.concatenate([e, block], axis=1), t, min(2 * t, size)
            else:
                for row, terms in zip(rows, e):
                    series[row] = (np.concatenate([np.zeros(s), terms]), None, F.shape[1])
    return series


def _loop_output(at_rest, delays, runs, r, w_start, w_mag, threshold, n):
    """Outputs of y = (num / den) (z**d H (r - y) + w) to n samples for the
    num and den of ``at_rest``, a :class:`_PlantAtRest`, and each delay d of
    ``delays``, solved as one stack: one (y, k, b) per delay, k the first
    sample non-finite or past ``threshold`` (None if there is none) and b
    the number of terms the loop denominator was built to (0 if none).

    The set-point r and the input disturbance w (w_mag from sample w_start
    on) are steps, so the error e = r - y solves
    e F = (r den - w_mag z**w_start num) / (1 - z) with
    F = den + z**d num H, where H is that of ``runs``, the
    :class:`_ControllerRuns` of the controller (H = 0 where it is None):
    only F depends on the delay, and each stage of num H serves every row.
    Where den is one term and r != 0 the right-hand side stays split:
    r den times 1 / F directly, and num times 1 / F only from sample w_start
    on.
    """
    num, den = at_rest.num, at_rest.den
    delays = np.asarray(delays)

    def F_of(t, rows):
        F = np.zeros((rows.size, t))
        F[:, :den.size] = den[:t]
        shifts = delays[rows].tolist()
        if runs is not None and min(shifts) < t:
            num_H = runs.num_H(at_rest, t)
            for row, d in zip(F, shifts):
                if d < t:
                    row[d:] += num_H(t - d)
        return F

    q, split = r * den, None
    if w_mag != 0.0 and w_start < n:
        w = -w_mag * num[:n - w_start]
        if den.size == 1 and r != 0.0:
            split = (q, w_start, w)
        q = _padded(q, n)
        q[w_start:] += _padded(w, n - w_start)
    return [(r - e, k, built) for e, k, built in
            _error_series(F_of, q, r, threshold, n, delays.size, split)]


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
    [(y, k, _)] = _loop_output(at_rest, [delay], None, 0.0, delay, 1.0,
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
    kernels hold at most the n terms given at construction (asking for more
    raises ValueError), and their blocks are built in chunks that end at
    the stages of :func:`_next_stage` for n, whatever lengths are asked
    for.  So each block is always the same row of a product of the same
    shape, and growing the kernels never changes the terms they already
    have nor what they will build: kernels grown on demand equal those
    built to n at once, bit for bit.

    The operators share one pass over their poles: one table of the
    moments I_ij, one of exp(p h j) and one exp(p h KERNEL_BLOCK b) per
    chunk; each keeps its own block product and Horner step, so each
    kernel is the one it would be alone, bit for bit.
    """

    def __init__(self, modes, h: float, n: int):
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
        self.rates, self.h, self.n, self.stage = poles * (KERNEL_BLOCK * h), h, n, 0
        self.terms = [_read_only(np.array([d])) for d, _, _ in modes]

    def __call__(self, m: int) -> list[np.ndarray]:
        if m > self.n:
            raise ValueError(f"the kernels have {self.n} terms, not {m}")
        while self.terms[0].size < m:
            # up to the block of term stage - 1: the block of term k > 0 is
            # (k - 1) // KERNEL_BLOCK
            self.stage = _next_stage(self.stage, self.n)
            self._extend(np.arange((self.terms[0].size - 1) // KERNEL_BLOCK,
                                   (self.stage - 2) // KERNEL_BLOCK + 1))
        return [terms[:m] for terms in self.terms]

    def _extend(self, blocks: np.ndarray) -> None:
        """Append the consecutive blocks ``blocks`` to every kernel."""
        modes = np.exp(np.multiply.outer(blocks, self.rates))
        s = (blocks[:, None] * KERNEL_BLOCK + _BLOCK_STEPS) * self.h
        for i, ((lo, hi, powers), basis) in enumerate(zip(self.spans, self.bases)):
            rows = (modes[:, lo:hi] @ basis).reshape(blocks.size, powers, KERNEL_BLOCK)
            new = rows[:, -1]
            for l in range(powers - 2, -1, -1):
                new = new * s + rows[:, l]
            self.terms[i] = _read_only(np.concatenate([self.terms[i], new.real.ravel()]))


def _plant_modes(plant: NioptdPlant, band) -> tuple[float, np.ndarray, np.ndarray]:
    """The modes (d, poles, coeffs) of the unit-gain plant F / (T + F), with
    F = d_F + sum_i c_i / (s - p_i) those of s**-alpha (simple poles): poles
    at the zeros of T + F, the eigenvalues of diag(p) - c 1' / (T + d_F)
    polished by two Newton steps, real or in conjugate pairs; residues
    T / sum_i c_i / (pole - p_i)**2; feedthrough d_F / (T + d_F).

    Those steps resolve a pole only to a rounding of the largest |p_i|, not
    its distance to the nearest pole or zero of F, which vanishes for large
    or small T and for alpha near 1 or 2.  So one Newton step on F's
    product form checks them: where it would move a pole by more than 1e-10
    of that distance, or the residue 1 / (F'/F) there differs from the one
    above by more than 1e-11 of the largest, the modes are those of
    :func:`_anchored_modes` instead."""
    d, p, c = differintegrator_modes(-plant.alpha, band)
    c, T = c[:, 0], plant.T
    with np.errstate(all="ignore"):
        guesses = np.linalg.eigvals(np.diag(p) - c[:, None] / (T + d))
        poles = guesses
        for _ in range(2):
            inverse = 1.0 / (poles[:, None] - p)
            poles = poles + (T + d + inverse @ c) / (inverse * inverse @ c)
        inverse = 1.0 / (poles[:, None] - p)
        residues = T / (inverse * inverse @ c)
        if p.size:
            filt, _, _ = _factors(-plant.alpha, band, OUSTALOUP_ORDER)
            zeros, gain = (filt.zeros, filt.gain) if filt is not None else (np.zeros(0), 1.0)
            # F = gain prod(s - zeros) / prod(s - p), one row per pole
            gaps = poles[:, None] - np.concatenate([p, zeros])
            offsets = np.abs(gaps).min(axis=1)
            log_slope = (1.0 / gaps[:, p.size:]).sum(axis=1) - (1.0 / gaps[:, :p.size]).sum(axis=1)
            F = gain * np.prod(gaps[:, p.size:], axis=1) / np.prod(gaps[:, :p.size], axis=1)
            if not (np.all(np.abs((T + F) / (F * log_slope)) <= 1e-10 * offsets)
                    and np.max(np.abs(residues - 1.0 / log_slope))
                    <= 1e-11 * np.max(np.abs(residues))):
                poles, residues = _anchored_modes(plant, p, zeros, gain, guesses)
                if not np.any(poles.imag):
                    poles, residues = poles.real, residues.real
    return d / (T + d), poles, residues[:, None]


def _anchored_modes(plant: NioptdPlant, p, zeros, gain, guesses):
    """The poles and residues of F / (T + F), F = gain prod(s - zeros) /
    prod(s - p), from ``guesses`` of the poles.  Each pole is its anchor, the
    pole or zero of F nearest its guess, plus an offset delta found by
    Newton's method with the anchor's own factor, delta, kept apart, so
    delta is resolved to rounding however small: on delta T + delta F near
    a pole of F, on T + F near a zero.  The residue at a pole is
    1 / (F'/F) = delta / (+-1 + delta L), L the logarithmic derivative of F
    without the anchor's factor.  Raises ValueError where Newton does not
    converge, or where the residues miss the plant's unit dc gain
    (sum_i -residue_i / pole_i = 1) by more than 1e-9."""
    anchors = np.concatenate([p, zeros])
    guesses = np.where(np.isfinite(guesses), guesses, 0.0).astype(complex)
    mine = np.argmin(np.abs(guesses[:, None] - anchors), axis=1)[:, None] == np.arange(
        anchors.size)
    at_pole = mine[:, :p.size].any(axis=1)
    anchor = anchors @ mine.T
    gaps = anchor[:, None] - anchors  # exact where an anchor meets itself
    sign = np.where(mine, 1.0, np.concatenate([-np.ones(p.size), np.ones(zeros.size)]))
    delta, T = guesses - anchor, plant.T
    for _ in range(60):
        factors = np.where(mine, 1.0, gaps + delta[:, None])
        rest = gain * np.prod(factors[:, p.size:], axis=1) / np.prod(factors[:, :p.size], axis=1)
        log_slope = np.sum(np.where(mine, 0.0, sign / factors), axis=1)
        f = np.where(at_pole, delta * T + rest, T + delta * rest)
        slope = np.where(at_pole, T + rest * log_slope, rest * (1.0 + delta * log_slope))
        step = f / slope
        delta = delta - step
        if np.all(np.abs(step) <= 1e-12 * np.abs(delta)):
            break
    else:
        raise ValueError(f"the Oustaloup modes of the plant with T = {T} and alpha = "
                         f"{plant.alpha} do not converge; use solver 'gl'")
    factors = np.where(mine, 1.0, gaps + delta[:, None])
    log_slope = np.sum(np.where(mine, 0.0, sign / factors), axis=1)
    residues = delta / (np.where(at_pole, -1.0, 1.0) + delta * log_slope)
    poles = anchor + delta
    if not abs(np.sum(-residues / poles) - 1.0) <= 1e-9:
        raise ValueError(f"the Oustaloup modes of the plant with T = {T} and alpha = "
                         f"{plant.alpha} miss its unit dc gain; use solver 'gl'")
    return poles, residues


# What one search or one sweep reuses, in two caches, each a cached class
# (calling it returns the one instance of its key) and the only code that
# knows the solver: the plant at rest, shared by all delays, and the last
# controller.  A search makes a new controller at every evaluation and
# builds its entry; a sweep solves one stack per lag, so the controller's
# entry serves all its lags.  They are not sized to keep series for a later
# job, which only a repeat of the same job in one process would reuse.  Per
# round of the benchmark's sweep-verify 8 of 16 controller lookups hit,
# against 1 of 96 on search-osc-fine and 0 of 478 on search-slug-coarse.
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
            num = plant.K * _OperatorKernels([_plant_modes(plant, band)], h, n)(n)[0]
            den = np.ones(1)
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
    H = kp + ki s**-lam + kd s**mu and its kernels as last grown, and H's
    transform at _fft_size(2 n - 1), taken on first use.
    """

    def __init__(self, controller: FopidController, h: float, solver: str,
                 band: tuple[float, float], n: int):
        exponents = (-controller.lam, controller.mu)
        self.operators = (_OperatorKernels([differintegrator_modes(g, band) for g in exponents],
                                           h, n) if solver == "oustaloup" else
                          lambda m: [h ** -g * gl_coefficients(g, m) for g in exponents])
        self.gains, self.n = (controller.kp, controller.ki, controller.kd), n
        self.H, self.kernels = np.zeros(0), []

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

    def num_H(self, plant: _PlantAtRest, t: int):
        """num H for the plant entry ``plant``: a function of hi <= t that
        gives its first hi terms.  Past DIRECT_TERMS terms of both factors
        those are the first hi of one product to t terms, formed here, so a
        stack of loops forms it once; a shorter product is direct, to hi
        terms, for each hi."""
        num, H = plant.num, self.grown(t)[0]
        if min(num.size, t) <= DIRECT_TERMS:
            return lambda hi: _series_mul(num, H, 0, hi)
        if t == self.n:
            # at a size that fits H e too; no term of degree < n folds
            product = np.fft.irfft(plant.spectrum * self.H_spectrum, _fft_size(2 * t - 1))[:t]
        else:
            product = _series_mul(num, H, 0, t)
        return lambda hi: product[:hi]


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
    delay = int(round(plant.L / scenario.step_size))
    return _closed_loops(plant, [delay], controller, scenario, solver, band)[0]


def _closed_loops(plant, delays, controller, scenario, solver, band) -> list[SimResult]:
    """The loops of :func:`simulate_closed_loop` for ``plant`` at each input
    delay of ``delays`` (in samples, whatever plant.L is), one stack for
    :func:`_loop_output`: each result is the one that loop gives alone, bit
    for bit.  The u of the loops that reach the horizon comes from one
    stacked product."""
    h, r, n = scenario.step_size, scenario.setpoint, scenario.n_steps
    at_rest = _PlantAtRest(replace(plant, L=0.0), h, solver, tuple(band), n)
    runs = _ControllerRuns(controller, h, solver, tuple(band), n)
    w_start = _first_sample_at(n, h, scenario.disturbance_time)
    outputs = _loop_output(at_rest, delays, runs, r, w_start, scenario.disturbance_magnitude,
                           DIVERGENCE_FACTOR * max(1.0, abs(r)), n)

    def result(y, k, built, e, u):
        t = np.arange(y.size) * h
        # as the run last built them: they cover e past its leading zeros
        kernels = runs.grown(built)[1] if built else [np.zeros(1)] * 2

        def states():
            x1, x3 = _series_mul(e, np.array(kernels), 0, y.size)
            if k is not None:
                x1[k] = x3[k] = 0.0
            return x1, x3

        if k is not None:
            e[k] = 0.0
            return SimResult._deferred(
                t, y, lambda x1, x3: controller.kp * e + controller.ki * x1 + controller.kd * x3,
                e, states, PENALTY_OBJECTIVE, PENALTY_OBJECTIVE, diverged=True)
        u_ss = r / plant.K if controller.lam > 0 else float(u[-1])
        itse, isdco = performance_indices(e, u, u_ss, h)
        return SimResult._deferred(t, y, u, e, states, itse, isdco, diverged=False)

    errors = [r - y for y, _, _ in outputs]
    survivors = [i for i, (_, k, _) in enumerate(outputs) if k is None]
    controls = {}
    if survivors:
        # every loop that reaches the horizon built its denominator as far
        built = outputs[survivors[0]][2]
        e = np.array([errors[i] for i in survivors])
        if built == n > DIRECT_TERMS:
            size = _fft_size(2 * n - 1)
            u = np.fft.irfft(runs.H_spectrum * np.fft.rfft(e, size), size)[:, :n]
        else:
            u = _series_mul(e, runs.grown(built)[0] if built else np.zeros(1), 0, n)
        controls = dict(zip(survivors, u))
    return [result(y, k, built, errors[i], controls.get(i))
            for i, (y, k, built) in enumerate(outputs)]


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
    sweep continues.  The delay only shifts the plant's kernel, so the
    cells of one lag, all delays of L_grid, are one stack of loops for the
    engine: they share the plant entry, num H and the right-hand side.
    Each cell equals a single run on its plant bit for bit.
    """
    L_grid = np.asarray(L_grid, dtype=float)
    T_grid = np.asarray(T_grid, dtype=float)
    if not (L_grid.ndim == T_grid.ndim == 1 and L_grid.size and T_grid.size
            and np.all((0.0 <= L_grid) & (L_grid < math.inf))
            and np.all((0.0 < T_grid) & (T_grid < math.inf))):
        raise ValueError(f"grids must be non-empty 1-D arrays with 0 <= L < inf and "
                         f"0 < T < inf, got L {L_grid.tolist()} and T {T_grid.tolist()}")
    scenario = scenario or Scenario()
    delays = [int(round(float(L) / scenario.step_size)) for L in L_grid]
    itse = np.empty((L_grid.size, T_grid.size))
    isdco = np.empty_like(itse)
    diverged = np.zeros(itse.shape, dtype=bool)
    for j, T in enumerate(T_grid):
        cells = _closed_loops(replace(plant_nominal, T=float(T)), delays, controller, scenario,
                              "oustaloup", DEFAULT_BAND)
        for i, res in enumerate(cells):
            itse[i, j], isdco[i, j], diverged[i, j] = res.itse, res.isdco, res.diverged
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
