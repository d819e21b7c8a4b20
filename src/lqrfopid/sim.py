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
  filter of s**-alpha, times K.  Each block has its kernel object of its
  own: the plant one, each controller operator one.

Both loops are linear and causal, so one engine solves them on power
series truncated to the N samples of a run: with the one-sample delay z,
plant num / den, controller H, delay d and set-point and disturbance
steps r and w, the error is e = (r den - num w) / (den + z**d num H).
The engine branches on the lengths of these series, never on the path.
Every product goes through :func:`_series_mul`, direct where a factor has
at most DIRECT_TERMS terms and an FFT convolution past that, which alone
picks the transform size: a series that products read whole (the plant's
num, H, a Newton step's prefix of 1 / F) is a :class:`_Series`, which
keeps its transform at each size asked for.  The first DIRECT_TERMS
terms of the reciprocal come by forward substitution (one LAPACK dtrtrs
solve on the Toeplitz matrix of the denominator), the rest by Newton
doubling: O(N log N) per run.  A run diverges at the first sample whose output is
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

A closed loop forms only what its caller reads.  The rows that reach the
horizon get u = H e, one stacked product with H grown to N terms, whose
transform the last num H took at that size, and their indices from e and
u.  The states x1 and x3 are formed on the first read of either, and so
is the u of a diverged run, whose indices are the penalty.  Both products
take e from its first nonzero sample on and shift back, so the zeros
that lead e under a zero set-point stay exact and cost no FFT length.

The design objective decides a loop that diverges by its second delay
round trip before any of this is built.  With den = 1 and num[0] = 0 the
output is 0 up to d, r num[1] H[0] at the first sample it responds to,
d + 1, which needs only the operators' feedthroughs, and
r (S[d + 2] - (num[1] H[0])**2) at 2 (d + 1), S the prefix sums of num H,
whose kernel terms it bounds from the operators' orders alone: it builds
no operator kernels, and a loop it leaves undecided goes to the engine.

Where den is one term (the Oustaloup path) the right-hand side of a
disturbed loop with r != 0 stays split: each block multiplies r den by
1 / F directly, and num by 1 / F only from the disturbance's sample on,
so blocks before it make no FFT product for it.  Where num has more than
DIRECT_TERMS terms, num H is formed to the t terms of each growth length t
past the first block, once for the whole stack whatever the delays, which
only shift it.

What runs reuse is built once per owner; only the constructors of the
plant and controller entries know the solver.  One cached entry per plant
at rest (K, T, alpha, step, solver, band, length) samples the plant, from
its modes or its GL weights: num, with its transforms, and den; a search
builds it once, a sweep once per lag.  A controller entry (controller,
step, solver, band, length) holds the two operators' kernel objects and
H as last grown, with its transforms; each single run makes its own, and
a sweep one for all its lags.  Nothing else outlives a run, so a
controller builds each operator's kernel once, from that operator's modes.

Timing convention shared by both paths: num[0] = 0, so the plant state at
sample k has integrated the (zero-order-held, delayed) input, control and
disturbance alike, up to sample k - 1 - round(L/h): there is never an
algebraic loop, even at L = 0, since no plant has an order so small that
its Oustaloup filter is the identity.  Rounding the delay to the grid
induces at most h/2 of delay error.
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
    _band,
    _factor_modes,
    _factors,
    _order_feedthrough,
    _order_variation,
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
# the engine forms the first sample a delayed loop responds to within a few
# roundings of its closed form (FFT rounding where the delay is past the
# first block); a closed form past the divergence bound by this relative
# margin crosses it in the engine too
_FIRST_SAMPLE_MARGIN = 1e-9
# the engine forms sample 2 (d + 1) of a delayed loop within a few
# roundings of the sum of the magnitudes of its closed form's terms (within
# 1e-14 of it measured, 1e-12 tested); a closed form bounded past the
# divergence bound by this many times that sum crosses it in the engine too
_SECOND_RESPONSE_MARGIN = 1e-6


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
    # the unit-gain response first: NumPy's complex division would scale K by
    # the denominator's parts and overflow for a finite response at large K
    resp = plant.K * (np.exp(-1j * w_arr * plant.L) / (plant.T * jw_alpha + 1.0))
    return resp if np.ndim(w) else complex(resp[0])


def _divergence_bound(r: float) -> float:
    """The magnitude past which the output of a closed loop with set-point r
    diverges: DIVERGENCE_FACTOR * max(1, |r|)."""
    return DIVERGENCE_FACTOR * max(1.0, abs(r))


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of the series a, zero-filled past its end."""
    out = np.zeros(n)
    out[:min(a.size, n)] = a[:n]
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _leading_zeros(e: np.ndarray) -> int:
    """How many leading terms are zero in every row of the series (or stack
    of series, one per row) e, at most all but its last: a product with e
    from there on, shifted back, is the whole product, with exact zeros
    before it."""
    nonzero = np.flatnonzero(e.any(axis=0) if e.ndim == 2 else e)
    return int(nonzero[0]) if nonzero.size else e.shape[-1] - 1


def _fft_size(need: int) -> int:
    """The first 2**j, 3 * 2**j or 5 * 2**j that is at least need."""
    return min(p << ((need - 1) // p).bit_length() for p in (1, 3, 5))


def _next_stage(t: int, n: int) -> int:
    """The length a series of n terms grows to from t terms: DIRECT_TERMS
    first, then RUN_GROWTH times t, and all n once that would pass half of
    them.  The loop denominator and the kernels grow at these stages only."""
    grow = RUN_GROWTH * t or DIRECT_TERMS
    return n if 2 * grow > n else grow


class _Series:
    """A read-only series, or stack of series (2-D, one per row), that keeps
    its transform at each size a product asks for, so a factor that several
    products read whole is transformed once per size."""

    def __init__(self, terms: np.ndarray):
        self.terms, self.spectra = _read_only(terms), {}

    def transform(self, size: int) -> np.ndarray:
        if size not in self.spectra:
            self.spectra[size] = np.fft.rfft(self.terms, size)
        return self.spectra[size]


def _series_mul(a, b, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo, ..., hi - 1 of the product of the series a and b,
    along the last axis.  Either may be a stack of series (2-D, one per
    row); a 1-D factor is shared by every row, and transformed once.  Either
    may be a :class:`_Series`, whose kept transform serves where the product
    reads all its terms."""
    ka = a if isinstance(a, _Series) and a.terms.shape[-1] <= hi else None
    kb = b if isinstance(b, _Series) and b.terms.shape[-1] <= hi else None
    a = (a.terms if isinstance(a, _Series) else a)[..., :hi]
    b = (b.terms if isinstance(b, _Series) else b)[..., :hi]
    if min(a.shape[-1], b.shape[-1]) <= DIRECT_TERMS:
        if a.ndim == b.ndim == 1:
            return np.convolve(a, b)[lo:hi]
        rows = max(len(f) for f in (a, b) if f.ndim == 2)
        return np.array([np.convolve(x, y)[lo:hi] for x, y in
                         zip(*(f if f.ndim == 2 else [f] * rows for f in (a, b)))])
    # a cyclic product of length >= hi folds only the terms of degree >=
    # length, onto degrees below a.size + b.size - 1 - length <= lo
    size = _fft_size(max(hi, a.shape[-1] + b.shape[-1] - 1 - lo))
    fa = np.fft.rfft(a, size) if ka is None else ka.transform(size)
    fb = np.fft.rfft(b, size) if kb is None else kb.transform(size)
    return np.fft.irfft(fa * fb, size)[..., lo:hi]


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
    whole doubling (t = 2 m) both products read all of g at one size (no
    FFT length past 5 is odd, so 2 m - 1 and 2 m round up alike), so g is
    transformed once; on a shorter step the second uses g[:t - m] alone,
    whose later terms would only add their FFT rounding."""
    g = _Series(g)
    return -_series_mul(g, _series_mul(F, g, m, t), 0, t - m)


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
    loops that share q and differ only in F, as a list of (e, k), one per
    loop: e cut at the first sample k whose output r - e[k] is non-finite
    or exceeds ``threshold`` in magnitude (e[:k + 1], else k is None and e
    has n terms).

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
    lead = q[:n].nonzero()[0]
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
                    for i in wide.nonzero()[0]:
                        terms[i] = np.convolve(np.concatenate([np.zeros(t - 1 - m), q[:t]]),
                                               gt[i], "valid")
                block = terms.cumsum(axis=1) + (e[:, -1:] if m else 0.0)
                bad = ~(np.abs(r - block) <= threshold)
                crossed = bad.any(axis=1).nonzero()[0]
                for i in crossed:
                    k = int(bad[i].argmax())
                    series[rows[i]] = (np.concatenate([np.zeros(s), e[i], block[i, :k + 1]]),
                                       s + m + k)
                if crossed.size == rows.size:
                    break
                if crossed.size:
                    rows, F, gt, e, block = (np.delete(a, crossed, axis=0)
                                             for a in (rows, F, gt, e, block))
                g, e, m, t = gt, np.concatenate([e, block], axis=1), t, min(2 * t, size)
            else:
                for row, terms in zip(rows, e):
                    series[row] = (np.concatenate([np.zeros(s), terms]), None)
    return series


def _loop_output(at_rest, delays, runs, r, w_start, w_mag, threshold, n):
    """Outputs of y = (num / den) (z**d H (r - y) + w) to n samples for the
    num and den of ``at_rest``, a :class:`_PlantAtRest`, and each delay d of
    ``delays``, solved as one stack: one (y, k) per delay, k the first
    sample non-finite or past ``threshold`` (None if there is none).

    The set-point r and the input disturbance w (w_mag from sample w_start
    on) are steps, so the error e = r - y solves
    e F = (r den - w_mag z**w_start num) / (1 - z) with
    F = den + z**d num H, where H is that of ``runs``, the
    :class:`_ControllerRuns` of the controller (H = 0 where it is None):
    only F depends on the delay, and num H, formed once per stage, serves
    every row.  Where den is one term and r != 0 the right-hand side stays
    split: r den times 1 / F directly, and num times 1 / F only from sample
    w_start on.
    """
    num, den = at_rest.num, at_rest.den
    delays = np.asarray(delays)

    def F_of(t, rows):
        F = np.zeros((rows.size, t))
        F[:, :den.size] = den[:t]
        shifts = delays[rows].tolist()
        if runs is not None and min(shifts) < t:
            num_H = _series_mul(num, runs.grown(t), 0, t)
            for row, d in zip(F, shifts):
                if d < t:
                    row[d:] += num_H[:t - d]
        return F

    q, split = r * den, None
    if w_mag != 0.0 and w_start < n:
        w = -w_mag * num.terms[:n - w_start]
        if den.size == 1 and r != 0.0:
            split = (q, w_start, w)
        q = _padded(q, n)
        q[w_start:] += _padded(w, n - w_start)
    return [(r - e, k) for e, k in _error_series(F_of, q, r, threshold, n, delays.size, split)]


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
    [(y, k)] = _loop_output(at_rest, [delay], None, 0.0, delay, 1.0,
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


_BLOCK_STEPS = np.arange(float(KERNEL_BLOCK))
# Gauss-Legendre rule of 10 nodes on [0, 1], its weights times u**j, j < 3
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)
_GAUSS_NODES = (_GAUSS_NODES + 1.0) / 2.0
_GAUSS_MOMENTS = _GAUSS_WEIGHTS[:, None] / 2.0 * _GAUSS_NODES[:, None] ** np.arange(3)


def _interval_moments(poles: np.ndarray, h: float, count: int) -> np.ndarray:
    """The integrals of tau**j exp(p tau) over [0, h], j < count, one row
    per pole, of the poles' dtype: h**(j + 1) J_j(p h) with J_j(x) the
    integral of u**j exp(x u) over [0, 1].
    J_0 = expm1(x) / x (1 at x = 0).  Past it the recurrence
    J_j = (exp(x) - j J_(j-1)) / x, which cancels for small x; where
    |x| < 1/2 the Gauss-Legendre rule instead, exact to rounding there (it
    integrates the terms x**n u**(n + j) / n! exactly up to degree 19)."""
    x = poles * h
    out = np.zeros((x.size, count), dtype=x.dtype)
    out[:, 0] = np.divide(np.expm1(x), x, out=np.ones(x.size, x.dtype), where=x != 0.0)
    if count > 1:
        small = np.abs(x) < 0.5
        nodes = np.exp(np.multiply.outer(x * small, _GAUSS_NODES))
        out[:, 1:] = nodes @ _GAUSS_MOMENTS[:, 1:count]
        large = ~small
        x, moment = x[large], out[large, 0]
        grown = np.exp(x)
        for j in range(1, count):
            moment = (grown - j * moment) / x
            out[large, j] = moment
    return out * h ** np.arange(1, count + 1)


class _OperatorKernels:
    """The sampled kernel of one block of a run, in closed form from its
    modes ``modes``, a (d, poles, coeffs) of :func:`differintegrator_modes`
    or :func:`_plant_modes`, extended in place on demand.

    ``kernel(m)`` is its first m terms (read-only): g[0] is the feedthrough
    d and g[k] the integral of the impulse response
    sum_i sum_l c_il t**l exp(p_i t) over [(k - 1) h, k h], the ZOH Markov
    parameter (its real part, where poles come in conjugate pairs).  With
    s = (k - 1) h that is sum_i exp(p_i s) P_i(s), where P_i has the
    coefficient sum_l c_il binom(l, j) I_ij of s**(l - j) and I_ij is the
    integral of tau**j exp(p_i tau) over [0, h].

    For the KERNEL_BLOCK samples s = (b KERNEL_BLOCK + j) h of block b that
    is sum_l s**l (X_b R)[l, j], with X_b[i] = exp(p_i h KERNEL_BLOCK b) and
    R[i, (l, j)] = (coefficient of s**l in P_i) exp(p_i h j) built once at
    construction: a row of one small matrix product, then Horner in s.  The
    kernel holds at most the n terms given at construction (asking for more
    raises ValueError), and its blocks are built in chunks that end at the
    stages of :func:`_next_stage` for n, whatever lengths are asked for.
    So each block is always the same row of a product of the same shape,
    and growing the kernel never changes the terms it already has nor what
    it will build: a kernel grown on demand equals one built to n at once,
    bit for bit.  The one closed-form sampler: the plant entry builds one,
    and the controller entry one per operator.
    """

    def __init__(self, modes, h: float, n: int):
        d, poles, coeffs = modes
        self.h, self.n, self.stage, self.powers = h, n, 0, coeffs.shape[1]
        moments = _interval_moments(poles, h, self.powers)
        # the coefficients of P_i, columns the powers of s
        poly = coeffs * moments[:, :1]
        for l in range(1, self.powers):
            for j in range(1, l + 1):
                poly[:, l - j] += coeffs[:, l] * math.comb(l, j) * moments[:, j]
        steps = np.exp((poles * h)[:, None] * _BLOCK_STEPS)
        self.basis = (poly[:, :, None] * steps[:, None, :]).reshape(
            poles.size, self.powers * KERNEL_BLOCK)
        self.rates = poles * (KERNEL_BLOCK * h)
        self.terms = _read_only(np.array([d]))

    def __call__(self, m: int) -> np.ndarray:
        if m > self.n:
            raise ValueError(f"the kernel has {self.n} terms, not {m}")
        while self.terms.size < m:
            # up to the block of term stage - 1: the block of term k > 0 is
            # (k - 1) // KERNEL_BLOCK
            self.stage = _next_stage(self.stage, self.n)
            self._extend(np.arange((self.terms.size - 1) // KERNEL_BLOCK,
                                   (self.stage - 2) // KERNEL_BLOCK + 1))
        return self.terms[:m]

    def _extend(self, blocks: np.ndarray) -> None:
        """Append the consecutive blocks ``blocks`` to the kernel."""
        rows = (np.exp(np.multiply.outer(blocks, self.rates)) @ self.basis).reshape(
            blocks.size, self.powers, KERNEL_BLOCK)
        s = (blocks[:, None] * KERNEL_BLOCK + _BLOCK_STEPS) * self.h
        new = rows[:, -1]
        for l in range(self.powers - 2, -1, -1):
            new = new * s + rows[:, l]
        self.terms = _read_only(np.concatenate([self.terms, new.real.ravel()]))


def _plant_modes(plant: NioptdPlant, band) -> tuple[float, np.ndarray, np.ndarray]:
    """The modes (d, poles, coeffs) of the unit-gain plant F / (T + F), with
    F = gain prod(s - zeros) / prod(s - p) = sum_i c_i / (s - p_i) the
    filter of s**-alpha, with no feedthrough (no plant has an order too
    small to move 1 - alpha off 1, whose F would be the identity).

    The poles are the zeros of T + F, guessed by the eigenvalues of
    diag(p) - c 1' / T, real or in conjugate pairs.  Each is its anchor,
    the pole or zero of F nearest its guess, plus an offset delta found by
    Newton's method with the anchor's own factor, delta, kept apart, so
    delta is resolved to rounding however small: on delta T + delta F near
    a pole of F, on T + F near a zero.  The residue at a pole is
    1 / (F'/F) = delta / (+-1 + delta L), L the logarithmic derivative of F
    without the anchor's factor as the last Newton step left it.  Raises
    ValueError where Newton does not converge, or where the residues miss
    the plant's unit dc gain (sum_i -residue_i / pole_i = 1) by more than
    1e-9."""
    filt, power, integrators = _factors(-plant.alpha, band, OUSTALOUP_ORDER)
    _, p, c = _factor_modes(filt, power, integrators)
    T = plant.T
    zeros, gain = (filt.zeros, filt.gain) if filt is not None else (np.zeros(0), 1.0)
    anchors = np.concatenate([p, zeros])
    with np.errstate(all="ignore"):
        guesses = np.linalg.eigvals(np.diag(p) - c / T)
        guesses = np.where(np.isfinite(guesses), guesses, 0.0)
        mine = np.argmin(np.abs(guesses[:, None] - anchors), axis=1)[:, None] == np.arange(
            anchors.size)
        at_pole = mine[:, :p.size].any(axis=1)
        anchor = anchors @ mine.T
        gaps = anchor[:, None] - anchors  # exact where an anchor meets itself
        # each factor's sign in L: -1 at a pole, +1 at a zero, 0 for the anchor's own
        sign = np.where(mine, 0.0, np.concatenate([-np.ones(p.size), np.ones(zeros.size)]))
        delta = guesses - anchor
        for _ in range(60):
            factors = np.where(mine, 1.0, gaps + delta[:, None])
            rest = (gain * np.multiply.reduce(factors[:, p.size:], axis=1)
                    / np.multiply.reduce(factors[:, :p.size], axis=1))
            log_slope = np.add.reduce(sign / factors, axis=1)
            f = np.where(at_pole, delta * T + rest, T + delta * rest)
            slope = np.where(at_pole, T + rest * log_slope, rest * (1.0 + delta * log_slope))
            step = f / slope
            delta = delta - step
            if np.all(np.abs(step) <= 1e-12 * np.abs(delta)):
                break
        else:
            raise ValueError(f"the Oustaloup modes of the plant with T = {T} and alpha = "
                             f"{plant.alpha} do not converge; use solver 'gl'")
        residues = delta / (np.where(at_pole, -1.0, 1.0) + delta * log_slope)
        poles = anchor + delta
        if not abs(np.sum(-residues / poles) - 1.0) <= 1e-9:
            raise ValueError(f"the Oustaloup modes of the plant with T = {T} and alpha = "
                             f"{plant.alpha} miss its unit dc gain; use solver 'gl'")
    return 0.0, poles, residues[:, None]


# What one search or one sweep reuses of the plant: the plant at rest,
# shared by all delays, a cached class (calling it returns the one instance
# of its key); with the controller entry the only code that knows the
# solver.  It is not sized to keep series for a later job, which only a
# repeat of the same job in one process would reuse.  The controller entry
# has no cache: a search makes a new controller at every evaluation, which
# builds its operator kernels once, cold, and a sweep, one stack per lag,
# makes one entry for all its lags.
@functools.lru_cache(maxsize=8)
class _PlantAtRest:
    """The plant sampled at step h, y = (num / den) u to n terms, num[0] = 0,
    num a :class:`_Series` (so its transform at the size of a run's last
    product with H is taken once) and den a read-only array.  The delay is
    no part of them, so callers pass the plant at L = 0: built once per
    search, and once per lag of a sweep.  GL: den = 1 + T h**-alpha times
    the Grunwald-Letnikov weights, num = (0, K).  Oustaloup: den = 1, num
    K times the kernel of the unit-gain plant's modes from the one Newton
    solve of :func:`_plant_modes`, so no finite K overflows the kernel."""

    def __init__(self, plant: NioptdPlant, h: float, solver: str,
                 band: tuple[float, float], n: int):
        if solver == "oustaloup":
            num = plant.K * _OperatorKernels(_plant_modes(plant, band), h, n)(n)
            den = np.ones(1)
        elif solver == "gl":
            num = np.array([0.0, plant.K])
            den = plant.T * h ** (-plant.alpha) * gl_coefficients(plant.alpha, n)
            den[0] += 1.0
        else:
            raise ValueError(f"unknown solver {solver!r}")
        self.num, self.den = _Series(num), _read_only(den)


class _ControllerRuns:
    """What the runs of one controller at step h, with one solver and band,
    to n terms share, whatever the plant: ``operators``, the kernels of
    s**-lam and s**mu (``op(m)`` their first m terms: an
    :class:`_OperatorKernels` each, or their scaled GL weights), and
    H = kp + ki s**-lam + kd s**mu as last grown, a :class:`_Series`.  Its
    runs own it: each :func:`simulate_closed_loop` makes one, and a
    :func:`robustness_sweep` one for all its lags.
    """

    def __init__(self, controller: FopidController, h: float, solver: str,
                 band: tuple[float, float], n: int):
        exponents = (-controller.lam, controller.mu)
        self.operators = [
            _OperatorKernels(differintegrator_modes(g, band), h, n) if solver == "oustaloup"
            else lambda m, g=g: h ** -g * gl_coefficients(g, m)
            for g in exponents]
        self.controller, self.h, self.solver, self.band, self.n = controller, h, solver, band, n
        self.H = _Series(np.zeros(0))

    def grown(self, t: int) -> _Series:
        """H as last grown, to at least t terms."""
        if self.H.terms.size < t:
            c = self.controller
            lam, mu = (op(t) for op in self.operators)
            H = c.ki * lam + c.kd * mu
            H[0] += c.kp
            self.H = _Series(H)
        return self.H


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

    u = H e is formed only for a run that reached the horizon, in one
    product with H grown to n terms, which reuses the transform of H that
    num H took at n terms; x1 and x3 are formed on first read.
    """
    scenario = scenario or Scenario()
    h = scenario.step_size
    runs = _ControllerRuns(controller, h, solver, _band(band), scenario.n_steps)
    return _closed_loops(plant, [int(round(plant.L / h))], runs, scenario)[0]


def _closed_loops(plant, delays, runs, scenario) -> list[SimResult]:
    """The loops of :func:`simulate_closed_loop` for ``plant`` at each input
    delay of ``delays`` (in samples, whatever plant.L is) under the
    controller entry ``runs`` (a :class:`_ControllerRuns`, whose step,
    solver, band and length they take), one stack for :func:`_loop_output`:
    each result is the one that loop gives alone, bit for bit.  The u of
    the loops that reach the horizon comes from one stacked product."""
    controller, h, n, r = runs.controller, runs.h, runs.n, scenario.setpoint
    at_rest = _PlantAtRest(replace(plant, L=0.0), h, runs.solver, runs.band, n)
    w_start = _first_sample_at(n, h, scenario.disturbance_time)
    outputs = _loop_output(at_rest, delays, runs, r, w_start, scenario.disturbance_magnitude,
                           _divergence_bound(r), n)

    def result(y, k, e, u):
        t = np.arange(y.size) * h

        def states():
            s = _leading_zeros(e)
            x1, x3 = np.zeros((2, y.size))
            kernels = np.array([op(y.size) for op in runs.operators])
            x1[s:], x3[s:] = _series_mul(e[s:], kernels, 0, y.size - s)
            if k is not None:
                x1[k] = x3[k] = 0.0
            return x1, x3

        if k is not None:
            e[k] = 0.0
            return SimResult._deferred(
                t, y, lambda x1, x3: controller.kp * e + controller.ki * x1 + controller.kd * x3,
                e, states, PENALTY_OBJECTIVE, PENALTY_OBJECTIVE, diverged=True)
        u_ss = r / plant.K if controller.ki != 0 and controller.lam > 0 else float(u[-1])
        itse, isdco = performance_indices(e, u, u_ss, h)
        return SimResult._deferred(t, y, u, e, states, itse, isdco, diverged=False)

    errors = [r - y for y, _ in outputs]
    survivors = [i for i, (_, k) in enumerate(outputs) if k is None]
    controls = {}
    if survivors:
        e = np.array([errors[i] for i in survivors])
        u, s = np.zeros(e.shape), _leading_zeros(e)
        u[:, s:] = _series_mul(runs.grown(n), e[:, s:], 0, n - s)
        controls = dict(zip(survivors, u))
    return [result(y, k, errors[i], controls.get(i)) for i, (y, k) in enumerate(outputs)]


def _early_verdict(plant, controller, scenario):
    """The sample by which :func:`simulate_closed_loop` of the controller on
    the plant (Oustaloup path, default band) diverges, d + 1 or 2 (d + 1),
    decided before any controller entry or loop is built by the identities
    of :func:`evaluate_design_objectives`, or None where it is not decided.

    Sample d + 1, r num[1] H[0] with H[0] from the operators' feedthroughs,
    decides where it is finite and past the divergence bound by the
    relative margin _FIRST_SAMPLE_MARGIN.  Sample 2 (d + 1),
    r ((H[0] N[d + 2] - (num[1] H[0])**2) + sum_(0 < l <= d + 1) H[l]
    N[d + 2 - l]) with N the prefix sums of num, decides where its
    feedthrough part (the sum left out) passes the bound by more than the
    sum can take away, |r| (|ki| V(-lam) + |kd| V(mu)) max|N[:d + 3]| with
    V the :func:`_order_variation` over the d + 1 kernel terms, and by
    _SECOND_RESPONSE_MARGIN times the magnitude of the sample's terms,
    |r| (|H[0] N[d + 2]| + (num[1] H[0])**2) plus that sum's bound.  A NaN
    or infinite feedthrough part decides nothing.  Builds only the plant
    entry (den = 1 there): no modes and no operator kernels.  A sample is
    left undecided where r = 0, a disturbance starts at or before it, or
    it is at or past N.
    """
    h, n, r = scenario.step_size, scenario.n_steps, float(scenario.setpoint)
    d = int(round(plant.L / h))
    w = (_first_sample_at(n, h, scenario.disturbance_time)
         if scenario.disturbance_magnitude != 0.0 else n)
    if r == 0.0 or min(w, n) <= d + 1:
        return None
    at_rest = _PlantAtRest(replace(plant, L=0.0), h, "oustaloup", DEFAULT_BAND, n)
    num1 = float(at_rest.num.terms[1])
    c, bound = controller, _divergence_bound(r)
    # as the controller entry forms H[0], in Python floats, which overflow
    # without a warning: ki times the first term of one kernel plus kd
    # times the other's, then kp
    f_lam, f_mu = (float(_order_feedthrough(g, DEFAULT_BAND)) for g in (-c.lam, c.mu))
    H0 = (float(c.ki) * f_lam + float(c.kd) * f_mu) + float(c.kp)
    first = num1 * H0
    if math.isfinite(r * first) and abs(r * first) > bound * (1.0 + _FIRST_SAMPLE_MARGIN):
        return d + 1
    if min(w, n) <= 2 * (d + 1):
        return None
    sums = np.cumsum(at_rest.num.terms[:d + 3])
    fed = H0 * float(sums[-1])
    head = r * (fed - first * first)
    span = (d + 1) * h
    spread = float(np.abs(sums).max()) * (
        abs(float(c.ki)) * _order_variation(-c.lam, DEFAULT_BAND, span)
        + abs(float(c.kd)) * _order_variation(c.mu, DEFAULT_BAND, span))
    magnitude = abs(r) * (abs(fed) + first * first + spread)
    if abs(head) - abs(r) * spread > bound + _SECOND_RESPONSE_MARGIN * magnitude:
        return 2 * (d + 1)
    return None


def evaluate_design_objectives(
    plant: NioptdPlant,
    vars,
    method: DelayMethod,
    scenario: Scenario | None = None,
) -> tuple[float, float]:
    """(ITSE, ISDCO) of the closed loop designed from a decision vector.

    Every failure of the design - out-of-bounds variables, no stabilizing
    Riccati solution, diverging simulation - is encoded as the penalty
    pair instead of an exception, as the optimizer contract requires.  A
    plant whose Oustaloup modes do not resolve (tiny lags, orders within
    about 1e-12 of 2) is a plant error, not a design penalty: the
    ValueError of :func:`_plant_modes`, which names T and alpha, propagates.

    Before the controller entry is built, the early verdict
    (:func:`_early_verdict`) decides the loops that diverge by the second
    round trip of the delay d = round(L / h).  With den = 1, num[0] = 0
    and 1 / (1 + z**d num H) = 1 - z**d nH + z**(2 d) nH**2 - ..., nH = num H,
    the output is exactly 0 up to d; at sample d + 1 it is r num[1] H[0],
    H[0] = kp + ki f(-lam) + kd f(mu) with f(g) the feedthrough of s**g: 1
    for an order too small to move g + 1 off 1, 0 on the integrator branch
    (g < 0), (w_high**(g / p))**p for g > 0 (p = 2, or 3 at g = 2), with no
    filter built (:func:`_order_feedthrough`); at sample 2 (d + 1) it is
    r (S[d + 2] - nH[1]**2), S the prefix sums of nH, whose terms past
    nH[1] it bounds from the operators' orders.  Where a sample is past
    the divergence bound by its margin the pair is the penalty, and no
    controller entry or loop is built; every other design is simulated,
    so the pair is the same to the bit.  The gain depends on how many
    designs diverge that early.  In a ``search-slug-coarse`` round, of the
    478 evaluations with a gain map, 181 are decided at sample d + 1 and
    129 at 2 (d + 1); in ``search-osc-fine``, 5 of 96 at d + 1 and none at
    2 (d + 1).
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
    scenario = scenario or Scenario()
    if _early_verdict(plant, controller, scenario) is not None:
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
    runs = _ControllerRuns(controller, scenario.step_size, "oustaloup", DEFAULT_BAND,
                           scenario.n_steps)
    for j, T in enumerate(T_grid):
        cells = _closed_loops(replace(plant_nominal, T=float(T)), delays, runs, scenario)
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
