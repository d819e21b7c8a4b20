"""Numerical fractional differintegration.

Grunwald-Letnikov (GL) convolution weights and signals, the analytic
power-function differintegral used as a validation oracle, and Oustaloup
recursive pole/zero approximations of s**gamma with state-space
realizations suitable for fixed-step simulation.

All operators assume zero initial conditions (signals identically zero for
t < 0), where the GL and Caputo definitions coincide.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RationalFilter",
    "gl_coefficients",
    "gl_differintegral",
    "analytic_power_differintegral",
    "oustaloup_approximation",
    "differintegrator_ss",
]

# the default band [rad/s] of the Oustaloup filters, and the order of each
DEFAULT_BAND = (1e-3, 1e3)
OUSTALOUP_ORDER = 5


def gl_coefficients(gamma: float, n: int) -> np.ndarray:
    """First ``n`` GL convolution weights for differintegration order ``gamma``.

    The weights are the binomial expansion of (1 - z)**gamma, generated by
    the stable recurrence ``c_j = c_{j-1} * (1 - (gamma + 1) / j)`` with
    ``c_0 = 1``.  Negative ``gamma`` yields integration weights (all
    positive); integer ``gamma`` terminates exactly (finite differences).
    """
    if n < 1:
        raise ValueError(f"need at least one coefficient, got n={n}")
    if not math.isfinite(gamma):
        raise ValueError(f"order must be finite, got {gamma}")
    return np.cumprod(np.concatenate(([1.0], 1.0 - (gamma + 1.0) / np.arange(1, n))))


def gl_differintegral(f: np.ndarray, gamma: float, h: float) -> np.ndarray:
    """GL differintegral of a sampled signal starting at t = 0.

    ``out[k] = h**(-gamma) * sum_{j=0}^{k} c_j f[k-j]``: the full history,
    a direct O(N^2) convolution.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h}")
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    if n == 0 or gamma == 0.0:
        return f.copy()
    return h ** (-gamma) * np.convolve(f, gl_coefficients(gamma, n))[:n]


def analytic_power_differintegral(p: float, gamma: float, t: float) -> float:
    """Exact differintegral of f(t) = t**p under zero initial conditions.

    Returns ``Gamma(p+1) / Gamma(p+1-gamma) * t**(p-gamma)``.  Used as the
    independent oracle for :func:`gl_differintegral`.
    """
    if not 0.0 <= p < math.inf:
        raise ValueError(f"power must be nonnegative and finite, got {p}")
    if not math.isfinite(gamma):
        raise ValueError(f"order must be finite, got {gamma}")
    if p - gamma <= -1.0:
        raise ValueError(
            f"p - gamma = {p - gamma} <= -1: differintegral does not exist"
        )
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    coef = math.gamma(p + 1.0) / math.gamma(p + 1.0 - gamma)
    if t == 0.0:
        expo = p - gamma
        if expo > 0:
            return 0.0
        if expo == 0:
            return coef
        return math.inf * np.sign(coef)
    return coef * t ** (p - gamma)


@dataclass(frozen=True, eq=False)
class RationalFilter:
    """Stable rational approximation of s**order over a frequency band.

    Zeros and poles are the actual (negative real) positions in rad/s; they
    interlace geometrically inside the band.  Zeros, poles and gain must be
    finite, and the poles negative.
    """

    zeros: np.ndarray
    poles: np.ndarray
    gain: float

    def __post_init__(self):
        poles = np.asarray(self.poles)
        if np.count_nonzero(np.isfinite(poles) & (poles < 0.0)) != poles.size:
            raise ValueError(f"filter poles must be finite and negative: a non-negative pole "
                             f"or a non-finite one in {poles}")
        if np.count_nonzero(np.isfinite(self.zeros)) != np.size(self.zeros):
            raise ValueError(f"filter zeros must be finite, got {self.zeros}")
        if not math.isfinite(self.gain):
            raise ValueError(f"filter gain must be finite, got {self.gain}")

    def freq_response(self, w) -> complex | np.ndarray:
        """Frequency response H(jw); ``w`` may be scalar or array (rad/s)."""
        scalar = np.ndim(w) == 0
        w_arr = np.atleast_1d(np.asarray(w, dtype=float))
        jw = 1j * w_arr[:, None]
        num = np.prod(jw - self.zeros[None, :], axis=1) if self.zeros.size else 1.0
        den = np.prod(jw - self.poles[None, :], axis=1)
        resp = self.gain * num / den
        return complex(resp[0]) if scalar else resp

    def residues(self) -> np.ndarray:
        """Residues r_i at the poles: H(s) = gain + sum_i r_i / (s - p_i).

        Each is gain times the product of (p_i - z_j) / (p_i - p_j) over j
        (with p_i - z_i for j = i), ratios of neighbours that stay well
        scaled however wide the band.  Needs as many zeros as poles.
        """
        p = self.poles
        gap = p[:, None] - p
        gap.flat[::p.size + 1] = 1.0
        return self.gain * np.multiply.reduce((p[:, None] - self.zeros) / gap, axis=1)


def oustaloup_approximation(
    gamma: float,
    band: tuple[float, float] = DEFAULT_BAND,
    order: int = OUSTALOUP_ORDER,
) -> RationalFilter:
    """Oustaloup recursive approximation of s**gamma, gamma in (-1, 1) \\ {0}.

    Produces ``2 * order + 1`` alternating pole/zero pairs spread
    geometrically over ``band`` and gain ``w_high**gamma``.  The response
    tracks ``(jw)**gamma`` closely in the band interior; within one decade
    of either band edge the phase falls short of ``gamma * 90`` degrees by
    about 6 percent of the asymptote (so a 5-degree phase figure holds for
    |gamma| <= 0.85 roughly, independent of ``order``).

    Integer or zero exponents are rejected: split gamma = m + gamma' and
    handle the integer part exactly (see :func:`differintegrator_ss`).
    """
    if not (-1.0 < gamma < 1.0) or gamma == 0.0:
        raise ValueError(
            f"exponent must lie in (-1, 1) excluding 0, got {gamma}; "
            "split off the integer part first"
        )
    w_low, w_high = _band(band)
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 1:
        raise ValueError(f"approximation order must be >= 1 and an integer, got {order!r}")
    n = int(order)
    # zero k and pole k, k = 0, ..., 2 n, sit at these fractions of the
    # band's decades, in one array operation for both
    shift = np.array([[0.5 * (1.0 - gamma)], [0.5 * (1.0 + gamma)]])
    zeros, poles = -w_low * (w_high / w_low) ** ((np.arange(2 * n + 1.0) + shift) / (2 * n + 1))
    gain = w_high ** gamma
    return RationalFilter(zeros=zeros, poles=poles, gain=gain)


def _band(band) -> tuple[float, float]:
    """``band`` as the floats (w_low, w_high); raises ValueError, naming the
    band, unless it is two numbers with 0 < w_low < w_high < inf."""
    try:
        w_low, w_high = (float(w) for w in band)
    except (TypeError, ValueError):
        w_low = w_high = math.nan
    if not (0.0 < w_low < w_high < math.inf):
        raise ValueError(f"need 0 < w_low < w_high < inf for the band, got {band!r}")
    return w_low, w_high


def _cascade_ss(zeros, poles, gain, integrators: int = 0):
    """Series connection of first-order sections (s - z_i)/(s - p_i) times
    ``gain``, followed by ``integrators`` exact 1/s stages.

    Putting the integrators last makes the overall feedthrough zero whenever
    ``integrators > 0``; the pole/zero part alone is biproper.  The cascade
    avoids expanding high-order polynomials, which would be far too
    ill-conditioned over wide bands.
    """
    zeros = np.asarray(zeros, dtype=float)
    poles = np.asarray(poles, dtype=float)
    # section i: x_i' = p_i x_i + (its input), output (p_i - z_i) x_i + input
    c = poles - zeros
    m, n = c.size, c.size + integrators
    # a pole/zero section's input is the cascade input plus the outputs
    # c_j x_j of all sections before it; an integrator's is the output of the
    # stage before it (whose own feedthrough is 0 past the first integrator)
    A = np.tril(np.tile(np.concatenate([c, np.ones(integrators)]), (n, 1)), -1)
    A[m + 1:] = np.eye(n, k=-1)[m + 1:]
    A[np.arange(m), np.arange(m)] = poles
    B = np.zeros((n, 1))
    B[:m + 1] = float(gain)
    if integrators:
        C = np.eye(1, n, n - 1)
        D = np.zeros((1, 1))
    else:
        C = c[None, :].copy()
        D = np.array([[float(gain)]])
    return A, B, C, D


def _order_split(gamma: float) -> tuple[float, int, int]:
    """s**gamma as :func:`differintegrator_ss` and
    :func:`differintegrator_modes` build it, decided without building a
    filter: (exponent, power, integrators), the Oustaloup filter of
    s**exponent raised to ``power`` (no filter where power is 0, exponent
    0.0 then) and followed by ``integrators`` exact 1/s stages."""
    if not (-2.0 <= gamma <= 2.0):
        raise ValueError(f"exponent must lie in [-2, 2], got {gamma}")
    # an exponent too small to move gamma + 1 off 1.0 is the identity; the
    # anchored split below would leave a residual of exactly 1 otherwise
    if gamma + 1.0 == 1.0:
        return 0.0, 0, 0
    if gamma < 0.0:
        if gamma == -2.0:
            return 0.0, 0, 2
        residual = gamma + 1.0
        return (0.0, 0, 1) if residual == 0.0 else (residual, 1, 1)
    power = 2 if gamma < 2.0 else 3
    return gamma / power, power, 0


def _feedthrough(gain: float, power: int, integrators: int) -> float:
    """The feedthrough of a filter of gain ``gain`` raised to ``power`` and
    followed by ``integrators`` exact 1/s stages: 0 behind an integrator,
    else gain**power (1 with no filter)."""
    return 0.0 if integrators else gain ** power


def _order_feedthrough(gamma: float, band: tuple[float, float]) -> float:
    """The first kernel term d of :func:`differintegrator_modes` (gamma,
    band), bit for bit, with no filter built: the Oustaloup gain
    band[1]**exponent of :func:`oustaloup_approximation` through
    :func:`_feedthrough`."""
    exponent, power, integrators = _order_split(gamma)
    return _feedthrough(band[1] ** exponent, power, integrators)


def _order_variation(gamma: float, band: tuple[float, float], span: float) -> float:
    """A bound on the integral of |k| over [0, span], k the impulse
    response of :func:`differintegrator_modes` (gamma, band) past its
    feedthrough, with no filter built.

    The Oustaloup filter F of s**e, e in (-1, 1), interlaces its real
    poles and zeros, with a zero nearest the origin for e > 0 and a pole
    for e < 0: an RC admittance or impedance, whose residues all share one
    sign.  So the response of F - F(inf) keeps one sign, its integral is
    at most D = |F(inf) - F(0)| = |w_high**e - w_low**e|, and the step
    response of F stays between F(0) and F(inf).  Hence the bound is
    (F(inf) + D)**power - F(inf)**power for a power of F, span times
    max(F(0), F(inf)) for F then an integrator, span or span**2 / 2 for
    one or two exact integrators, and 0 for the identity."""
    exponent, power, integrators = _order_split(gamma)
    if not power:
        return (0.0, span, span * span / 2.0)[integrators]
    high, low = band[1] ** exponent, band[0] ** exponent
    if integrators:
        return span * max(high, low)
    return (high + abs(high - low)) ** power - high ** power


def _factors(gamma: float, band, order: int):
    """The factors (filter, power, integrators) of :func:`_order_split`,
    the filter built (None for power 0)."""
    exponent, power, integrators = _order_split(gamma)
    filt = oustaloup_approximation(exponent, band, order) if power else None
    return filt, power, integrators


def differintegrator_ss(
    gamma: float,
    band: tuple[float, float] = DEFAULT_BAND,
    order: int = OUSTALOUP_ORDER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """State-space realization (A, B, C, D) of s**gamma for gamma in [-2, 2].

    Negative exponents are anchored on an exact integrator,
    ``s**gamma = s**-1 * s**(gamma+1)``, so integral action has a true pole
    at the origin (zero steady-state error, exact dc gain) and the
    realization has no feedthrough.  Positive exponents use a biproper
    power, ``s**gamma = (s**(gamma/2))**2`` (cube for gamma = 2), which
    stays realizable across the whole (0, 2] range including gamma = 1.
    Either is one cascade (:func:`_cascade_ss`): the filter's sections
    repeated ``power`` times, with its gain to that power, then the
    integrators.  Reference code: no simulation path calls it.
    """
    filt, power, integrators = _factors(gamma, band, order)
    if filt is None:
        return _cascade_ss([], [], 1.0, integrators)
    return _cascade_ss(np.tile(filt.zeros, power), np.tile(filt.poles, power),
                       filt.gain ** power, integrators)


def differintegrator_modes(
    gamma: float, band: tuple[float, float],
) -> tuple[float, np.ndarray, np.ndarray]:
    """The impulse response of :func:`differintegrator_ss` (at its default
    order ``OUSTALOUP_ORDER``) in closed form.

    Returns (d, poles, coeffs): the response to a unit impulse is
    ``d delta(t) + sum_i sum_l coeffs[i, l] t**l exp(poles[i] t)`` for
    t > 0.  The poles are the filter's own, each of multiplicity ``power``,
    and 0 for the exact integrators; no state matrix is formed.
    """
    return _factor_modes(*_factors(gamma, band, OUSTALOUP_ORDER))


def _factor_modes(filt, power: int, integrators: int):
    """The modes (d, poles, coeffs) of :func:`differintegrator_modes` from
    the factors of :func:`_factors`."""
    d = _feedthrough(1.0 if filt is None else filt.gain, power, integrators)
    if filt is None:
        if not integrators:
            return d, np.zeros(0), np.zeros((0, 1))
        # 1 / s**i responds with t**(i - 1) / (i - 1)!
        coeffs = np.zeros((1, integrators))
        coeffs[0, -1] = 1.0 / math.factorial(integrators - 1)
        return d, np.zeros(1), coeffs
    p, r, k = filt.poles, filt.residues(), filt.gain
    if integrators:
        # F(s) / s = F(0) / s + sum_i (r_i / p_i) / (s - p_i) - (r_i / p_i) / s
        poles, coeffs = np.zeros(p.size + 1), np.empty((p.size + 1, 1))
        poles[1:], coeffs[1:, 0] = p, r / p
        coeffs[0, 0] = k * np.multiply.reduce(filt.zeros / p)
        return d, poles, coeffs
    # near p_i, F = r_i / (s - p_i) + phi_i(s) with phi_i analytic there;
    # the coefficients of (s - p_i)**-l in F**2 and F**3 follow from
    # phi_i(p_i) = k + sum_(j != i) r_j / (p_i - p_j) and its derivative,
    # and (s - p)**-l responds with t**(l - 1) exp(p t) / (l - 1)!
    gap = p[:, None] - p
    gap.flat[::p.size + 1] = np.inf
    near = k + np.add.reduce(r / gap, axis=1)
    coeffs = np.empty((p.size, power))
    if power == 2:
        coeffs[:, 0], coeffs[:, 1] = 2.0 * r * near, r * r
    else:
        slope = -np.add.reduce(r / (gap * gap), axis=1)
        coeffs[:, 0] = 3.0 * r * (near * near + r * slope)
        coeffs[:, 1], coeffs[:, 2] = 3.0 * r * r * near, 0.5 * r ** 3
    return d, p, coeffs
