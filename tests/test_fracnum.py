import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrfopid import (
    analytic_power_differintegral,
    differintegrator_ss,
    gl_coefficients,
    gl_differintegral,
    oustaloup_approximation,
)
from lqrfopid import fracnum

from oracles import cascade_ss_loop


class TestGlCoefficients:
    def test_first_difference(self):
        np.testing.assert_array_equal(gl_coefficients(1.0, 4), [1.0, -1.0, 0.0, 0.0])

    def test_identity_operator(self):
        np.testing.assert_array_equal(gl_coefficients(0.0, 3), [1.0, 0.0, 0.0])

    def test_half_order_hand_values(self):
        # c_j = c_{j-1} (1 - 1.5/j): 1, -0.5, -0.125
        np.testing.assert_allclose(
            gl_coefficients(0.5, 3), [1.0, -0.5, -0.125], rtol=0, atol=1e-15
        )

    def test_recurrence_holds(self):
        gamma = 0.73
        c = gl_coefficients(gamma, 50)
        for j in range(1, 50):
            assert c[j] == pytest.approx(c[j - 1] * (1 - (gamma + 1) / j), abs=1e-15)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            gl_coefficients(0.5, 0)
        with pytest.raises(ValueError):
            gl_coefficients(math.nan, 3)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_sign_pattern_and_partial_sums(self, gamma):
        # derivative orders in (0, 1): head positive, tail negative,
        # partial sums decreasing toward 0
        c = gl_coefficients(gamma, 200)
        assert c[0] == 1.0
        assert np.all(c[1:] < 0)
        partial = np.cumsum(c)
        assert np.all(np.diff(partial) < 0)
        assert np.all(partial > 0)
        assert partial[-1] < partial[0]


class TestGlDifferintegral:
    def test_derivative_of_ramp(self):
        h = 0.001
        t = np.arange(0, 1 + h / 2, h)
        out = gl_differintegral(t, 1.0, h)
        assert np.max(np.abs(out[1:] - 1.0)) <= 2 * h

    def test_identity(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(100)
        np.testing.assert_array_equal(gl_differintegral(f, 0.0, 0.05), f)

    def test_half_derivative_of_ramp_at_one(self):
        h = 0.001
        t = np.arange(0, 1 + h / 2, h)
        out = gl_differintegral(t, 0.5, h)
        exact = analytic_power_differintegral(1.0, 0.5, 1.0)
        assert exact == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
        assert abs(out[-1] - exact) <= 5e-3

    def test_first_order_convergence_at_fixed_time(self):
        errs = []
        for h in (0.002, 0.001, 0.0005):
            t = np.arange(0, 1 + h / 2, h)
            out = gl_differintegral(t, 0.5, h)
            errs.append(abs(out[-1] - analytic_power_differintegral(1.0, 0.5, 1.0)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.5 <= coarse / fine <= 2.5

    def test_composition_roundtrip(self):
        # D^gamma then D^-gamma recovers a signal with f(0) = 0 within O(h)
        h = 0.002
        t = np.arange(0, 2, h)
        f = np.sin(t) * t
        for gamma in (0.3, 0.7):
            back = gl_differintegral(gl_differintegral(f, gamma, h), -gamma, h)
            assert np.max(np.abs(back - f)) <= 10 * h

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            gl_differintegral(np.ones(4), 0.5, 0.0)


class TestAnalyticOracle:
    @pytest.mark.parametrize(
        "p,gamma,t,expected",
        [
            (1.0, 1.0, 3.0, 1.0),
            (1.0, 0.0, 2.0, 2.0),
            (1.0, 0.5, 1.0, 2 / math.sqrt(math.pi)),
        ],
    )
    def test_values(self, p, gamma, t, expected):
        assert analytic_power_differintegral(p, gamma, t) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonintegrable(self):
        with pytest.raises(ValueError):
            analytic_power_differintegral(0.0, 1.5, 1.0)

    def test_value_at_time_zero(self):
        """At t = 0, t**(p - gamma) is 0, 1 or unbounded as p - gamma is
        positive, zero or negative."""
        assert analytic_power_differintegral(1.0, 0.5, 0.0) == 0.0
        assert analytic_power_differintegral(1.0, 1.0, 0.0) == 1.0
        assert analytic_power_differintegral(2.0, 2.0, 0.0) == 2.0
        assert analytic_power_differintegral(0.0, 0.5, 0.0) == math.inf

    def test_rejects_negative_power_or_time(self):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            analytic_power_differintegral(-0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="time must be nonnegative"):
            analytic_power_differintegral(1.0, 0.5, -1.0)


class TestOustaloup:
    def test_half_order_at_band_center(self):
        filt = oustaloup_approximation(0.5, band=(1e-3, 1e3), order=5)
        H = filt.freq_response(1.0)
        mag_db_err = abs(20 * math.log10(abs(H)))
        phase_err = abs(math.degrees(np.angle(H)) - 45.0)
        assert mag_db_err <= 2.0
        assert phase_err <= 5.0

    @pytest.mark.parametrize("gamma", [0.3, -0.6, 0.8, -0.25])
    def test_gain_tracks_power_law_at_center(self, gamma):
        band = (1e-3, 1e3)
        filt = oustaloup_approximation(gamma, band=band, order=5)
        w = math.sqrt(band[0] * band[1])
        assert abs(filt.freq_response(w)) == pytest.approx(w ** gamma, rel=0.05)

    def test_rejects_degenerate_orders(self):
        for gamma in (0.0, 1.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                oustaloup_approximation(gamma)

    def test_rejects_bad_band_and_order(self):
        for band in ((0.0, 1e3), (1e3, 1e-3), (1.0, 1.0)):
            with pytest.raises(ValueError, match="w_low < w_high"):
                oustaloup_approximation(0.5, band=band)
        for order in (0, 2.5, True):
            with pytest.raises(ValueError, match="order must be >= 1"):
                oustaloup_approximation(0.5, order=order)

    def test_filter_rejects_non_negative_pole(self):
        for pole in (0.0, 2.0):
            with pytest.raises(ValueError, match="non-negative pole"):
                fracnum.RationalFilter(zeros=np.array([-1.0]), poles=np.array([-3.0, pole]),
                                       gain=1.0)

    def test_poles_stable_and_interlaced(self):
        filt = oustaloup_approximation(0.5, band=(1e-3, 1e3), order=5)
        assert np.all(filt.poles < 0)
        zs = np.sort(-filt.zeros)
        ps = np.sort(-filt.poles)
        # for a positive exponent every zero sits below its paired pole,
        # and consecutive pairs do not overlap
        assert np.all(zs < ps)
        assert np.all(ps[:-1] < zs[1:])

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.8, -0.4, -0.8])
    def test_accuracy_contract_inside_band(self, gamma):
        # 2 dB / 5 degree contract one decade inside the band, |gamma|<=0.8
        # (the phase shortfall grows to about 5.4 deg as |gamma| -> 1;
        # that is a property of the truncated ladder, not of the order)
        band = (1e-3, 1e3)
        filt = oustaloup_approximation(gamma, band=band, order=5)
        w = np.logspace(math.log10(10 * band[0]), math.log10(band[1] / 10), 300)
        H = filt.freq_response(w)
        mag_err_db = 20 * np.abs(np.log10(np.abs(H)) - gamma * np.log10(w))
        phase_err = np.abs(np.degrees(np.angle(H)) - gamma * 90.0)
        assert mag_err_db.max() <= 2.0
        assert phase_err.max() <= 5.0

    def test_edge_order_phase_shortfall_documented(self):
        filt = oustaloup_approximation(0.9, band=(1e-3, 1e3), order=5)
        w = np.logspace(-2, 2, 300)
        phase_err = np.abs(np.degrees(np.angle(filt.freq_response(w))) - 81.0)
        assert phase_err.max() <= 6.0  # just over the 5-degree figure


class TestNonFiniteInputs:
    """Each public numeric rejects a non-finite input with a ValueError
    that names it, before NumPy warns of anything."""

    @pytest.fixture(autouse=True)
    def warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("band", [(1e-3, math.inf), (1e-3, math.nan), (math.nan, 1e3),
                                      (-math.inf, 1e3), (1e-3, 1e3, 5), (1e-3,), 5, None,
                                      "ab"])
    def test_oustaloup_band(self, band):
        with pytest.raises(ValueError, match="band"):
            oustaloup_approximation(0.5, band)

    @pytest.mark.parametrize("name", ["zeros", "poles", "gain"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_filter(self, name, bad):
        fields = dict(zeros=np.array([-1.0, -10.0]), poles=np.array([-3.0, -30.0]), gain=1.0)
        fields[name] = bad if name == "gain" else np.array([-3.0, bad])
        with pytest.raises(ValueError, match=f"filter {name} must be finite"):
            fracnum.RationalFilter(**fields)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_gl_step(self, h):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            gl_differintegral(np.ones(4), 0.5, h)

    @pytest.mark.parametrize("args,name", [
        ((math.nan, 0.5, 1.0), "power"), ((math.inf, 0.5, 1.0), "power"),
        ((1.0, math.nan, 1.0), "order"), ((1.0, -math.inf, 1.0), "order"),
        ((1.0, 0.5, math.nan), "time"), ((1.0, 0.5, math.inf), "time")])
    def test_analytic_oracle(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            analytic_power_differintegral(*args)


class TestDifferintegratorSS:
    @staticmethod
    def _freq(ss, w):
        A, B, C, D = ss
        n = A.shape[0]
        out = []
        for wi in np.atleast_1d(w):
            if n:
                x = np.linalg.solve(1j * wi * np.eye(n) - A, B)
                out.append((C @ x + D)[0, 0])
            else:
                out.append(D[0, 0])
        return np.asarray(out)

    @pytest.mark.parametrize("gamma", [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
    def test_matches_ideal_response_mid_band(self, gamma):
        ss = differintegrator_ss(gamma, band=(1e-3, 1e3), order=5)
        w = np.logspace(-1, 1, 40)
        H = self._freq(ss, w)
        ideal = (1j * w) ** gamma
        rel = np.abs(H - ideal) / np.abs(ideal)
        assert rel.max() < 0.12

    def test_identity_for_zero_order(self):
        # exponents too small to move gamma + 1 off 1.0 count as zero
        for gamma in (0.0, -5e-17, -1e-300, 1e-300):
            A, B, C, D = differintegrator_ss(gamma)
            assert A.size == 0 and D[0, 0] == 1.0

    def test_negative_orders_have_no_feedthrough(self):
        for gamma in (-0.3, -1.0, -1.7, -2.0):
            _, _, _, D = differintegrator_ss(gamma)
            assert D[0, 0] == 0.0

    def test_boundary_orders_realizable(self):
        for gamma in (-2.0, 2.0):
            A, _, _, _ = differintegrator_ss(gamma)
            assert A.shape[0] > 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            differintegrator_ss(2.5)

    def test_cascade_matches_section_loop(self, monkeypatch):
        # every section feedthrough is exactly 1 or 0, so the vectorized
        # cascade must equal the section-by-section build to the bit
        rng = np.random.default_rng(41)
        exponents = [-2.0, -1.0, 0.0, 1.0, 2.0] + list(rng.uniform(-2.0, 2.0, 60))
        band = (1e-3, 1e3)
        built = [differintegrator_ss(g, band, 5) for g in exponents]
        monkeypatch.setattr(fracnum, "_cascade_ss", cascade_ss_loop)
        for gamma, got in zip(exponents, built):
            for a, b in zip(got, differintegrator_ss(gamma, band, 5)):
                assert a.shape == b.shape and np.array_equal(a, b), gamma

    def test_feedthrough_needs_no_filter(self, monkeypatch):
        """The feedthrough decided from the order split alone equals the
        first term of the modes, bit for bit, with no filter built: seeded
        orders over [-2, 2] and the edges of the split (the identity, an
        order too small to move 1 off 1, exact integrators and derivatives,
        the cube at 2), on three bands."""
        rng = np.random.default_rng(43)
        orders = [0.0, 1e-17, -1e-17, 1.0, -1.0, 2.0, -2.0] + list(rng.uniform(-2.0, 2.0, 200))
        bands = [fracnum.DEFAULT_BAND, (1e-2, 1e2), (0.37, 7.3e4)]
        want = {(g, band): fracnum.differintegrator_modes(g, band)[0]
                for g in orders for band in bands}

        def no_filter(*args, **kwargs):
            raise AssertionError("built a filter")

        monkeypatch.setattr(fracnum, "oustaloup_approximation", no_filter)
        for (g, band), d in want.items():
            got = fracnum._order_feedthrough(g, band)
            assert float(got).hex() == float(d).hex(), (g, band)
        for g in (0.0, 1e-17, -1e-17):
            assert fracnum._order_feedthrough(g, fracnum.DEFAULT_BAND) == 1.0
        for g in (-1e-3, -1.0, -1.5, -2.0):
            assert fracnum._order_feedthrough(g, fracnum.DEFAULT_BAND) == 0.0
