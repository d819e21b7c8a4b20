import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrfopid import (
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    build_state_space,
    design_from_vars,
    expm,
    gains_cai,
    gains_delay_free,
    gains_from_row,
    gains_he,
)
from lqrfopid.design import DESIGN_BOUNDS

from oracles import care_hamiltonian
from reference_cases import BY_NAME, OSCILLATORY_PLANT, REFERENCE_DESIGNS, SLUGGISH_PLANT

GAIN_ATOL = 2e-4  # reference gains are quoted to four decimals


class TestPlantAndTypes:
    def test_plant_validation(self):
        with pytest.raises(ValueError):
            NioptdPlant(K=0.0, L=0.5, T=2.0, alpha=1.5)
        with pytest.raises(ValueError):
            NioptdPlant(K=1.0, L=-0.1, T=2.0, alpha=1.5)
        with pytest.raises(ValueError):
            NioptdPlant(K=1.0, L=0.5, T=0.0, alpha=1.5)
        with pytest.raises(ValueError):
            NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=2.0)
        for L, T in ((np.nan, 2.0), (np.inf, 2.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                NioptdPlant(K=1.0, L=L, T=T, alpha=1.5)

    def test_open_loop_classification(self):
        assert OSCILLATORY_PLANT.is_oscillatory
        assert not SLUGGISH_PLANT.is_oscillatory

    def test_controller_order_bounds(self):
        with pytest.raises(ValueError):
            FopidController(kp=1, ki=1, kd=1, lam=2.1, mu=0.5)
        with pytest.raises(ValueError):
            FopidController(kp=1, ki=1, kd=1, lam=1.0, mu=-0.1)

    def test_design_vars_bounds(self):
        with pytest.raises(ValueError, match=r"^q1 must lie in \[0, 100\], got -1$"):
            LqrDesignVars(q1=-1, q2=0, q3=0, r=1, lam=1, mu=0.5)
        with pytest.raises(ValueError, match=r"^r must lie in \(0, 100\], got 0.0$"):
            LqrDesignVars(q1=1, q2=1, q3=1, r=0.0, lam=1, mu=0.5)
        with pytest.raises(ValueError, match=r"^mu must lie in \[0, 2\], got 2.5$"):
            LqrDesignVars(q1=1, q2=1, q3=1, r=1, lam=1, mu=2.5)
        # the closed ends of DESIGN_BOUNDS are inside
        LqrDesignVars(*(hi for _, hi in DESIGN_BOUNDS))
        LqrDesignVars(0.0, 0.0, 0.0, 1e-300, 0.0, 0.0)
        v = LqrDesignVars(q1=1, q2=2, q3=3, r=4, lam=1.5, mu=0.5)
        np.testing.assert_array_equal(v.as_array(), [1, 2, 3, 4, 1.5, 0.5])
        assert LqrDesignVars.from_array(v.as_array()) == v


class TestStateSpace:
    def test_reference_plant(self):
        A, B = build_state_space(NioptdPlant(K=1, L=0.5, T=2, alpha=1.5))
        np.testing.assert_array_equal(A[2], [0.0, -0.5, 0.0])
        np.testing.assert_array_equal(B[:, 0], [0.0, 0.0, -0.5])

    def test_unit_parameters(self):
        A, B = build_state_space(NioptdPlant(K=1, L=0.0, T=1, alpha=0.8))
        np.testing.assert_array_equal(A[2], [0.0, -1.0, 0.0])
        np.testing.assert_array_equal(B[:, 0], [0.0, 0.0, -1.0])

    def test_gain_lag_ratio(self):
        _, B = build_state_space(NioptdPlant(K=2, L=0.0, T=4, alpha=0.8))
        np.testing.assert_array_equal(B[:, 0], [0.0, 0.0, -0.5])

    def test_upper_structure_fixed(self):
        A, _ = build_state_space(NioptdPlant(K=3, L=1.0, T=0.7, alpha=1.2))
        np.testing.assert_array_equal(A[0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(A[1], [0.0, 0.0, 1.0])


class TestDelayFreeGains:
    def test_matches_independent_care_oracle(self):
        plant = NioptdPlant(K=1, L=0.0, T=1, alpha=1.0)
        A, B = build_state_space(plant)
        triple, sol = gains_delay_free(plant, np.eye(3), np.array([[1.0]]))
        P = care_hamiltonian(A, B, np.eye(3), np.array([[1.0]]))
        row = np.linalg.solve(np.array([[1.0]]), B.T @ P)[0]
        expected = gains_from_row(row)
        assert triple.kp == pytest.approx(expected.kp, rel=1e-8)
        assert triple.ki == pytest.approx(expected.ki, rel=1e-8)
        assert triple.kd == pytest.approx(expected.kd, rel=1e-8)

    def test_kd_nonnegative_on_q3_boundary(self):
        plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.5)
        triple, _ = gains_delay_free(plant, np.diag([1.0, 0.5, 0.0]), np.array([[1.0]]))
        assert triple.kd >= 0.0

    def test_integral_gain_identity(self):
        # first column of A is zero, so the first gain component is
        # sqrt(q1 / r) exactly, for both the plain and the delay-fused CARE
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=1.5)
        rng = np.random.default_rng(1)
        for _ in range(10):
            q1, q2, q3 = rng.uniform(0.05, 5.0, size=3)
            r = float(rng.uniform(0.1, 3.0))
            Q = np.diag([q1, q2, q3])
            R = np.array([[r]])
            triple, _ = gains_delay_free(plant, Q, R)
            row_cai, _ = gains_cai(plant, Q, R)
            assert triple.ki == pytest.approx(math.sqrt(q1 / r), rel=1e-7)
            assert -row_cai[0] == pytest.approx(math.sqrt(q1 / r), rel=1e-7)

    def test_differs_from_delay_corrected_for_nonzero_delay(self):
        case = BY_NAME["osc_low_isdco"]
        Q, R = np.diag([case.q1, case.q2, case.q3]), np.array([[case.r]])
        triple, _ = gains_delay_free(case.plant, Q, R)
        row, _ = gains_he(case.plant, Q, R)
        corrected = gains_from_row(row)
        assert abs(triple.kp - corrected.kp) > 0.05

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_positive_weights_give_positive_gains(self, q1, q2, q3, r):
        plant = NioptdPlant(K=1.0, L=0.0, T=2.0, alpha=1.5)
        triple, _ = gains_delay_free(plant, np.diag([q1, q2, q3]), np.array([[r]]))
        assert triple.kp > 0 and triple.ki > 0 and triple.kd > 0


class TestDelayMethods:
    def test_all_methods_coincide_at_zero_delay(self):
        plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.5)
        Q = np.diag([0.6, 0.03, 0.06])
        R = np.array([[0.3]])
        triple, _ = gains_delay_free(plant, Q, R)
        row_cai, _ = gains_cai(plant, Q, R)
        row_he, _ = gains_he(plant, Q, R)
        base = np.array([-triple.ki, -triple.kp, -triple.kd])
        np.testing.assert_allclose(row_cai, base, rtol=0, atol=1e-9)
        np.testing.assert_allclose(row_he, base, rtol=0, atol=1e-9)

    def test_delay_matrix_exponential_invertible(self):
        A, _ = build_state_space(NioptdPlant(K=1, L=0.5, T=2, alpha=1.5))
        E = expm(-A * 0.5) @ expm(A * 0.5)
        assert np.linalg.norm(E - np.eye(3)) <= 1e-9

    def test_he_gain_row_decays_with_delay(self):
        # the decay is exponential but modulated by the oscillatory
        # closed-loop modes, so sample coarsely enough to see the envelope
        Q = np.diag([0.97, 0.04, 0.02])
        R = np.array([[0.2]])
        norms = []
        for L in (0.0, 2.0, 4.0, 8.0, 16.0):
            row, _ = gains_he(NioptdPlant(K=1, L=L, T=2, alpha=1.5), Q, R)
            norms.append(np.linalg.norm(row))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.05 * norms[0]

    def test_gains_continuous_in_delay(self):
        Q = np.diag([0.6, 0.03, 0.06])
        R = np.array([[0.35]])
        for method_gains in (gains_cai, gains_he):
            rows = []
            for L in (0.5, 0.5 + 1e-4):
                row, _ = method_gains(NioptdPlant(K=1, L=L, T=2, alpha=1.5), Q, R)
                rows.append(row)
            assert np.linalg.norm(rows[1] - rows[0]) < 1e-3

    @pytest.mark.parametrize("case", REFERENCE_DESIGNS, ids=lambda c: c.name)
    def test_reference_designs_reproduce_gains(self, case):
        vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                             lam=case.lam, mu=case.mu)
        controller = design_from_vars(case.plant, vars, case.method)
        assert controller.kp == pytest.approx(case.kp, abs=GAIN_ATOL)
        assert controller.ki == pytest.approx(case.ki, abs=GAIN_ATOL)
        assert controller.kd == pytest.approx(case.kd, abs=GAIN_ATOL)
        assert controller.lam == case.lam
        assert controller.mu == case.mu

    def test_delay_free_dispatch(self):
        plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.5)
        vars = LqrDesignVars(q1=0.6, q2=0.03, q3=0.06, r=0.35, lam=1.1, mu=0.4)
        by_method = design_from_vars(plant, vars, DelayMethod.DELAY_FREE)
        triple, _ = gains_delay_free(plant, vars.Q, vars.R)
        assert by_method.kp == triple.kp
        assert by_method.ki == triple.ki
        assert by_method.kd == triple.kd

