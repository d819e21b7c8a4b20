import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrfopid import (
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    PENALTY_OBJECTIVE,
    Scenario,
    design_from_vars,
    evaluate_design_objectives,
    frequency_response,
    performance_indices,
    robustness_sweep,
    simulate_closed_loop,
    simulate_open_loop_step,
    write_sweep_csv,
    write_trajectory_csv,
)
from lqrfopid import sim
from lqrfopid.nsga2 import DESIGN_BOUNDS

from oracles import power_step_response
from reference_cases import (
    BY_NAME,
    INDEX_BAND,
    OSCILLATORY_PLANT,
    SLUGGISH_PLANT,
)


def reference_controller(name):
    case = BY_NAME[name]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    return case, design_from_vars(case.plant, vars, case.method)


def cold_run(plant, controller, scenario, solver="oustaloup"):
    """A run on cache entries built afresh for it."""
    for cache in (sim._ControllerRuns, sim._PlantAtRest):
        cache.cache_clear()
    return simulate_closed_loop(plant, controller, scenario, solver=solver)


def assert_same_run(got, want):
    for name in ("t", "y", "u", "x1", "x2", "x3"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.itse, got.isdco, got.diverged) == (want.itse, want.isdco, want.diverged)


class TestOpenLoop:
    def test_integer_order_closed_form_gl(self):
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=1.0)
        res = simulate_open_loop_step(plant, horizon=30.0, h=0.01, solver="gl")
        exact = power_step_response(1, 0.5, 2, res.t)
        assert np.max(np.abs(res.y - exact)) <= 1e-3

    def test_integer_order_closed_form_oustaloup(self):
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=1.0)
        res = simulate_open_loop_step(plant, horizon=30.0, h=0.01, solver="oustaloup")
        exact = power_step_response(1, 0.5, 2, res.t)
        assert np.max(np.abs(res.y - exact)) <= 1e-6  # ZOH-exact for alpha = 1

    def test_oscillatory_response_rings(self):
        res = simulate_open_loop_step(OSCILLATORY_PLANT, horizon=60.0, h=0.01)
        assert res.y.max() > 1.2  # overshoots well above the dc value
        peak = int(np.argmax(res.y))
        assert res.y[peak:].min() < 0.99  # and swings back below it

    def test_sluggish_response_monotone_without_overshoot(self):
        res = simulate_open_loop_step(SLUGGISH_PLANT, horizon=60.0, h=0.01)
        assert res.y.max() <= 1.0 + 1e-6
        assert np.all(np.diff(res.y) >= -1e-9)

    def test_paths_agree_for_fractional_order(self):
        res_gl = simulate_open_loop_step(SLUGGISH_PLANT, horizon=40.0, h=0.01, solver="gl")
        res_ss = simulate_open_loop_step(SLUGGISH_PLANT, horizon=40.0, h=0.01,
                                         solver="oustaloup")
        assert np.max(np.abs(res_gl.y - res_ss.y)) < 0.02

    def test_delay_resolution(self):
        res = simulate_open_loop_step(OSCILLATORY_PLANT, horizon=5.0, h=0.01)
        before = res.y[res.t < 0.5]
        assert np.allclose(before, 0.0, atol=1e-12)

    @pytest.mark.parametrize("solver", ["gl", "oustaloup"])
    def test_divergence_bound_scales_with_gain(self, solver):
        """The step overshoots to about 1.3 K, past 1e3 for K = 2000, and
        still runs to the horizon, up to K = 1e308, whose peak is still a
        float; past the float range (K = 1.5e308) the run diverges at its
        first non-finite sample."""
        def step(K):
            return simulate_open_loop_step(replace(OSCILLATORY_PLANT, K=K), horizon=20.0,
                                           h=0.01, solver=solver)

        unit = step(1.0)
        for K in (2000.0, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                large = step(K)
            assert not large.diverged and large.y.size == 2000
            np.testing.assert_allclose(large.y, K * unit.y, rtol=1e-12, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = step(1.5e308)
        with np.errstate(over="ignore"):
            first = int(np.flatnonzero(~np.isfinite(1.5e308 * unit.y))[0])
        assert huge.diverged and huge.y.size == first + 1
        assert np.all(np.isfinite(huge.y[:-1])) and not np.isfinite(huge.y[-1])


class TestFrequencyResponse:
    def test_dc_limit_is_plant_gain(self):
        val = frequency_response(SLUGGISH_PLANT, 1e-9)
        assert abs(val) == pytest.approx(1.0, rel=1e-4)

    def test_first_order_corner(self):
        plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.0)
        assert abs(frequency_response(plant, 0.5)) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_oscillatory_resonant_peak(self):
        w = np.logspace(-3, 3, 4000)
        mags = np.abs(frequency_response(OSCILLATORY_PLANT, w))
        assert mags.max() > 1.0

    def test_rejects_nonpositive_frequency(self):
        # non-finite frequencies too, which would give NaN
        for w in (0.0, -1.0, np.nan, np.inf, [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(ValueError):
                frequency_response(SLUGGISH_PLANT, w)


class TestPerformanceIndices:
    def test_zero_error(self):
        itse, _ = performance_indices(np.zeros(100), np.ones(100), 1.0, 0.01)
        assert itse == 0.0

    def test_constant_control_at_steady_state(self):
        _, isdco = performance_indices(np.ones(100), np.ones(100), 1.0, 0.01)
        assert isdco == 0.0

    def test_rectangle_pulse_integral(self):
        h = 1e-4
        n = int(2 / h)
        e = np.zeros(n)
        e[: int(1 / h)] = 1.0
        itse, _ = performance_indices(e, np.zeros(n), 0.0, h)
        assert itse == pytest.approx(0.5, abs=2 * h)

    def test_nonnegative_always(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal(50)
        u = rng.standard_normal(50)
        itse, isdco = performance_indices(e, u, 0.3, 0.1)
        assert itse >= 0.0 and isdco >= 0.0


class TestClosedLoop:
    def test_zero_gain_controller(self):
        controller = FopidController(kp=0, ki=0, kd=0, lam=1.0, mu=0.5)
        scn = Scenario(horizon=10.0, step_size=0.01)
        res = simulate_closed_loop(SLUGGISH_PLANT, controller, scn)
        assert np.allclose(res.y, 0.0, atol=1e-12)
        assert np.allclose(res.u, 0.0, atol=1e-12)
        n = scn.n_steps
        expected_itse = 0.01 * np.sum(np.arange(n) * 0.01)
        assert res.itse == pytest.approx(expected_itse, rel=1e-12)
        assert res.isdco == 0.0  # no integral action: u = 0 is its own steady state

    def test_isdco_needs_real_integral_action(self):
        """With ki = 0 the order lam of the unused integral changes only the
        state x1: the same loop, so the same ISDCO about its own last
        control, on both paths, whether lam is 0 or 1."""
        plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=0.5)
        scn = Scenario(horizon=50.0, step_size=0.05)
        for solver in ("oustaloup", "gl"):
            runs = [simulate_closed_loop(plant, FopidController(kp=0.5, ki=0.0, kd=0.0, lam=lam,
                                                                mu=0.5), scn, solver=solver)
                    for lam in (0.0, 1.0)]
            for name in ("y", "u", "x2", "x3"):
                assert np.array_equal(getattr(runs[1], name), getattr(runs[0], name)), name
            assert (runs[1].itse, runs[1].isdco) == (runs[0].itse, runs[0].isdco)
            _, want = performance_indices(runs[0].x2, runs[0].u, runs[0].u[-1], scn.step_size)
            assert runs[0].isdco == want < 0.05, solver

    def test_error_state_identity_both_paths(self):
        case, controller = reference_controller("osc_median")
        scn = Scenario(horizon=20.0, step_size=0.01)
        for solver in ("oustaloup", "gl"):
            res = simulate_closed_loop(case.plant, controller, scn, solver=solver)
            np.testing.assert_allclose(res.x2, scn.setpoint - res.y, rtol=0, atol=1e-14)

    def test_tracking_with_integral_action(self):
        for name in ("osc_median", "slug_low_itse"):
            case, controller = reference_controller(name)
            res = simulate_closed_loop(case.plant, controller, Scenario())
            assert abs(res.y[-1] - 1.0) <= 0.02

    def test_paths_agree(self):
        # y trajectories and ITSE agree across paths at the default band;
        # ISDCO is compared at the narrower band because the derivative
        # kick energy depends on the upper band edge
        case, controller = reference_controller("osc_median")
        res_ss = simulate_closed_loop(case.plant, controller, Scenario())
        res_gl = simulate_closed_loop(case.plant, controller, Scenario(), solver="gl")
        assert np.max(np.abs(res_ss.y - res_gl.y)) < 0.15  # transient shaping differs
        tail = res_ss.t > 20.0
        assert np.max(np.abs(res_ss.y - res_gl.y)[tail]) < 0.01
        assert res_ss.itse == pytest.approx(res_gl.itse, rel=0.15)
        res_nb = simulate_closed_loop(case.plant, controller, Scenario(),
                                      band=INDEX_BAND)
        assert res_nb.isdco == pytest.approx(res_gl.isdco, rel=0.25)

    def test_grid_convergence_of_itse(self):
        case, controller = reference_controller("osc_median")
        for kwargs in (dict(solver="gl"), dict(solver="oustaloup", band=INDEX_BAND)):
            vals = []
            for h in (0.01, 0.005):
                res = simulate_closed_loop(case.plant, controller,
                                           Scenario(horizon=100.0, step_size=h),
                                           **kwargs)
                vals.append(res.itse)
            assert abs(vals[1] / vals[0] - 1.0) < 0.02

    def test_divergence_flag_and_penalty(self):
        # wrong-sign proportional action destabilizes the loop
        controller = FopidController(kp=-30.0, ki=0.0, kd=0.0, lam=1.0, mu=0.1)
        res = simulate_closed_loop(OSCILLATORY_PLANT, controller,
                                   Scenario(horizon=50.0, step_size=0.01))
        assert res.diverged
        assert res.itse == PENALTY_OBJECTIVE and res.isdco == PENALTY_OBJECTIVE
        assert res.t.size < Scenario(horizon=50.0, step_size=0.01).n_steps

    def test_disturbance_rejection(self):
        case, controller = reference_controller("osc_median")
        scn = Scenario(disturbance_time=70.0, disturbance_magnitude=0.1)
        res = simulate_closed_loop(case.plant, controller, scn)
        mask_before = (res.t > 60.0) & (res.t < 70.0)
        mask_after = res.t > 70.2
        assert np.max(np.abs(res.y[mask_after] - 1.0)) > 5 * np.max(
            np.abs(res.y[mask_before] - 1.0)
        )
        assert abs(res.y[-1] - 1.0) <= 0.02  # integral action recovers

    @pytest.mark.parametrize("solver", ["oustaloup", "gl"])
    @pytest.mark.parametrize("plant", [SLUGGISH_PLANT, OSCILLATORY_PLANT],
                             ids=["alpha_0.5", "alpha_1.5"])
    def test_disturbance_reaches_output_one_sample_late(self, plant, solver):
        """With zero gains the loop is open: y stays zero through the
        disturbance's sample w_start, and from there it is the step response
        of the plant at L = 0, as the control input would reach y."""
        scn = Scenario(setpoint=0.0, horizon=20.0, step_size=0.01, disturbance_time=7.0,
                       disturbance_magnitude=1.0)
        zero = FopidController(kp=0.0, ki=0.0, kd=0.0, lam=1.0, mu=0.5)
        res = simulate_closed_loop(plant, zero, scn, solver=solver)
        step = simulate_open_loop_step(replace(plant, L=0.0), horizon=scn.horizon,
                                       h=scn.step_size, solver=solver)
        w_start = int(np.searchsorted(res.t, scn.disturbance_time))
        assert not res.diverged and np.all(res.y[:w_start + 1] == 0.0)
        gap = np.max(np.abs(res.y[w_start:] - step.y[:scn.n_steps - w_start]))
        assert gap <= 1e-12 * np.max(np.abs(res.y))

    def test_zero_delay_loop_runs(self):
        plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.5)
        vars = LqrDesignVars(q1=0.6, q2=0.03, q3=0.06, r=0.35, lam=1.1, mu=0.45)
        controller = design_from_vars(plant, vars, DelayMethod.DELAY_FREE)
        res = simulate_closed_loop(plant, controller, Scenario(horizon=40.0, step_size=0.01))
        assert not res.diverged
        assert abs(res.y[-1] - 1.0) <= 0.02

    def test_degenerate_orders_keep_structure(self):
        # lam = mu = 0 degrades both operator paths to identities, so the
        # controller acts as pure proportional action with gain kp+ki+kd
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=0.5)
        scn = Scenario(horizon=20.0, step_size=0.01)
        c_deg = FopidController(kp=0.2, ki=0.25, kd=0.15, lam=0.0, mu=0.0)
        c_p = FopidController(kp=0.6, ki=0.0, kd=0.0, lam=0.0, mu=1.0)
        for solver in ("oustaloup", "gl"):
            r1 = simulate_closed_loop(plant, c_deg, scn, solver=solver)
            np.testing.assert_allclose(r1.x1, r1.x2, rtol=0, atol=1e-12)
            np.testing.assert_allclose(r1.x3, r1.x2, rtol=0, atol=1e-12)
        r1 = simulate_closed_loop(plant, c_deg, scn, solver="gl")
        r2 = simulate_closed_loop(plant, c_p, scn, solver="gl")
        np.testing.assert_allclose(r1.y, r2.y, rtol=0, atol=1e-12)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(horizon=10.0, step_size=0.0)
        with pytest.raises(ValueError):
            Scenario(horizon=10.05, step_size=0.1)
        for horizon, step in [(1e-9, 0.01), (np.inf, 0.01), (np.nan, 0.01),
                              (10.0, np.inf), (10.0, np.nan)]:
            with pytest.raises(ValueError):
                Scenario(horizon=horizon, step_size=step)
        assert Scenario(horizon=0.01, step_size=0.01).n_steps == 1

    @pytest.mark.parametrize("field, value", [
        ("disturbance_time", np.nan), ("disturbance_magnitude", np.nan),
        ("disturbance_magnitude", np.inf), ("setpoint", np.nan),
        ("setpoint", -np.inf), ("disturbance_time", np.inf)])
    def test_scenario_rejects_non_finite_steps(self, field, value):
        """A NaN disturbance time used to run with no disturbance at all, a
        NaN magnitude or set-point to read as divergence, an infinite
        magnitude to warn: each is now an error naming its field."""
        with pytest.raises(ValueError, match=field):
            Scenario(horizon=100.0, **{field: value})
        # the same scenario with finite steps runs a stable loop to the end
        controller = FopidController(kp=1.0, ki=0.5, kd=0.2, lam=0.9, mu=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = simulate_closed_loop(OSCILLATORY_PLANT, controller, Scenario(
                horizon=100.0, **{field: 1.0 if field == "setpoint" else 60.0}))
        assert not res.diverged


class TestEvaluateDesignObjectives:
    def test_reference_case_objective_is_its_closed_loop_indices(self):
        case, controller = reference_controller("osc_median")
        vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                             lam=case.lam, mu=case.mu)
        res = simulate_closed_loop(case.plant, controller, Scenario())
        assert not res.diverged
        assert evaluate_design_objectives(case.plant, vars, case.method,
                                          Scenario()) == (res.itse, res.isdco)

    def test_invalid_r_is_penalized(self):
        j1, j2 = evaluate_design_objectives(
            OSCILLATORY_PLANT, [1.0, 1.0, 1.0, 0.0, 1.0, 0.5], DelayMethod.HE
        )
        assert (j1, j2) == (PENALTY_OBJECTIVE, PENALTY_OBJECTIVE)

    def test_out_of_bounds_is_penalized(self):
        j1, j2 = evaluate_design_objectives(
            OSCILLATORY_PLANT, [1.0, 1.0, 1.0, 1.0, 2.5, 0.5], DelayMethod.HE
        )
        assert (j1, j2) == (PENALTY_OBJECTIVE, PENALTY_OBJECTIVE)

    def test_care_failure_is_penalized(self):
        # all-zero state weights cannot stabilize the marginal plant
        j1, j2 = evaluate_design_objectives(
            OSCILLATORY_PLANT, [0.0, 0.0, 0.0, 1.0, 1.0, 0.5], DelayMethod.HE
        )
        assert (j1, j2) == (PENALTY_OBJECTIVE, PENALTY_OBJECTIVE)

    def test_unresolved_plant_modes_raise(self):
        """A plant error is not a design penalty: where the plant's Oustaloup
        modes do not resolve (an order within 1e-15 of 2), the objective
        raises the ValueError that names T and alpha, for a design whose
        gain map succeeds."""
        plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=2.0 - 1e-15)
        x = [1.0, 1.0, 1.0, 1.0, 1.0, 0.5]
        for method in (DelayMethod.CAI, DelayMethod.HE):
            design_from_vars(plant, LqrDesignVars.from_array(x), method)
            with pytest.raises(ValueError, match=f"T = 2.0 and alpha = {plant.alpha!r}"):
                evaluate_design_objectives(plant, x, method)


def _box_coordinate(lo, hi, edges=()):
    """A value of [lo, hi]: its ends, extra edge values, or any float between."""
    return st.one_of(st.sampled_from((lo, hi) + edges),
                     st.floats(min_value=lo, max_value=hi))


class TestObjectiveFuzz:
    @given(
        plant=st.sampled_from([OSCILLATORY_PLANT, SLUGGISH_PLANT]),
        method=st.sampled_from([DelayMethod.CAI, DelayMethod.HE]),
        x=st.tuples(*(_box_coordinate(lo, hi, (5e-324, 1e-12, 1e-6) if i == 3 else ())
                      for i, (lo, hi) in enumerate(DESIGN_BOUNDS))),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_objective_never_raises_over_design_box(self, plant, method, x):
        scenario = Scenario(horizon=10.0, step_size=0.02, disturbance_time=5.0,
                            disturbance_magnitude=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            j1, j2 = evaluate_design_objectives(plant, x, method, scenario)
        penalty = (PENALTY_OBJECTIVE, PENALTY_OBJECTIVE)
        assert (j1, j2) == penalty or (np.isfinite(j1) and np.isfinite(j2))


class TestRobustnessSweep:
    def test_nominal_cell_matches_single_run(self):
        """Bit for bit, also after a longer run of the controller (10**4
        terms, an entry of its own), and after other cells filled the
        controller's entry: results do not depend on the caches' history."""
        case, controller = reference_controller("osc_median")
        scn = Scenario(horizon=40.0, step_size=0.01)
        for history in (None, Scenario(horizon=100.0, step_size=0.01)):
            if history:
                simulate_closed_loop(case.plant, controller, history)
            sweep = robustness_sweep(case.plant, controller, [case.plant.L],
                                     [case.plant.T], scn)
            sim._ControllerRuns.cache_clear()
            single = simulate_closed_loop(case.plant, controller, scn)
            assert sweep.itse[0, 0] == single.itse
            assert sweep.isdco[0, 0] == single.isdco
        # a disturbed 3x3 sweep: the nominal cell equals a single run after
        # the other cells filled the controller's shared products, and after
        # every cache was cleared
        disturbed = Scenario(horizon=25.0, step_size=0.01, disturbance_time=16.5,
                             disturbance_magnitude=0.2)
        grid = np.array([0.9, 1.0, 1.1])
        sweep = robustness_sweep(case.plant, controller, case.plant.L * grid,
                                 case.plant.T * grid, disturbed)
        warm = simulate_closed_loop(case.plant, controller, disturbed)
        cold = cold_run(case.plant, controller, disturbed)
        for single in (warm, cold):
            assert not single.diverged
            assert (sweep.itse[1, 1], sweep.isdco[1, 1]) == (single.itse, single.isdco)
        # and every cell equals a cold single run on its plant
        for i, L in enumerate(case.plant.L * grid):
            for j, T in enumerate(case.plant.T * grid):
                cell = cold_run(replace(case.plant, L=float(L), T=float(T)), controller, disturbed)
                assert (sweep.itse[i, j], sweep.isdco[i, j], sweep.diverged[i, j]) == (
                    cell.itse, cell.isdco, cell.diverged), (i, j)

    DISTURBED = Scenario(horizon=25.0, step_size=0.01, disturbance_time=16.5,
                         disturbance_magnitude=0.2)

    def tripled(self):
        """osc_median with its gains tripled: over delays (0.2 .. 1.8) x
        0.5 s at its lag the loops of one stack end differently."""
        case, controller = reference_controller("osc_median")
        return case, replace(controller, kp=3 * controller.kp, ki=3 * controller.ki,
                             kd=3 * controller.kd)

    def cold_cells(self, case, controller, L_grid, T_grid, sweep):
        """Each cell of ``sweep`` equals a cold single run on its plant bit
        for bit; returns those runs."""
        cells = {}
        for i, L in enumerate(L_grid):
            for j, T in enumerate(T_grid):
                cell = cold_run(replace(case.plant, L=float(L), T=float(T)), controller,
                                self.DISTURBED)
                assert (sweep.itse[i, j], sweep.isdco[i, j], sweep.diverged[i, j]) == (
                    cell.itse, cell.isdco, cell.diverged), (i, j)
                cells[i, j] = cell
        return cells

    def test_diverging_rows_leave_the_stack(self):
        """The last two delays of the stack diverge, at different samples,
        each truncated where a single run truncates it; the others reach
        the horizon."""
        case, controller = self.tripled()
        L_grid, T_grid = 0.5 * np.array([0.2, 0.6, 1.0, 1.4, 1.8]), [case.plant.T]
        sweep = robustness_sweep(case.plant, controller, L_grid, T_grid, self.DISTURBED)
        cells = self.cold_cells(case, controller, L_grid, T_grid, sweep)
        assert sweep.diverged[:, 0].tolist() == [False, False, False, True, True]
        assert cells[3, 0].y.size != cells[4, 0].y.size

    def test_row_past_the_spread_guard_goes_on_alone(self, monkeypatch):
        """With MAX_SPREAD at 3, one row of the stack fails the spread guard
        on the block (1024, 2048) while the others pass: it leaves the stack
        and halves that block alone, the others go on to the horizon
        together, and every cell still equals a cold single run under the
        same guard."""
        case, controller = self.tripled()
        monkeypatch.setattr(sim, "MAX_SPREAD", 3.0)
        newton, steps = sim._newton_terms, []
        monkeypatch.setattr(sim, "_newton_terms",
                            lambda F, g, m, t: steps.append((F.shape[0], m, t))
                            or newton(F, g, m, t))
        L_grid, T_grid = 0.5 * np.array([0.2, 0.6, 1.0, 1.4, 1.8]), [case.plant.T]
        sweep = robustness_sweep(case.plant, controller, L_grid, T_grid, self.DISTURBED)
        stack = list(steps)
        self.cold_cells(case, controller, L_grid, T_grid, sweep)
        assert (5, 1024, 2048) in stack and (1, 1024, 1536) in stack
        assert (3, 2048, 2500) in stack

    def test_delays_share_one_plant_kernel(self, monkeypatch):
        """The delay only shifts the plant's kernel, so a sweep over three
        delays at one lag samples the plant once: one build of its modes."""
        case, controller = reference_controller("osc_median")
        built = []
        plant_modes = sim._plant_modes
        monkeypatch.setattr(sim, "_plant_modes",
                            lambda *args: built.append(args) or plant_modes(*args))
        sim._PlantAtRest.cache_clear()
        robustness_sweep(case.plant, controller, [0.4, 0.5, 0.6], [case.plant.T],
                         Scenario(horizon=10.0, step_size=0.01))
        assert len(built) == 1

    def test_moderate_perturbations_stay_finite(self):
        case, controller = reference_controller("osc_median")
        scn = Scenario(horizon=60.0, step_size=0.01)
        L0, T0 = case.plant.L, case.plant.T
        sweep = robustness_sweep(
            case.plant, controller,
            [0.8 * L0, L0, 1.2 * L0], [0.8 * T0, T0, 1.2 * T0], scn,
        )
        assert not sweep.diverged.any()
        assert np.all(np.isfinite(sweep.itse))
        assert np.all(sweep.itse < PENALTY_OBJECTIVE)

    def test_oscillatory_degrades_faster_than_sluggish(self):
        scn = Scenario(horizon=60.0, step_size=0.01)
        rel_increase = {}
        for name in ("osc_median", "slug_median"):
            case, controller = reference_controller(name)
            L0, T0 = case.plant.L, case.plant.T
            sweep = robustness_sweep(case.plant, controller,
                                     [L0, 1.4 * L0], [T0], scn)
            rel_increase[name] = sweep.itse[1, 0] / sweep.itse[0, 0]
        assert rel_increase["osc_median"] > rel_increase["slug_median"]

    def test_rejects_bad_grids(self):
        case, controller = reference_controller("osc_median")
        with pytest.raises(ValueError):
            robustness_sweep(case.plant, controller, [-0.1], [2.0])
        with pytest.raises(ValueError):
            robustness_sweep(case.plant, controller, [0.5], [0.0])
        # grids that are not 1-D, though their values are admissible
        for grid in ([[0.4, 0.5]], np.array([[0.4], [0.5]]), 0.5):
            with pytest.raises(ValueError, match="1-D"):
                robustness_sweep(case.plant, controller, grid, [2.0])
            with pytest.raises(ValueError, match="1-D"):
                robustness_sweep(case.plant, controller, [0.5], 4 * np.asarray(grid))


class TestControllerEntry:
    """Runs that share a cached controller entry, or part of its key
    (controller, step, solver, band, length), equal cold runs bit for bit."""

    DISTURBED = Scenario(horizon=25.0, step_size=0.01, disturbance_time=16.5,
                         disturbance_magnitude=0.2)

    def test_equal_orders_different_gains_alternate(self):
        case, controller = reference_controller("osc_median")
        other = replace(controller, kp=0.8 * controller.kp, ki=1.2 * controller.ki)
        cold = {c: cold_run(case.plant, c, self.DISTURBED) for c in (controller, other)}
        for c in (controller, other, other, controller, controller, other):
            assert_same_run(simulate_closed_loop(case.plant, c, self.DISTURBED), cold[c])

    def test_one_controller_on_both_solvers(self):
        case, controller = reference_controller("osc_median")
        cold = {solver: cold_run(case.plant, controller, self.DISTURBED, solver)
                for solver in ("oustaloup", "gl")}
        for solver in ("oustaloup", "gl", "gl", "oustaloup", "oustaloup", "gl"):
            res = simulate_closed_loop(case.plant, controller, self.DISTURBED, solver=solver)
            assert_same_run(res, cold[solver])

    def test_one_controller_on_two_plants_and_both_solvers(self):
        """The plant entry's key (plant at rest, step, solver, band, length)
        tells the plants and the solvers apart."""
        case, controller = reference_controller("osc_median")
        keys = [(plant, solver) for plant in (OSCILLATORY_PLANT, SLUGGISH_PLANT)
                for solver in ("oustaloup", "gl")]
        cold = {key: cold_run(key[0], controller, self.DISTURBED, key[1]) for key in keys}
        for plant, solver in keys[::2] + keys[1::2] + keys[::-1]:
            res = simulate_closed_loop(plant, controller, self.DISTURBED, solver=solver)
            assert_same_run(res, cold[plant, solver])

    def test_one_controller_at_two_horizons(self):
        case, controller = reference_controller("osc_median")
        short = replace(self.DISTURBED, horizon=20.0)
        cold = {s: cold_run(case.plant, controller, s) for s in (self.DISTURBED, short)}
        for scenario in (self.DISTURBED, short, short, self.DISTURBED, self.DISTURBED, short):
            assert_same_run(simulate_closed_loop(case.plant, controller, scenario), cold[scenario])


class TestSolvers:
    def test_unknown_solver_raises_and_builds_no_plant_entry(self):
        case, controller = reference_controller("osc_median")
        sim._PlantAtRest.cache_clear()
        simulate_closed_loop(case.plant, controller, Scenario(horizon=5.0))
        size = sim._PlantAtRest.cache_info().currsize
        with pytest.raises(ValueError, match="unknown solver 'euler'"):
            simulate_closed_loop(case.plant, controller, Scenario(horizon=5.0), solver="euler")
        with pytest.raises(ValueError, match="unknown solver 'euler'"):
            simulate_open_loop_step(case.plant, horizon=5.0, solver="euler")
        assert sim._PlantAtRest.cache_info().currsize == size == 1

    def test_only_the_cache_constructors_name_a_solver(self):
        """Structural guard: the engine branches on series lengths, so "gl"
        and "oustaloup" are compared only where a cache entry is built."""
        found = []

        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = scope + (node.name,)
            if isinstance(node, (ast.Compare, ast.MatchValue)) and any(
                    isinstance(c, ast.Constant) and c.value in ("gl", "oustaloup")
                    for c in ast.walk(node)):
                found.append((".".join(scope), node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(Path(sim.__file__).read_text(encoding="utf-8")), ())
        allowed = {"_PlantAtRest.__init__", "_ControllerRuns.__init__"}
        assert found and {scope for scope, _ in found} <= allowed, found

    def test_only_the_reference_path_names_a_realization(self):
        """Structural guard: every Oustaloup block is sampled from its modes,
        so in sim.py only _plant_ss and _zoh, kept as the reference of the
        plant's kernel, name expm or differintegrator_ss, and no code names
        _plant_ss or _zoh."""
        named = {}

        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(".".join(scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        tree = ast.parse(Path(sim.__file__).read_text(encoding="utf-8"))
        visit(tree, ())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert {"_plant_ss", "_zoh"} <= defined
        assert named["expm"] == {"_zoh"}
        assert named["differintegrator_ss"] == {"_plant_ss"}
        assert "_plant_ss" not in named and "_zoh" not in named

    def test_one_engine_for_single_runs_and_sweeps(self):
        """Structural guard: only _error_series calls _first_block and
        _newton_terms, only _loop_output calls _error_series, and
        simulate_closed_loop and robustness_sweep both reach _loop_output
        through _closed_loops, its one closed-loop caller; no sweep runs
        its cells through simulate_closed_loop."""
        callers = {}
        tree = ast.parse(Path(sim.__file__).read_text(encoding="utf-8"))
        for top in tree.body:
            functions = (top.body if isinstance(top, ast.ClassDef) else [top])
            for function in functions:
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        callers.setdefault(node.func.id, set()).add(function.name)
        assert callers["_first_block"] == callers["_newton_terms"] == {"_error_series"}
        assert callers["_error_series"] == {"_loop_output"}
        assert callers["_loop_output"] == {"_closed_loops", "simulate_open_loop_step"}
        assert callers["_closed_loops"] == {"simulate_closed_loop", "robustness_sweep"}
        assert "robustness_sweep" not in callers["simulate_closed_loop"]

    def test_one_pole_solver_for_the_plant(self):
        """Structural guard: sim.py defines no _anchored_modes, and only
        _plant_modes calls an eigenvalue or root solver (np.linalg.eigvals
        for its guesses), so the plant's poles have one solver."""
        found = []

        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = scope + (node.name,)
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) in (
                    "eig", "eigvals", "roots"):
                found.append((".".join(scope), ast.unparse(func)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        tree = ast.parse(Path(sim.__file__).read_text(encoding="utf-8"))
        visit(tree, ())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_plant_modes" in defined and "_anchored_modes" not in defined
        assert found == [("_plant_modes", "np.linalg.eigvals")], found


class TestCsvWriters:
    def test_trajectory_schema(self, tmp_path):
        case, controller = reference_controller("osc_median")
        res = simulate_closed_loop(case.plant, controller,
                                   Scenario(horizon=5.0, step_size=0.01))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, res)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,y,u,x1,x2,x3"
        assert len(lines) == 1 + res.t.size
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 6

    def test_sweep_schema(self, tmp_path):
        case, controller = reference_controller("osc_median")
        sweep = robustness_sweep(case.plant, controller, [0.4, 0.5], [2.0],
                                 Scenario(horizon=5.0, step_size=0.01))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,T,itse,isdco"
        assert len(lines) == 1 + 2
