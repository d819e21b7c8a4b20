import numpy as np
import pytest

from lqrfopid import (
    DEFAULT_TUNING_RULES,
    TuningRuleCoefficients,
    detect_outliers,
    eval_tuning_rule,
    fit_polynomial_surface,
    load_median_solutions,
)
from lqrfopid.rules import design_matrix

from reference_cases import REFERENCE_FIT, RULE_SPOT_POINT

PARAM_COLUMNS = {"kp": 0, "ki": 1, "kd": 2, "lam": 3, "mu": 4}


@pytest.fixture(scope="module")
def dataset():
    return load_median_solutions()


def column_points(data, name):
    return np.column_stack([data[:, 5], data[:, 6], data[:, PARAM_COLUMNS[name]]])


class TestDataset:
    def test_shape_and_grid(self, dataset):
        assert dataset.shape == (24, 7)
        assert set(np.unique(dataset[:, 5])) == {0.25, 1.0, 4.0}
        assert np.all(np.isfinite(dataset))


class TestEvalRule:
    def test_origin_reduces_to_intercept(self):
        with pytest.warns(UserWarning):
            c = eval_tuning_rule(0.0, 0.0, 1.0)
        assert c.kp == pytest.approx(0.4225)

    def test_gain_scaling_in_k(self):
        with np.errstate(all="ignore"):
            c1 = eval_tuning_rule(1.0, 1.2, 1.0)
            c2 = eval_tuning_rule(1.0, 1.2, 2.0)
        assert c2.kp == pytest.approx(c1.kp / 2)
        assert c2.ki == pytest.approx(c1.ki / 2)
        assert c2.kd == pytest.approx(c1.kd / 2)
        assert c2.lam == c1.lam and c2.mu == c1.mu

    def test_rejects_zero_gain(self):
        with pytest.raises(ValueError):
            eval_tuning_rule(1.0, 1.0, 0.0)

    def test_rejects_negative_delay_ratio(self):
        with pytest.raises(ValueError, match="L/T must be non-negative"):
            eval_tuning_rule(-1.0, 3.0, 1.0)

    @pytest.mark.parametrize("args", [
        (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (1.0, -np.inf, 1.0),
        (1.0, 1.0, np.nan), (1.0, 1.0, np.inf), (1.0, 1.0, -np.inf),
    ])
    def test_rejects_non_finite_inputs(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            eval_tuning_rule(*args)

    def test_overflowing_inputs_give_no_controller(self):
        with pytest.warns(UserWarning), np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                eval_tuning_rule(1e200, 1.8, 1.0)

    def test_spot_check_near_dataset_row(self):
        p = RULE_SPOT_POINT
        c = eval_tuning_rule(p["l_over_t"], p["alpha"], p["K"])
        for name in ("kp", "ki", "kd", "lam", "mu"):
            rmse = REFERENCE_FIT[name][2]
            assert abs(getattr(c, name) - p[name]) <= 3 * rmse

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(8)
        a = TuningRuleCoefficients.from_array(rng.standard_normal(12))
        b = TuningRuleCoefficients.from_array(rng.standard_normal(12))
        summed = TuningRuleCoefficients.from_array(a.as_array() + b.as_array())
        x, y = 1.3, 0.9
        assert summed.evaluate(x, y) == pytest.approx(a.evaluate(x, y) + b.evaluate(x, y))


class TestFit:
    def test_exact_recovery_roundtrip(self, dataset):
        truth = DEFAULT_TUNING_RULES.lam
        x, y = dataset[:, 5], dataset[:, 6]
        values = truth.evaluate(x, y)
        coef, diag = fit_polynomial_surface(np.column_stack([x, y, values]))
        np.testing.assert_allclose(coef.as_array(), truth.as_array(), atol=1e-8)
        assert diag.r2 == pytest.approx(1.0, abs=1e-12)

    def test_lam_refit_matches_reference(self, dataset):
        _, diag = fit_polynomial_surface(column_points(dataset, "lam"))
        adj_ref, r2_ref, rmse_ref = REFERENCE_FIT["lam"]
        assert diag.r2 == pytest.approx(r2_ref, abs=0.02)
        assert diag.adjusted_r2 == pytest.approx(adj_ref, abs=0.02)
        assert diag.rmse == pytest.approx(rmse_ref, abs=0.002)
        assert diag.n == 24

    def test_ki_refit_matches_reference(self, dataset):
        _, diag = fit_polynomial_surface(column_points(dataset, "ki"))
        adj_ref, r2_ref, rmse_ref = REFERENCE_FIT["ki"]
        assert diag.r2 == pytest.approx(r2_ref, abs=0.02)
        assert diag.adjusted_r2 == pytest.approx(adj_ref, abs=0.02)
        assert diag.rmse == pytest.approx(rmse_ref, abs=0.002)

    def test_kd_refit_after_one_outlier_matches_reference(self, dataset):
        pts = column_points(dataset, "kd")
        flagged = detect_outliers(pts, max_outliers=1)
        assert len(flagged) == 1
        mask = np.ones(24, dtype=bool)
        mask[flagged] = False
        _, diag = fit_polynomial_surface(pts[mask])
        adj_ref, r2_ref, _ = REFERENCE_FIT["kd"]
        assert diag.r2 == pytest.approx(r2_ref, abs=0.002)
        assert diag.adjusted_r2 == pytest.approx(adj_ref, abs=0.002)
        assert diag.n == 23

    def test_kp_refit_after_one_outlier_matches_reference(self, dataset):
        pts = column_points(dataset, "kp")
        flagged = detect_outliers(pts, max_outliers=1)
        assert len(flagged) == 1
        mask = np.ones(24, dtype=bool)
        mask[flagged] = False
        _, diag = fit_polynomial_surface(pts[mask])
        adj_ref, r2_ref, _ = REFERENCE_FIT["kp"]
        assert diag.r2 == pytest.approx(r2_ref, abs=0.02)
        assert diag.adjusted_r2 == pytest.approx(adj_ref, abs=0.05)

    def test_mu_reference_row_is_transposed(self, dataset):
        # the stored mu reference lists adjusted > plain, which is
        # impossible for n > p + 1; the refit shows the numbers are the
        # same pair, swapped
        _, diag = fit_polynomial_surface(column_points(dataset, "mu"))
        adj_ref, r2_ref, _ = REFERENCE_FIT["mu"]
        assert adj_ref > r2_ref  # as stored: inconsistent
        assert diag.r2 == pytest.approx(adj_ref, abs=0.02)
        assert diag.adjusted_r2 == pytest.approx(r2_ref, abs=0.02)
        assert diag.adjusted_r2 < diag.r2

    def test_adjusted_r2_identity(self):
        # applying the adjusted-R2 formula to the stored plain R2 values
        # reproduces the stored adjusted values
        def adjust(r2, n, p=11):
            return 1 - (1 - r2) * (n - 1) / (n - p - 1)

        assert adjust(REFERENCE_FIT["lam"][1], 24) == pytest.approx(
            REFERENCE_FIT["lam"][0], abs=1e-3
        )
        assert adjust(REFERENCE_FIT["kd"][1], 23) == pytest.approx(
            REFERENCE_FIT["kd"][0], abs=1e-3
        )

    def test_rejects_underdetermined_and_rank_deficient(self):
        rng = np.random.default_rng(0)
        small = rng.random((10, 3))
        with pytest.raises(ValueError):
            fit_polynomial_surface(small)
        degenerate = np.column_stack([
            np.full(20, 1.0), np.full(20, 0.5), rng.random(20)
        ])
        with pytest.raises(ValueError):
            fit_polynomial_surface(degenerate)



class TestOutliers:
    @staticmethod
    def _synthetic(noise=0.0, seed=0, n=30):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.25, 4.0, n)
        y = rng.uniform(0.2, 1.8, n)
        truth = DEFAULT_TUNING_RULES.ki
        v = truth.evaluate(x, y) + noise * rng.standard_normal(n)
        return np.column_stack([x, y, v])

    def test_clean_data_has_no_outliers(self):
        pts = self._synthetic(noise=0.0)
        assert detect_outliers(pts) == []

    def test_single_large_perturbation_found(self):
        sigma = 0.05
        pts = self._synthetic(noise=sigma, seed=4)
        pts[13, 2] += 10 * sigma
        assert detect_outliers(pts) == [13]
        assert detect_outliers(pts, max_outliers=2) == [13]

    @pytest.mark.parametrize("max_outliers", [-1, 1.5])
    def test_rejects_bad_max_outliers(self, dataset, max_outliers):
        """max_outliers is a non-negative integer: -1 returned [] where 1
        flags row 10 of the Kp column, and 1.5 raised a bare TypeError."""
        pts = column_points(dataset, "kp")
        assert detect_outliers(pts, max_outliers=1) == [10]
        with pytest.raises(ValueError, match="max_outliers"):
            detect_outliers(pts, max_outliers=max_outliers)

    def test_dataset_kd_column_single_outlier_raises_fit_quality(self):
        data = load_median_solutions()
        pts = column_points(data, "kd")
        flagged = detect_outliers(pts, max_outliers=3)
        assert len(flagged) <= 1
        _, diag_all = fit_polynomial_surface(pts)
        mask = np.ones(24, dtype=bool)
        mask[flagged] = False
        _, diag_clean = fit_polynomial_surface(pts[mask])
        assert diag_clean.adjusted_r2 > diag_all.adjusted_r2


@pytest.mark.parametrize("fit", [fit_polynomial_surface, detect_outliers])
@pytest.mark.parametrize("row, column, value", [(7, 2, np.nan), (11, 0, np.inf)])
def test_non_finite_points_are_rejected(dataset, fit, row, column, value):
    """A non-finite value or predictor is named, not fitted: a NaN value
    would give all-NaN coefficients reported with r2 = 1 and no outlier."""
    pts = column_points(dataset, "kd")
    pts[row, column] = value
    with pytest.raises(ValueError, match=f"point {row} is not finite"):
        fit(pts)
