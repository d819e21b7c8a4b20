import os

import numpy as np
import pytest

import lqrfopid.nsga2
from lqrfopid import (
    DelayMethod,
    FrontVerdict,
    MooConfig,
    NioptdPlant,
    ParetoEntry,
    ParetoFront,
    Scenario,
    compare_fronts,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    make_offspring,
    median_solution,
    nsga2_minimize,
    run_nsga2,
    weakly_dominates,
    write_front_csv,
)
from lqrfopid.design import FopidController, LqrDesignVars

from oracles import brute_force_fronts


class TestConfigDefaults:
    def test_protocol_defaults(self):
        cfg = MooConfig()
        assert cfg.population == 100
        assert cfg.generations == 100
        assert cfg.pareto_fraction == 0.7
        assert cfg.bounds[:4] == ((0.0, 100.0),) * 4
        assert cfg.bounds[4:] == ((0.0, 2.0), (0.0, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            MooConfig(population=2)
        with pytest.raises(ValueError):
            MooConfig(pareto_fraction=0.0)
        with pytest.raises(ValueError):
            MooConfig(bounds=((1.0, 1.0),))
        for fraction in (1.5, -0.1):
            with pytest.raises(ValueError, match="crossover fraction"):
                MooConfig(crossover_fraction=fraction)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((1, 3), (2, 2))
        assert not dominates((2, 2), (1, 3))

    def test_equal_component_blocks_strict_dominance(self):
        assert not dominates((1, 2), (1, 3))
        assert weakly_dominates((1, 2), (1, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            weakly_dominates((1, 2), (1, 2, 3))


class TestSorting:
    def test_single_point(self):
        assert fast_nondominated_sort(np.array([[1.0, 2.0]])) == [[0]]

    def test_decreasing_curve_is_one_front(self):
        x = np.linspace(0, 1, 20)
        objs = np.column_stack([x, 1 - x])
        fronts = fast_nondominated_sort(objs)
        assert len(fronts) == 1
        assert sorted(fronts[0]) == list(range(20))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 61))
            objs = rng.random((n, 2))
            if rng.random() < 0.3:
                objs = np.round(objs, 1)  # provoke ties and duplicates
            got = [sorted(f) for f in fast_nondominated_sort(objs)]
            want = [sorted(f) for f in brute_force_fronts(objs)]
            assert got == want

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="population is empty"):
            fast_nondominated_sort(np.zeros((0, 2)))

    def test_every_index_exactly_once(self):
        rng = np.random.default_rng(3)
        objs = rng.random((40, 2))
        fronts = fast_nondominated_sort(objs)
        flat = sorted(i for f in fronts for i in f)
        assert flat == list(range(40))


class TestCrowding:
    def test_pair_is_all_infinite(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(d))

    def test_equally_spaced_middle(self):
        d = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError, match="front is empty"):
            crowding_distance(np.zeros((0, 2)))

    def test_zero_range_objective_contributes_nothing(self):
        objs = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        d = crowding_distance(objs)
        assert d[1] == pytest.approx(1.0)  # only the first objective counts


class TestOffspring:
    def _config(self, **kw):
        defaults = dict(population=8, generations=1,
                        bounds=((0.0, 2.0), (0.0, 2.0), (0.0, 2.0)))
        defaults.update(kw)
        return MooConfig(**defaults)

    def test_identical_parents_give_identical_child(self):
        # w * 0.9 + (1 - w) * 0.9 differs from 0.9 for some w
        cfg = self._config(crossover_fraction=1.0)
        rng = np.random.default_rng(0)
        parents = np.full((8, 3), 0.9)
        children = make_offspring(parents, cfg, rng)
        assert np.array_equal(children, np.full((4, 3), 0.9))

    def test_crossover_child_inside_parent_box(self):
        cfg = self._config(crossover_fraction=1.0)
        rng = np.random.default_rng(1)
        parents = np.vstack([np.zeros((4, 3)), 2 * np.ones((4, 3))])
        rng.shuffle(parents)
        children = make_offspring(parents, cfg, rng)
        assert np.all(children >= 0.0) and np.all(children <= 2.0)

    def test_mutation_respects_bounds(self):
        cfg = self._config(crossover_fraction=0.0, mutation_scale=10.0)
        rng = np.random.default_rng(2)
        parents = np.full((40, 3), 1.9)
        children = make_offspring(parents, cfg, rng)
        assert np.all(children >= 0.0) and np.all(children <= 2.0)

    def test_mutation_touches_one_coordinate(self):
        cfg = self._config(crossover_fraction=0.0, mutation_scale=0.5)
        rng = np.random.default_rng(3)
        parents = np.full((2, 3), 1.0)
        child = make_offspring(parents, cfg, rng)[0]
        assert np.sum(child != 1.0) <= 1


def biquadratic(x):
    return float(x[0] ** 2), float((x[0] - 2.0) ** 2)


class TestMinimize:
    def test_biquadratic_front(self):
        cfg = MooConfig(population=60, generations=60, bounds=((-5.0, 5.0),), seed=7)
        X, F = nsga2_minimize(biquadratic, cfg)
        assert X.min() >= -0.05 and X.max() <= 2.05
        assert X.min() <= 0.05
        assert X.max() >= 1.95
        assert np.all(np.diff(F[:, 0]) >= 0)  # canonical ordering

    def test_deterministic_for_fixed_seed(self):
        cfg = MooConfig(population=30, generations=15, bounds=((-5.0, 5.0),), seed=11)
        X1, F1 = nsga2_minimize(biquadratic, cfg)
        X2, F2 = nsga2_minimize(biquadratic, cfg)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(F1, F2)

    def test_elitism_keeps_best_objectives(self):
        short = MooConfig(population=24, generations=3, bounds=((-5.0, 5.0),), seed=5)
        long = MooConfig(population=24, generations=18, bounds=((-5.0, 5.0),), seed=5)
        _, F_short = nsga2_minimize(biquadratic, short)
        _, F_long = nsga2_minimize(biquadratic, long)
        assert F_long[:, 0].min() <= F_short[:, 0].min() + 1e-12
        assert F_long[:, 1].min() <= F_short[:, 1].min() + 1e-12

    def test_front_is_mutually_nondominated(self):
        cfg = MooConfig(population=40, generations=25, bounds=((-5.0, 5.0),), seed=1)
        _, F = nsga2_minimize(biquadratic, cfg)
        for i in range(F.shape[0]):
            for j in range(F.shape[0]):
                if i != j:
                    assert not weakly_dominates(F[i], F[j])

    def test_workers_capped_at_core_count(self, monkeypatch):
        asked = []

        class SerialPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, xs):
                return map(fn, xs)

        monkeypatch.setattr(lqrfopid.nsga2, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = MooConfig(population=12, generations=3, bounds=((-5.0, 5.0),), seed=4)
        X1, F1 = nsga2_minimize(biquadratic, cfg, workers=64)
        X2, F2 = nsga2_minimize(biquadratic, cfg)
        assert asked == [2]
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(F1, F2)


class TestSurvival:
    def test_capped_front_is_refilled_to_population(self):
        # one front of 20 equal rows: the Pareto-fraction cap keeps 7 of it and
        # the refill the other 3
        cfg = MooConfig(population=10)
        X = np.arange(40.0).reshape(20, 2)
        F = np.ones((20, 2))
        Xs, Fs, rank, _ = lqrfopid.nsga2._survival(X, F, cfg)
        assert Xs.shape == (10, 2) and Fs.shape == (10, 2)
        assert np.unique(Xs, axis=0).shape[0] == 10
        assert np.all(rank == 0)



def _tiny_front(points, method=DelayMethod.CAI):
    plant = NioptdPlant(K=1, L=0.5, T=2, alpha=0.5)
    entries = []
    for i, (a, b) in enumerate(points):
        entries.append(ParetoEntry(
            vars=LqrDesignVars(q1=1 + i, q2=1, q3=1, r=1, lam=1, mu=0.5),
            objectives=(float(a), float(b)),
            controller=FopidController(kp=1, ki=1, kd=1, lam=1, mu=0.5),
        ))
    return ParetoFront(entries=tuple(entries), method=method, plant=plant)


class TestFrontOperations:
    def test_median_of_single(self):
        front = _tiny_front([(1, 1)])
        assert median_solution(front).objectives == (1.0, 1.0)

    def test_median_of_three(self):
        front = _tiny_front([(1, 3), (2, 2), (3, 1)])
        assert median_solution(front).objectives == (2.0, 2.0)

    def test_median_of_four_takes_lower(self):
        front = _tiny_front([(1, 4), (2, 3), (3, 2), (4, 1)])
        assert median_solution(front).objectives == (2.0, 3.0)

    def test_median_of_empty_rejected(self):
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=0.5)
        empty = ParetoFront(entries=(), method=DelayMethod.CAI, plant=plant)
        with pytest.raises(ValueError):
            median_solution(empty)

    def test_compare_single_points(self):
        verdict = compare_fronts(_tiny_front([(1, 1)]), _tiny_front([(2, 2)], DelayMethod.HE))
        assert verdict == FrontVerdict.CAI_DOMINANT

    def test_compare_identical_is_weak(self):
        a = _tiny_front([(1, 2), (2, 1)])
        b = _tiny_front([(1, 2), (2, 1)], DelayMethod.HE)
        assert compare_fronts(a, b) == FrontVerdict.WEAK

    def test_compare_he_dominant(self):
        a = _tiny_front([(2, 3), (3, 2)])
        b = _tiny_front([(1, 2), (2, 1)], DelayMethod.HE)
        assert compare_fronts(a, b) == FrontVerdict.HE_DOMINANT

    def test_compare_empty_rejected(self):
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=0.5)
        empty = ParetoFront(entries=(), method=DelayMethod.HE, plant=plant)
        with pytest.raises(ValueError, match="non-empty"):
            compare_fronts(_tiny_front([(1, 1)]), empty)

    def test_compare_crossing_is_weak(self):
        a = _tiny_front([(1, 3), (3, 1)])
        b = _tiny_front([(2, 2)], DelayMethod.HE)
        assert compare_fronts(a, b) == FrontVerdict.WEAK


class TestDesignBinding:
    CFG = MooConfig(population=12, generations=3, seed=9)
    SCN = Scenario(horizon=20.0, step_size=0.02)
    PLANT = NioptdPlant(K=1, L=0.5, T=2, alpha=0.5)

    def test_tiny_run_produces_valid_front(self):
        front = run_nsga2(self.PLANT, DelayMethod.CAI, self.CFG, self.SCN)
        assert len(front) >= 1
        objs = front.objectives_array()
        assert np.all(objs < 1e6)
        assert np.all(np.diff(objs[:, 0]) >= 0)
        for e in front.entries:
            assert isinstance(e.controller, FopidController)
            assert e.controller.lam == e.vars.lam

    def test_tiny_run_deterministic(self):
        f1 = run_nsga2(self.PLANT, DelayMethod.CAI, self.CFG, self.SCN)
        f2 = run_nsga2(self.PLANT, DelayMethod.CAI, self.CFG, self.SCN)
        np.testing.assert_array_equal(f1.objectives_array(), f2.objectives_array())

    def test_workers_do_not_change_result(self):
        f1 = run_nsga2(self.PLANT, DelayMethod.CAI, self.CFG, self.SCN, workers=1)
        f2 = run_nsga2(self.PLANT, DelayMethod.CAI, self.CFG, self.SCN, workers=2)
        np.testing.assert_array_equal(f1.objectives_array(), f2.objectives_array())

    @pytest.mark.parametrize("method", [DelayMethod.CAI, DelayMethod.HE])
    def test_front_has_no_duplicates(self, method):
        """Crossover of two copies of a design must not make a third copy that
        differs in the last bit, which the front would keep as distinct."""
        plant = NioptdPlant(K=1, L=0.5, T=2, alpha=0.5)
        config = MooConfig(population=16, generations=2, seed=6)
        front = run_nsga2(plant, method, config, Scenario(horizon=50.0, step_size=0.05))
        X = np.array([e.vars.as_array() for e in front.entries])
        for i in range(len(X)):
            for j in range(i):
                assert not np.allclose(X[i], X[j], rtol=1e-12, atol=0), (i, j)

    def test_front_csv_schema(self, tmp_path):
        front = run_nsga2(self.PLANT, DelayMethod.CAI, self.CFG, self.SCN)
        path = tmp_path / "front.csv"
        write_front_csv(path, front)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "J1_itse,J2_isdco,Q1,Q2,Q3,R,lambda,mu,Kp,Ki,Kd,method"
        assert len(lines) == 1 + len(front)
        assert lines[1].endswith(",cai")
