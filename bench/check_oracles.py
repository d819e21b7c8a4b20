"""Tests of the benchmark's oracles; kept out of the package's test suite.

Run with::

    python3 -m pytest -q bench/check_oracles.py
"""
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402


def random_front(rng, n, integer=False):
    pts = rng.integers(0, 6, size=(n, 2)) if integer else rng.random((n, 2))
    return [tuple(float(v) for v in p) for p in pts]


def grid_hypervolume(points, ref):
    """Brute force on the grid cut by every point coordinate: a cell counts
    when some point is at or below its lower-left corner."""
    xs = sorted({p[0] for p in points if p[0] < ref[0]} | {ref[0]})
    ys = sorted({p[1] for p in points if p[1] < ref[1]} | {ref[1]})
    area = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            if any(p[0] <= x0 and p[1] <= y0 for p in points):
                area += (x1 - x0) * (y1 - y0)
    return area


@pytest.mark.parametrize("seed", range(20))
def test_hypervolume_matches_grid(seed):
    rng = np.random.default_rng(seed)
    points = random_front(rng, int(rng.integers(1, 25)), integer=seed % 2 == 0)
    ref = (float(rng.uniform(0.5, 7.0)), float(rng.uniform(0.5, 7.0)))
    assert oracle.hypervolume_2d(points, ref) == pytest.approx(
        grid_hypervolume(points, ref), rel=1e-12, abs=1e-12)


def test_hypervolume_of_dominated_points_is_unchanged():
    rng = np.random.default_rng(7)
    points = random_front(rng, 40)
    keep = [points[i] for i in oracle.nondominated(points)]
    assert oracle.hypervolume_2d(points, (1.0, 1.0)) == oracle.hypervolume_2d(keep, (1.0, 1.0))


def test_normalized_hypervolume_clips_to_the_box():
    assert oracle.normalized_hypervolume([(-5.0, -5.0)], (0.0, 0.0), (2.0, 4.0)) == 1.0
    assert oracle.normalized_hypervolume([(1.0, 2.0)], (0.0, 0.0), (2.0, 4.0)) == 0.25
    assert oracle.normalized_hypervolume([(3.0, 0.0)], (0.0, 0.0), (2.0, 4.0)) == 0.0


def test_dominance_matches_enumeration():
    lattice = list(itertools.product(range(3), repeat=2))
    for u, v in itertools.product(lattice, repeat=2):
        diffs = [a - b for a, b in zip(u, v)]
        assert oracle.weakly_dominates(u, v) == (max(diffs) <= 0 and u != v)
        assert oracle.strictly_dominates(u, v) == (max(diffs) < 0)


@pytest.mark.parametrize("seed", range(20))
def test_nondominated_matches_skyline(seed):
    rng = np.random.default_rng(100 + seed)
    points = random_front(rng, int(rng.integers(1, 30)), integer=seed % 2 == 0)
    # 2-D skyline: sorted by (f1, f2), a point survives when its f2 is below
    # every f2 seen at a smaller f1, or ties a survivor exactly
    best, survivors = np.inf, set()
    for p in sorted(set(points)):
        if p[1] < best:
            best = p[1]
            survivors.add(p)
    expected = sorted(i for i, p in enumerate(points) if p in survivors)
    assert oracle.nondominated(points) == expected


@pytest.mark.parametrize("seed", range(30))
def test_front_verdict_matches_package(seed):
    from lqrfopid import DelayMethod, NioptdPlant, compare_fronts
    from lqrfopid.nsga2 import ParetoEntry, ParetoFront

    rng = np.random.default_rng(200 + seed)
    a = random_front(rng, int(rng.integers(1, 6)))
    b = [(x + rng.uniform(-0.3, 0.6), y + rng.uniform(-0.3, 0.6))
         for x, y in random_front(rng, int(rng.integers(1, 6)))]
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=1.5)

    def front(points, method):
        entries = tuple(ParetoEntry(vars=None, objectives=p, controller=None) for p in points)
        return ParetoFront(entries=entries, method=method, plant=plant)

    expected = compare_fronts(front(a, DelayMethod.CAI), front(b, DelayMethod.HE))
    assert oracle.front_verdict(a, b) == expected


def test_hamiltonian_care_solves_the_riccati_equation():
    A, B = oracle.error_state_matrices(K=1.3, T=2.0)
    Q, R = np.diag([0.6, 0.03, 0.06]), np.array([[0.34]])
    P = oracle.care_hamiltonian(A, B, Q, R)
    residual = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    assert np.abs(residual).max() < 1e-10
    assert np.all(np.linalg.eigvals(A - B @ np.linalg.solve(R, B.T @ P)).real < 0)


@pytest.mark.parametrize("method", ["cai", "he"])
def test_gains_match_package_on_random_weights(method):
    from lqrfopid import DelayMethod, LqrDesignVars, NioptdPlant, design_from_vars

    rng = np.random.default_rng(300)
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=0.5)
    for _ in range(20):
        q1, q2, q3, r = rng.uniform(0.01, 10.0, size=4)
        c = design_from_vars(plant, LqrDesignVars(q1, q2, q3, r, 1.0, 0.5), DelayMethod(method))
        want = oracle.fopid_gains(plant.K, plant.L, plant.T, q1, q2, q3, r, method)
        assert oracle.relative_error([c.kp, c.ki, c.kd], want) < 1e-8


def test_delay_corrections_vanish_at_zero_delay():
    cai = oracle.fopid_gains(1.0, 0.0, 2.0, 0.6, 0.03, 0.06, 0.34, "cai")
    he = oracle.fopid_gains(1.0, 0.0, 2.0, 0.6, 0.03, 0.06, 0.34, "he")
    np.testing.assert_allclose(cai, he, rtol=1e-10)


def test_indices_match_direct_sums():
    rng = np.random.default_rng(400)
    e, u, h = rng.standard_normal(500), rng.standard_normal(500), 0.01
    itse, isdco = oracle.indices(e, u, 0.3, h)
    t = np.arange(500) * h
    assert itse == pytest.approx(h * np.sum(t * e ** 2), rel=1e-12)
    assert isdco == pytest.approx(h * np.sum((u - 0.3) ** 2), rel=1e-12)


def test_first_order_step_closed_form():
    t = np.array([0.0, 0.49, 0.5, 2.5, 1e3])
    y = oracle.first_order_delayed_step(2.0, 0.5, 2.0, t)
    np.testing.assert_allclose(y, [0.0, 0.0, 0.0, 2.0 * (1 - np.exp(-1.0)), 2.0])
