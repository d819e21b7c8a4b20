"""The ordered-Schur CARE of ``lqrfopid.matops.solve_care`` against scipy's
``solve_continuous_are`` (``oracles.care_scipy``), both under the same
certification, on the problems the design pipeline poses: the error-state
(A, B) and Cai's (A, exp(-A L) B) with the weights of the reference designs
and of seeded draws from the search box.

With q1 > 0 the two verdicts agree and the gain rows agree within 1e-9
relative.  With q1 = 0 the integrator mode of A is undetectable, so no
stabilizing solution exists; the Schur solver must always say so (scipy
used to certify some of these problems on rounding alone).

The direct LAPACK dgees call of ``solve_care`` equals the
``scipy.linalg.schur`` construction it replaced (``oracles.care_schur_scipy``)
bit for bit, verdicts included.
"""
import numpy as np
import pytest

from lqrfopid import CareFailure, CareProblem, NioptdPlant, build_state_space, expm, solve_care
from lqrfopid.nsga2 import DESIGN_BOUNDS

from oracles import care_schur_scipy, care_scipy
from reference_cases import REFERENCE_DESIGNS


def problems(plant, weights):
    """Each weight set with the plain input matrix and with Cai's exp(-A L) B."""
    A, B = build_state_space(plant)
    for q1, q2, q3, r in weights:
        for B_in in (B, expm(-A * plant.L) @ B):
            yield CareProblem(A=A, B=B_in, Q=np.diag([q1, q2, q3]), R=[[r]])


def seeded_weights(seed, count, q1_zero=False):
    """(q1, q2, q3, r) drawn uniformly from the search box, r > 0."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(DESIGN_BOUNDS[:4]).T
    weights = []
    while len(weights) < count:
        w = rng.uniform(lo, hi)
        if q1_zero:
            w[0] = 0.0
        if w[3] > 0.0:
            weights.append(tuple(w))
    return weights


def verdict(solver, prob):
    try:
        return solver(prob).gain[0]
    except CareFailure:
        return None


def assert_agree(prob):
    got, want = verdict(solve_care, prob), verdict(care_scipy, prob)
    assert (got is None) == (want is None), (prob.B.ravel(), np.diag(prob.Q), prob.R)
    if want is not None:
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("case", REFERENCE_DESIGNS, ids=lambda c: c.name)
def test_reference_designs(case):
    for prob in problems(case.plant, [(case.q1, case.q2, case.q3, case.r)]):
        assert_agree(prob)
        solve_care(prob)  # every reference design is certified


@pytest.mark.parametrize("alpha, seed", [(0.5, 21), (1.5, 22)])
def test_seeded_designs(alpha, seed):
    """300 weight sets per plant, each with both input matrices."""
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=alpha)
    for prob in problems(plant, seeded_weights(seed, 300)):
        assert_agree(prob)


@pytest.mark.parametrize("alpha, seed", [(0.5, 23), (1.5, 24)])
def test_no_solution_without_integral_weight(alpha, seed):
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=alpha)
    weights = seeded_weights(seed, 60, q1_zero=True) + [
        (0.0, 0.0, 0.0, 1.0), (0.0, 100.0, 100.0, 1e-3), (0.0, 1e-3, 1e-3, 100.0)]
    for prob in problems(plant, weights):
        with pytest.raises(CareFailure):
            solve_care(prob)


def solution_or_failure(solver, prob):
    try:
        sol = solver(prob)
    except CareFailure:
        return None
    return sol.P, sol.gain, sol.residual_norm


@pytest.mark.parametrize("alpha, seed, q1_zero",
                         [(0.5, 21, False), (1.5, 22, False), (0.5, 23, True), (1.5, 24, True)])
def test_direct_schur_equals_scipy_schur(alpha, seed, q1_zero):
    """P, gain and residual bit for bit, and the same CareFailure verdicts,
    on the seeded problems above; with q1 = 0 both always fail."""
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=alpha)
    weights = seeded_weights(seed, 60 if q1_zero else 300, q1_zero=q1_zero)
    for prob in problems(plant, weights):
        got, want = solution_or_failure(solve_care, prob), solution_or_failure(
            care_schur_scipy, prob)
        assert (got is None) == (want is None), (prob.B.ravel(), np.diag(prob.Q), prob.R)
        assert got is None or not q1_zero
        if want is not None:
            P, gain, residual = got
            assert np.array_equal(P, want[0]) and np.array_equal(gain, want[1])
            assert residual == want[2]


@pytest.mark.parametrize("case", REFERENCE_DESIGNS, ids=lambda c: c.name)
def test_direct_schur_equals_scipy_schur_on_references(case):
    for prob in problems(case.plant, [(case.q1, case.q2, case.q3, case.r)]):
        got, want = solve_care(prob), care_schur_scipy(prob)
        assert np.array_equal(got.P, want.P) and np.array_equal(got.gain, want.gain)
        assert got.residual_norm == want.residual_norm
