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
bit for bit, verdicts included.  Its direct dgesv, dgeev and dsyev calls,
and those of its certification, equal the NumPy ``linalg`` wrappers they
replaced (``oracles.care_numpy``) bit for bit: P, gain, residual and
CareFailure verdicts, at L/T of 0.25, 1 and 4, with r from the search box
and from [1e-12, 1e-3], where real problems fail the symmetry check and
take the Newton-Kleinman polish; and so does every gain
``design_from_vars`` maps through it, for all three delay methods.
"""
import numpy as np
import pytest

from lqrfopid import (
    CareFailure,
    CareProblem,
    DelayMethod,
    LqrDesignVars,
    NioptdPlant,
    build_state_space,
    design_from_vars,
    expm,
    solve_care,
)
from lqrfopid import matops
from lqrfopid.nsga2 import DESIGN_BOUNDS

from oracles import care_numpy, care_schur_scipy, care_scipy, gains_by_delay_method
from reference_cases import REFERENCE_DESIGNS


def problems(plant, weights):
    """Each weight set with the plain input matrix and with Cai's exp(-A L) B."""
    A, B = build_state_space(plant)
    for q1, q2, q3, r in weights:
        for B_in in (B, expm(-A * plant.L) @ B):
            yield CareProblem(A=A, B=B_in, Q=np.diag([q1, q2, q3]), R=[[r]])


def seeded_weights(seed, count, q1_zero=False, small_r=False):
    """(q1, q2, q3, r) drawn uniformly from the search box, r > 0; with
    ``small_r``, r log-uniform in [1e-12, 1e-3] instead."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(DESIGN_BOUNDS[:4]).T
    weights = []
    while len(weights) < count:
        w = rng.uniform(lo, hi)
        if q1_zero:
            w[0] = 0.0
        if small_r:
            w[3] = 10.0 ** rng.uniform(-12.0, -3.0)
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


# L/T of 0.25, 1 and 4 at T = 2
LAGS_OVER_T = (0.25, 1.0, 4.0)


def assert_same_bits(got, want, prob):
    """Both failed, or P, gain and residual are equal to the last bit."""
    assert (got is None) == (want is None), (prob.B.ravel(), np.diag(prob.Q), prob.R)
    if want is not None:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]


@pytest.mark.parametrize("alpha, seed", [(0.5, 25), (1.5, 26)])
@pytest.mark.parametrize("lag_over_T", LAGS_OVER_T)
def test_direct_lapack_equals_numpy_wrappers(alpha, seed, lag_over_T):
    """200 weight sets from the search box (and q1 = 0) per plant, each with
    both input matrices: P, gain and residual bit for bit, and the same
    CareFailure verdicts, as the NumPy wrappers give."""
    plant = NioptdPlant(K=1.0, L=2.0 * lag_over_T, T=2.0, alpha=alpha)
    weights = seeded_weights(seed, 200) + seeded_weights(seed, 20, q1_zero=True)
    for prob in problems(plant, weights):
        assert_same_bits(solution_or_failure(solve_care, prob),
                         solution_or_failure(care_numpy, prob), prob)


@pytest.mark.parametrize("alpha, seed", [(0.5, 31), (1.5, 32)])
@pytest.mark.parametrize("lag_over_T", LAGS_OVER_T)
def test_direct_lapack_equals_numpy_wrappers_at_small_r(alpha, seed, lag_over_T, monkeypatch):
    """300 weight sets per plant with r in [1e-12, 1e-3], each with both
    input matrices, bit for bit as above.  Real problems reach the branches
    the search box rarely does: some fail the symmetry check and some take
    the Newton-Kleinman polish (counted through the Lyapunov solve both
    constructions call)."""
    polished = []
    lyapunov = matops.linalg.solve_lyapunov
    monkeypatch.setattr(matops.linalg, "solve_lyapunov",
                        lambda *args: polished.append(1) or lyapunov(*args))
    plant = NioptdPlant(K=1.0, L=2.0 * lag_over_T, T=2.0, alpha=alpha)
    asymmetric = 0
    for prob in problems(plant, seeded_weights(seed, 300, small_r=True)):
        before = len(polished)
        got = solution_or_failure(solve_care, prob)
        steps = len(polished) - before
        assert_same_bits(got, solution_or_failure(care_numpy, prob), prob)
        assert len(polished) - before == 2 * steps  # as many polish steps each
        if got is None:
            with pytest.raises(CareFailure) as failure:
                solve_care(prob)
            asymmetric += str(failure.value).startswith("solution not symmetric")
    assert asymmetric > 0 and polished


def gains_or_failure(solve, *args):
    try:
        return solve(*args)
    except CareFailure:
        return None


@pytest.mark.parametrize("alpha, seed", [(0.5, 33), (1.5, 34)])
@pytest.mark.parametrize("lag_over_T", LAGS_OVER_T)
def test_gain_map_equals_numpy_wrappers(alpha, seed, lag_over_T):
    """``design_from_vars`` for all three delay methods against the gain map
    over the NumPy-wrapper CARE, bit for bit with the same CareFailure
    verdicts: 100 weight sets from the search box and 50 with r in
    [1e-12, 1e-3] per plant."""
    plant = NioptdPlant(K=1.0, L=2.0 * lag_over_T, T=2.0, alpha=alpha)
    weights = seeded_weights(seed, 100) + seeded_weights(seed, 50, small_r=True)
    for q1, q2, q3, r in weights:
        vars = LqrDesignVars(q1=q1, q2=q2, q3=q3, r=r, lam=0.5, mu=0.5)
        for method in DelayMethod:
            controller = gains_or_failure(design_from_vars, plant, vars, method)
            got = controller and (controller.kp, controller.ki, controller.kd)
            want = gains_or_failure(gains_by_delay_method, plant, vars.Q, vars.R, method,
                                    care_numpy)
            assert got == want, (method, q1, q2, q3, r)
