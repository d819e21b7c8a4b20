import ast
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from lqrfopid import (
    PENALTY_OBJECTIVE,
    CareFailure,
    CareProblem,
    DelayMethod,
    NioptdPlant,
    build_state_space,
    evaluate_design_objectives,
    expm,
    is_stabilizable,
    solve_care,
    spectral_abscissa,
)
from lqrfopid import matops

from oracles import (
    care_hamiltonian,
    care_newton,
    certify_numpy,
    expm_series,
    random_stabilizable,
)


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_terminating_series(self):
        N = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        expected = np.eye(3) + N + N @ N / 2
        np.testing.assert_allclose(expm(N), expected, rtol=0, atol=1e-13)

    def test_diagonal(self):
        E = expm(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(E, np.diag([np.e, np.exp(-2.0)]), rtol=1e-12)

    def test_inverse_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            M = rng.standard_normal((4, 4))
            M *= 5.0 / max(np.linalg.norm(M, 2), 1e-9)
            prod = expm(M) @ expm(-M)
            assert np.linalg.norm(prod - np.eye(4)) <= 1e-9

    def test_series_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            M *= rng.uniform(0.1, 3.0) / np.linalg.norm(M, 2)
            E = expm(M)
            ref = expm_series(M)
            assert np.linalg.norm(E - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_rejects_nonfinite_and_nonsquare(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            expm(np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_rotation(self):
        assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_abscissa(np.array([[np.nan, 0.0], [0.0, -1.0]]))

    def test_error_state_matrix_is_marginal(self):
        # eigenvalues 0 and +-j/sqrt(2) for T = 2
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -0.5, 0.0]])
        assert spectral_abscissa(A) == pytest.approx(0.0, abs=1e-10)


class TestSolveCare:
    def test_scalar_integrator(self):
        # a=0, b=1, q=1, r=1: -P^2 + 1 = 0, stabilizing root P = 1
        sol = solve_care(CareProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]]))
        assert sol.P[0, 0] == pytest.approx(1.0, rel=1e-10)
        assert sol.gain[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_scalar_stable_plant(self):
        # a=-1, b=1, q=3, r=1: -2P - P^2 + 3 = 0, positive root P = 1
        sol = solve_care(CareProblem(A=[[-1.0]], B=[[1.0]], Q=[[3.0]], R=[[1.0]]))
        assert sol.P[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_random_contract(self):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        for trial in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 3))
            A, B = random_stabilizable(rng, n, m)
            C = rng.standard_normal((n, n))
            Q = C.T @ C
            D = rng.standard_normal((m, m))
            R = D.T @ D + 0.1 * np.eye(m)
            sol = solve_care(CareProblem(A=A, B=B, Q=Q, R=R))
            resid = A.T @ sol.P + sol.P @ A - sol.P @ B @ sol.gain + Q
            assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(Q))
            assert np.linalg.norm(sol.P - sol.P.T) <= 1e-10 * max(1.0, np.linalg.norm(sol.P))
            assert np.min(np.linalg.eigvalsh(sol.P)) >= -1e-8 * max(1.0, np.linalg.norm(sol.P))
            assert spectral_abscissa(A - B @ sol.gain) < 0.0
        assert time.time() - t0 < 5.0

    def test_agrees_with_hamiltonian_and_newton_oracles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            A, B = random_stabilizable(rng, n)
            C = rng.standard_normal((n, n))
            Q = C.T @ C
            R = np.array([[float(rng.uniform(0.2, 3.0))]])
            sol = solve_care(CareProblem(A=A, B=B, Q=Q, R=R))
            P_h = care_hamiltonian(A, B, Q, R)
            P_n = care_newton(A, B, Q, R)
            np.testing.assert_allclose(sol.P, P_h, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(sol.P, P_n, rtol=1e-6, atol=1e-8)

    def test_continuity_in_q(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.5]])
        B = np.array([[0.0], [1.0]])
        Q = np.diag([1.0, 0.5])
        R = np.array([[1.0]])
        P0 = solve_care(CareProblem(A=A, B=B, Q=Q, R=R)).P
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            P = solve_care(CareProblem(A=A, B=B, Q=Q + eps * np.eye(2), R=R)).P
            gaps.append(np.linalg.norm(P - P0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-5

    def test_non_stabilizable_pair_fails_distinguishably(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        B = np.array([[1.0], [0.0]])  # unstable mode 2 is uncontrollable
        assert not is_stabilizable(A, B)
        with pytest.raises(CareFailure):
            solve_care(CareProblem(A=A, B=B, Q=np.eye(2), R=[[1.0]]))

    def test_zero_weight_on_marginal_plant_fails(self):
        # Q = 0 gives P = 0 and zero gain, which cannot stabilize a
        # marginally stable A: must fail, not return a bogus certificate.
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -0.5, 0.0]])
        B = np.array([[0.0], [0.0], [-0.5]])
        with pytest.raises(CareFailure):
            solve_care(CareProblem(A=A, B=B, Q=np.zeros((3, 3)), R=[[1.0]]))

    def test_problem_shape_validation(self):
        with pytest.raises(ValueError):
            CareProblem(A=np.eye(2), B=np.ones((3, 1)), Q=np.eye(2), R=[[1.0]])
        with pytest.raises(ValueError):
            CareProblem(A=np.eye(2), B=np.ones((2, 1)), Q=np.eye(3), R=[[1.0]])

    def test_one_dimensional_input_is_a_column(self):
        prob = CareProblem(A=-np.eye(2), B=[1.0, 2.0], Q=np.eye(2), R=[[1.0]])
        assert prob.B.shape == (2, 1) and np.array_equal(prob.B[:, 0], [1.0, 2.0])
        column = CareProblem(A=-np.eye(2), B=[[1.0], [2.0]], Q=np.eye(2), R=[[1.0]])
        assert np.array_equal(solve_care(prob).P, solve_care(column).P)

    @pytest.mark.parametrize("name", ["A", "B", "Q", "R"])
    def test_rejects_nonfinite_entries(self, name):
        data = {"A": -np.eye(2), "B": np.ones((2, 1)), "Q": np.eye(2), "R": np.eye(1)}
        data[name] = data[name].copy()
        data[name][0, 0] = np.nan
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            CareProblem(**data)


class TestStabilizable:
    def test_marginal_plant_with_input_is_stabilizable(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -0.5, 0.0]])
        B = np.array([[0.0], [0.0], [-0.5]])
        assert is_stabilizable(A, B)

    def test_stable_modes_need_no_controllability(self):
        A = np.diag([-1.0, -2.0])
        B = np.zeros((2, 1))
        assert is_stabilizable(A, B)


class TestDirectLapackFailures:
    """solve_care calls LAPACK dgees itself: a Hamiltonian with a non-finite
    entry never reaches it, and any failure it reports is a CareFailure,
    which the objective turns into the penalty pair."""

    PLANT = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=0.5)

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        calls = []
        gees = matops.dgees
        monkeypatch.setattr(matops, "dgees",
                            lambda *args, **kwargs: calls.append(args) or gees(*args, **kwargs))
        return calls

    def assert_failure_and_penalty(self, plant, prob, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CareFailure):
                solve_care(prob)
            for method in (DelayMethod.CAI, DelayMethod.HE):
                assert evaluate_design_objectives(plant, x, method) == (PENALTY_OBJECTIVE,
                                                                        PENALTY_OBJECTIVE)

    def test_overflowing_input_weight_fails_before_lapack(self, lapack_calls):
        # B R^-1 B' overflows at the smallest positive r
        A, B = build_state_space(self.PLANT)
        prob = CareProblem(A=A, B=B, Q=np.eye(3), R=[[5e-324]])
        self.assert_failure_and_penalty(self.PLANT, prob, [1.0, 1.0, 1.0, 5e-324, 0.5, 0.5])
        assert lapack_calls == []

    def test_non_finite_hamiltonian_fails_before_lapack(self, lapack_calls):
        # a finite plant whose input matrix squares past the float range
        plant = NioptdPlant(K=1e300, L=0.5, T=2.0, alpha=0.5)
        A, B = build_state_space(plant)
        prob = CareProblem(A=A, B=B, Q=np.eye(3), R=[[1.0]])
        self.assert_failure_and_penalty(plant, prob, [1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
        assert lapack_calls == []

    def test_reported_reordering_failure(self, monkeypatch):
        # info = order + 1: the eigenvalues could not be reordered
        gees = matops.dgees

        def failing(*args, **kwargs):
            *out, _ = gees(*args, **kwargs)
            return (*out, args[1].shape[0] + 1)

        monkeypatch.setattr(matops, "dgees", failing)
        A, B = build_state_space(self.PLANT)
        prob = CareProblem(A=A, B=B, Q=np.eye(3), R=[[1.0]])
        with pytest.raises(CareFailure, match="info = 7"):
            solve_care(prob)
        assert evaluate_design_objectives(self.PLANT, [1.0, 1.0, 1.0, 1.0, 0.5, 0.5],
                                          DelayMethod.HE) == (PENALTY_OBJECTIVE,
                                                              PENALTY_OBJECTIVE)

    def test_healthy_problem_reaches_lapack_once(self, lapack_calls):
        A, B = build_state_space(self.PLANT)
        solve_care(CareProblem(A=A, B=B, Q=np.eye(3), R=[[1.0]]))
        assert len(lapack_calls) == 1


class TestCertifyBranches:
    """Every outcome of ``matops._certify``, driven by crafted candidates P
    or a substituted Lyapunov solve, with the same verdict (and, where a
    solution comes back, the same bits) as the NumPy-wrapper certification
    ``oracles.certify_numpy`` it replaced."""

    # a = 1, b = 1, q = 1, r = 1: 2P - P**2 + 1 = 0, stabilizing root 1 + sqrt(2)
    SCALAR = CareProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])

    @staticmethod
    def error_state_problem():
        A, B = build_state_space(NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=0.5))
        return CareProblem(A=A, B=B, Q=np.diag([1.0, 2.0, 3.0]), R=[[0.5]])

    @staticmethod
    def assert_fails_alike(prob, P, match):
        with pytest.raises(CareFailure, match=match):
            matops._certify(prob, P)
        with pytest.raises(CareFailure, match=match):
            certify_numpy(prob, P)

    class LyapunovCalls(list):
        """The arguments of each Lyapunov solve; a set ``answer`` replaces
        the solution."""

        answer = None

    @pytest.fixture
    def lyapunov_calls(self, monkeypatch):
        calls = self.LyapunovCalls()
        solve = matops.linalg.solve_lyapunov

        def counting(*args):
            calls.append(args)
            return solve(*args) if calls.answer is None else calls.answer.copy()

        monkeypatch.setattr(matops.linalg, "solve_lyapunov", counting)
        return calls

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate(self, bad):
        prob = self.error_state_problem()
        P = solve_care(prob).P.copy()
        P[1, 2] = bad
        self.assert_fails_alike(prob, P, "non-finite entries")

    def test_non_symmetric_candidate(self):
        prob = self.error_state_problem()
        P = solve_care(prob).P.copy()
        P[0, 2] += 1e-6 * np.linalg.norm(P)
        self.assert_fails_alike(prob, P, "solution not symmetric")

    def test_non_hurwitz_closed_loop(self):
        # P = 1/2 gives the gain 1/2 and the closed loop 1 - 1/2 > 0
        self.assert_fails_alike(self.SCALAR, np.array([[0.5]]), "closed loop not Hurwitz")

    def test_polish_converges_bit_for_bit(self, lyapunov_calls):
        """A stabilizing candidate off by 1e-6 misses the residual bound; the
        Newton-Kleinman steps bring it within, to the same bits as the
        reference's steps."""
        prob = self.error_state_problem()
        exact = solve_care(prob)
        P = exact.P + 1e-6 * np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        got = matops._certify(prob, P)
        steps = len(lyapunov_calls)
        want = certify_numpy(prob, P)
        assert steps >= 1 and len(lyapunov_calls) == 2 * steps
        assert np.array_equal(got.P, want.P) and np.array_equal(got.gain, want.gain)
        assert got.residual_norm == want.residual_norm
        assert got.residual_norm <= matops.CARE_RESIDUAL_RTOL * np.linalg.norm(prob.Q)
        np.testing.assert_allclose(got.P, exact.P, rtol=1e-9)

    def test_polish_losing_stabilizability(self, lyapunov_calls):
        # the candidate 3 is stabilizing but off; the step returns P = 0,
        # whose zero gain leaves the unstable a = 1 alone
        lyapunov_calls.answer = np.zeros((1, 1))
        self.assert_fails_alike(self.SCALAR, np.array([[3.0]]),
                                "refinement lost stabilizability")
        assert len(lyapunov_calls) == 2

    def test_residual_stays_too_large(self, lyapunov_calls):
        # every step returns the same stabilizing but wrong candidate
        lyapunov_calls.answer = np.array([[3.0]])
        self.assert_fails_alike(self.SCALAR, np.array([[3.0]]), "Riccati residual too large")
        assert len(lyapunov_calls) == 2 * 5

    def test_non_psd_solution(self):
        """a = -1, b = 1, q = -1/2, r = 1: P**2 + 2P + 1/2 = 0 has the
        stabilizing root sqrt(1/2) - 1 < 0 (an indefinite Q), which passes
        every contract but the last."""
        prob = CareProblem(A=[[-1.0]], B=[[1.0]], Q=[[-0.5]], R=[[1.0]])
        self.assert_fails_alike(prob, np.array([[np.sqrt(0.5) - 1.0]]), "solution not PSD")
        with pytest.raises(CareFailure, match="solution not PSD"):
            solve_care(prob)

    def test_certified_candidate_bit_for_bit(self):
        prob = self.error_state_problem()
        P = solve_care(prob).P
        got, want = matops._certify(prob, P), certify_numpy(prob, P)
        assert np.array_equal(got.P, want.P) and np.array_equal(got.gain, want.gain)
        assert got.residual_norm == want.residual_norm


def test_care_calls_lapack_directly():
    """Structural guard: solve_care and _certify make no ``np.linalg`` call;
    their solves, eigenvalues and norms go to LAPACK (or a dot product)
    directly, without NumPy's wrappers."""
    found = []
    tree = ast.parse(Path(matops.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("solve_care", "_certify"):
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and ast.unparse(node.func).startswith(
                    ("np.linalg.", "numpy.linalg.")):
                found.append((name, ast.unparse(node.func)))
    assert found == [], found
