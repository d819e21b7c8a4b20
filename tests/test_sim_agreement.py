"""The power-series engine of ``lqrfopid.sim`` against the per-sample loops
it replaced (``oracles.*_loop``): the same divergence verdicts and
truncation lengths, outputs within 1e-9 of the output scale, and indices
within 1e-9 relative.  The Oustaloup kernels against the single fused
matrix exponential they replaced, and the closed-form kernels of the
operators and of the plant against the matrix exponential of each block's
realization.  The
direct LAPACK first block against scipy's triangular Toeplitz solve it
replaced, bit for bit."""
import itertools
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lqrfopid import (
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    Scenario,
    design_from_vars,
    simulate_closed_loop,
    simulate_open_loop_step,
)
from lqrfopid import sim
from lqrfopid.fracnum import differintegrator_modes
from lqrfopid.matops import CareFailure, CareProblem
from lqrfopid.nsga2 import DESIGN_BOUNDS
from lqrfopid.sim import DEFAULT_BAND, _OperatorKernels, _PlantAtRest, evaluate_design_objectives

from oracles import (
    care_schur_scipy,
    closed_loop_gl_loop,
    closed_loop_matrix,
    closed_loop_oustaloup_loop,
    first_block_toeplitz,
    fused_oustaloup_markov,
    open_loop_step_loop,
    operator_markov,
    plant_markov,
    spectral_radius,
)
from reference_cases import BY_NAME, OSCILLATORY_PLANT
from transforms import count_transforms

REFERENCE_LOOPS = {"oustaloup": closed_loop_oustaloup_loop, "gl": closed_loop_gl_loop}
DISTURBED = Scenario(disturbance_time=40.0, disturbance_magnitude=0.1)
# e is zero up to the disturbance, so the loop denominator never reaches N
# terms and u = H e takes the product without a transform at hand
AT_REST = Scenario(setpoint=0.0, disturbance_time=40.0, disturbance_magnitude=0.1)


def operator_kernels(exponents, h, n):
    """The closed-form kernels of the operators s**gamma to n terms, one per
    exponent."""
    return _OperatorKernels([differintegrator_modes(g, DEFAULT_BAND) for g in exponents], h, n)


def assert_agree(res, ref):
    assert res.diverged == ref.diverged
    assert res.t.size == ref.t.size
    assert np.max(np.abs(res.y - ref.y)) <= 1e-9 * max(1.0, np.max(np.abs(ref.y)))
    # the controller-side states pass through one more series product each
    for name in ("u", "x1", "x3"):
        got, want = getattr(res, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want))), name
    assert res.itse == pytest.approx(ref.itse, rel=1e-9, abs=0)
    assert res.isdco == pytest.approx(ref.isdco, rel=1e-9, abs=0)


def closed_loop_pair(plant, controller, scenario, solver):
    res = simulate_closed_loop(plant, controller, scenario, solver=solver)
    return res, REFERENCE_LOOPS[solver](plant, controller, scenario)


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
@pytest.mark.parametrize("scenario", [Scenario(), DISTURBED, AT_REST],
                         ids=["step", "disturbed", "at_rest"])
@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_reference_designs(name, scenario, solver):
    case = BY_NAME[name]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    controller = design_from_vars(case.plant, vars, case.method)
    assert_agree(*closed_loop_pair(case.plant, controller, scenario, solver))


@pytest.mark.parametrize("alpha, h, horizon, seed",
                         [(1.5, 0.01, 10.0, 11), (0.5, 0.05, 50.0, 12)])
def test_random_designs(alpha, h, horizon, seed):
    """60 designs with gains per plant, drawn uniformly from the search box,
    half of them with a disturbance step, each run on both paths."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(DESIGN_BOUNDS).T
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=alpha)
    verdicts = []
    designs = 0
    while designs < 60:
        method = (DelayMethod.CAI, DelayMethod.HE)[int(rng.integers(2))]
        try:
            controller = design_from_vars(plant, LqrDesignVars.from_array(rng.uniform(lo, hi)),
                                          method)
        except (CareFailure, ValueError):
            continue
        designs += 1
        disturbed = rng.random() < 0.5
        scenario = Scenario(setpoint=float(rng.uniform(0.5, 2.0)), horizon=horizon, step_size=h,
                            disturbance_time=float(rng.uniform(0.0, horizon)),
                            disturbance_magnitude=float(rng.uniform(-1.0, 1.0)) * disturbed)
        for solver in REFERENCE_LOOPS:
            res, ref = closed_loop_pair(plant, controller, scenario, solver)
            assert_agree(res, ref)
            verdicts.append(res.diverged)
    # both outcomes are exercised
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
def test_zero_delay_plant(solver):
    plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.5)
    vars = LqrDesignVars(q1=0.6, q2=0.03, q3=0.06, r=0.35, lam=1.1, mu=0.45)
    controller = design_from_vars(plant, vars, DelayMethod.DELAY_FREE)
    scenario = Scenario(horizon=20.0, disturbance_time=10.0, disturbance_magnitude=0.2)
    assert_agree(*closed_loop_pair(plant, controller, scenario, solver))


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
def test_unstable_loop_at_rest_until_disturbed(solver):
    # zero set-point: the output stays exactly 0 until the disturbance
    # excites the unstable loop, however large its sensitivity has grown
    plant = NioptdPlant(K=1.0, L=0.0, T=2.0, alpha=1.5)
    controller = FopidController(kp=-3000.0, ki=0.0, kd=0.0, lam=1.0, mu=0.1)
    scenario = Scenario(setpoint=0.0, horizon=30.0, disturbance_time=20.0,
                        disturbance_magnitude=0.1)
    res, ref = closed_loop_pair(plant, controller, scenario, solver)
    assert_agree(res, ref)
    assert res.diverged and res.t[-1] > 20.0


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
def test_tiny_setpoint_under_disturbance(solver):
    # the sensitivity grows past 1e80 while the output stays tiny: FFT
    # rounding of the disturbance terms must not show up as a divergence
    controller = FopidController(kp=-30.0, ki=0.0, kd=0.0, lam=1.0, mu=0.5)
    scenario = Scenario(setpoint=1e-100, horizon=30.0, disturbance_time=29.0,
                        disturbance_magnitude=1e-3)
    res, ref = closed_loop_pair(OSCILLATORY_PLANT, controller, scenario, solver)
    assert_agree(res, ref)
    assert not res.diverged


# (set-point, disturbance time, magnitude, first disturbed sample) on the
# 0.01 s grid of a 20 s run: before and at the start, mid-run, at the block
# edges 128 and 1024, past the horizon, a negative magnitude, and zero and
# negative set-points
PLACEMENTS = [(1.0, -5.0, 0.2, 0), (1.0, 0.0, 0.2, 0), (1.0, 13.37, 0.2, 1337),
              (1.0, 1.28, 0.2, 128), (1.0, 10.24, 0.2, 1024), (1.0, 30.0, 0.2, 2000),
              (1.0, 13.37, -0.3, 1337), (0.0, 13.37, 0.2, 1337), (0.0, 1.28, -0.2, 128),
              (-0.5, 10.24, 0.2, 1024)]


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
@pytest.mark.parametrize("setpoint, time, magnitude, w_start", PLACEMENTS)
def test_disturbance_placements(setpoint, time, magnitude, w_start, solver):
    """Wherever the disturbance starts relative to the Newton blocks, the
    split right-hand side gives the per-sample loop's outputs."""
    plant, controller = reference_loop("osc_median")
    scenario = Scenario(setpoint=setpoint, horizon=20.0, disturbance_time=time,
                        disturbance_magnitude=magnitude)
    assert sim._first_sample_at(scenario.n_steps, scenario.step_size, time) == w_start
    res, ref = closed_loop_pair(plant, controller, scenario, solver)
    assert_agree(res, ref)
    assert not res.diverged


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
def test_crossing_past_growth_boundary(solver):
    # Newton resumes across the kernel lengths 128 and 1024 before the
    # first crossing
    controller = FopidController(kp=8.0, ki=0.5, kd=0.0, lam=1.0, mu=0.5)
    res, ref = closed_loop_pair(OSCILLATORY_PLANT, controller, Scenario(horizon=40.0), solver)
    assert_agree(res, ref)
    assert res.diverged and res.t.size - 1 > 1024


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
def test_survivor_at_length_not_power_of_two(solver):
    case = BY_NAME["osc_median"]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    controller = design_from_vars(case.plant, vars, case.method)
    # N = 1537 = 12 * 128 + 1: the loop denominator grows from 128 terms
    # straight to N, the last Newton step is short of doubling, and the
    # operator kernels end inside a chunk of blocks
    for n, horizon, disturbance_time in ((2500, 25.0, 16.5), (1537, 15.37, 10.0)):
        scenario = Scenario(horizon=horizon, disturbance_time=disturbance_time,
                            disturbance_magnitude=0.2)
        res, ref = closed_loop_pair(case.plant, controller, scenario, solver)
        assert_agree(res, ref)
        assert not res.diverged and res.t.size == n


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
@pytest.mark.parametrize("K, L, alpha", [(1.0, 0.5, 0.5), (1.0, 0.5, 1.0), (1.0, 0.5, 1.5),
                                         (1.0, 0.0, 1.5), (2000.0, 0.5, 1.0)])
def test_open_loop_steps(K, L, alpha, solver):
    plant = NioptdPlant(K=K, L=L, T=2.0, alpha=alpha)
    res = simulate_open_loop_step(plant, horizon=20.0, h=0.01, solver=solver)
    assert_agree(res, open_loop_step_loop(plant, 20.0, 0.01, solver))
    # the divergence bound scales with |K|: a stable plant runs to the end
    assert not res.diverged


ORDER_EDGES = (0.0, 1e-300, 1.0, 2.0)


@pytest.mark.parametrize("h", [0.01, 0.05])
def test_split_sampling_matches_fused(h):
    """Markov series of the plant and both operators: seeded (lam, mu) pairs
    and every pair of edge orders, on a sluggish and an oscillatory plant."""
    rng = np.random.default_rng(31)
    pairs = [tuple(rng.uniform(0.0, 2.0, 2)) for _ in range(12)]
    pairs += list(itertools.product(ORDER_EDGES, ORDER_EDGES))
    n = 300
    for alpha in (0.5, 1.5):
        plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=alpha)
        for lam, mu in pairs:
            at_rest = _PlantAtRest(replace(plant, L=0.0), h, "oustaloup", DEFAULT_BAND, n)
            num, den = at_rest.num, at_rest.den
            ops = operator_kernels((-lam, mu), h, n)(n)
            assert np.array_equal(den, [1.0]) and num[0] == 0.0
            want = fused_oustaloup_markov(plant, h, (-lam, mu), n)
            for got, ref in zip([num] + ops, want):
                assert got.size == n
                assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (alpha, lam, mu)


def test_cached_kernels_repeat_bit_for_bit():
    case = BY_NAME["slug_median"]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    controller = design_from_vars(case.plant, vars, case.method)
    runs = [simulate_closed_loop(case.plant, controller, DISTURBED, band=band)
            for band in ((2e-3, 5e2), (2e-3, 5e2), [2e-3, 5e2])]
    for res in runs[1:]:
        for name in ("t", "y", "u", "x1", "x2", "x3"):
            assert np.array_equal(getattr(res, name), getattr(runs[0], name)), name
        assert (res.itse, res.isdco, res.diverged) == (runs[0].itse, runs[0].isdco,
                                                       runs[0].diverged)


KERNEL_TERMS = 10_000
# within 1e-12 of each integer the realization switches construction
NEAR_INTEGERS = tuple(g + dg for g in (-2.0, -1.0, 0.0, 1.0, 2.0) for dg in (-1e-12, 0.0, 1e-12)
                      if -2.0 <= g + dg <= 2.0)


@pytest.mark.parametrize("h", [0.01, 0.05])
def test_closed_form_kernels_match_matrix_path(h):
    """Operator kernels from poles and residues against the ZOH matrix
    exponential of the realization and its Markov recursion, to 10**4 terms:
    seeded exponents over [-2, 2], both signs of every edge order and the
    exponents next to each integer."""
    rng = np.random.default_rng(41)
    exponents = list(rng.uniform(-2.0, 2.0, 24))
    exponents += [sign * g for g in ORDER_EDGES for sign in (-1.0, 1.0)]
    exponents += NEAR_INTEGERS
    operators = operator_kernels(exponents, h, KERNEL_TERMS)
    for gamma, got in zip(exponents, operators(KERNEL_TERMS)):
        ref = operator_markov(gamma, h, KERNEL_TERMS)
        assert got.size == KERNEL_TERMS
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), gamma


# a dense grid of orders over (0, 2), with the pure integrator, the edge
# next to 2 and an order too small to move 1 - alpha off 1 (the identity)
PLANT_ORDERS = tuple(np.linspace(0.02, 1.98, 50)) + (1.0, 1.999, 1e-300)
PLANT_LAGS = tuple(np.logspace(-3.0, 3.0, 7))
# where the plant's poles crowd onto the poles or zeros of the filter: large
# lags, orders near 1 and 2
EDGE_ORDERS = (0.02, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 1.9, 1.999, 2.0 - 1e-5, 2.0 - 1e-8,
               2.0 - 1e-10)
EDGE_LAGS = (1e-8, 1e-6, 1e4, 1e6, 1e8, 1e12, 1e14, 1e100, 1e300)


@pytest.mark.parametrize("h", [0.001, 0.01, 0.1])
def test_modal_plant_kernel_matches_realization(h):
    """The plant's kernel from its modes against the ZOH matrix exponential
    of its realization and the plain Markov recursion, to 10**4 terms, over
    orders in (0, 2) and lags from 1e-3 to 1e3, and to 2,000 terms at the
    edges: lags from 1e-8 to 1e300 and orders within 1e-9 of 1 or 1e-10 of
    2.  No warning is raised.  At the identity edge the plant has no poles
    and a feedthrough K / (T + 1)."""
    for orders, lags, n in ((PLANT_ORDERS, PLANT_LAGS, KERNEL_TERMS),
                            (EDGE_ORDERS, EDGE_LAGS, 2000)):
        plants = [NioptdPlant(K=1.0, L=0.0, T=float(T), alpha=float(alpha))
                  for alpha in orders for T in lags]
        for plant, ref in zip(plants, plant_markov(plants, h, n)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _PlantAtRest.__wrapped__(plant, h, "oustaloup", DEFAULT_BAND, n).num
            assert got.size == n
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (plant.alpha,
                                                                               plant.T)
    for T in PLANT_LAGS:
        plant = NioptdPlant(K=3.0, L=0.0, T=float(T), alpha=1e-300)
        assert sim._plant_modes(plant, DEFAULT_BAND)[1].size == 0
        num = _PlantAtRest(plant, h, "oustaloup", DEFAULT_BAND, 300).num
        assert num[0] == pytest.approx(3.0 / (T + 1.0), rel=1e-15) and not num[1:].any()


@pytest.mark.parametrize("alpha, T", [(1.5, 1e-14), (1.9, 1e-10), (0.02, 1e-16),
                                      (2.0 - 1e-15, 2.0), (2.0 - 1e-12, 100.0)])
def test_unresolved_plant_modes_raise(alpha, T):
    """Where the plant's modes cannot be resolved (tiny lags, orders within
    about 1e-12 of 2), the Oustaloup path raises a ValueError that names T
    and alpha, without a warning, rather than return NaN or a wrong kernel;
    the GL path runs."""
    plant = NioptdPlant(K=1.0, L=0.0, T=T, alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"T = {T!r} and alpha = {alpha!r}"):
            sim.simulate_open_loop_step(plant, horizon=5.0, solver="oustaloup")
        assert not sim.simulate_open_loop_step(plant, horizon=5.0, solver="gl").diverged


def test_plant_step_at_a_huge_lag_matches_gl():
    """At alpha 1.5 and T = 1e13 the unit step barely moves the plant: both
    paths give about 8e-13 after 5 s (the eigenvalue poles alone give -17,
    so this needs the anchored poles)."""
    plant = NioptdPlant(K=1.0, L=0.0, T=1e13, alpha=1.5)
    got = sim.simulate_open_loop_step(plant, horizon=5.0, solver="oustaloup")
    gl = sim.simulate_open_loop_step(plant, horizon=5.0, solver="gl")
    assert not got.diverged and 0.0 < got.y[-1] < 1e-12
    assert got.y[-1] == pytest.approx(gl.y[-1], rel=0.05)


def test_huge_gain_scales_the_unit_plant_kernel():
    """K = 1e308 multiplies the unit-gain kernel after it is built: finite,
    no warning, and exactly K times the unit-gain kernel."""
    for alpha in (0.5, 1.0, 1.5):
        unit = NioptdPlant(K=1.0, L=0.0, T=2.0, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = _PlantAtRest(replace(unit, K=1e308), 0.01, "oustaloup", DEFAULT_BAND,
                                KERNEL_TERMS).num
        assert np.isfinite(huge).all()
        unit_num = _PlantAtRest(unit, 0.01, "oustaloup", DEFAULT_BAND, KERNEL_TERMS).num
        assert np.array_equal(huge, 1e308 * unit_num), alpha


GROWN_LENGTHS = (1, 2, 128, 129, 257, 513, 1024, 1000, 2049, 2050, 4097, 8192, KERNEL_TERMS)


def stage_lengths(n):
    """The lengths the engine grows a series of n terms through."""
    stages = [sim._next_stage(0, n)]
    while stages[-1] < n:
        stages.append(sim._next_stage(stages[-1], n))
    return stages


@pytest.mark.parametrize("n", [1000, 2500, KERNEL_TERMS])
@pytest.mark.parametrize("h", [0.01, 0.05])
def test_grown_kernels_equal_one_build(h, n):
    """A kernel of n terms grown through the stage lengths of n and other
    lengths up to n equals one built at the full length bit for bit, and its
    first terms never change as it grows."""
    rng = np.random.default_rng(43)
    lengths = sorted({m for m in GROWN_LENGTHS if m <= n} | set(stage_lengths(n)))
    for gamma in list(rng.uniform(-2.0, 2.0, 12)) + [-2.0, -1.0, 0.0, 1.0, 2.0]:
        [whole] = operator_kernels((gamma,), h, n)(n)
        grown = operator_kernels((gamma,), h, n)
        before = np.zeros(0)
        for m in lengths:
            [now] = grown(m)
            assert now.size == m
            common = min(m, before.size)
            assert np.array_equal(now[:common], before[:common]), (gamma, m)
            before = now.copy()
        assert np.array_equal(before, whole), gamma


# on the plant of osc_median, a loop that crosses at sample 787
EARLY_DIVERGING = FopidController(kp=16.0, ki=0.5, kd=0.0, lam=1.0, mu=0.5)


@pytest.fixture
def counted_kernels(monkeypatch):
    """Every kernel object built while the fixture is active, with the
    blocks of each chunk product it made in ``chunks``; both caches cleared
    before and after."""
    built = []

    class CountedKernels(_OperatorKernels):
        def __init__(self, *args):
            super().__init__(*args)
            self.chunks = []
            built.append(self)

        def _extend(self, blocks):
            self.chunks.append(blocks.tolist())
            super()._extend(blocks)

    monkeypatch.setattr(sim, "_OperatorKernels", CountedKernels)
    for cache in (sim._ControllerRuns, sim._PlantAtRest):
        cache.cache_clear()
    yield built
    for cache in (sim._ControllerRuns, sim._PlantAtRest):
        cache.cache_clear()


def test_kernels_grow_in_few_chunk_products(counted_kernels):
    """A cold plant entry builds its kernel in 3 chunk products at N = 2,500
    and 10**4, through block ceil((n - 1) / 128) - 1 and no further; a
    surviving evaluation at N = 10**4 builds its controller kernels in 3, a
    loop that diverges before sample 1,024 in 2."""
    for n in (2500, KERNEL_TERMS):
        _PlantAtRest(NioptdPlant(K=1.0, L=0.0, T=2.0, alpha=1.5), 0.01, "oustaloup",
                     DEFAULT_BAND, n)
        [plant] = counted_kernels
        assert len(plant.chunks) == 3, n
        blocks = sum(plant.chunks, [])
        assert blocks == list(range(-(-(n - 1) // sim.KERNEL_BLOCK))), n
        counted_kernels.clear()

    case = BY_NAME["osc_median"]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    objectives = evaluate_design_objectives(case.plant, vars, case.method)
    assert objectives != (sim.PENALTY_OBJECTIVE, sim.PENALTY_OBJECTIVE)
    assert Scenario().n_steps == KERNEL_TERMS
    # the plant entry was built above
    [operators] = counted_kernels
    assert len(operators.spans) == 2 and len(operators.chunks) == 3

    counted_kernels.clear()
    res = simulate_closed_loop(case.plant, EARLY_DIVERGING, Scenario())
    assert res.diverged and sim.DIRECT_TERMS < res.t.size <= 1024
    [operators] = counted_kernels
    assert len(operators.chunks) == 2


@pytest.mark.parametrize("n", [1, 2, 129, 1000])
def test_kernels_refuse_terms_past_their_length(n):
    """A request past the n terms given at construction raises ValueError,
    before and after the kernels reached n, and builds nothing."""
    kernels = operator_kernels((-0.5, 0.7), 0.01, n)
    with pytest.raises(ValueError):
        kernels(n + 1)
    assert kernels.terms[0].size == 1
    assert [k.size for k in kernels(n)] == [n, n]
    with pytest.raises(ValueError):
        kernels(n + 1)


@pytest.mark.parametrize("h", [0.01, 0.05])
def test_shared_kernel_pass_equals_per_exponent_builds(h):
    """The kernels of one shared pass over both operators equal those built
    one exponent at a time bit for bit, at every length they grow through:
    seeded (-lam, mu) pairs of the design box and every pair of the orders
    0, 1 and 2 (2 is a cube of three powers, next to operators of fewer)."""
    rng = np.random.default_rng(61)
    lo, hi = np.array(DESIGN_BOUNDS[4:]).T
    pairs = [tuple(rng.uniform(lo, hi)) for _ in range(12)]
    pairs += list(itertools.product((0.0, 1.0, 2.0), repeat=2))
    for lam, mu in pairs:
        shared = operator_kernels((-lam, mu), h, KERNEL_TERMS)
        alone = [operator_kernels((g,), h, KERNEL_TERMS) for g in (-lam, mu)]
        for m in GROWN_LENGTHS:
            got = shared(m)
            assert len(got) == 2
            for kernel, single in zip(got, alone):
                assert np.array_equal(kernel, single(m)[0]), (lam, mu, m)


def gl_denominator(alpha, T, h, n):
    den = T * h ** -alpha * sim.gl_coefficients(alpha, n)
    den[0] += 1.0
    return den


@pytest.mark.parametrize("n", [1, 5, 128])
def test_first_block_equals_toeplitz_solve(n):
    """The direct dtrtrs solve equals scipy's triangular solve on the
    Toeplitz matrix bit for bit: F[0] = 1 (the Oustaloup loop), F[0] != 1
    (the GL denominator), and q as long as F, shorter, or one term."""
    rng = np.random.default_rng(67)
    unit = rng.normal(size=n)
    unit[0] = 1.0
    for F in (unit, gl_denominator(0.5, 2.0, 0.05, n), gl_denominator(1.5, 2.0, 0.01, n)):
        for q in (rng.normal(size=n), rng.normal(size=max(n // 2, 1)), np.ones(1),
                  rng.normal(size=n + 3)):
            assert np.array_equal(sim._first_block(F, q), first_block_toeplitz(F, q)), (n, q.size)


def test_first_block_raises_where_lapack_reports_failure(monkeypatch):
    """A singular Toeplitz matrix (F[0] = 0), or any dtrtrs that reports
    info > 0, raises instead of returning the solver's output."""
    singular = np.zeros(5)
    singular[1] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        sim._first_block(singular, np.ones(1))
    solve = sim.dtrtrs
    monkeypatch.setattr(sim, "dtrtrs", lambda *args, **kwargs: (solve(*args, **kwargs)[0], 2))
    with pytest.raises(np.linalg.LinAlgError):
        sim._first_block(np.ones(5), np.ones(1))


def test_evaluation_reaches_lapack_directly():
    """One Oustaloup-path evaluation calls neither scipy.linalg.schur nor
    solve_triangular nor toeplitz, and builds one kernel object for the
    plant and one for both controller operators."""
    case = BY_NAME["osc_median"]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    wrappers = {"schur", "solve_triangular", "toeplitz"}
    calls = []

    def spy(frame, event, arg):
        code = frame.f_code
        if event == "call" and code is _OperatorKernels.__init__.__code__:
            calls.append(f"kernels of {len(frame.f_locals['modes'])}")
        elif event == "call" and code.co_name in wrappers and "scipy" in code.co_filename:
            calls.append(code.co_name)

    def spied(run):
        calls.clear()
        sys.setprofile(spy)
        try:
            return run()
        finally:
            sys.setprofile(None)

    # the spy does see the replaced constructions
    prob = CareProblem(A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]], Q=np.eye(2), R=[[1.0]])
    spied(lambda: (care_schur_scipy(prob), first_block_toeplitz(np.ones(3), np.ones(1))))
    assert sorted(calls) == ["schur", "solve_triangular", "toeplitz"]

    for cache in (sim._ControllerRuns, sim._PlantAtRest):
        cache.cache_clear()
    objectives = spied(lambda: evaluate_design_objectives(case.plant, vars, case.method))
    assert calls == ["kernels of 1", "kernels of 2"]
    assert objectives != (sim.PENALTY_OBJECTIVE, sim.PENALTY_OBJECTIVE)


def test_design_evaluations_build_no_matrix_exponential(monkeypatch):
    """Evaluating designs on the Oustaloup path realizes and exponentiates
    nothing, the first evaluation, which samples the plant, included."""
    plant = NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=0.5)
    scenario = Scenario(horizon=50.0, step_size=0.05)
    rng = np.random.default_rng(47)
    lo, hi = np.array(DESIGN_BOUNDS).T
    designs = [(rng.uniform(lo, hi), (DelayMethod.CAI, DelayMethod.HE)[int(rng.integers(2))])
               for _ in range(50)]
    sim._PlantAtRest.cache_clear()
    calls = {"expm": 0, "differintegrator_ss": 0}
    for name in calls:
        original = getattr(sim, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sim, name, counted)
    results = [evaluate_design_objectives(plant, x, method, scenario) for x, method in designs]
    assert calls == {"expm": 0, "differintegrator_ss": 0}
    # the seeded batch does reach the simulation, not only the penalties
    # of the gain map
    assert any(r != (sim.PENALTY_OBJECTIVE, sim.PENALTY_OBJECTIVE) for r in results)


def reference_loop(name):
    case = BY_NAME[name]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    return case.plant, design_from_vars(case.plant, vars, case.method)


def eager_states(res, plant, controller, scenario, solver):
    """x1 and x3 as simulate_closed_loop formed them before it deferred
    them: one product of e with both operator kernels, zero at a crossing."""
    h, n = scenario.step_size, res.t.size
    # a fresh entry, not the cached one the run used
    runs = sim._ControllerRuns.__wrapped__(controller, h, solver, DEFAULT_BAND, scenario.n_steps)
    x1, x3 = sim._series_mul(res.x2, np.array(runs.grown(n)[1]), 0, n)
    if res.diverged:
        x1[-1] = x3[-1] = 0.0
    return x1, x3


# a loop that crosses the divergence bound after a few thousand samples
DIVERGING = (OSCILLATORY_PLANT, FopidController(kp=8.0, ki=0.5, kd=0.0, lam=1.0, mu=0.5))


@pytest.mark.parametrize("solver", ["oustaloup", "gl"])
@pytest.mark.parametrize("scenario", [Scenario(), DISTURBED], ids=["step", "disturbed"])
@pytest.mark.parametrize("name", sorted(BY_NAME) + ["diverging"])
def test_states_on_first_read_equal_eager(name, scenario, solver):
    """x1 and x3 read after the run equal the eager product bit for bit,
    and u = H e equals kp e + ki x1 + kd x3 within 1e-12 of its scale."""
    plant, controller = DIVERGING if name == "diverging" else reference_loop(name)
    res = simulate_closed_loop(plant, controller, scenario, solver=solver)
    assert res.diverged == (name == "diverging")
    x1, x3 = eager_states(res, plant, controller, scenario, solver)
    assert np.array_equal(res.x1, x1) and np.array_equal(res.x3, x3)
    assert res.x1 is res.x1
    want = controller.kp * res.x2 + controller.ki * x1 + controller.kd * x3
    assert np.max(np.abs(res.u - want)) <= 1e-12 * np.max(np.abs(want))
    if res.diverged:
        # the crossing sample keeps its output; e, u, x1 and x3 are 0 there
        assert abs(res.y[-1]) > sim.DIVERGENCE_FACTOR
        assert res.x2[-1] == res.u[-1] == res.x1[-1] == res.x3[-1] == 0.0


def test_diverged_run_reads_u_first():
    """u of a diverged run, read before x1 and x3, is the one formed from them."""
    res = simulate_closed_loop(*DIVERGING, Scenario(horizon=40.0))
    assert res.diverged
    u = res.u
    assert np.array_equal(u, DIVERGING[1].kp * res.x2 + DIVERGING[1].ki * res.x1
                          + DIVERGING[1].kd * res.x3)
    assert u[-1] == 0.0


def test_objective_forms_no_controller_states(monkeypatch):
    """One objective evaluation, on a survivor and on a diverging design,
    makes no product with an operator kernel: x1 and x3 are never formed."""
    scenario = Scenario()
    case = BY_NAME["osc_median"]
    survivor = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                             lam=case.lam, mu=case.mu)
    rng = np.random.default_rng(53)
    lo, hi = np.array(DESIGN_BOUNDS).T
    designs = [(survivor, case.method)] + [
        (LqrDesignVars.from_array(rng.uniform(lo, hi)), DelayMethod.HE) for _ in range(40)]
    results, products = [], []
    simulate, multiply = sim.simulate_closed_loop, sim._series_mul

    def kept(*args, **kwargs):
        results.append(simulate(*args, **kwargs))
        return results[-1]

    def spied(a, b, lo, hi):
        products.append((a, b))
        return multiply(a, b, lo, hi)

    monkeypatch.setattr(sim, "simulate_closed_loop", kept)
    monkeypatch.setattr(sim, "_series_mul", spied)

    def kernel_products(controller):
        """The products one of whose factors holds a prefix of more than one
        term of an operator kernel, in a row of its own."""
        kernels = sim._ControllerRuns(controller, scenario.step_size, "oustaloup", DEFAULT_BAND,
                                      scenario.n_steps).operators.terms
        return sum(any(row.size > 1 and np.array_equal(row, k[:row.size])
                       for f in factors for row in np.atleast_2d(f) for k in kernels)
                   for factors in products)

    seen = set()
    for vars, method in designs:
        products.clear()
        results.clear()
        objectives = evaluate_design_objectives(case.plant, vars, method, scenario)
        if not results or results[0].diverged in seen:
            continue
        res, controller = results[0], design_from_vars(case.plant, vars, method)
        seen.add(res.diverged)
        assert (objectives[0] == sim.PENALTY_OBJECTIVE) == res.diverged
        assert kernel_products(controller) == 0
        # the spy does see the product once x1 is read
        res.x1
        assert kernel_products(controller) == 1
    assert seen == {False, True}


def test_zero_integral_order_uses_final_control():
    """With lam = 0 the control deviation is taken from u[-1] = (H e)[-1]: the
    indices agree within 1e-9 with those of kp e + ki x1 + kd x3, the
    control the engine formed before, and with the per-sample loop."""
    case = BY_NAME["osc_median"]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r, lam=0.0, mu=case.mu)
    controller = design_from_vars(case.plant, vars, case.method)
    scenario = Scenario(horizon=40.0)
    res, ref = closed_loop_pair(case.plant, controller, scenario, "oustaloup")
    assert not res.diverged
    assert_agree(res, ref)
    before = controller.kp * res.x2 + controller.ki * res.x1 + controller.kd * res.x3
    itse, isdco = sim.performance_indices(res.x2, before, float(before[-1]),
                                          scenario.step_size)
    assert res.itse == pytest.approx(itse, rel=1e-9, abs=0)
    assert res.isdco == pytest.approx(isdco, rel=1e-9, abs=0)


def test_survivor_transform_count(monkeypatch):
    """A surviving loop at N = 10**4, its plant's kernel cached and its
    controller new to the controller cache as in a search, makes at most 38
    FFTs, at most 4 of them at the largest size, 2 N rounded up to a fast
    length."""
    plant, controller = reference_loop("osc_median")
    scenario = Scenario()
    simulate_closed_loop(plant, controller, scenario)
    sim._ControllerRuns.cache_clear()
    records = count_transforms(monkeypatch)
    res = simulate_closed_loop(plant, controller, scenario)
    res.itse, res.isdco
    sizes = [r.size for r in records]
    largest = sim._fft_size(2 * scenario.n_steps - 1)
    assert not res.diverged and max(sizes) == largest
    assert len(sizes) <= 38
    assert sizes.count(largest) <= 4


# what a sweep shares: H's transform, and num H and the plant's transform
# per lag
SHARED_PRODUCTS = frozenset({"H_spectrum", "num_H", "spectrum"})


def test_disturbed_sweep_transform_count(monkeypatch):
    """A disturbed 5x5 sweep at N = 2,500 (disturbance at sample 1,650),
    one stack of five loops per lag, transforms at most 27 series per cell
    plus 2 per lag besides the shared products: the disturbance term is
    transformed once per product for the whole stack.  The shared products
    are one H transform at the largest size for the whole sweep and at most
    five transforms per lag for num H and the plant.  No block that ends at
    or before the disturbance multiplies the right-hand side by FFT."""
    plant, controller = reference_loop("osc_median")
    scenario = Scenario(horizon=25.0, disturbance_time=16.5, disturbance_magnitude=0.2)
    w_start = sim._first_sample_at(scenario.n_steps, scenario.step_size, 16.5)
    grid = np.array([0.8, 0.9, 1.0, 1.1, 1.2])
    for cache in (sim._ControllerRuns, sim._PlantAtRest):
        cache.cache_clear()
    records = count_transforms(monkeypatch)
    sweep = sim.robustness_sweep(plant, controller, plant.L * grid, plant.T * grid, scenario)
    cells, lags = sweep.itse.size, grid.size
    assert w_start == 1650 and not sweep.diverged.any()
    own = [r for r in records if r.caller not in SHARED_PRODUCTS]
    assert len(own) <= 27 * cells + 2 * lags
    largest = sim._fft_size(2 * scenario.n_steps - 1)
    assert [r.size for r in records if r.caller == "H_spectrum"] == [largest]
    assert len(records) - len(own) <= 1 + 5 * lags
    rhs = [r.block for r in records if r.caller in ("_error_series", "_split_terms")]
    assert rhs and all(t > w_start for _, t in rhs)


@pytest.mark.parametrize("name", sorted(BY_NAME) + ["zero_delay"])
def test_closed_loop_matrix_oracle(name):
    """The step response of the closed-loop matrix Phi equals the engine's
    output within 1e-9, and every reference design has rho(Phi) < 1 (by
    only about 2e-5: the Oustaloup band starts at 1e-3 rad/s)."""
    if name == "zero_delay":
        plant = NioptdPlant(K=1, L=0.0, T=2, alpha=1.5)
        controller = design_from_vars(plant, LqrDesignVars(
            q1=0.6, q2=0.03, q3=0.06, r=0.35, lam=1.1, mu=0.45), DelayMethod.DELAY_FREE)
        scenario = Scenario(horizon=20.0)
    else:
        plant, controller = reference_loop(name)
        scenario = Scenario()
    res = simulate_closed_loop(plant, controller, scenario)
    Phi, gamma, c = closed_loop_matrix(plant, controller, scenario.step_size)
    X, y = np.zeros(gamma.size), np.empty(scenario.n_steps)
    for k in range(y.size):
        y[k] = c @ X
        X = Phi @ X + gamma * scenario.setpoint
    assert not res.diverged
    assert np.max(np.abs(res.y - y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
    if name != "zero_delay":
        assert spectral_radius(Phi) < 1.0
