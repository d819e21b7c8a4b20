"""The power-series engine of ``lqrfopid.sim`` against the per-sample loops
it replaced (``oracles.*_loop``): the same divergence verdicts and
truncation lengths, outputs within 1e-9 of the output scale, and indices
within 1e-9 relative.  The Oustaloup kernels against the single fused
matrix exponential they replaced, and the closed-form kernels of the
operators and of the plant against the matrix exponential of each block's
realization.  The
direct LAPACK first block against scipy's triangular Toeplitz solve it
replaced, bit for bit.  The objective's verdict at the first sample a
delayed loop responds to against the engine's run, bit for bit."""
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
from lqrfopid.fracnum import differintegrator_modes, oustaloup_approximation
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
from reference_cases import BY_NAME, OSCILLATORY_PLANT, SLUGGISH_PLANT
from transforms import count_transforms

REFERENCE_LOOPS = {"oustaloup": closed_loop_oustaloup_loop, "gl": closed_loop_gl_loop}
DISTURBED = Scenario(disturbance_time=40.0, disturbance_magnitude=0.1)
# e is zero up to the disturbance, so the loop denominator never reaches N
# terms and u = H e takes the product without a transform at hand
AT_REST = Scenario(setpoint=0.0, disturbance_time=40.0, disturbance_magnitude=0.1)


def operator_kernel(gamma, h, n):
    """The closed-form kernel object of the operator s**gamma to n terms."""
    return _OperatorKernels(differintegrator_modes(gamma, DEFAULT_BAND), h, n)


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
            num, den = at_rest.num.terms, at_rest.den
            ops = [operator_kernel(g, h, n)(n) for g in (-lam, mu)]
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
    for gamma in exponents:
        got = operator_kernel(gamma, h, KERNEL_TERMS)(KERNEL_TERMS)
        ref = operator_markov(gamma, h, KERNEL_TERMS)
        assert got.size == KERNEL_TERMS
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), gamma


# a dense grid of orders over (0, 2), with the pure integrator and the edge
# next to 2
PLANT_ORDERS = tuple(np.linspace(0.02, 1.98, 50)) + (1.0, 1.999)
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
    2.  No warning is raised."""
    for orders, lags, n in ((PLANT_ORDERS, PLANT_LAGS, KERNEL_TERMS),
                            (EDGE_ORDERS, EDGE_LAGS, 2000)):
        plants = [NioptdPlant(K=1.0, L=0.0, T=float(T), alpha=float(alpha))
                  for alpha in orders for T in lags]
        for plant, ref in zip(plants, plant_markov(plants, h, n)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _PlantAtRest.__wrapped__(plant, h, "oustaloup", DEFAULT_BAND, n).num.terms
            assert got.size == n
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (plant.alpha,
                                                                               plant.T)


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


# the plants of the benchmark's sweep-verify grid: both orders at T = 2 x
# (0.8 .. 1.2)
BENCH_PLANTS = tuple((alpha, 2.0 * g) for alpha in (0.5, 1.5) for g in (0.8, 0.9, 1.0, 1.1, 1.2))


def test_plant_poles_survive_a_product_form_newton_step():
    """On the benchmark plants and the edge grid, against the product form
    F = gain prod(s - zeros) / (s prod(s - poles)) of the filter: one more
    Newton step on T + F moves no pole by more than 1e-10 of its distance
    to the nearest pole or zero of F, and each residue is within 1e-11 of
    the largest of 1 / (F'/F) there.  On the edge grid that holds only for
    poles resolved in double precision, at least 1e-5 of their magnitude
    from that pole or zero (a rounding of the pole then moves both figures
    by at most 2.2e-11 of that distance); the rest are where the kernel
    test above carries them."""
    checked = 0
    for alpha, T in BENCH_PLANTS + tuple(itertools.product(EDGE_ORDERS, EDGE_LAGS)):
        _, poles, residues = sim._plant_modes(NioptdPlant(K=1.0, L=0.0, T=T, alpha=alpha),
                                              DEFAULT_BAND)
        filt = oustaloup_approximation(1.0 - alpha, DEFAULT_BAND)
        m = filt.poles.size + 1  # F's poles: 0 and the filter's
        with np.errstate(all="ignore"):
            gaps = poles[:, None] - np.concatenate([[0.0], filt.poles, filt.zeros])
            distance = np.abs(gaps).min(axis=1)
            log_slope = np.sum(1.0 / gaps[:, m:], axis=1) - np.sum(1.0 / gaps[:, :m], axis=1)
            F = filt.gain * np.prod(gaps[:, m:], axis=1) / np.prod(gaps[:, :m], axis=1)
            step = (T + F) / (F * log_slope)
        resolved = distance >= 1e-5 * np.abs(poles)
        if (alpha, T) in BENCH_PLANTS:
            assert resolved.all(), (alpha, T)
        assert np.all(np.abs(step[resolved]) <= 1e-10 * distance[resolved]), (alpha, T)
        assert np.all(np.abs(residues[resolved, 0] - 1.0 / log_slope[resolved])
                      <= 1e-11 * np.max(np.abs(residues))), (alpha, T)
        checked += resolved.sum()
    assert checked >= 250


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
                                KERNEL_TERMS).num.terms
        assert np.isfinite(huge).all()
        unit_num = _PlantAtRest(unit, 0.01, "oustaloup", DEFAULT_BAND, KERNEL_TERMS).num.terms
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
        whole = operator_kernel(gamma, h, n)(n)
        grown = operator_kernel(gamma, h, n)
        before = np.zeros(0)
        for m in lengths:
            now = grown(m)
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
    blocks of each chunk product it made in ``chunks``; the plant cache
    cleared before and after."""
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
    sim._PlantAtRest.cache_clear()
    yield built
    sim._PlantAtRest.cache_clear()


def test_kernels_grow_in_few_chunk_products(counted_kernels):
    """A cold plant entry builds its kernel in 3 chunk products at N = 2,500
    and 10**4, through block ceil((n - 1) / 128) - 1 and no further; a
    surviving evaluation at N = 10**4 builds each of its two operator
    kernels in 3, a loop that diverges before sample 1,024 in 2."""
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
    assert [len(kernel.chunks) for kernel in counted_kernels] == [3, 3]

    counted_kernels.clear()
    res = simulate_closed_loop(case.plant, EARLY_DIVERGING, Scenario())
    assert res.diverged and sim.DIRECT_TERMS < res.t.size <= 1024
    assert [len(kernel.chunks) for kernel in counted_kernels] == [2, 2]


@pytest.mark.parametrize("n", [1, 2, 129, 1000])
def test_kernels_refuse_terms_past_their_length(n):
    """A request past the n terms given at construction raises ValueError,
    before and after the kernel reached n, and builds nothing."""
    for gamma in (-0.5, 0.7):
        kernel = operator_kernel(gamma, 0.01, n)
        with pytest.raises(ValueError):
            kernel(n + 1)
        assert kernel.terms.size == 1
        assert kernel(n).size == n
        with pytest.raises(ValueError):
            kernel(n + 1)


# the branches of fracnum._factors: the identity, an order too small to move
# 1 off 1 (also the identity), an exact integrator or derivative, and the
# cube of three powers
FACTOR_EDGES = (0.0, 1e-17, 1.0, 2.0)


def early_verdicts(monkeypatch):
    """Spy on the early verdict of evaluate_design_objectives: a list that
    gets (sample, plant, controller, scenario) of every verdict that
    decides, the sample d + 1 or 2 (d + 1) that decided it."""
    fired, decide = [], sim._early_verdict

    def spied(plant, controller, scenario):
        crossed = decide(plant, controller, scenario)
        if crossed is not None:
            fired.append((crossed, plant, controller, scenario))
        return crossed

    monkeypatch.setattr(sim, "_early_verdict", spied)
    return fired


def at_first_sample(fired):
    """The (plant, controller, scenario) of the verdicts of ``fired`` that
    decided at sample d + 1."""
    return [(p, c, s) for k, p, c, s in fired if k == int(round(p.L / s.step_size)) + 1]


def engine_objectives(monkeypatch, calls):
    """evaluate_design_objectives of each (plant, x, method, scenario) with
    the early verdict switched off: every design with a gain map is
    simulated."""
    with monkeypatch.context() as m:
        m.setattr(sim, "_early_verdict", lambda *args: None)
        return [evaluate_design_objectives(*call) for call in calls]


def assert_crosses_at_first_sample(plant, controller, scenario):
    """The engine's run diverges at sample d + 1, the first the delayed loop
    responds to: its trajectories end there."""
    res = simulate_closed_loop(plant, controller, scenario)
    d = int(round(plant.L / scenario.step_size))
    assert res.diverged and res.y.size == d + 2, (res.diverged, res.y.size, d)


STEP = Scenario(horizon=5.0, step_size=0.05)  # d = 10 on the reference plants, N = 100
BOTH = ("slug", "osc")
# (name, plant change, scenario, the plants where some seeded design fires)
FIRST_SAMPLE_CASES = (
    ("step", {}, STEP, BOTH),
    ("setpoint-2.5", {}, replace(STEP, setpoint=2.5), BOTH),
    ("negative-setpoint", {}, replace(STEP, setpoint=-0.7), BOTH),
    ("no-delay", {"L": 0.0}, STEP, BOTH),
    ("disturbed-after-d+1", {},
     replace(STEP, disturbance_time=0.6, disturbance_magnitude=0.2), BOTH),
    ("d+1=N-1", {}, replace(STEP, horizon=0.6), BOTH),
    # d + 1 = 251 lies past the first block, on the engine's FFT path; the
    # oscillatory plant's num[1] is too small there for any seeded design
    ("fine-step", {}, Scenario(horizon=1.0, step_size=0.002), ("slug",)),
    ("disturbed-before-d+1", {},
     replace(STEP, disturbance_time=0.3, disturbance_magnitude=0.2), ()),
    ("disturbed-at-d+1", {},
     replace(STEP, disturbance_time=0.55, disturbance_magnitude=0.2), ()),
    ("d+1=N", {}, replace(STEP, horizon=0.55), ()),
    ("zero-setpoint", {},
     replace(STEP, setpoint=0.0, disturbance_time=1.0, disturbance_magnitude=0.2), ()),
)


@pytest.mark.parametrize("kind, plant", [("slug", SLUGGISH_PLANT), ("osc", OSCILLATORY_PLANT)],
                         ids=["slug", "osc"])
@pytest.mark.parametrize("name, change, scenario, fires_on", FIRST_SAMPLE_CASES,
                         ids=[case[0] for case in FIRST_SAMPLE_CASES])
def test_first_sample_verdict_is_exact(kind, plant, name, change, scenario, fires_on,
                                       monkeypatch):
    """The objective decided at the first sample the delayed loop responds
    to equals the engine's to the bit, and every design it decides there
    diverges at exactly sample d + 1 in simulate_closed_loop: seeded
    designs of DESIGN_BOUNDS, both methods, on both reference plants.  It
    never fires where the set-point is zero, a disturbance starts at or
    before d + 1 or d + 1 >= N."""
    plant = replace(plant, **change)
    rng = np.random.default_rng(83)
    lo, hi = np.array(DESIGN_BOUNDS).T
    calls = [(plant, rng.uniform(lo, hi), method, scenario)
             for _ in range(12) for method in (DelayMethod.CAI, DelayMethod.HE)]
    fired = early_verdicts(monkeypatch)
    got = [evaluate_design_objectives(*call) for call in calls]
    assert [[v.hex() for v in pair] for pair in got] == \
        [[v.hex() for v in pair] for pair in engine_objectives(monkeypatch, calls)]
    first = at_first_sample(fired)
    for run in first:
        assert_crosses_at_first_sample(*run)
    assert bool(first) == (kind in fires_on), len(first)


# (set-point r, sign of r num[1] H[0]); at the first two, a closed form one
# ulp past the bound lands at or below it in the engine's sample d + 1,
# r - (r - r num[1] H[0])
NEAR_BOUND = ((1.0238823161256478, -1.0), (1.0231124593629823, -1.0), (1.0, 1.0),
              (1.0, -1.0), (0.3, 1.0), (-0.7, 1.0), (2.5, -1.0))


def test_first_sample_verdict_at_the_bound(monkeypatch):
    """Controllers built so that r num[1] H[0] lies within a few ulps of the
    divergence bound, on either side, are left to the engine: the verdict
    needs its margin, since some samples one ulp past the bound in closed
    form are not past it in the engine.  Past the margin it fires, and the
    engine crosses at d + 1.  Every objective equals the engine's to the
    bit."""
    plant = SLUGGISH_PLANT
    x = np.array([1.0, 1.0, 1.0, 1.0, 0.9, 0.5])
    misjudged, calls, controllers = 0, [], []
    for r, sign in NEAR_BOUND:
        scenario = replace(STEP, setpoint=r)
        num = _PlantAtRest(replace(plant, L=0.0), scenario.step_size, "oustaloup", DEFAULT_BAND,
                           scenario.n_steps).num.terms
        bound = sim._divergence_bound(r)
        # kd = 0 and an integral order on the integrator branch: H[0] = kp
        kp = sign * bound / (r * float(num[1]))
        kps = [kp * (1.0 + 1e-8)]
        for step in (np.inf, -np.inf):
            k = kp
            for _ in range(6):
                k = float(np.nextafter(k, step))
                kps.append(k)
        for kp in kps:
            controller = FopidController(kp=kp, ki=0.5, kd=0.0, lam=0.9, mu=0.5)
            sample = r * (float(num[1]) * kp)
            near = abs(abs(sample) / bound - 1.0) < 1e-12
            d = int(round(plant.L / scenario.step_size))
            assert (sim._early_verdict(plant, controller, scenario) == d + 1) != near
            res = simulate_closed_loop(plant, controller, scenario)
            at_first = res.diverged and res.y.size == int(round(plant.L / scenario.step_size)) + 2
            misjudged += abs(sample) > bound and not at_first
            calls.append((plant, x, DelayMethod.CAI, scenario))
            controllers.append(controller)
    assert misjudged
    gains = iter(controllers * 2)
    monkeypatch.setattr(sim, "design_from_vars", lambda *args: next(gains))
    fired = early_verdicts(monkeypatch)
    got = [evaluate_design_objectives(*call) for call in calls]
    assert [[v.hex() for v in pair] for pair in got] == \
        [[v.hex() for v in pair] for pair in engine_objectives(monkeypatch, calls)]
    first = at_first_sample(fired)
    assert len(first) == len(NEAR_BOUND)
    for run in first:
        assert_crosses_at_first_sample(*run)


def seeded_controllers(plant, count, seed):
    """The controllers of ``count`` seeded designs of DESIGN_BOUNDS per
    delay method, those with a gain map."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(DESIGN_BOUNDS).T
    controllers = []
    for _ in range(count):
        x = rng.uniform(lo, hi)
        for method in (DelayMethod.CAI, DelayMethod.HE):
            try:
                controllers.append(design_from_vars(plant, LqrDesignVars.from_array(x), method))
            except (CareFailure, ValueError):
                pass
    return controllers


def engine_second_sample(plant, controller, scenario):
    """The engine's output at sample 2 (d + 1) and the closed form
    r (S[d + 2] - nH[1]**2) from the engine's own num and H, nH = num H and
    S its prefix sums, with the scale of their terms, |r| (sum (|num|
    |H|)[:d + 3] + nH[1]**2): the loop run with no divergence bound, so a
    crossing does not cut it short."""
    h, n, r = scenario.step_size, scenario.n_steps, scenario.setpoint
    d = int(round(plant.L / h))
    at_rest = _PlantAtRest(replace(plant, L=0.0), h, "oustaloup", DEFAULT_BAND, n)
    runs = sim._ControllerRuns(controller, h, "oustaloup", DEFAULT_BAND, n)
    [(y, k)] = sim._loop_output(at_rest, [d], runs, r, n, 0.0, np.inf, n)
    num, H = at_rest.num.terms[:d + 3], runs.grown(d + 3).terms[:d + 3]
    nH = np.convolve(num, H)[:d + 3]
    closed = r * (nH.cumsum()[d + 2] - nH[1] ** 2)
    scale = abs(r) * (np.convolve(np.abs(num), np.abs(H))[:d + 3].sum() + nH[1] ** 2)
    return y[2 * (d + 1)], closed, scale


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("h", [0.002, 0.01, 0.05])
@pytest.mark.parametrize("ratio", [0.0, 0.25, 1.0, 4.0])
def test_second_response_identity(alpha, h, ratio):
    """With den = 1, num[0] = 0 and no disturbance, the engine's output at
    sample 2 (d + 1) equals r (S[d + 2] - nH[1]**2) within 1e-12 of the
    scale of its terms, past KERNEL_BLOCK too (d up to 4,000 at
    h = 0.002): the early verdict's margin of 1e-6 on its bound of that
    closed form leaves six orders to spare.  Seeded designs of
    DESIGN_BOUNDS, both methods, at L / T of 0 (d = 0) to 4."""
    plant = NioptdPlant(K=1.0, L=ratio * 2.0, T=2.0, alpha=alpha)
    d = int(round(plant.L / h))
    n = 2 * d + 3
    scenario = Scenario(horizon=n * h, step_size=h)
    assert scenario.n_steps == n
    checked = 0
    for controller in seeded_controllers(plant, 4, 89):
        engine, closed, scale = engine_second_sample(plant, controller, scenario)
        if not np.isfinite(engine):
            continue
        assert abs(engine - closed) <= 1e-12 * scale, (engine, closed, scale)
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("h", [0.002, 0.01, 0.05])
def test_order_variation_bounds_the_kernels(h):
    """The integral bound of :func:`fracnum._order_variation` holds every
    prefix sum of |K[l]|, l > 0, of the kernels: seeded orders of [-2, 2]
    and the edges of the operator split."""
    rng = np.random.default_rng(97)
    orders = list(rng.uniform(-2.0, 2.0, 24)) + [g * s for g in FACTOR_EDGES for s in (1, -1)]
    for g in orders:
        kernel = operator_kernel(g, h, 400)(400)
        for m in (1, 11, 102, 399):
            bound = sim._order_variation(g, DEFAULT_BAND, m * h)
            assert np.abs(kernel[1:m + 1]).sum() <= bound * (1.0 + 1e-12), (g, m)


# (plant, scenario) where seeded designs diverge at 2 (d + 1) = 22, 102
SECOND_RESPONSE_CASES = {
    "slug-step": (SLUGGISH_PLANT, STEP),
    "slug-setpoint-2.5": (SLUGGISH_PLANT, replace(STEP, setpoint=2.5)),
    "slug-negative-setpoint": (SLUGGISH_PLANT, replace(STEP, setpoint=-0.7)),
    "slug-disturbed-after": (SLUGGISH_PLANT,
                             replace(STEP, disturbance_time=1.15, disturbance_magnitude=0.2)),
    "osc-fine": (OSCILLATORY_PLANT, Scenario(horizon=2.0, step_size=0.01)),
}


def verdict_kind(plant, controller, scenario):
    """What the early verdict made of a run: ``first`` or ``second`` where
    it decided at sample d + 1 or 2 (d + 1), None where it left the run to
    the engine."""
    crossed = sim._early_verdict(plant, controller, scenario)
    d = int(round(plant.L / scenario.step_size))
    return {None: None, d + 1: "first", 2 * (d + 1): "second"}[crossed]


@pytest.mark.parametrize("name", list(SECOND_RESPONSE_CASES))
def test_second_response_verdict_is_sound(name, monkeypatch):
    """Every design the early verdict decides at sample 2 (d + 1) diverges
    in simulate_closed_loop at or before that sample, and every objective
    equals the engine-only one to the bit: seeded designs of DESIGN_BOUNDS,
    both methods.  It fires on the sluggish plant; on the oscillatory one
    the variation bound of the kernels decides none, and the designs that
    cross by 2 (d + 1) are left to the engine."""
    plant, scenario = SECOND_RESPONSE_CASES[name]
    d = int(round(plant.L / scenario.step_size))
    rng = np.random.default_rng(101)
    lo, hi = np.array(DESIGN_BOUNDS).T
    calls = [(plant, rng.uniform(lo, hi), method, scenario)
             for _ in range(30) for method in (DelayMethod.CAI, DelayMethod.HE)]
    kinds = []
    for _, x, method, _ in calls:
        try:
            controller = design_from_vars(plant, LqrDesignVars.from_array(x), method)
        except (CareFailure, ValueError):
            continue
        kinds.append(verdict_kind(plant, controller, scenario))
    fired = early_verdicts(monkeypatch)
    got = [evaluate_design_objectives(*call) for call in calls]
    assert [[v.hex() for v in pair] for pair in got] == \
        [[v.hex() for v in pair] for pair in engine_objectives(monkeypatch, calls)]
    second = [run for k, *run in fired if k == 2 * (d + 1)]
    assert len(second) == kinds.count("second")
    for run in second:
        res = simulate_closed_loop(*run)
        assert res.diverged and res.y.size <= 2 * (d + 1) + 1, (res.diverged, res.y.size)
    assert bool(second) == name.startswith("slug")


def near_margin_kp(plant, controller, scenario, share):
    """The kp at which the feedthrough part of sample 2 (d + 1), less the
    variation bound of the kernel terms, passes the divergence bound by
    ``share`` times the verdict's margin, _SECOND_RESPONSE_MARGIN times the
    magnitude of its terms, by bisection on the branch where it grows with
    kp."""
    h, n, r = scenario.step_size, scenario.n_steps, scenario.setpoint
    d = int(round(plant.L / h))
    at_rest = _PlantAtRest(replace(plant, L=0.0), h, "oustaloup", DEFAULT_BAND, n)
    c = controller
    rest = c.ki * sim._order_feedthrough(-c.lam, DEFAULT_BAND) + c.kd * sim._order_feedthrough(
        c.mu, DEFAULT_BAND)
    bound, sums = sim._divergence_bound(r), np.cumsum(at_rest.num.terms[:d + 3])
    spread = np.abs(sums).max() * (
        abs(c.ki) * sim._order_variation(-c.lam, DEFAULT_BAND, (d + 1) * h)
        + abs(c.kd) * sim._order_variation(c.mu, DEFAULT_BAND, (d + 1) * h))

    def excess(kp):
        H0 = rest + kp
        first, fed = at_rest.num.terms[1] * H0, H0 * sums[-1]
        magnitude = abs(r) * (abs(fed) + first * first + spread)
        sample = abs(r * (fed - first * first)) - abs(r) * spread
        return sample - bound - share * sim._SECOND_RESPONSE_MARGIN * magnitude

    lo, hi = 0.0, 1.0
    while excess(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if excess(mid) <= 0.0 else (lo, mid)
    return hi


def test_second_response_verdict_at_its_margin(monkeypatch):
    """Controllers built so that the verdict's test of sample 2 (d + 1),
    from the variation bound, passes the divergence bound by 1% more and 1%
    less than its margin: the first is decided, the second left to the
    engine, and the engine crosses by 2 (d + 1) for both.  A decided design
    builds no operator modes, and a simulated one its two orders' once, in
    its controller entry.  Every objective equals the engine's to the
    bit."""
    plant, x = SLUGGISH_PLANT, np.array([1.0, 1.0, 1.0, 1.0, 0.9, 0.5])
    controllers, calls, kinds = [], [], []
    for r in (1.0, 2.5, -0.7):
        scenario = replace(STEP, setpoint=r)
        d = int(round(plant.L / scenario.step_size))
        base = FopidController(kp=0.0, ki=0.5, kd=0.2, lam=0.9, mu=0.5)
        for share in (1.01, 0.99):
            controller = replace(base, kp=near_margin_kp(plant, base, scenario, share))
            kinds.append(verdict_kind(plant, controller, scenario))
            res = simulate_closed_loop(plant, controller, scenario)
            assert res.diverged and res.y.size <= 2 * (d + 1) + 1
            controllers.append(controller)
            calls.append((plant, x, DelayMethod.CAI, scenario))
    assert kinds == ["second", None] * 3
    gains = iter(controllers * 2)
    monkeypatch.setattr(sim, "design_from_vars", lambda *args: next(gains))
    built, modes = [], sim.differintegrator_modes
    monkeypatch.setattr(sim, "differintegrator_modes", lambda *args: built.append(args) or
                        modes(*args))
    got = []
    for call, kind in zip(calls, kinds):
        built.clear()
        got.append(evaluate_design_objectives(*call))
        assert len(built) == {"second": 0, None: 2}[kind], kind
    assert [[v.hex() for v in pair] for pair in got] == \
        [[v.hex() for v in pair] for pair in engine_objectives(monkeypatch, calls)]


def test_second_response_preconditions():
    """The verdict never decides sample 2 (d + 1) where the set-point is
    zero, a disturbance starts at or before it, or it is at or past N; it
    does where the disturbance starts after it and where N = 2 (d + 1) + 1."""
    plant, scenario = SLUGGISH_PLANT, STEP
    d = int(round(plant.L / scenario.step_size))
    second = [c for c in seeded_controllers(plant, 30, 101)
              if verdict_kind(plant, c, scenario) == "second"]
    assert second
    h = scenario.step_size
    never = [replace(scenario, setpoint=0.0),
             replace(scenario, setpoint=0.0, disturbance_time=0.2, disturbance_magnitude=0.3),
             replace(scenario, horizon=(2 * d + 2) * h)]
    never += [replace(scenario, disturbance_time=k * h, disturbance_magnitude=0.2)
              for k in (0, d + 2, 2 * d + 1, 2 * d + 2)]
    fires = [replace(scenario, disturbance_time=(2 * d + 3) * h, disturbance_magnitude=0.2),
             replace(scenario, horizon=(2 * d + 3) * h)]
    for case in never:
        assert sim._first_sample_at(case.n_steps, h, case.disturbance_time) <= 2 * (d + 1) \
            or case.setpoint == 0.0 or case.n_steps <= 2 * (d + 1)
        assert not any(verdict_kind(plant, c, case) == "second" for c in second)
    for case in fires:
        assert [verdict_kind(plant, c, case) for c in second] == \
            [verdict_kind(plant, c, scenario) for c in second]


@pytest.mark.parametrize("name", ["osc_low_itse", "slug_median"])
def test_zero_setpoint_products_start_at_the_disturbance(name):
    """With a zero set-point e is exactly zero up to the disturbance: u, x1
    and x3 are exact zeros before the disturbance sample, and within 1e-12
    of their peak of the direct products over all N terms of e.  A sweep,
    whose stack of loops takes u from one product, gives every cell its
    single run, bit for bit."""
    plant, controller = reference_loop(name)
    scenario = Scenario(setpoint=0.0, horizon=25.0, disturbance_time=16.5,
                        disturbance_magnitude=0.2)
    h, n = scenario.step_size, scenario.n_steps
    w = sim._first_sample_at(n, h, scenario.disturbance_time)
    assert w == 1650
    res = simulate_closed_loop(plant, controller, scenario)
    assert not res.diverged and not res.x2[:w + 1].any()
    runs = sim._ControllerRuns(controller, h, "oustaloup", DEFAULT_BAND, n)
    wants = [np.convolve(runs.grown(n).terms, res.x2)[:n]] + [
        np.convolve(res.x2, op(n))[:n] for op in runs.operators]
    for got, want in zip((res.u, res.x1, res.x3), wants):
        assert not got[:w].any()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    grid = np.array([0.9, 1.0, 1.1])
    sweep = sim.robustness_sweep(plant, controller, plant.L * grid, plant.T * grid, scenario)
    for i, L in enumerate(plant.L * grid):
        for j, T in enumerate(plant.T * grid):
            cell = simulate_closed_loop(replace(plant, L=float(L), T=float(T)), controller,
                                        scenario)
            assert (sweep.itse[i, j], sweep.isdco[i, j], sweep.diverged[i, j]) == (
                cell.itse, cell.isdco, cell.diverged), (i, j)


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


@pytest.mark.parametrize("terms", [5, sim.DIRECT_TERMS, sim.DIRECT_TERMS + 1, 700])
def test_kept_transforms_equal_fresh_ones(terms):
    """_series_mul with _Series factors equals the same product of plain
    arrays bit for bit, the first time a factor's transform is taken and
    when it is kept: 1-D and stacked factors, lo = 0 and lo > 0, factors
    read whole (hi at or past their ends) and sliced by hi, on both sides
    of DIRECT_TERMS.  A factor keeps a transform only where an FFT product
    reads it whole."""
    rng = np.random.default_rng(89)
    shorter = (rng.normal(size=terms), rng.normal(size=(3, terms)))
    longer = (rng.normal(size=terms + 37), rng.normal(size=(3, terms + 37)))
    spans = [(lo, hi) for hi in (2 * terms + 36, terms + 37, terms, terms // 2 + 1)
             for lo in (0, hi // 3)]
    for a, b in itertools.product(shorter, longer):
        for first, second in ((a, b), (b, a)):
            kept = sim._Series(first.copy()), sim._Series(second.copy())
            for lo, hi in spans * 2:
                want = sim._series_mul(first, second, lo, hi)
                for factors in ((kept[0], second), (first, kept[1]), kept):
                    got = sim._series_mul(*factors, lo, hi)
                    assert np.array_equal(got, want), (terms, first.shape, second.shape, lo, hi)
            for series in kept:
                read_whole = [hi for _, hi in spans if series.terms.shape[-1] <= hi
                              and min(a.shape[-1], b.shape[-1], hi) > sim.DIRECT_TERMS]
                assert bool(series.spectra) == bool(read_whole), (terms, series.terms.shape)


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
    plant and one for each controller operator."""
    case = BY_NAME["osc_median"]
    vars = LqrDesignVars(q1=case.q1, q2=case.q2, q3=case.q3, r=case.r,
                         lam=case.lam, mu=case.mu)
    wrappers = {"schur", "solve_triangular", "toeplitz"}
    calls = []

    def spy(frame, event, arg):
        code = frame.f_code
        if event == "return" and code is _OperatorKernels.__init__.__code__:
            calls.append("kernel")
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

    sim._PlantAtRest.cache_clear()
    objectives = spied(lambda: evaluate_design_objectives(case.plant, vars, case.method))
    assert calls == ["kernel"] * 3
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
    # an entry of its own, as the run built one
    runs = sim._ControllerRuns(controller, h, solver, DEFAULT_BAND, scenario.n_steps)
    x1, x3 = sim._series_mul(res.x2, np.array([op(n) for op in runs.operators]), 0, n)
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
        runs = sim._ControllerRuns(controller, scenario.step_size, "oustaloup", DEFAULT_BAND,
                                   scenario.n_steps)
        kernels = [op(scenario.n_steps) for op in runs.operators]
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
    controller entry its own, as every run's, makes at most 38 FFTs, at
    most 4 of them at the largest size, 2 N rounded up to a fast length."""
    plant, controller = reference_loop("osc_median")
    scenario = Scenario()
    simulate_closed_loop(plant, controller, scenario)
    records = count_transforms(monkeypatch)
    res = simulate_closed_loop(plant, controller, scenario)
    res.itse, res.isdco
    sizes = [r.size for r in records]
    largest = sim._fft_size(2 * scenario.n_steps - 1)
    assert not res.diverged and max(sizes) == largest
    assert len(sizes) <= 38
    assert sizes.count(largest) <= 4


def test_disturbed_sweep_transform_count(monkeypatch):
    """A disturbed 5x5 sweep at N = 2,500 (disturbance at sample 1,650),
    one stack of five loops per lag, transforms at most 27 series per cell
    plus 2 per lag besides the shared products: the disturbance term is
    transformed once per product for the whole stack.  The shared products
    are num H, formed once per stage of each lag, and the transforms that
    the plant's num and the entry's H keep: one H transform at the largest
    size for the whole sweep, and at most five transforms per lag for num H
    and the plant.  No block that ends at or before the disturbance
    multiplies the right-hand side by FFT."""
    plant, controller = reference_loop("osc_median")
    scenario = Scenario(horizon=25.0, disturbance_time=16.5, disturbance_magnitude=0.2)
    w_start = sim._first_sample_at(scenario.n_steps, scenario.step_size, 16.5)
    grid = np.array([0.8, 0.9, 1.0, 1.1, 1.2])
    grown = []  # every H the sweep's controller entry handed out

    class Entry(sim._ControllerRuns):
        def grown(self, t):
            H = super().grown(t)
            grown.append(H)
            return H

    monkeypatch.setattr(sim, "_ControllerRuns", Entry)
    sim._PlantAtRest.cache_clear()
    records = count_transforms(monkeypatch)
    sweep = sim.robustness_sweep(plant, controller, plant.L * grid, plant.T * grid, scenario)
    cells, lags = sweep.itse.size, grid.size
    assert w_start == 1650 and not sweep.diverged.any()
    nums = [sim._PlantAtRest(replace(plant, T=float(T), L=0.0), scenario.step_size,
                             "oustaloup", DEFAULT_BAND, scenario.n_steps).num
            for T in plant.T * grid]
    assert sim._PlantAtRest.cache_info().currsize == lags

    def shared(record):
        """The shared product a transform is charged to, else None."""
        if any(record.owner is H for H in grown):
            return "H"
        if any(record.owner is num for num in nums):
            return "num"
        return "num H" if record.caller == "F_of" else None

    charged = [shared(r) for r in records]
    own = charged.count(None)
    assert own <= 27 * cells + 2 * lags
    largest = sim._fft_size(2 * scenario.n_steps - 1)
    assert [r.size for r, c in zip(records, charged) if c == "H"].count(largest) == 1
    assert len(records) - own <= 1 + 5 * lags
    # the only other series that keeps its transforms is Newton's prefix of 1 / F
    assert all(r.caller == "_newton_terms" for r, c in zip(records, charged)
               if r.owner is not None and c is None)
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
