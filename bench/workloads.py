"""The benchmark's workloads: inputs from a seed, one timed round, checks.

A run repeats whole rounds of the same operations until its time is up.
Every round of a run does identical work, so the checks read the outputs
of the last round and require every round's digest to match it; earlier
rounds keep only their digest, so memory does not grow with the number
of rounds.

Searches (``search-*``): one round is one in-process invocation of
``lqrfopid design``; an operation is one design evaluation.
``sweep-verify``: one round is a 5x5 robustness sweep of two bundled
reference designs with a seeded disturbance step, then GL-path closed
loops of all six reference designs and GL-path open-loop steps of three
plants; an operation is one simulation.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lqrfopid.cli
import lqrfopid.nsga2
import lqrfopid.sim
from lqrfopid import (
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    Scenario,
    design_from_vars,
)

import oracle

PENALTY = 1e6
FRONT_COLUMNS = ("J1_itse", "J2_isdco", "Q1", "Q2", "Q3", "R", "lambda", "mu",
                 "Kp", "Ki", "Kd", "method")


# The paper's reference designs, as bundled with the package's tests:
# name -> (alpha, method, (q1, q2, q3, r, lam, mu), (itse, isdco)).
REFERENCE_DESIGNS = {
    "osc_low_itse": (1.5, "he", (0.970396, 0.040181, 0.022387, 0.204583, 1.071069, 0.716467),
                     (0.515799, 32.10448)),
    "osc_median": (1.5, "he", (0.643793, 0.02965, 0.062444, 0.34342, 1.133782, 0.449655),
                   (0.816633, 8.217709)),
    "osc_low_isdco": (1.5, "he", (0.086837, 0.023281, 0.095594, 0.992322, 1.382362, 0.035294),
                      (3.116587, 1.434095)),
    "slug_low_itse": (0.5, "cai", (0.605858, 0.080236, 0.057087, 0.946696, 0.995725, 0.026867),
                      (0.772218, 8.874867)),
    "slug_median": (0.5, "cai", (0.061832, 0.033902, 0.09303, 0.873642, 0.891239, 0.026349),
                    (8.720682, 1.452479)),
    "slug_low_isdco": (0.5, "cai", (0.049785, 0.026213, 0.098279, 0.918109, 0.754981, 0.026134),
                       (17.32365, 1.067778)),
}
# Rows gated at +-20 percent under the reproduction band (1e-2, 1e2); the
# slug_low_isdco pair is known to be inconsistent with its own parameters
# (see the package README, "Known discrepancies") and is only reported.
REPRODUCTION_GATED = ("osc_median", "slug_low_itse", "slug_median")
REPRODUCTION_BAND = (1e-2, 1e2)
REPRODUCTION_RTOL = 0.20
# Hypervolume box in log10 objective space: ITSE and ISDCO from 0.1 up to
# the penalty value, so every unpenalized design adds to the volume.
HV_BOX = ((-1.0, -1.0), (6.0, 6.0))


def reference_plant(alpha: float) -> NioptdPlant:
    return NioptdPlant(K=1.0, L=0.5, T=2.0, alpha=alpha)


@dataclass
class Round:
    """One round: wall time of each of its parts (in order), operations
    done, a digest of its outputs and, for the last round, the outputs."""

    parts: dict[str, float]
    ops: int
    digest: str
    outputs: object

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def _read_front(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    if not lines:
        return []
    if tuple(lines[0].split(",")) != FRONT_COLUMNS:
        raise ValueError("front CSV header mismatch")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {k: float(v) for k, v in zip(FRONT_COLUMNS[:-1], cells[:-1])}
        row["method"] = cells[-1]
        rows.append(row)
    return rows


def _closed_loop_checks(label, res, setpoint, K, lam, h, problems):
    """x2 = r - y, and indices re-integrated from the trajectories; returns
    the re-integrated (itse, isdco), or None for a diverged run."""
    if res.diverged:
        problems.append(f"{label}: diverged")
        return None
    if np.max(np.abs(res.x2 - (setpoint - res.y))) > 1e-14:
        problems.append(f"{label}: x2 != r - y")
    u_ss = setpoint / K if lam > 0 else float(res.u[-1])
    itse, isdco = oracle.indices(res.x2, res.u, u_ss, h)
    if _rel(res.itse, itse) > 1e-9 or _rel(res.isdco, isdco) > 1e-9:
        problems.append(f"{label}: indices ({res.itse}, {res.isdco}) vs "
                        f"re-integrated ({itse}, {isdco})")
    return itse, isdco


class SearchWorkload:
    """One in-process ``lqrfopid design`` run with both delay methods per round.

    The search seed is fixed: a search's cost and front depend on its seed
    far more than on anything else, so the workload seed does not pick it
    (see README, "Seeds").
    """

    SEARCH_SEED = 1

    def __init__(self, name, why, alpha, h, horizon, pop, gens, restarts):
        self.name, self.why = name, why
        self.plant = reference_plant(alpha)
        self.h, self.horizon = h, horizon
        self.pop, self.gens, self.restarts = pop, gens, restarts
        self.evals = 2 * restarts * pop * (gens + 1)

    def describe(self) -> dict:
        p = self.plant
        return {"plant": dict(K=p.K, L=p.L, T=p.T, alpha=p.alpha), "h": self.h,
                "horizon": self.horizon, "pop": self.pop, "gens": self.gens,
                "restarts": self.restarts, "search_seed": self.SEARCH_SEED,
                "evals_per_round": self.evals}

    def inputs(self, seed: int) -> list[str]:
        p = self.plant
        return ["design", "--K", repr(p.K), "--L", repr(p.L), "--T", repr(p.T),
                "--alpha", repr(p.alpha), "--methods", "cai,he",
                "--pop", str(self.pop), "--gens", str(self.gens),
                "--restarts", str(self.restarts), "--workers", "1",
                "--horizon", repr(self.horizon), "--h", repr(self.h),
                "--seed", str(self.SEARCH_SEED)]

    def run_round(self, argv, out_dir: Path) -> Round:
        """The design run, with each design evaluation timed as a part of its
        own (the evaluation order is fixed by the search seed)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        stdout = io.StringIO()
        evaluate = lqrfopid.nsga2.evaluate_design_objectives
        evaluations = []

        def timed_evaluation(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                evaluations.append(time.perf_counter() - t0)

        lqrfopid.nsga2.evaluate_design_objectives = timed_evaluation
        try:
            with contextlib.redirect_stdout(stdout):
                t0 = time.perf_counter()
                code = lqrfopid.cli.main(argv + ["--out-dir", str(out_dir)])
                seconds = time.perf_counter() - t0
        finally:
            lqrfopid.nsga2.evaluate_design_objectives = evaluate
        parts = {f"evaluation {i}": t for i, t in enumerate(evaluations)}
        parts["rest of the design run"] = seconds - sum(evaluations)
        fronts = {m: (out_dir / f"front_{m}.csv").read_text(encoding="utf-8")
                  if (out_dir / f"front_{m}.csv").exists() else "" for m in ("cai", "he")}
        text = [stdout.getvalue(), fronts["cai"], fronts["he"]]
        return Round(parts=parts, ops=self.evals,
                     digest=_digest(str(code).encode(), *(t.encode() for t in text)),
                     outputs={"code": code, "stdout": text[0], "fronts": fronts})

    def quality(self, rnd: Round) -> dict[str, float]:
        """Hypervolume of each method's front in log10 objective space, as a
        share of ``HV_BOX``."""
        result = {}
        for m in ("cai", "he"):
            points = [(math.log10(r["J1_itse"]), math.log10(r["J2_isdco"]))
                      for r in _read_front(rnd.outputs["fronts"][m])]
            result[f"hv_{m}"] = oracle.normalized_hypervolume(points, *HV_BOX)
        return result

    def check(self, argv, rounds: list[Round]) -> tuple[list[str], dict]:
        problems: list[str] = []
        last = rounds[-1].outputs
        if any(r.digest != rounds[-1].digest for r in rounds):
            problems.append("rounds of one run produced different outputs")
        if last["code"] != 0:
            return problems + [f"design exited with code {last['code']}"], {}
        fronts = {m: _read_front(last["fronts"][m]) for m in ("cai", "he")}
        objs = {m: [(r["J1_itse"], r["J2_isdco"]) for r in rows] for m, rows in fronts.items()}
        for m, rows in fronts.items():
            if not rows:
                problems.append(f"{m}: empty front")
                continue
            if any(max(p) >= PENALTY for p in objs[m]):
                problems.append(f"{m}: penalty row in front")
            if any(r["method"] != m for r in rows):
                problems.append(f"{m}: method column names another method")
            if len(oracle.nondominated(objs[m])) != len(rows):
                problems.append(f"{m}: front members dominate each other")
            if [p[0] for p in objs[m]] != sorted(p[0] for p in objs[m]):
                problems.append(f"{m}: front not sorted by ITSE")
            for r in rows:
                want = oracle.fopid_gains(self.plant.K, self.plant.L, self.plant.T,
                                          r["Q1"], r["Q2"], r["Q3"], r["R"], m)
                if oracle.relative_error([r["Kp"], r["Ki"], r["Kd"]], want) > 1e-6:
                    problems.append(f"{m}: gains {r['Kp']},{r['Ki']},{r['Kd']} "
                                    f"vs Hamiltonian oracle {want.tolist()}")
        if not all(fronts.values()):
            return problems, {}
        lines = last["stdout"].splitlines()
        verdict = oracle.front_verdict(objs["cai"], objs["he"])
        if f"front comparison verdict: {verdict}" not in lines:
            problems.append(f"verdict differs from brute force ({verdict})")
        scenario = Scenario(horizon=self.horizon, step_size=self.h)
        for m, rows in fronts.items():
            med = rows[(len(rows) - 1) // 2]
            want = (f"median [{m}]: ITSE={med['J1_itse']:.6g} ISDCO={med['J2_isdco']:.6g} "
                    f"Kp={med['Kp']:.6g} Ki={med['Ki']:.6g} Kd={med['Kd']:.6g} "
                    f"lambda={med['lambda']:.6g} mu={med['mu']:.6g}")
            if want not in lines:
                problems.append(f"{m}: printed median is not the lower median by ITSE ({want})")
            controller = FopidController(kp=med["Kp"], ki=med["Ki"], kd=med["Kd"],
                                         lam=med["lambda"], mu=med["mu"])
            res = lqrfopid.sim.simulate_closed_loop(self.plant, controller, scenario)
            got = _closed_loop_checks(f"{m} median", res, scenario.setpoint,
                                      self.plant.K, controller.lam, self.h, problems)
            if got and (_rel(got[0], med["J1_itse"]) > 1e-8 or _rel(got[1], med["J2_isdco"]) > 1e-8):
                problems.append(f"{m}: median re-simulates to {got} vs CSV "
                                f"({med['J1_itse']}, {med['J2_isdco']})")
        return problems, {"front_sizes": {m: len(rows) for m, rows in fronts.items()},
                          "verdict": verdict}


class SweepVerifyWorkload:
    """Robustness sweeps with a disturbance step plus GL-path verification."""

    name = "sweep-verify"
    GRID = np.array([0.8, 0.9, 1.0, 1.1, 1.2])
    SWEPT = {"he": "osc_median", "cai": "slug_median"}
    OPEN_LOOP_ALPHAS = (0.5, 1.0, 1.5)
    # A short horizon keeps a round near 2 s, so a run holds a dozen rounds
    # (see README, "Timing on a shared host"); the paper's 100 s horizon is
    # still used for the reproduction check.
    HORIZON = 25.0

    def __init__(self, why):
        self.why = why

    def describe(self) -> dict:
        return {"plants": "K=1, L=0.5, T=2, alpha in (0.5, 1, 1.5)", "h": 0.01,
                "horizon": self.HORIZON, "sweep_grid": "(L, T) x (0.8 .. 1.2 in steps of 0.1)",
                "swept_designs": self.SWEPT, "gl_closed_loops": list(REFERENCE_DESIGNS),
                "sims_per_round": 2 * self.GRID.size ** 2 + len(REFERENCE_DESIGNS)
                + len(self.OPEN_LOOP_ALPHAS)}

    def inputs(self, seed: int) -> dict:
        """Disturbance step of seeded size and time; designs from the
        reference weights."""
        rng = np.random.default_rng(seed)
        scenario = Scenario(horizon=self.HORIZON,
                            disturbance_time=round(float(rng.uniform(15.0, 18.0)), 2),
                            disturbance_magnitude=float(rng.uniform(0.18, 0.22)))
        designs = {}
        for name, (alpha, method, weights, _) in REFERENCE_DESIGNS.items():
            plant = reference_plant(alpha)
            designs[name] = (plant, method, weights, design_from_vars(
                plant, LqrDesignVars(*weights), DelayMethod(method)))
        return {"scenario": scenario, "designs": designs}

    def run_round(self, inputs, out_dir: Path) -> Round:
        out_dir.mkdir(parents=True, exist_ok=True)
        scenario, designs = inputs["scenario"], inputs["designs"]
        sweeps, closed, opened, parts = {}, {}, {}, {}
        for method, name in self.SWEPT.items():
            plant, _, _, controller = designs[name]
            t0 = time.perf_counter()
            sweep = lqrfopid.sim.robustness_sweep(
                plant, controller, plant.L * self.GRID, plant.T * self.GRID, scenario)
            lqrfopid.sim.write_sweep_csv(out_dir / f"sweep_{name}.csv", sweep)
            parts[f"sweep {name}"] = time.perf_counter() - t0
            sweeps[method] = sweep
        for name, (plant, _, _, controller) in designs.items():
            t0 = time.perf_counter()
            closed[name] = lqrfopid.sim.simulate_closed_loop(
                plant, controller, scenario, solver="gl")
            parts[f"gl {name}"] = time.perf_counter() - t0
        for alpha in self.OPEN_LOOP_ALPHAS:
            t0 = time.perf_counter()
            opened[alpha] = lqrfopid.sim.simulate_open_loop_step(
                reference_plant(alpha), horizon=scenario.horizon,
                h=scenario.step_size, solver="gl")
            parts[f"step {alpha}"] = time.perf_counter() - t0
        ops = sum(s.itse.size for s in sweeps.values()) + len(closed) + len(opened)
        digest = _digest(*(a for sw in sweeps.values() for a in (sw.itse, sw.isdco)),
                         *(a for r in closed.values() for a in (r.y, r.u)),
                         *(r.y for r in opened.values()))
        return Round(parts=parts, ops=ops, digest=digest,
                     outputs={"sweeps": sweeps, "closed": closed, "open": opened})

    def quality(self, rnd: Round) -> dict[str, float]:
        """Hypervolume of each swept design's 25 (ITSE, ISDCO) cells in
        log10 objective space, as a share of ``HV_BOX``."""
        result = {}
        for method, sweep in rnd.outputs["sweeps"].items():
            points = [(math.log10(a), math.log10(b))
                      for a, b in zip(sweep.itse.ravel(), sweep.isdco.ravel())]
            result[f"hv_{method}"] = oracle.normalized_hypervolume(points, *HV_BOX)
        return result

    def check(self, inputs, rounds: list[Round]) -> tuple[list[str], dict]:
        problems: list[str] = []
        scenario, designs = inputs["scenario"], inputs["designs"]
        last = rounds[-1].outputs
        if any(r.digest != rounds[-1].digest for r in rounds):
            problems.append("rounds of one run produced different outputs")
        h = scenario.step_size
        for name, (plant, method, weights, controller) in designs.items():
            want = oracle.fopid_gains(plant.K, plant.L, plant.T, *weights[:4], method)
            got = [controller.kp, controller.ki, controller.kd]
            if oracle.relative_error(got, want) > 1e-6:
                problems.append(f"{name}: gains {got} vs Hamiltonian oracle {want.tolist()}")
            _closed_loop_checks(f"{name} GL", last["closed"][name], scenario.setpoint,
                                plant.K, controller.lam, h, problems)
        centre = self.GRID.size // 2
        for method, name in self.SWEPT.items():
            plant, _, _, controller = designs[name]
            direct = lqrfopid.sim.simulate_closed_loop(plant, controller, scenario)
            _closed_loop_checks(f"{name} nominal", direct, scenario.setpoint,
                                plant.K, controller.lam, h, problems)
            sweep = last["sweeps"][method]
            cell = (sweep.itse[centre, centre], sweep.isdco[centre, centre])
            if cell != (direct.itse, direct.isdco):
                problems.append(f"{name}: nominal sweep cell {cell} vs direct "
                                f"simulation ({direct.itse}, {direct.isdco})")
        step = last["open"][1.0]
        exact = oracle.first_order_delayed_step(1.0, 0.5, 2.0, step.t)
        if step.diverged or np.max(np.abs(step.y - exact)) > 1e-3:
            problems.append("alpha = 1 GL step differs from the closed form by more than 1e-3")
        for alpha, res in last["open"].items():
            if res.diverged or not np.all(np.isfinite(res.y)):
                problems.append(f"alpha = {alpha} GL step diverged")
        reproduced = self.reproduction(designs)
        for name, (got, ok) in reproduced.items():
            if not ok and name in REPRODUCTION_GATED:
                problems.append(f"{name}: indices {got} off the paper's by more than 20%")
        s = scenario
        details = {
            "disturbance": {"time": s.disturbance_time, "magnitude": s.disturbance_magnitude},
            "reproduction": {name: {"itse": got[0], "isdco": got[1], "within_20pct": ok}
                             for name, (got, ok) in reproduced.items()}}
        return problems, details

    def reproduction(self, designs) -> dict[str, tuple[tuple[float, float], bool]]:
        """Indices of the reference rows under the reproduction band and the
        default scenario, and whether both are within 20% of the paper's."""
        result = {}
        for name in REPRODUCTION_GATED + ("slug_low_isdco",):
            plant, _, _, controller = designs[name]
            res = lqrfopid.sim.simulate_closed_loop(plant, controller, Scenario(),
                                                    band=REPRODUCTION_BAND)
            got = (res.itse, res.isdco)
            result[name] = (got, all(_rel(g, w) <= REPRODUCTION_RTOL
                                     for g, w in zip(got, REFERENCE_DESIGNS[name][3])))
        return result


WORKLOADS = {w.name: w for w in (
    SearchWorkload(
        "search-osc-fine",
        "the paper's pipeline at the paper's grid; the per-sample Oustaloup loop "
        "takes most of the time",
        alpha=1.5, h=0.01, horizon=100.0, pop=16, gens=2, restarts=1),
    SearchWorkload(
        "search-slug-coarse",
        "most sluggish designs diverge within a few samples, so the gain map, "
        "penalties, survival and the restart picker weigh far more",
        alpha=0.5, h=0.05, horizon=50.0, pop=40, gens=2, restarts=2),
    SweepVerifyWorkload(
        "one controller over many plants with a disturbance step, plus the "
        "O(N^2) GL path that neither search runs"),
)}
