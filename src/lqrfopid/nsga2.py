"""Elitist non-dominated sorting genetic algorithm (NSGA-II).

A generic two-objective minimizer plus the binding to the LQR-FOPID
design problem: decision vectors are (q1, q2, q3, r, lam, mu), objectives
are (ITSE, ISDCO), and infeasible designs arrive pre-penalized from
:func:`lqrfopid.sim.evaluate_design_objectives`.

Two dominance relations coexist on purpose.  Survival ranking uses the
conventional weak form (<= everywhere, < somewhere), which keeps
duplicated points from inflating fronts.  Front-versus-front verdicts use
the strict form (< in every component) exposed as :func:`dominates`.
"""
from __future__ import annotations

import contextlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .design import (
    DESIGN_BOUNDS,
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    design_from_vars,
)
from .matops import CareFailure
from .sim import PENALTY_OBJECTIVE, Scenario, evaluate_design_objectives, write_csv

__all__ = [
    "MooConfig",
    "ParetoEntry",
    "ParetoFront",
    "FrontVerdict",
    "dominates",
    "weakly_dominates",
    "fast_nondominated_sort",
    "crowding_distance",
    "binary_tournament",
    "make_offspring",
    "nsga2_minimize",
    "run_nsga2",
    "median_solution",
    "compare_fronts",
    "write_front_csv",
]


@dataclass(frozen=True)
class MooConfig:
    """Optimizer settings; the defaults match the design protocol used
    throughout this package (population and generations 100, Pareto
    fraction 0.7, intermediate crossover, single-coordinate mutation)."""

    population: int = 100
    generations: int = 100
    pareto_fraction: float = 0.7
    bounds: tuple = DESIGN_BOUNDS
    crossover_fraction: float = 0.8
    mutation_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError(f"population must be at least 4, got {self.population}")
        if self.generations < 1:
            raise ValueError(f"generations must be at least 1, got {self.generations}")
        if not (0.0 < self.pareto_fraction <= 1.0):
            raise ValueError("pareto fraction must lie in (0, 1]")
        if not (0.0 <= self.crossover_fraction <= 1.0):
            raise ValueError("crossover fraction must lie in [0, 1]")
        for low, high in self.bounds:
            if not low < high:
                raise ValueError(f"empty bound interval ({low}, {high})")


def dominates(u, v) -> bool:
    """Strict dominance: u_i < v_i in every component (and hence u != v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return bool(np.all(u < v))


def weakly_dominates(u, v) -> bool:
    """Conventional dominance: no component worse, at least one better."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return bool(np.all(u <= v) and np.any(u < v))


def fast_nondominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Partition indices into fronts (front 0 = non-dominated set).

    Standard bookkeeping: domination counts and dominated-sets, peeled
    front by front.  Uses weak dominance so that duplicates share a front.
    """
    F = np.asarray(objectives, dtype=float)
    n = F.shape[0]
    if n == 0:
        raise ValueError("population is empty")
    # pairwise comparison matrices, vectorized over the population
    less_eq = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    less = np.any(F[:, None, :] < F[None, :, :], axis=2)
    dom = less_eq & less  # dom[i, j]: i weakly dominates j
    n_dominators = dom.sum(axis=0)
    fronts: list[list[int]] = []
    current = np.flatnonzero(n_dominators == 0)
    assigned = np.zeros(n, dtype=bool)
    while current.size:
        fronts.append(current.tolist())
        assigned[current] = True
        n_dominators = n_dominators - dom[current].sum(axis=0)
        current = np.flatnonzero((n_dominators == 0) & ~assigned)
    return fronts


def crowding_distance(front_objectives: np.ndarray) -> np.ndarray:
    """Per-member crowding distance within one front.

    Boundary members on each objective get +inf; interior members sum the
    normalized neighbour gaps.  Objectives with zero range contribute 0.
    """
    F = np.asarray(front_objectives, dtype=float)
    n = F.shape[0]
    if n == 0:
        raise ValueError("front is empty")
    dist = np.zeros(n)
    for m in range(F.shape[1]):
        order = np.argsort(F[:, m], kind="stable")
        vals = F[order, m]
        span = vals[-1] - vals[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0.0 and n > 2:
            gaps = (vals[2:] - vals[:-2]) / span
            dist[order[1:-1]] += gaps
    return dist


def binary_tournament(
    rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator, k: int
) -> np.ndarray:
    """k winners of independent binary tournaments on (rank, -crowding)."""
    n = rank.shape[0]
    a = rng.integers(0, n, size=k)
    b = rng.integers(0, n, size=k)
    a_wins = (rank[a] < rank[b]) | ((rank[a] == rank[b]) & (crowding[a] > crowding[b]))
    return np.where(a_wins, a, b)


def make_offspring(
    parents: np.ndarray, config: MooConfig, rng: np.random.Generator
) -> np.ndarray:
    """One child per parent pair from the tournament-selected pool.

    With probability ``crossover_fraction`` the child is an intermediate
    (per-coordinate random weighted average) of two parents, which keeps
    the coordinates they share exactly; otherwise it
    is a copy of the first parent with a bounded uniform perturbation
    added at one randomly chosen coordinate.  Children are clamped to the
    bounds.
    """
    parents = np.asarray(parents, dtype=float)
    n_children = parents.shape[0] // 2
    nvar = parents.shape[1]
    low = np.array([b[0] for b in config.bounds])
    high = np.array([b[1] for b in config.bounds])
    children = np.empty((n_children, nvar))
    for i in range(n_children):
        p1 = parents[2 * i]
        p2 = parents[2 * i + 1]
        if rng.random() < config.crossover_fraction:
            w = rng.random(nvar)
            # a shared coordinate is inherited exactly: the weighted average
            # of two equal values can be 1 ulp off, a distinct duplicate
            child = np.where(p1 == p2, p1, w * p1 + (1.0 - w) * p2)
        else:
            child = p1.copy()
            j = rng.integers(0, nvar)
            child[j] += rng.uniform(-1.0, 1.0) * config.mutation_scale * (high[j] - low[j])
        children[i] = np.clip(child, low, high)
    return children


def _survival(X, F, config):
    """Rank-then-crowding environmental selection down to the population
    size, with the share of front-0 survivors capped at pareto_fraction."""
    pop = config.population
    fronts = fast_nondominated_sort(F)
    rank = np.empty(F.shape[0], dtype=int)
    crowd = np.empty(F.shape[0])
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(F[front])
    cap0 = max(1, int(np.ceil(config.pareto_fraction * pop)))
    keep: list[int] = []
    for r, front in enumerate(fronts):
        budget = pop - len(keep)
        if budget <= 0:
            break
        if r == 0:
            budget = min(budget, cap0)
        if len(front) <= budget:
            keep.extend(front)
        else:
            order = np.argsort(-crowd[front], kind="stable")
            keep.extend(np.asarray(front)[order[:budget]].tolist())
    # cap or rounding may leave the population short; refill by rank/crowding
    if len(keep) < pop:
        kept = set(keep)
        leftovers = [i for front in fronts for i in front if i not in kept]
        leftovers.sort(key=lambda i: (rank[i], -crowd[i]))
        keep.extend(leftovers[: pop - len(keep)])
    idx = np.asarray(keep[:pop])
    return X[idx], F[idx], rank[idx], crowd[idx]


def nsga2_minimize(
    objective,
    config: MooConfig,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Generic two-objective NSGA-II loop.

    ``objective(x) -> (f1, f2)`` must be pure (infeasibility encoded as
    penalty values, never exceptions).  Returns the decision vectors and
    objective rows of the final non-dominated front.  Fully reproducible
    for a fixed ``config.seed``; ``workers > 1`` evaluates populations in
    one process pool, kept for the whole run, without perturbing
    determinism (evaluation order does not influence the evolution path).
    The pool is capped at the core count: with the ``fork`` start method
    every worker asked for is started on the first task.
    """
    rng = np.random.default_rng(config.seed)
    nvar = len(config.bounds)
    low = np.array([b[0] for b in config.bounds])
    high = np.array([b[1] for b in config.bounds])
    pop = config.population
    workers = min(workers, os.cpu_count() or 1)

    # one pool for the whole run, so its workers keep their caches warm
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:

        def evaluate(X):
            rows = pool.map(objective, X) if pool else map(objective, X)
            return np.asarray(list(rows), dtype=float)

        X = low + (high - low) * rng.random((pop, nvar))
        F = evaluate(X)
        X, F, rank, crowd = _survival(X, F, config)

        for _ in range(config.generations):
            pool_idx = binary_tournament(rank, crowd, rng, 2 * pop)
            children = make_offspring(X[pool_idx], config, rng)
            Fc = evaluate(children)
            X = np.vstack([X, children])
            F = np.vstack([F, Fc])
            X, F, rank, crowd = _survival(X, F, config)

    mask = rank == 0
    Xf, Ff = X[mask], F[mask]
    # drop penalty placeholders and exact duplicates, sort by first objective
    ok = ~np.all(Ff >= PENALTY_OBJECTIVE, axis=1)
    Xf, Ff = Xf[ok], Ff[ok]
    _, unique_idx = np.unique(Xf, axis=0, return_index=True)
    Xf, Ff = Xf[np.sort(unique_idx)], Ff[np.sort(unique_idx)]
    order = np.argsort(Ff[:, 0], kind="stable")
    return Xf[order], Ff[order]


@dataclass(frozen=True)
class ParetoEntry:
    vars: LqrDesignVars
    objectives: tuple[float, float]
    controller: FopidController


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated (design, objectives) set for one plant and method,
    sorted ascending by the first objective."""

    entries: tuple[ParetoEntry, ...]
    method: DelayMethod
    plant: NioptdPlant

    def __len__(self) -> int:
        return len(self.entries)

    def objectives_array(self) -> np.ndarray:
        return np.array([e.objectives for e in self.entries])


class FrontVerdict:
    CAI_DOMINANT = "cai_dominant"
    HE_DOMINANT = "he_dominant"
    WEAK = "weak"


def run_nsga2(
    plant: NioptdPlant,
    method: DelayMethod,
    config: MooConfig | None = None,
    scenario: Scenario | None = None,
    workers: int = 1,
) -> ParetoFront:
    """Trade-off search over the LQR weights and controller orders.

    Minimizes (ITSE, ISDCO) of the closed loop designed via ``method`` and
    returns the final front with the realized controllers attached.
    """
    config = config or MooConfig()
    scenario = scenario or Scenario()
    # a partial of a module-level function pickles for the process pool
    objective = partial(evaluate_design_objectives, plant, method=method, scenario=scenario)
    X, F = nsga2_minimize(objective, config, workers=workers)
    entries = []
    for x, f in zip(X, F):
        try:
            vars = LqrDesignVars.from_array(x)
            controller = design_from_vars(plant, vars, method)
        except (CareFailure, ValueError):
            continue  # stale penalty rows cannot be realized
        entries.append(ParetoEntry(vars=vars, objectives=(float(f[0]), float(f[1])),
                                   controller=controller))
    return ParetoFront(entries=tuple(entries), method=method, plant=plant)


def median_solution(front: ParetoFront) -> ParetoEntry:
    """Middle entry of the front in the canonical (ascending first
    objective) order; even-sized fronts take the lower median."""
    if len(front) == 0:
        raise ValueError("front is empty")
    return front.entries[(len(front) - 1) // 2]


def compare_fronts(front_cai: ParetoFront, front_he: ParetoFront) -> str:
    """Front-level verdict under strict dominance.

    ``cai_dominant`` when every entry of the He front is strictly
    dominated by some Cai entry and not vice versa; symmetrically for
    ``he_dominant``; anything else (including crossing fronts) is
    ``weak``.
    """
    if len(front_cai) == 0 or len(front_he) == 0:
        raise ValueError("both fronts must be non-empty")
    A = front_cai.objectives_array()
    B = front_he.objectives_array()

    def covered(front, by):
        return all(any(dominates(u, v) for u in by) for v in front)

    cai_covers_he = covered(B, A)
    he_covers_cai = covered(A, B)
    if cai_covers_he and not he_covers_cai:
        return FrontVerdict.CAI_DOMINANT
    if he_covers_cai and not cai_covers_he:
        return FrontVerdict.HE_DOMINANT
    return FrontVerdict.WEAK


def write_front_csv(path, front: ParetoFront) -> None:
    """Front CSV: J1_itse,J2_isdco,Q1,Q2,Q3,R,lambda,mu,Kp,Ki,Kd,method."""
    write_csv(path, ("J1_itse", "J2_isdco", "Q1", "Q2", "Q3", "R", "lambda", "mu",
                     "Kp", "Ki", "Kd", "method"),
              ((*e.objectives, e.vars.q1, e.vars.q2, e.vars.q3, e.vars.r, e.vars.lam,
                e.vars.mu, e.controller.kp, e.controller.ki, e.controller.kd,
                front.method.value) for e in front.entries))
