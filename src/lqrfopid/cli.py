"""Command-line front end.

Subcommands::

    step     open-loop step response (optionally a Bode table)
    gains    FOPID gains from explicit LQR weights for one delay method
    design   trade-off search, front CSVs per method, verdict, median pick
    rule     evaluate the polynomial tuning rules at one operating point
    sweep    robustness surfaces of a fixed controller over (L, T)

All outputs are UTF-8 comma-delimited CSV files with a header row, each
written by :func:`lqrfopid.sim.write_csv`.  Exit codes: 0 success, 2
invalid input, 3 numerical failure.  Commands build the library's objects
straight from their options and let the library check them: :func:`main`
is the one place that turns a ``ValueError`` into an ``error:`` line and
exit 2, and a ``CareFailure`` into exit 3.  Every check runs before the
first file is written.  The default output directory comes from
``LQRFOPID_OUTDIR`` (falling back to the current directory); ``--config
FILE`` reads ``key=value`` lines that are overridden by explicit flags.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .design import (
    DelayMethod,
    FopidController,
    LqrDesignVars,
    NioptdPlant,
    design_from_vars,
)
from .matops import CareFailure
from .nsga2 import (
    MooConfig,
    compare_fronts,
    median_solution,
    run_nsga2,
    write_front_csv,
)
from .rules import eval_tuning_rule
from .sim import (
    DIVERGENCE_FACTOR,
    Scenario,
    frequency_response,
    robustness_sweep,
    simulate_open_loop_step,
    write_csv,
    write_sweep_csv,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID_INPUT):
        super().__init__(message)
        self.code = code


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {raw!r}")
    return value in ("1", "true", "yes", "on")


def _install_config_defaults(args: argparse.Namespace) -> None:
    """Install config-file values as the subcommand's argparse defaults.

    A subsequent re-parse of the same argv lets explicit flags override
    the file, which is the documented precedence.
    """
    sub: argparse.ArgumentParser = args.subparser
    converted: dict[str, object] = {}
    for key, raw in _read_config(args.config).items():
        if not hasattr(args, key) or key in ("config", "subparser", "func", "command"):
            raise CliError(f"unknown config key {key!r}")
        template = sub.get_default(key)
        try:
            if isinstance(template, bool):
                converted[key] = _config_bool(raw)
            elif isinstance(template, int) and not isinstance(template, bool):
                converted[key] = int(raw)
            elif isinstance(template, float):
                converted[key] = float(raw)
            else:
                converted[key] = raw
        except ValueError as exc:
            raise CliError(f"config key {key!r}: {exc}")
    sub.set_defaults(**converted)


def _plant_from_args(args) -> NioptdPlant:
    return NioptdPlant(K=args.K, L=args.L, T=args.T, alpha=args.alpha)


def _scenario_from_args(args) -> Scenario:
    return Scenario(horizon=args.horizon, step_size=args.h)


def _out_dir(args) -> Path:
    out = Path(args.out_dir or os.environ.get("LQRFOPID_OUTDIR", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot use output directory {out}: {exc}") from exc
    return out


def _add_plant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--K", type=float, default=1.0, help="process dc gain")
    p.add_argument("--L", type=float, default=0.5, help="process delay [s]")
    p.add_argument("--T", type=float, default=2.0, help="pseudo time constant")
    p.add_argument("--alpha", type=float, default=1.5, help="fractional order in (0, 2)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=None, help="output directory (default: $LQRFOPID_OUTDIR or .)")
    p.add_argument("--config", default=None, help="key=value config file; flags override")


def _maybe_plot(args, fig_path: Path, xs, ys, labels, title) -> None:
    if not args.plot:
        return
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plot", file=sys.stderr)
        return
    fig, ax = plt.subplots()
    for x, y, lab in zip(xs, ys, labels):
        ax.plot(x, y, label=lab)
    ax.set_title(title)
    ax.grid(True)
    if labels and any(labels):
        ax.legend()
    fig.savefig(fig_path, dpi=120)
    plt.close(fig)


def _cmd_step(args) -> int:
    plant = _plant_from_args(args)
    scenario = _scenario_from_args(args)
    if args.bode and not (0.0 < args.w_low < args.w_high < np.inf and args.n_freq >= 1):
        raise CliError(f"Bode band needs 0 < w-low < w-high and n-freq >= 1, got "
                       f"{args.w_low}, {args.w_high} and {args.n_freq}")
    # past this gain the bound that tells a diverging step is not finite
    if not abs(plant.K) * DIVERGENCE_FACTOR < np.inf:
        raise CliError(f"K={plant.K} is too large for a step response: its divergence "
                       f"bound {DIVERGENCE_FACTOR:g} |K| overflows")
    out = _out_dir(args)
    result = simulate_open_loop_step(plant, horizon=scenario.horizon, h=scenario.step_size,
                                     solver=args.solver)
    if result.diverged:
        raise CliError("open-loop simulation diverged", EXIT_NUMERICAL_FAILURE)
    traj = out / "step.csv"
    write_trajectory_csv(traj, result)
    print(f"wrote {traj}")
    if args.bode:
        w = np.logspace(np.log10(args.w_low), np.log10(args.w_high), args.n_freq)
        H = frequency_response(plant, w)
        bode = out / "bode.csv"
        write_csv(bode, ("omega", "magnitude_db", "phase_deg"),
                  ((wi, 20 * np.log10(abs(hi)), np.degrees(np.angle(hi)))
                   for wi, hi in zip(w, H)))
        print(f"wrote {bode}")
    _maybe_plot(args, out / "step.png", [result.t], [result.y], [""],
                f"open-loop step (alpha={plant.alpha})")
    return EXIT_OK


def _cmd_gains(args) -> int:
    plant = _plant_from_args(args)
    vars = LqrDesignVars(q1=args.Q1, q2=args.Q2, q3=args.Q3, r=args.R,
                         lam=args.lam, mu=args.mu)
    method = DelayMethod(args.method)
    controller = design_from_vars(plant, vars, method)
    _write_controller(_out_dir(args) / "gains.csv", controller, method=method.value)
    return EXIT_OK


def _write_controller(path: Path, c: FopidController, **extra) -> None:
    """One-row CSV of the five knobs and then ``extra``; the knobs on stdout."""
    write_csv(path, ("Kp", "Ki", "Kd", "lambda", "mu", *extra),
              [(c.kp, c.ki, c.kd, c.lam, c.mu, *extra.values())])
    print(f"Kp={c.kp:.6g} Ki={c.ki:.6g} Kd={c.kd:.6g} lambda={c.lam:.6g} mu={c.mu:.6g}")
    print(f"wrote {path}")


def _cmd_design(args) -> int:
    plant = _plant_from_args(args)
    methods = [DelayMethod(name.strip()) for name in args.methods.split(",")]
    scenario = _scenario_from_args(args)
    for name in ("restarts", "workers"):
        if getattr(args, name) < 1:
            raise CliError(f"{name} must be at least 1, got {getattr(args, name)}")
    config = MooConfig(population=args.pop, generations=args.gens, seed=args.seed)
    out = _out_dir(args)
    fronts = {}
    missing = False
    for method in methods:
        configs = (dataclasses.replace(config, seed=args.seed + r) for r in range(args.restarts))
        # max keeps the first of equally covering fronts
        best = max((run_nsga2(plant, method, cfg, scenario, workers=args.workers)
                    for cfg in configs), key=_front_coverage)
        if len(best) == 0:
            print(f"error: no feasible designs found for {method.value}", file=sys.stderr)
            missing = True
            continue
        fronts[method] = best
        path = out / f"front_{method.value}.csv"
        write_front_csv(path, best)
        print(f"{method.value}: {len(best)} non-dominated designs -> {path}")
    if DelayMethod.CAI in fronts and DelayMethod.HE in fronts:
        verdict = compare_fronts(fronts[DelayMethod.CAI], fronts[DelayMethod.HE])
        print(f"front comparison verdict: {verdict}")
    for method, front in fronts.items():
        entry = median_solution(front)
        c = entry.controller
        print(f"median [{method.value}]: ITSE={entry.objectives[0]:.6g} "
              f"ISDCO={entry.objectives[1]:.6g} Kp={c.kp:.6g} Ki={c.ki:.6g} "
              f"Kd={c.kd:.6g} lambda={c.lam:.6g} mu={c.mu:.6g}")
    if args.plot:
        xs, ys, labels = [], [], []
        for method, front in fronts.items():
            obj = front.objectives_array()
            xs.append(obj[:, 0])
            ys.append(obj[:, 1])
            labels.append(method.value)
        _maybe_plot(args, out / "fronts.png", xs, ys, labels, "trade-off fronts")
    return EXIT_NUMERICAL_FAILURE if missing else EXIT_OK


def _front_coverage(front) -> float:
    """Scalar coverage proxy: larger fronts with lower objectives win."""
    if len(front) == 0:
        return -np.inf
    obj = front.objectives_array()
    return -float(obj[:, 0].min() + obj[:, 1].min()) + 1e-3 * len(front)


def _cmd_rule(args) -> int:
    controller = eval_tuning_rule(args.LT, args.alpha, args.K)
    _write_controller(_out_dir(args) / "rule.csv", controller,
                      L_over_T=args.LT, alpha=args.alpha, K=args.K)
    return EXIT_OK


def _grid(text: str | None, default: float) -> list[float]:
    """A comma list of values, or ``default`` alone when there is none."""
    return [float(v) for v in text.split(",") if v.strip()] if text else [default]


def _cmd_sweep(args) -> int:
    plant = _plant_from_args(args)
    scenario = _scenario_from_args(args)
    controller = FopidController(kp=args.Kp, ki=args.Ki, kd=args.Kd, lam=args.lam, mu=args.mu)
    L_grid, T_grid = _grid(args.L_grid, plant.L), _grid(args.T_grid, plant.T)
    sweep = robustness_sweep(plant, controller, L_grid, T_grid, scenario)
    out = _out_dir(args)
    path = out / "sweep.csv"
    write_sweep_csv(path, sweep)
    print(f"wrote {path}")
    if sweep.diverged.any():
        print(f"{int(sweep.diverged.sum())} cell(s) diverged (penalty indices)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqrfopid",
        description="LQR-weighted multi-objective FOPID tuning for delayed "
                    "fractional-order processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_step = sub.add_parser("step", help="open-loop step response")
    _add_plant_args(p_step)
    _add_common(p_step)
    p_step.add_argument("--plot", action="store_true", help="also write a PNG (needs matplotlib)")
    p_step.add_argument("--horizon", type=float, default=100.0)
    p_step.add_argument("--h", type=float, default=0.01, help="step size [s]")
    p_step.add_argument("--solver", choices=("gl", "oustaloup"), default="gl")
    p_step.add_argument("--bode", action="store_true", help="also write a Bode table")
    p_step.add_argument("--w-low", type=float, default=1e-3)
    p_step.add_argument("--w-high", type=float, default=1e3)
    p_step.add_argument("--n-freq", type=int, default=200)
    p_step.set_defaults(func=_cmd_step, subparser=p_step)

    p_gains = sub.add_parser("gains", help="FOPID gains from LQR weights")
    _add_plant_args(p_gains)
    _add_common(p_gains)
    p_gains.add_argument("--method", default="he",
                         help="delay_free, cai or he (default he)")
    p_gains.add_argument("--Q1", type=float, required=True)
    p_gains.add_argument("--Q2", type=float, required=True)
    p_gains.add_argument("--Q3", type=float, required=True)
    p_gains.add_argument("--R", type=float, required=True)
    p_gains.add_argument("--lam", type=float, default=1.0, help="integral order")
    p_gains.add_argument("--mu", type=float, default=0.5, help="derivative order")
    p_gains.set_defaults(func=_cmd_gains, subparser=p_gains)

    p_design = sub.add_parser("design", help="multi-objective weight selection")
    _add_plant_args(p_design)
    _add_common(p_design)
    p_design.add_argument("--plot", action="store_true", help="also write a PNG (needs matplotlib)")
    p_design.add_argument("--seed", type=int, default=0, help="random seed")
    p_design.add_argument("--methods", default="cai,he",
                          help="comma list of delay methods (default cai,he)")
    p_design.add_argument("--pop", type=int, default=100, help="population size")
    p_design.add_argument("--gens", type=int, default=100, help="generations")
    p_design.add_argument("--restarts", type=int, default=1,
                          help="independent runs; the best-covering front is kept")
    p_design.add_argument("--workers", type=int, default=1,
                          help="parallel objective evaluations (at most the core count)")
    p_design.add_argument("--horizon", type=float, default=100.0)
    p_design.add_argument("--h", type=float, default=0.01)
    p_design.set_defaults(func=_cmd_design, subparser=p_design)

    p_rule = sub.add_parser("rule", help="evaluate the polynomial tuning rules")
    _add_common(p_rule)
    p_rule.add_argument("--LT", type=float, required=True, help="delay-to-lag ratio L/T")
    p_rule.add_argument("--alpha", type=float, required=True)
    p_rule.add_argument("--K", type=float, default=1.0)
    p_rule.set_defaults(func=_cmd_rule, subparser=p_rule)

    p_sweep = sub.add_parser("sweep", help="robustness sweep of a fixed controller")
    _add_plant_args(p_sweep)
    _add_common(p_sweep)
    p_sweep.add_argument("--Kp", type=float, required=True)
    p_sweep.add_argument("--Ki", type=float, required=True)
    p_sweep.add_argument("--Kd", type=float, required=True)
    p_sweep.add_argument("--lam", type=float, required=True)
    p_sweep.add_argument("--mu", type=float, required=True)
    p_sweep.add_argument("--L-grid", default=None, help="comma list of delays")
    p_sweep.add_argument("--T-grid", default=None, help="comma list of lags")
    p_sweep.add_argument("--horizon", type=float, default=100.0)
    p_sweep.add_argument("--h", type=float, default=0.01)
    p_sweep.set_defaults(func=_cmd_sweep, subparser=p_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _install_config_defaults(args)
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_INVALID_INPUT)
    except CareFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
