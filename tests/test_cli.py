import argparse
import sys
import warnings

import numpy as np
import pytest

from lqrfopid.cli import EXIT_INVALID_INPUT, EXIT_NUMERICAL_FAILURE, EXIT_OK, build_parser, main

from oracles import power_step_response
from reference_cases import BY_NAME, REFERENCE_FIT, RULE_SPOT_POINT


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestStep:
    def test_writes_trajectory(self, tmp_path):
        code = main(["step", "--K", "1", "--L", "0.5", "--T", "2", "--alpha", "1.5",
                     "--horizon", "10", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "step.csv")
        assert header == ["t", "y", "u", "x1", "x2", "x3"]
        assert len(rows) == 1000

    def test_integer_order_matches_closed_form(self, tmp_path):
        code = main(["step", "--alpha", "1", "--horizon", "20",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "step.csv")
        t = np.array([float(r[0]) for r in rows])
        y = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(y - power_step_response(1, 0.5, 2, t))) <= 1e-3

    def test_bode_dc_magnitude(self, tmp_path):
        code = main(["step", "--horizon", "5", "--bode", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "bode.csv")
        assert header == ["omega", "magnitude_db", "phase_deg"]
        assert abs(float(rows[0][1])) < 0.1  # ~0 dB at the low end for K=1

    def test_invalid_plant_exits_2(self, tmp_path):
        code = main(["step", "--alpha", "2.5", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("solver", ["oustaloup", "gl"])
    def test_huge_gain_without_runtime_warnings(self, tmp_path, capsys, solver):
        """A gain whose step still has a finite divergence bound finishes;
        past it the command exits 2 naming K.  NumPy warns of nothing."""
        plant = ["--alpha", "0.5", "--h", "0.1", "--horizon", "20", "--solver", solver]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["step", "--K", "1e300", *plant, "--out-dir", str(tmp_path / "ok")])
            assert code == EXIT_OK
            _, rows = read_csv(tmp_path / "ok" / "step.csv")
            assert all(np.isfinite(float(v)) for row in rows for v in row)
            capsys.readouterr()
            code = main(["step", "--K", "1e308", *plant, "--out-dir", str(tmp_path / "no")])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: K=1e+308 ")
        assert not (tmp_path / "no").exists()


class TestGains:
    def test_reference_design(self, tmp_path, capsys):
        case = BY_NAME["osc_median"]
        code = main(["gains", "--method", "he",
                     "--Q1", str(case.q1), "--Q2", str(case.q2),
                     "--Q3", str(case.q3), "--R", str(case.r),
                     "--lam", str(case.lam), "--mu", str(case.mu),
                     "--K", "1", "--L", "0.5", "--T", "2", "--alpha", "1.5",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Kp=" in out and "lambda=" in out
        header, rows = read_csv(tmp_path / "gains.csv")
        assert header == ["Kp", "Ki", "Kd", "lambda", "mu", "method"]
        assert float(rows[0][0]) == pytest.approx(case.kp, abs=2e-4)
        assert float(rows[0][1]) == pytest.approx(case.ki, abs=2e-4)

    def test_unstabilizing_weights_exit_3(self, tmp_path):
        code = main(["gains", "--method", "he", "--Q1", "0", "--Q2", "0",
                     "--Q3", "0", "--R", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL_FAILURE

    def test_unknown_method_exit_2(self, tmp_path):
        code = main(["gains", "--method", "bogus", "--Q1", "1", "--Q2", "1",
                     "--Q3", "1", "--R", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID_INPUT


class TestRule:
    def test_spot_value(self, tmp_path, capsys):
        p = RULE_SPOT_POINT
        code = main(["rule", "--LT", "1", "--alpha", "1.2", "--K", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "rule.csv")
        assert header[:5] == ["Kp", "Ki", "Kd", "lambda", "mu"]
        values = dict(zip(("kp", "ki", "kd", "lam", "mu"),
                          (float(v) for v in rows[0][:5])))
        for name, val in values.items():
            assert abs(val - p[name]) <= 3 * REFERENCE_FIT[name][2]

    def test_zero_gain_exit_2(self, tmp_path):
        code = main(["rule", "--LT", "1", "--alpha", "1.2", "--K", "0",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID_INPUT

    def test_overflow_exit_2_without_runtime_warnings(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rule", "--LT", "1e200", "--alpha", "1.8", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        # the fitted-domain warning stays; NumPy's arithmetic warnings do not
        # reach the user
        assert [w.category for w in caught] == [UserWarning]
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_single_cell_consistent_with_simulation(self, tmp_path):
        from lqrfopid import FopidController, NioptdPlant, Scenario, simulate_closed_loop

        case = BY_NAME["osc_median"]
        code = main(["sweep", "--K", "1", "--L", "0.5", "--T", "2", "--alpha", "1.5",
                     "--Kp", str(case.kp), "--Ki", str(case.ki), "--Kd", str(case.kd),
                     "--lam", str(case.lam), "--mu", str(case.mu),
                     "--horizon", "20", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["L", "T", "itse", "isdco"]
        assert len(rows) == 1
        controller = FopidController(kp=case.kp, ki=case.ki, kd=case.kd,
                                     lam=case.lam, mu=case.mu)
        res = simulate_closed_loop(NioptdPlant(K=1, L=0.5, T=2, alpha=1.5),
                                   controller, Scenario(horizon=20.0, step_size=0.01))
        assert float(rows[0][2]) == pytest.approx(res.itse, rel=1e-9)

    def test_grid_rows(self, tmp_path):
        case = BY_NAME["osc_median"]
        code = main(["sweep", "--K", "1", "--L", "0.5", "--T", "2", "--alpha", "1.5",
                     "--Kp", str(case.kp), "--Ki", str(case.ki), "--Kd", str(case.kd),
                     "--lam", str(case.lam), "--mu", str(case.mu),
                     "--L-grid", "0.4,0.5,0.6", "--T-grid", "1.8,2.2",
                     "--horizon", "20", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 6

    def test_bad_grid_exit_2(self, tmp_path):
        case = BY_NAME["osc_median"]
        code = main(["sweep", "--K", "1", "--L", "0.5", "--T", "2", "--alpha", "1.5",
                     "--Kp", str(case.kp), "--Ki", str(case.ki), "--Kd", str(case.kd),
                     "--lam", str(case.lam), "--mu", str(case.mu),
                     "--L-grid", "-1.0", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID_INPUT


class TestDesign:
    ARGS = ["design", "--K", "1", "--L", "0.5", "--T", "2", "--alpha", "0.5",
            "--methods", "cai,he", "--pop", "20", "--gens", "4",
            "--horizon", "20", "--h", "0.02", "--seed", "0"]

    def test_fronts_and_verdict(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "front comparison verdict:" in out
        assert "median [cai]:" in out
        for name in ("front_cai.csv", "front_he.csv"):
            header, rows = read_csv(tmp_path / name)
            assert header[0] == "J1_itse"
            assert len(rows) >= 1

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out-dir", str(d1)]) == EXIT_OK
        assert main(self.ARGS + ["--out-dir", str(d2)]) == EXIT_OK
        for name in ("front_cai.csv", "front_he.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_one_kernel_object_per_simulated_evaluation(self, tmp_path, monkeypatch):
        """A `design` run sets up exactly one kernel object for each of the
        two operators of each evaluation it simulates, none for an
        evaluation the early verdict decides or the gain map rejects, and
        one for the plant, which both methods share."""
        import lqrfopid.nsga2
        from lqrfopid import sim

        verdicts, kernels = [], []
        evaluate, early = lqrfopid.nsga2.evaluate_design_objectives, sim._early_verdict

        def spied_evaluate(*args, **kwargs):
            verdicts.append("no gain map")
            kernels.append(0)
            return evaluate(*args, **kwargs)

        def spied_verdict(*args):
            crossed = early(*args)
            verdicts[-1] = "simulated" if crossed is None else "decided"
            return crossed

        class CountedKernels(sim._OperatorKernels):
            def __init__(self, modes, h, n):
                kernels[-1] += 1
                super().__init__(modes, h, n)

        monkeypatch.setattr(lqrfopid.nsga2, "evaluate_design_objectives", spied_evaluate)
        monkeypatch.setattr(sim, "_early_verdict", spied_verdict)
        monkeypatch.setattr(sim, "_OperatorKernels", CountedKernels)
        sim._PlantAtRest.cache_clear()
        main(["design", "--methods", "cai,he", "--pop", "8", "--gens", "1", "--seed", "1",
              "--horizon", "20", "--h", "0.02", "--out-dir", str(tmp_path)])
        sim._PlantAtRest.cache_clear()
        assert len(verdicts) == 32
        assert {"simulated", "decided"} <= set(verdicts)
        # two operator kernels per simulated evaluation, and the plant's once
        assert sum(kernels) == 2 * verdicts.count("simulated") + 1
        for verdict, built in zip(verdicts, kernels):
            assert built - 2 * (verdict == "simulated") in (0, 1), verdict

    def test_empty_front_does_not_stop_other_methods(self, tmp_path, monkeypatch, capsys):
        import lqrfopid.cli
        from lqrfopid import DelayMethod, ParetoFront

        search = lqrfopid.cli.run_nsga2

        def no_cai_designs(plant, method, *args, **kwargs):
            if method is DelayMethod.CAI:
                return ParetoFront(entries=(), method=method, plant=plant)
            return search(plant, method, *args, **kwargs)

        monkeypatch.setattr(lqrfopid.cli, "run_nsga2", no_cai_designs)
        code = main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert "no feasible designs found for cai" in captured.err
        assert "front comparison verdict:" not in captured.out
        assert "median [he]:" in captured.out
        assert not (tmp_path / "front_cai.csv").exists()
        _, rows = read_csv(tmp_path / "front_he.csv")
        assert len(rows) >= 1


class TestBadNumbers:
    @pytest.mark.parametrize("argv", [
        ["step", "--horizon", "0.001"],
        ["step", "--solver", "oustaloup", "--horizon", "0.005"],
        ["sweep", "--Kp", "1", "--Ki", "1", "--Kd", "1", "--lam", "1", "--mu", "0.5",
         "--horizon", "0.001"],
        ["design", "--horizon", "0.001"],
        ["design", "--pop", "2"],
        ["design", "--gens", "0"],
        ["design", "--restarts", "0"],
        ["step", "--L", "nan"],
        ["step", "--L", "inf"],
        ["step", "--T", "nan"],
        ["gains", "--L", "nan", "--Q1", "1", "--Q2", "1", "--Q3", "1", "--R", "1"],
        ["sweep", "--Kp", "1", "--Ki", "1", "--Kd", "1", "--lam", "1", "--mu", "0.5",
         "--L-grid", "nan"],
        ["sweep", "--Kp", "1", "--Ki", "1", "--Kd", "1", "--lam", "1", "--mu", "0.5",
         "--T-grid", "1,inf"],
        ["step", "--bode", "--w-low", "0"],
        ["step", "--bode", "--w-low", "10", "--w-high", "1"],
        ["step", "--bode", "--n-freq", "0"],
        ["step", "--horizon", "1e-9"],
        ["step", "--horizon", "inf"],
        ["step", "--h", "inf"],
        ["sweep", "--Kp", "1", "--Ki", "1", "--Kd", "1", "--lam", "1", "--mu", "0.5",
         "--horizon", "1e-9"],
        ["design", "--horizon", "1e-9", "--pop", "4", "--gens", "1"],
        ["design", "--workers", "0", "--pop", "4", "--gens", "1", "--horizon", "1"],
        ["design", "--workers", "-1", "--pop", "4", "--gens", "1", "--horizon", "1"],
        # an output directory that is an existing regular file
        ["rule", "--LT", "1", "--alpha", "1.2", "--out-dir", __file__],
        # no plant has L/T < 0
        ["rule", "--LT", "-1", "--alpha", "3"],
        # a repeated method would run its search twice
        ["design", "--methods", "he,he", "--pop", "4", "--gens", "1", "--horizon", "1"],
    ])
    def test_exit_2_without_output(self, tmp_path, capsys, argv):
        # an --out-dir of the argv itself comes later and wins
        code = main(argv[:1] + ["--out-dir", str(tmp_path)] + argv[1:])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


# the smallest valid argv of each subcommand; ``design`` runs a tiny search
MINIMAL_ARGV = {
    "step": ["step", "--horizon", "1"],
    "gains": ["gains", "--Q1", "1", "--Q2", "1", "--Q3", "1", "--R", "1"],
    "design": ["design", "--methods", "he", "--pop", "4", "--gens", "1",
               "--horizon", "1", "--h", "0.1"],
    "rule": ["rule", "--LT", "1", "--alpha", "1.2"],
    "sweep": ["sweep", "--Kp", "1", "--Ki", "1", "--Kd", "1", "--lam", "1", "--mu", "0.5",
              "--horizon", "1"],
}


def _float_options():
    """(subcommand, option) for every float option of every subcommand."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, max(action.option_strings, key=len))
            for name, sub in subparsers.choices.items()
            for action in sub._actions if action.type is float]


FLOAT_OPTIONS = _float_options()


class TestBoundaryTable:
    """Every float option of every subcommand, set to each non-finite value,
    is rejected before any file is written."""

    def test_covers_every_subcommand(self):
        assert {name for name, _ in FLOAT_OPTIONS} == set(MINIMAL_ARGV)
        assert len(FLOAT_OPTIONS) == 38

    @pytest.mark.parametrize("name", sorted(MINIMAL_ARGV))
    def test_minimal_argv_is_valid(self, tmp_path, name):
        assert main(MINIMAL_ARGV[name] + ["--out-dir", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, option", FLOAT_OPTIONS,
                             ids=[f"{n} {o}" for n, o in FLOAT_OPTIONS])
    def test_non_finite_exits_2_without_output(self, tmp_path, capsys, name, option, value):
        out = tmp_path / "out"
        # the = form: argparse reads a bare -inf as an option
        argv = MINIMAL_ARGV[name] + [f"{option}={value}", "--out-dir", str(out)]
        if option in ("--w-low", "--w-high"):
            argv.append("--bode")
        assert main(argv) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes are read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.read = set()

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dict__"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("name", sorted(MINIMAL_ARGV))
def test_every_option_is_read(tmp_path, monkeypatch, name):
    """Each option a subcommand parses is read by its run: none is
    accepted and then ignored."""
    namespaces = []

    def recording_parser():
        parser = build_parser()
        parse = parser.parse_args

        def parse_args(argv=None):
            namespaces.append(_ReadRecorder(**vars(parse(argv))))
            return namespaces[-1]

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr("lqrfopid.cli.build_parser", recording_parser)
    argv = MINIMAL_ARGV[name] + (["--bode"] if name == "step" else [])
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
    args, = namespaces
    options = {action.dest for action in args.subparser._actions
               if action.option_strings and action.dest != "help"}
    assert options - args.read == set()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("alpha=1.0\nhorizon=20\n# comment\nh=0.01\n", encoding="utf-8")
        out1 = tmp_path / "fromcfg"
        code = main(["step", "--config", str(cfg), "--out-dir", str(out1)])
        assert code == EXIT_OK
        _, rows = read_csv(out1 / "step.csv")
        assert len(rows) == 2000  # horizon 20 / h 0.01
        out2 = tmp_path / "flagwins"
        code = main(["step", "--config", str(cfg), "--horizon", "10",
                     "--out-dir", str(out2)])
        assert code == EXIT_OK
        _, rows = read_csv(out2 / "step.csv")
        assert len(rows) == 1000

    @pytest.mark.parametrize("value, bode", [("1", True), ("TRUE", True), ("Yes", True),
                                              ("on", True), ("0", False), ("False", False),
                                              ("NO", False), ("off", False)])
    def test_boolean_spellings(self, tmp_path, value, bode):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"bode = {value}\nhorizon = 1\n", encoding="utf-8")
        code = main(["step", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "bode.csv").exists() == bode

    def test_unrecognized_boolean_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("bode = treu\n", encoding="utf-8")
        code = main(["step", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'bode'") and "'treu'" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=1\n", encoding="utf-8")
        code = main(["step", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID_INPUT

    def test_seed_is_no_step_key(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=3\n", encoding="utf-8")
        code = main(["step", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INVALID_INPUT
        assert "unknown config key 'seed'" in capsys.readouterr().err

    def test_unreadable_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = main(["step", "--config", str(missing), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {missing}")
        assert not (tmp_path / "out").exists()

    def test_line_without_equals_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "noeq.cfg"
        cfg.write_text("horizon = 1\nbode\n", encoding="utf-8")
        code = main(["step", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INVALID_INPUT
        assert f"{cfg}:2: expected key=value, got 'bode'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_int_and_str_keys_equal_their_flags(self, tmp_path):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text("n-freq = 3\nsolver = oustaloup\nbode = on\nhorizon = 1\n",
                       encoding="utf-8")
        from_cfg, from_flags, gl = tmp_path / "cfg", tmp_path / "flags", tmp_path / "gl"
        assert main(["step", "--config", str(cfg), "--out-dir", str(from_cfg)]) == EXIT_OK
        assert main(["step", "--n-freq", "3", "--solver", "oustaloup", "--bode", "--horizon", "1",
                     "--out-dir", str(from_flags)]) == EXIT_OK
        for name in ("step.csv", "bode.csv"):
            assert (from_cfg / name).read_bytes() == (from_flags / name).read_bytes()
        assert len(read_csv(from_cfg / "bode.csv")[1]) == 3
        # the solver key took effect: the default solver gives another step
        assert main(["step", "--bode", "--horizon", "1", "--out-dir", str(gl)]) == EXIT_OK
        assert (gl / "step.csv").read_bytes() != (from_cfg / "step.csv").read_bytes()

    @pytest.mark.parametrize("name, csv", [("gains", "gains.csv"), ("rule", "rule.csv"),
                                           ("sweep", "sweep.csv")])
    def test_config_gives_required_options(self, tmp_path, name, csv):
        """A command whose required options all come from --config writes
        the bytes it writes with them given as flags."""
        command, *flags = MINIMAL_ARGV[name]
        cfg = tmp_path / "required.cfg"
        cfg.write_text("".join(f"{key[2:]} = {value}\n"
                               for key, value in zip(flags[::2], flags[1::2])), encoding="utf-8")
        from_cfg, from_flags = tmp_path / "cfg", tmp_path / "flags"
        assert main([command, "--config", str(cfg), "--out-dir", str(from_cfg)]) == EXIT_OK
        assert main(MINIMAL_ARGV[name] + ["--out-dir", str(from_flags)]) == EXIT_OK
        assert (from_cfg / csv).read_bytes() == (from_flags / csv).read_bytes()

    def test_required_option_missing_from_flags_and_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("Q1 = 1\nQ2 = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit:
            main(["gains", "--config", str(cfg), "--Q3", "1", "--out-dir", str(tmp_path)])
        assert exit.value.code == EXIT_INVALID_INPUT
        assert "the following arguments are required: --R" in capsys.readouterr().err
        assert not (tmp_path / "gains.csv").exists()

    def test_bad_int_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "int.cfg"
        cfg.write_text("n_freq = 2.5\n", encoding="utf-8")
        code = main(["step", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: config key 'n_freq'")

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LQRFOPID_OUTDIR", str(tmp_path / "envout"))
        code = main(["step", "--horizon", "5"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "step.csv").exists()


class TestPlotWithoutMatplotlib:
    @pytest.mark.parametrize("argv, written", [
        (["step", "--horizon", "1"], ["step.csv"]),
        (TestDesign.ARGS, ["front_cai.csv", "front_he.csv"]),
    ])
    def test_notice_and_csvs(self, tmp_path, monkeypatch, capsys, argv, written):
        """--plot where matplotlib cannot be imported prints a notice, still
        writes the CSVs and exits 0."""
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        code = main(argv + ["--plot", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert "matplotlib not available; skipping plot" in capsys.readouterr().err
        for name in written:
            assert len(read_csv(tmp_path / name)[1]) >= 1
        assert not list(tmp_path.glob("*.png"))
