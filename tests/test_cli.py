"""CLI behaviour: exit codes, report schema, determinism, artifacts."""

import json
import math
import os
import time

import pytest

from wavesym.cli import main
from wavesym.detsys import PRIME
from wavesym.reduction import REDUCTION_NAMES


def run(tmp_path, *args):
    out = tmp_path / "report.json"
    code = main(list(args) + ["--format", "json", "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["classify", "--case", "i", "--param", "c=0"]) == 2
        assert main(["classify", "--case", "i", "--param", "nonsense"]) == 2
        assert main(["verify", "--grid", "4"]) == 2

    def test_zero_family_parameter_in_verify_is_2(self, capsys):
        assert main(["verify", "--param", "c=0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "c must be nonzero" in err

    @pytest.mark.parametrize("box", ["0,1,1,2,1,2", "-1.5,-0.5,0.5,1.5,1,2"])
    def test_box_reaching_x_le_0_in_verify_is_2(self, capsys, box):
        # the y/x reconstructions need x0 - 8*h > 0; refused before any
        # numeric work
        assert main(["verify", f"--box={box}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: bad --box:")

    def test_singular_set_intrusion_in_verify_is_1(self, tmp_path, capsys):
        # a box through t = 0 is a valid input that hits the planar
        # solution's singular set: a failed check, not a config error
        code, _ = run(tmp_path, "verify", "--box", "1,2,1,2,-0.5,0.5", "--grid", "5,5,5")
        assert code == 1
        assert "singular-set intrusion" in capsys.readouterr().err

    def test_rk4_overflow_in_verify_is_1(self, tmp_path, capsys):
        # the (i, v1) zeta1 blows up at y/x = 0.4077, just inside its
        # interval: its closed form reaches the bound there at any step,
        # where RK4 overflowed e^(-z/c) at this step; one failed-check line
        code, _ = run(tmp_path, "verify", "--param", "c1=1e6", "--grid", "5,5,5",
                      "--ode-step", "1e-4")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("check failed: trajectory exceeded bound")

    @pytest.mark.parametrize("c1, rk4_x", [
        ("1e6", 0.40771356416239707),  # zeta1: its cos form's singularity
        ("-1e6", 0.97422),  # zeta2: -2c*ln cos(b*(t - t0)) with b = 707.1
    ], ids=["zeta1", "zeta2"])
    def test_closed_form_bound_crossing_in_verify_is_1(self, tmp_path, capsys, c1, rk4_x):
        # the x of the crossing lies within one default step of the one the
        # RK4 states of earlier versions reported
        code, _ = run(tmp_path, "verify", "--param", f"c1={c1}", "--grid", "5,5,5")
        assert code == 1
        err = capsys.readouterr().err
        prefix = "check failed: trajectory exceeded bound 1000000.0 at x="
        assert err.count("\n") == 1 and err.startswith(prefix)
        assert abs(float(err[len(prefix):]) - rk4_x) <= 1e-5

    def test_overflowing_squares_give_a_finite_rms(self, tmp_path, capsys):
        # L = 1e-300 makes the power-family residuals ~1e293, whose squares
        # overflow: the rms is taken from the residuals scaled by their
        # maximum, with no warning and no Infinity in the report
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = run(tmp_path, "verify", "--param", "L=1e-300",
                               "--grid", "5,5,5", "--ode-step", "1e-4")
        assert code == 1
        assert capsys.readouterr().err == "" and caught == []
        assert "Infinity" not in (tmp_path / "report.json").read_text()
        reductions = report["stages"]["verify"]["reductions"]
        for case in ("ii_v1", "ii_v4"):
            r = reductions[case]
            assert math.isfinite(r["max_residual"]) and r["max_residual"] > 1e290
            assert 0 < r["rms_residual"] <= r["max_residual"]
        assert reductions["ii_v1"]["rms_residual"] == pytest.approx(6.184557187071141e+292,
                                                                   rel=1e-12)

    def test_both_m_and_p_zero_in_verify_is_2(self, capsys):
        assert main(["verify", "--param", "m=0", "--param", "p=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "m, p" in err

    @pytest.mark.parametrize("command", ["verify", "report-all"])
    @pytest.mark.parametrize("params", [["e1=2"], ["e2=1"], ["e1=1/2", "e2=-1"]])
    def test_case_ii_exponent_off_one_in_numeric_commands_is_2(
            self, tmp_path, monkeypatch, capsys, command, params):
        # the case ii reconstructions hold at e1 = 1, e2 = 0 only: refused
        # before any stage runs, so no report and no convergence CSV
        monkeypatch.chdir(tmp_path)
        argv = [command, "--out", str(tmp_path / "report.json")]
        for p in params:
            argv += ["--param", p]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: --param e1, e2:")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["verify", "report-all"])
    @pytest.mark.parametrize("params, message", [
        (["e1=2"], "--param e1, e2: the case ii reconstructions of {} need e1 = 1, "
                   "e2 = 0, got e1 = 2, e2 = 0"),
        (["e1=1/2", "e2=-1"], "--param e1, e2: the case ii reconstructions of {} need "
                              "e1 = 1, e2 = 0, got e1 = 1/2, e2 = -1"),
        (["m=0", "p=0"], "--param m, p: m and p cannot both vanish"),
        (["m=0"], "--param m, p: m and p cannot both vanish"),  # p's default is 0
    ], ids=["e1=2", "e1=1/2,e2=-1", "m=p=0", "m=0"])
    def test_parameter_rule_messages(self, capsys, command, params, message):
        argv = [command]
        for p in params:
            argv += ["--param", p]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message.format(command)}\n"

    @pytest.mark.parametrize("command", ["verify", "report-all"])
    @pytest.mark.parametrize("flags, what", [
        (["--param", "m=0", "--param", "p=0"], "m, p"),
        (["--ode-step", "1"], "--ode-step"),
        (["--box=0.005,1,1,2,1,2"], "--box"),
        (["--param", "K=0"], "K must be nonzero"),
    ], ids=["m=p=0", "ode-step", "box", "K=0"])
    def test_verify_only_input_refused_before_any_stage(
            self, monkeypatch, capsys, command, flags, what):
        from wavesym import cli

        stages = []
        for name in ("stage_derive", "stage_classify", "stage_reduce", "stage_verify"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name: stages.append(_name))
        assert main([command, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert what in err and stages == []

    def test_zero_ode_step_is_2(self, capsys):
        assert main(["verify", "--ode-step", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "--ode-step" in err

    def test_nan_ode_step_is_2(self, capsys):
        assert main(["verify", "--ode-step", "nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad --ode-step:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--box=0.0081,1,1,2,1,2", "--ode-step=1e-9"])
    def test_too_many_ode_steps_in_verify_is_2(self, capsys, flag):
        # the box passes the x0 check, but y/x then spans ~2e4 (or the step
        # is tiny): RK4 would need ~1e9 steps, refused from the margins
        # before any numeric work
        start = time.perf_counter()
        assert main(["verify", flag]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: bad --box or --ode-step:")

    @pytest.mark.parametrize("flags, prefix", [
        (["--ode-step", "inf"], "bad --ode-step:"),
        (["--ode-step", "1"], "bad --ode-step:"),
        (["--tol", "nan"], "bad --tol:"),
        (["--tol", "-1"], "bad --tol:"),
        (["--tol", "0"], "bad --tol:"),
        (["--eps", "nan"], "bad --eps:"),
        (["--eps", "inf"], "bad --eps:"),
        (["--eps", "0"], "bad --eps:"),
        (["--grid", "1000,1000,1000"], "bad --grid:"),
        (["--grid", "127,127,125"], "bad --grid:"),
    ], ids=lambda v: "=".join(v) if isinstance(v, list) else None)
    def test_senseless_numeric_flag_in_verify_is_2(self, capsys, flags, prefix):
        # a step wider than a reconstruction interval takes one RK4 step and
        # fails the check; a huge grid would allocate before failing
        start = time.perf_counter()
        assert main(["verify", *flags]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {prefix}")

    def test_senseless_config_file_value_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": NaN}')
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: bad --tol:")

    @pytest.mark.parametrize("text, prefix", [
        ("[1]", "bad --config:"),
        ('{"params": 5}', "bad --config:"),
        ('{"params": [5]}', "--param needs NAME=VALUE"),
    ], ids=["list", "params-int", "params-item-int"])
    def test_config_file_of_wrong_shape_is_2(self, tmp_path, capsys, text, prefix):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["classify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {prefix}")

    def test_unknown_param_name_is_2(self, capsys):
        assert main(["classify", "--case", "ii", "--param", "E1=2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: bad --param:")
        assert "'E1'" in err and "e1, e2" in err and "harmonic_xy" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "--case", "i", "--param", "c=1e5000", "--degree", "0"],
        ["classify", "--case", "i", "--param", "c=1e1000000000", "--degree", "0"],
        ["reduce", "--case", "i", "--param", "c=1e400"],
        ["reduce", "--case", "i", "--param", "K=1e-400"],
        ["reduce", "--case", "ii", "--generator", "v4", "--param", "L=1e400"],
        ["verify", "--param", "c=1e400", "--grid", "5,5,5"],
        ["classify", "--case", "ii", "--param", "e1=1e-3000", "--degree", "0"],
    ], ids=lambda argv: argv[0] + ":" + argv[argv.index("--param") + 1])
    def test_param_out_of_float_range_is_2(self, capsys, argv):
        # each stage evaluates the parameters as floats; 1e1000000000 is
        # refused before a billion-digit integer is built
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: bad --param:")

    @pytest.mark.parametrize("command, e1", [
        ("classify", "1/65"), ("classify", "-1/65"), ("classify", "3/200"),
        ("classify", "1/2147483647"), ("reduce", "1/65"), ("reduce", "1/2147483647"),
    ])
    def test_exponent_numerator_above_the_cap_is_2(self, capsys, command, e1):
        # f = L*(e1*u + e2)^(1/e1) is expanded exactly: at 1/2147483647
        # classify and reduce ran for minutes, and classify's time grows
        # about as n^2.2 at e1 = 1/n
        from wavesym.cli import MAX_EXPONENT_NUMERATOR

        start = time.perf_counter()
        assert main([command, "--case", "ii", "--param", f"e1={e1}"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: bad --param: e1={e1} ")
        assert err.endswith(f"numerator is larger than {MAX_EXPONENT_NUMERATOR} in magnitude\n")

    def test_exponent_numerator_at_the_cap_accepted(self):
        from fractions import Fraction

        from wavesym.cli import MAX_EXPONENT_NUMERATOR, RunConfig, _family
        from wavesym.expr import rat

        for e1 in (Fraction(1, MAX_EXPONENT_NUMERATOR), Fraction(-3, MAX_EXPONENT_NUMERATOR),
                   Fraction(2147483647)):
            assert _family(RunConfig("classify", case="ii", params={"e1": e1})).e1 == rat(e1)

    def test_param_at_the_ends_of_the_float_range_accepted(self):
        from wavesym.cli import _parse_rational

        for text in ("0", "-0.0", "1e308", "-1.7e308", "2.3e-308", "1e-307", "3/2"):
            value = _parse_rational("c", text)
            assert value == 0 or 0 < abs(float(value)) < float("inf")

    @pytest.mark.parametrize("out", ["missing/r.json", "."], ids=["no-directory", "directory"])
    def test_unwritable_out_is_2(self, tmp_path, capsys, out):
        # refused before the work, not after it with a traceback
        start = time.perf_counter()
        argv = ["classify", "--case", "i", "--degree", "0", "--out", str(tmp_path / out)]
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: bad --out:")

    def test_negative_degree_is_2(self, capsys):
        assert main(["classify", "--case", "i", "--degree", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--degree" in err

    def test_degree_zero_classify_fails_with_note(self, tmp_path):
        code, report = run(tmp_path, "classify", "--case", "i", "--degree", "0")
        assert code == 1
        stage = report["stages"]["classify"]
        assert stage["dimension"] == 3
        assert "too small" in stage["dimension_note"]

    def test_default_classify_flags_dimension_discrepancy(self, tmp_path):
        code, report = run(tmp_path, "classify", "--case", "ii")
        stage = report["stages"]["classify"]
        # engine checks pass; the reference dimension check fails by design
        assert stage["residual_certificate"] is True
        assert stage["reference_table_matches"] is True
        assert stage["jacobi_all_zero"] is True
        assert stage["dimension"] == 6
        assert not stage["dimension_matches_reference"]
        assert code == 1

    def test_reduce_passes(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v1")
        assert code == 0
        stage = report["stages"]["reduce"]
        assert stage["reference_match"] is True
        assert stage["separation_identity"] is True

    @pytest.mark.parametrize("k", ["-1", "1/3"])
    def test_planar_solution_at_concrete_K(self, tmp_path, capsys, k):
        # the explicit solution binds K to -1/(m^2 + p^2) in a family of its
        # own, so a concrete K is no substitution key
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v4",
                           "--param", f"K={k}")
        assert code == 0
        assert capsys.readouterr().err == ""
        assert report["stages"]["reduce"]["explicit_solution_residual_zero"] is True

    @pytest.mark.parametrize("case, param, dimension", [
        ("i", f"K=1/{PRIME}", 8), ("i", f"c={PRIME}", 8),
        ("ii", f"L=1/{PRIME}", 6), ("ii", f"e2=1/{PRIME}", 6),
    ], ids=["K=1/p", "c=p", "L=1/p", "e2=1/p"])
    def test_classify_at_a_parameter_without_a_residue(
            self, tmp_path, capsys, case, param, dimension):
        # the parameter is 0 or infinite mod the row selection's prime:
        # every row is eliminated, and the report is written as at any K
        code, report = run(tmp_path, "classify", "--case", case, "--degree", "2",
                           "--param", param)
        assert code == 1 and capsys.readouterr().err == ""
        stage = report["stages"]["classify"]
        assert stage["dimension"] == dimension and stage["residual_certificate"] is True

    def test_verify_passes(self, tmp_path):
        code, report = run(tmp_path, "verify")
        assert code == 0
        assert report["stages"]["verify"]["passed"] is True

    def test_verify_measures_the_planar_solution_once(self, tmp_path, monkeypatch):
        # 4 reductions at two steps each, the violated-constraint control,
        # 5 transported generators and the u*d/du control; the explicit
        # solution is the (i, v4) reduction's residual
        from wavesym import numverify

        calls = []
        original = numverify.fd_residual

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(numverify, "fd_residual", counted)
        code, report = run(tmp_path, "verify")
        assert code == 0
        assert len(calls) == 15
        stage = report["stages"]["verify"]
        planar, i_v4 = stage["explicit_solution"], stage["reductions"]["i_v4"]
        assert planar["max_residual"] == i_v4["max_residual"]
        assert planar["rms_residual"] == i_v4["rms_residual"]
        assert planar["convergence"] == [] and planar["convergence_factor"] is None


class TestDeferredNumpy:
    """Only the numeric stage needs numpy: in a fresh interpreter derive,
    classify and reduce leave it unloaded, and so do ast and the ODE module,
    which only verify and report-all use; verify refuses its input without
    numpy, and loads it to run."""

    SCRIPT = """
import sys
from wavesym.cli import main

out = sys.argv[1]
for argv in (["derive"], ["classify", "--degree", "1"], ["reduce"]):
    assert main(argv + ["--out", out]) in (0, 1), argv
    loaded = [m for m in ("numpy", "ast", "wavesym.ode") if m in sys.modules]
    assert not loaded, (argv, loaded)
assert main(["verify", "--param", "e1=2", "--out", out]) == 2
assert "numpy" not in sys.modules
assert main(["verify", "--grid", "5,5,5", "--out", out]) == 0
assert "numpy" in sys.modules
"""

    # Start-up: the records are namedtuples and slots classes, so neither
    # the import nor these commands load dataclasses (and with it inspect,
    # ast and dis) or typing.  -S leaves out site, whose .pth files may
    # import typing themselves; numpy is in site-packages, so no verify.
    STARTUP_SCRIPT = """
import sys
from wavesym.cli import main

HEAVY = ("dataclasses", "inspect", "typing")
assert not [m for m in HEAVY if m in sys.modules], "import"
for argv in (["derive"], ["classify", "--degree", "1"], ["reduce"]):
    assert main(argv + ["--out", sys.argv[1]]) in (0, 1), argv
    assert not [m for m in HEAVY if m in sys.modules], argv
"""

    @staticmethod
    def _run(tmp_path, *flags_and_script):
        import subprocess
        import sys

        import wavesym

        src = os.path.dirname(os.path.dirname(wavesym.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, *flags_and_script, str(tmp_path / "r.json")],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_only_verify_imports_numpy(self, tmp_path):
        self._run(tmp_path, "-c", self.SCRIPT)

    def test_commands_load_no_dataclasses_inspect_or_typing(self, tmp_path):
        self._run(tmp_path, "-S", "-c", self.STARTUP_SCRIPT)


class TestReportContents:
    def test_schema_and_flags(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v4")
        assert report["schema_version"] == 2
        assert report["tool"]["name"] == "wavesym"
        assert "explicit_constraint_sign" in report["discrepancy_flags"]
        stage = report["stages"]["reduce"]
        assert stage["explicit_constraint_matches_reference"] is False
        assert stage["explicit_solution_residual_zero"] is True

    def test_trivial_generator_note(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v3")
        assert code == 0
        stage = report["stages"]["reduce"]
        assert stage["trivial_invariants"] == ["x", "t", "u"]

    def test_derive_lists_conditions(self, tmp_path):
        code, report = run(tmp_path, "derive")
        assert code == 0
        stage = report["stages"]["derive"]
        assert stage["n_equations"] == 34
        assert stage["conditions_not_implied"] == [
            "eta_no_x", "tau_t_matches_phi_u", "xi_no_y",
        ]
        assert stage["implication_check"] == {"rows": 412, "unknowns": 276, "rank": 223}
        assert all(v == {"implied": v["implied"]} for v in stage["reference_conditions"].values())

    def test_verify_writes_convergence_csv(self, tmp_path):
        code, report = run(tmp_path, "verify")
        files = report["stages"]["verify"]["csv_files"]
        assert len(files) == 4
        for path in files:
            assert os.path.exists(path)
            header = open(path).readline().strip()
            assert header == "h,max_residual,rms_residual"

    def test_verify_lists_the_reductions_in_reduction_order(self, tmp_path):
        # the text report keeps the stage's order, which is REDUCTION_NAMES's
        out = tmp_path / "report.txt"
        assert main(["verify", "--format", "text", "--out", str(out)]) == 0
        names = [f"{case}_{gen}" for case, gen in REDUCTION_NAMES]
        lines = [line.strip() for line in out.read_text().splitlines()]
        assert [line for line in lines if line[:-1] in names] == [n + ":" for n in names]
        csv = [os.path.basename(line) for line in lines if line.endswith(".csv")]
        assert csv == [f"convergence_{n}.csv" for n in names]

    def test_report_all_is_the_standalone_stages(self, tmp_path):
        # the default classify degree holds more than the reference basis,
        # so report-all fails overall; every stage is the standalone one
        grid = ("--grid", "7,7,7")
        code, report = run(tmp_path, "report-all", *grid)
        assert code == 1
        standalone = [("derive", ("derive",)), ("verify", ("verify", *grid))]
        for case in ("i", "ii"):
            standalone.append((f"classify_{case}", ("classify", "--case", case)))
        for case in ("i", "ii"):
            for gen in ("v1", "v4"):
                standalone.append((f"reduce_{case}_{gen}",
                                   ("reduce", "--case", case, "--generator", gen)))
        assert sorted(report["stages"]) == sorted(name for name, _ in standalone)
        for name, argv in standalone:
            _, alone = run(tmp_path, *argv)
            assert report["stages"][name] == alone["stages"][argv[0]], name

    def test_param_fractions_accepted(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v1",
                           "--param", "c=3/2")
        assert code == 0
        assert report["config"]["params"] == {"c": "3/2"}


class TestConfigFile:
    # (config-file key, file value, echoed value, flag, flag value, echoed
    # flag value); the echo key is the key itself except for grid
    KEYS = [
        ("degree", 1, 1, "--degree", "0", 0),
        ("generator", "v4", "v4", "--generator", "v2", "v2"),
        ("grid", "9,9,9", [9, 9, 9], "--grid", "5,5,5", [5, 5, 5]),
        ("tol", 1e-5, 1e-5, "--tol", "1e-7", 1e-7),
        ("eps", 0.2, 0.2, "--eps", "0.1", 0.1),
        ("ode_step", 1e-4, 1e-4, "--ode-step", "1e-6", 1e-6),
    ]

    def echo(self, tmp_path, file_cfg, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "ii", **file_cfg}))
        args = ["classify", "--config", str(cfg), *flags]
        if "degree" not in file_cfg and "--degree" not in flags:
            args += ["--degree", "0"]
        code, report = run(tmp_path, *args)
        assert code in (0, 1)
        return report["config"]

    @pytest.mark.parametrize("key, value, echoed, flag, flag_value, flag_echoed",
                             KEYS, ids=[k[0] for k in KEYS])
    def test_file_value_wins_over_default(self, tmp_path, key, value, echoed,
                                          flag, flag_value, flag_echoed):
        config = self.echo(tmp_path, {key: value})
        assert config["case"] == "ii"
        assert config["grid_n" if key == "grid" else key] == echoed

    @pytest.mark.parametrize("key, value, echoed, flag, flag_value, flag_echoed",
                             KEYS, ids=[k[0] for k in KEYS])
    def test_flag_wins_over_file_value(self, tmp_path, key, value, echoed,
                                       flag, flag_value, flag_echoed):
        config = self.echo(tmp_path, {key: value}, flag, flag_value)
        assert config["grid_n" if key == "grid" else key] == flag_echoed

    def test_format(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "degree": 0}))
        main(["classify", "--config", str(cfg)])
        assert json.loads(capsys.readouterr().out)["config"]["degree"] == 0
        main(["classify", "--config", str(cfg), "--format", "text"])
        assert capsys.readouterr().out.startswith("wavesym ")

    def test_bad_file_value_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": "v9"}))
        assert main(["reduce", "--config", str(cfg)]) == 2
        assert "--generator" in capsys.readouterr().err

    # the lists the report's config echo writes are accepted back
    @pytest.mark.parametrize("key, value, echo_key", [
        ("grid", [9, 9, 9], "grid_n"),
        ("box", [[1.0, 1.5], [1.0, 1.5], [2.5, 3.0]], "box"),
    ], ids=["grid", "box"])
    def test_echoed_list_accepted(self, tmp_path, key, value, echo_key):
        assert self.echo(tmp_path, {key: value})[echo_key] == value

    @pytest.mark.parametrize("key, value, form", [
        ("grid", [9, 9], "NX,NY,NT or a list of three integers >= 3"),
        ("grid", [9.5, 9, 9], "NX,NY,NT or a list of three integers >= 3"),
        ("grid", "9,9", "NX,NY,NT or a list of three integers >= 3"),
        ("box", [[1, 0], [0, 1], [0, 1]], "three [lo, hi] pairs with lo < hi"),
        ("box", [1, 2, 3, 4, 5, 6], "three [lo, hi] pairs"),
        ("box", [[1, 2], [1, 2], [1, "t"]], "three [lo, hi] pairs"),
        ("box", 5, "X0,X1,Y0,Y1,T0,T1"),
    ], ids=["grid-short", "grid-float", "grid-text", "box-order", "box-flat",
            "box-text-item", "box-scalar"])
    def test_malformed_list_is_2(self, tmp_path, capsys, key, value, form):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["classify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: bad --{key}: expected") and form in err

    def test_defaults_without_file(self, tmp_path):
        code, report = run(tmp_path, "classify", "--degree", "0")
        config = report["config"]
        assert (config["case"], config["generator"], config["grid_n"]) == ("i", "v1", [21, 21, 21])
        assert (config["tol"], config["eps"], config["ode_step"]) == (1e-6, 0.3, 1e-5)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["classify", "--case", "i", "--degree", "1", "--format", "json"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_rendering(self, capsys):
        code = main(["reduce", "--case", "ii", "--generator", "v4"])
        text = capsys.readouterr().out
        assert "reduced_equation" in text
        assert "overall_pass: True" in text
        assert code == 0


class TestConfigFuzz:
    """Any argv over the command set and the value-taking flags gives a
    RunConfig or a ConfigError; argparse may refuse it with exit 2.  Every
    --param value accepted is one each stage can evaluate as a float."""

    FLAGS = ["--case", "--generator", "--degree", "--param", "--grid", "--box",
             "--tol", "--eps", "--ode-step", "--format"]

    @staticmethod
    def numbers():
        from hypothesis import strategies as st

        return st.one_of(
            st.integers(-10**6, 10**6).map(str),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "1/0", "1e999", "3/2"]),
            st.builds("{}1e{}".format, st.sampled_from(["", "-"]), st.integers(-6000, 6000)))

    @staticmethod
    def check_config(argv):
        from wavesym.cli import ConfigError, RunConfig, _build_parser, _config_from_args

        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exit_:
            assert exit_.code == 2
            return
        try:
            config = _config_from_args(args)
        except ConfigError:
            return
        assert isinstance(config, RunConfig)
        for value in config.params.values():
            f = float(value)
            assert value == 0 or (0 < abs(f) < math.inf and abs(1 / f) < math.inf)

    def test_config_from_args_raises_only_config_error(self):
        from hypothesis import HealthCheck, given, settings, strategies as st

        from wavesym.cli import PARAM_NAMES

        commands = st.sampled_from(["derive", "classify", "reduce", "verify", "report-all"])
        numbers = self.numbers()
        values = st.one_of(
            st.text(max_size=20),
            numbers,
            st.lists(numbers, min_size=1, max_size=7).map(",".join),
            st.builds("{}={}".format, st.sampled_from(PARAM_NAMES + ("E1", "")),
                      st.one_of(numbers, st.text(max_size=8))))
        pair = st.tuples(st.sampled_from(self.FLAGS), values)

        @settings(derandomize=True, max_examples=300, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
        @given(commands, st.lists(pair, max_size=6))
        def check(command, pairs):
            self.check_config([command] + [f"{flag}={value}" for flag, value in pairs])

        check()

    def test_param_magnitudes(self):
        # most argv above stop in argparse before any --param is read; here
        # every example reaches the --param parser
        from hypothesis import HealthCheck, given, settings, strategies as st

        from wavesym.cli import PARAM_NAMES

        @settings(derandomize=True, max_examples=300, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
        @given(st.lists(st.tuples(st.sampled_from(PARAM_NAMES), self.numbers()),
                        min_size=1, max_size=3))
        def check(params):
            self.check_config(["reduce"] + [f"--param={n}={v}" for n, v in params])

        check()


class TestVerifyFuzz:
    """verify end to end, in process, over small grids, ODE steps, boxes and
    family parameters from 1e-6 to 1e6 in magnitude: every run ends in exit
    0, 1 or 2 with no traceback."""

    def test_verify_exit_codes(self, tmp_path):
        import contextlib
        import io

        from hypothesis import HealthCheck, example, given, settings, strategies as st

        magnitudes = st.builds(lambda sign, e: repr(sign * 10.0**e),
                               st.sampled_from([1, -1]), st.floats(-6, 6))
        params = st.lists(st.tuples(
            st.sampled_from(["c", "c1", "K", "L", "sig1_0", "c_sep"]), magnitudes), max_size=3)
        grids = st.tuples(*[st.integers(3, 7)] * 3)
        # x from 0 (refused) to 3, y and t across their singular sets
        boxes = st.one_of(st.none(), st.tuples(
            st.floats(0.0, 2.0), st.floats(0.1, 1.0), st.floats(-3.0, 2.0),
            st.floats(0.1, 1.0), st.floats(-3.0, 2.0), st.floats(0.1, 1.0)))

        @settings(derandomize=True, max_examples=25, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
        @given(grids, st.floats(1e-4, 1e-2), boxes, params)
        @example((5, 5, 5), 1e-4, None, [("c1", "1e6")])
        def check(grid, ode_step, box, params):
            argv = ["verify", "--grid", ",".join(map(str, grid)), "--ode-step", repr(ode_step),
                    "--format", "json", "--out", str(tmp_path / "report.json")]
            if box is not None:
                x0, dx, y0, dy, t0, dt = box
                argv.append("--box=" + ",".join(map(repr, (x0, x0 + dx, y0, y0 + dy, t0, t0 + dt))))
            for name, value in params:
                argv += ["--param", f"{name}={value}"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue(), argv

        check()


class TestReduceFuzz:
    """reduce end to end, in process, over both families, every generator
    and up to three family parameters drawn from a small set of rationals:
    every run ends in exit 0, 1 or 2 with no traceback."""

    def test_reduce_exit_codes(self, tmp_path):
        import contextlib
        import io

        from hypothesis import HealthCheck, example, given, settings, strategies as st

        values = st.sampled_from(["0", "1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-1/4", "1/3"])
        params = st.lists(st.tuples(st.sampled_from(["K", "c", "L", "e1", "e2"]), values),
                          min_size=1, max_size=3)

        @settings(derandomize=True, max_examples=20, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
        @given(st.sampled_from(["i", "ii"]), st.sampled_from(["v1", "v2", "v3", "v4", "v5"]),
               params)
        @example("i", "v4", [("K", "-1")])
        def check(case, generator, params):
            argv = ["reduce", "--case", case, "--generator", generator,
                    "--format", "json", "--out", str(tmp_path / "report.json")]
            for name, value in params:
                argv += ["--param", f"{name}={value}"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue(), argv

        check()


class TestClassifyFuzz:
    """classify end to end, in process, over both families, ansatz degrees
    0-3 and random rational or zero family parameters: every run ends in
    exit 0, 1 or 2 with no traceback.  Rational parameters put Fraction
    coefficients into the ring rows."""

    def test_classify_exit_codes(self, tmp_path):
        import contextlib
        import io
        from fractions import Fraction

        from hypothesis import HealthCheck, example, given, settings, strategies as st

        # zero last: hypothesis starts from the first elements
        values = st.sampled_from(sorted(
            {Fraction(p, q) for p in range(-6, 7) if p for q in range(1, 7)},
            key=lambda v: (v.denominator, abs(v.numerator), v < 0)) + [Fraction(0)])
        # each family parameter set or left at its symbol; those of the
        # other family are accepted and ignored
        params = st.fixed_dictionaries(
            {name: st.one_of(st.none(), values) for name in ("K", "c", "L", "e1", "e2")})

        @settings(derandomize=True, max_examples=80, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
        @given(st.sampled_from(["i", "ii"]), st.integers(0, 3), params)
        @example("ii", 0, {"K": None, "c": None, "L": None,
                           "e1": Fraction(1, 20), "e2": None})
        @example("ii", 3, {"K": None, "c": None, "L": None,
                           "e1": Fraction(-1, 6), "e2": None})
        @example("ii", 3, {"K": None, "c": None, "L": Fraction(2, 3),
                           "e1": Fraction(-1, 4), "e2": Fraction(3, 2)})
        @example("i", 2, {"K": Fraction(1, 6), "c": Fraction(-5, 3),
                          "L": None, "e1": None, "e2": None})
        @example("ii", 2, {"K": None, "c": None, "L": Fraction(-3),
                           "e1": Fraction(3, 2), "e2": Fraction(0)})
        @example("i", 1, {"K": Fraction(0), "c": None, "L": None, "e1": None, "e2": None})
        def check(case, degree, params):
            argv = ["classify", "--case", case, "--degree", str(degree),
                    "--format", "json", "--out", str(tmp_path / "report.json")]
            for name, value in params.items():
                if value is not None:
                    argv += ["--param", f"{name}={value}"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue(), argv

        check()
