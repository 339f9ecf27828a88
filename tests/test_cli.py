import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from omsteady import figures, sweep
from omsteady.cli import _build_params, _build_parser, main
from omsteady.closedform import backaction_1d
from omsteady.langevin import build_rwa, steady_covariance_batch
from omsteady.models import _SETTABLE, SystemParams1D
from omsteady.spectral import moment_integrals

#: What the unknown-parameter message lists for a SystemParams1D record.
SETTABLE_1D = "G_o delta gamma_b hbar kappa lambda_o mass n_B omega_b temperature"


def run_cli(*argv):
    return main(list(argv))


def diagnostics(out: str) -> dict:
    """The {name: value} of a point report's diagnostic lines."""
    return dict(re.findall(r"^diagnostic (\w+) = (\S+)$", out, re.M))


class TestPoint:
    def test_default_report(self, capsys):
        assert run_cli("point") == 0
        out = capsys.readouterr().out
        assert "model=oneD solver=lyapunov" in out
        assert "unit frame: hbar = m = 1" in out
        assert "n_bar" in out
        assert "[dimensionless]" in out

    def test_closed_form_reference_value(self, capsys):
        code = run_cli("point", "--solver", "closed_form",
                       "--param", "G_o=0.4")
        assert code == 0
        assert "0.18700547324622552" in capsys.readouterr().out

    def test_output_selection(self, capsys):
        assert run_cli("point", "--param", "outputs=n_bar") == 0
        out = capsys.readouterr().out
        assert "n_bar" in out
        assert "purity" not in out

    def test_model_override(self, capsys):
        assert run_cli("point", "--param", "model=rwa") == 0
        out = capsys.readouterr().out
        assert "model=rwa" in out
        assert "n_b" in out

    @pytest.mark.parametrize("g_o", [0.05, 0.49])
    def test_spectral_point_prints_the_quadrature_figures(self, g_o, capsys):
        assert run_cli("point", "--solver", "spectral", "--param", f"G_o={g_o}") == 0
        integrals = moment_integrals(_build_params("oneD", [{"G_o": str(g_o)}]))
        assert diagnostics(capsys.readouterr().out) == {
            q: sweep.format_float(integrals[q]) for q in ("err_xx", "err_pp", "commutator")}

    def test_lyapunov_point_prints_the_solve_figures(self, capsys):
        assert run_cli("point", "--param", "model=rwa") == 0
        system = build_rwa(_build_params("rwa", []))
        solve = steady_covariance_batch(system.drift[None], system.diffusion[None]).only()
        assert diagnostics(capsys.readouterr().out) == {
            q: sweep.format_float(solve[q]) for q in ("residual", "backward_error", "decay_bound")}

    @pytest.mark.parametrize("model", ["oneD", "twoD", "rwa"])
    def test_closed_form_point_prints_no_diagnostic(self, model, capsys):
        assert run_cli("point", "--solver", "closed_form", "--param", f"model={model}") == 0
        assert "diagnostic" not in capsys.readouterr().out

    def test_diagnostics_sit_between_the_quantities_and_the_warnings(self, capsys):
        assert run_cli("point", "--param", "model=rwa", "--param", "G_o=0.5",
                       "--param", "outputs=n_d") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("n_d = ")
        assert [line.split(" = ")[0] for line in lines[4:7]] == [
            "diagnostic residual", "diagnostic backward_error", "diagnostic decay_bound"]
        assert lines[7].startswith("warning: rotating-wave build outside its regime")
        assert len(lines) == 8

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert run_cli("point", "--out", str(target)) == 0
        assert capsys.readouterr().out == ""
        assert "n_bar" in target.read_text(encoding="utf-8")

    def test_out_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        assert run_cli("point", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any(out.iterdir())

    def test_empty_out_path_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("point", "--out", "") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write .: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_unstable_exit_code(self, capsys):
        assert run_cli("point", "--param", "G_o=0.55",
                       "--solver", "closed_form") == 3
        err = capsys.readouterr().err
        assert "unstable or out of regime" in err
        assert "not positive" in err

    def test_unknown_param_exit_code(self, capsys):
        assert run_cli("point", "--param", "wom=1.0") == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "omega_b" in err  # the message names the known parameters

    def test_both_coupling_forms_must_agree(self, capsys):
        assert run_cli("point", "--param", "G_o=0.1", "--param", "lambda_o=0.5") == 2
        assert capsys.readouterr().err == (
            "config error: lambda_o and G_o are inconsistent: "
            "G_o=0.1 but lambda_o implies 0.3535533905932738\n")

    def test_occupation_beside_temperature_is_config_error(self, capsys):
        assert run_cli("point", "--param", "n_B=2", "--param", "temperature=5") == 2
        assert capsys.readouterr().err == "config error: give n_B or temperature, not both\n"

    def test_twoD_coupling_rate_is_the_grid_row(self, capsys):
        assert run_cli("point", "--param", "model=twoD", "--param", "G_o=0.2") == 0
        printed = dict(re.findall(r"^(\w+) += (\S+)  \[", capsys.readouterr().out, re.M))
        config = sweep.RunConfig("twoD", "lyapunov", _build_params("twoD", []))
        columns, (stable,), _ = sweep.evaluate_point(config, {"G_o": 0.2})
        assert stable and printed == {q: sweep.format_float(c[0]) for q, c in columns.items()}
        assert printed["xx_b"] == "0.56127106133439331"

    def test_twoD_coupling_forms_must_agree(self, capsys):
        # the rate is converted at the bright-mode frequency of the record
        # that the other values make, here at omega_x = 1.2
        agree = sweep.with_param(sweep.with_param(
            _build_params("twoD", []), "omega_x", 1.2), "G_o", 0.2).lambda_o
        args = ["point", "--param", "model=twoD", "--param", "omega_x=1.2", "--param", "G_o=0.2"]
        assert run_cli(*args, "--param", f"lambda_o={agree!r}") == 0
        assert f"lambda_o={agree!r}" in capsys.readouterr().out
        assert run_cli(*args, "--param", "lambda_o=0.3") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: lambda_o and G_o are inconsistent: G_o=0.2 but ")
        assert err.count("\n") == 1

    def test_twoD_rate_at_a_tiny_mass_is_one_config_error(self, capsys):
        # the rate is converted under np.errstate, so no numpy warning
        # reaches stderr before the error line
        assert run_cli("point", "--param", "model=twoD", "--param", "mass=1e-310",
                       "--param", "G_o=0.1") == 2
        assert capsys.readouterr().err == "config error: drift matrix has a non-finite entry\n"

    def test_point_is_the_sweep_row_of_its_values(self, tmp_path, capsys):
        cases = [
            # setting hbar before lambda_o would rebuild lambda_o from the
            # file's G_o at the new hbar, past the float range; both are set
            # at once
            ("G_o = 1e130\ngamma_b = 0.001\n", ["hbar=2.5e-77", "lambda_o=1.0"],
             ["hbar,2.5e-77,5e-77,2", "lambda_o,1.0,2.0,2"], 4, 0, "5.6390606275159595e-61"),
            # n_B is converted at each point's own (bright) mode frequency
            ("gamma_b = 1e-3\n", ["n_B=3"], ["n_B,0,3,4"], 4, 3, "0.92956085762161389"),
            ("omega_b = 1.3\ngamma_b = 1e-3\n", ["n_B=0.37"], ["n_B,0.37,1.37,2"], 2, 0, None),
            ("gamma_x = 1e-3\ngamma_y = 1e-3\nG_o = 0.15\n", ["n_B=7", "omega_x=1.2"],
             ["n_B,1,7,4", "omega_x,1.0,1.2,2"], 8, 7, None),
        ]
        cfg, out = tmp_path / "p.ini", tmp_path / "s.csv"
        for params, point, axes, count, row, purity in cases:
            model = "twoD" if "gamma_x" in params else "oneD"
            cfg.write_text(f"[run]\nmodel = {model}\n\n[params]\n{params}", encoding="utf-8")
            assert run_cli("point", "--config", str(cfg),
                           *[arg for value in point for arg in ("--param", value)]) == 0
            printed = dict(re.findall(r"^(\w+) += (\S+)  \[", capsys.readouterr().out, re.M))
            assert run_cli("sweep", "--config", str(cfg),
                           *[arg for axis in axes for arg in ("--axis", axis)],
                           "--out", str(out)) == 0
            names, units, *lines = (line.split(",") for line in
                                    out.read_text(encoding="utf-8").splitlines())
            assert len(lines) == count and "unknown" not in units
            assert [line[names.index("stable")] for line in lines] == ["1"] * count
            cells = dict(zip(names, lines[row]))
            assert [float(cells[value.split("=")[0]]) for value in point] == [
                float(value.split("=")[1]) for value in point]
            assert {q: cells[q] for q in printed} == printed
            if purity is not None:
                assert printed[next(q for q in ("purity", "purity_2d") if q in printed)] == purity

    def test_closed_form_warns_that_it_drops_mechanical_damping(self, capsys):
        # the oneD backaction limit treats gamma_b as zero; Lyapunov gives
        # 0.70435 on this record, the closed form 0.72780
        args = ["point", "--solver", "closed_form", "--param", "temperature=3",
                "--param", "G_o=0.4"]
        assert run_cli(*args) == 0
        assert "warning:" not in capsys.readouterr().out
        assert run_cli(*args, "--param", "gamma_b=1e-3") == 0
        out = capsys.readouterr().out
        assert "purity     = 0.72779623958075512  [dimensionless]" in out
        assert out.endswith("warning: gamma_b > 0 is treated as zero in the backaction limit\n")

    def test_unknown_name_has_one_message_on_every_path(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[optimize]\nfree = wom\nlo = 0.1\nhi = 0.2\n", encoding="utf-8")
        runs = [("point", "--param", "wom=1"),
                ("sweep", "--axis", "wom,0.1,0.2,2", "--out", str(tmp_path / "s.csv")),
                ("optimize", "--config", str(cfg))]
        errors = []
        for argv in runs:
            assert run_cli(*argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors == [f"config error: SystemParams1D has no parameter 'wom'; "
                          f"settable: {SETTABLE_1D}\n"] * 3

    @pytest.mark.parametrize("argv", [("point",),
                                      ("sweep", "--axis", "G_o,0.1,0.2,2", "--out", "s.csv")])
    def test_repeated_output_is_config_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--param", "outputs=purity,n_bar,purity") == 2
        assert capsys.readouterr().err == "config error: duplicate output name 'purity'\n"
        assert not any(tmp_path.iterdir())

    def test_help_names_every_settable_parameter(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("--help")
        text = capsys.readouterr().out
        params = text.split("[params]")[1].split("n_B   =")[0]
        blocks = dict(re.findall(r"(oneD|twoD|rwa):\s+(.*?)(?=\n\s+\w+:|\Z)", params, re.S))
        for model, cls in sweep._PARAM_TYPES.items():
            assert set(re.split(r"[\s|]+", blocks[model].strip())) == _SETTABLE[cls], model

    def test_non_numeric_param(self, capsys):
        assert run_cli("point", "--param", "G_o=strong") == 2

    def test_malformed_param(self, capsys):
        assert run_cli("point", "--param", "G_o") == 2

    @pytest.mark.parametrize("param", ["G_o=nan", "kappa=inf", "delta=-inf"])
    def test_non_finite_param_is_config_error(self, param, capsys):
        assert run_cli("point", "--param", param) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("model", ["oneD", "twoD"])
    @pytest.mark.parametrize("n_b", ["inf", "nan"])
    def test_non_finite_occupation_is_config_error(self, model, n_b, capsys):
        assert run_cli("point", "--param", f"model={model}", "--param", f"n_B={n_b}") == 2
        err = capsys.readouterr().err
        assert err == f"config error: n_B must be finite, got {n_b}\n"

    @pytest.mark.parametrize("solver", ["lyapunov", "spectral", "closed_form"])
    @pytest.mark.parametrize("param", ["G_o=1e308", "G_o=1e160", "omega_b=1e200",
                                       "delta=1e200", "kappa=1e200"])
    def test_overflowing_param_is_config_error(self, solver, param, capsys):
        # finite, but its square overflows in the drift or the closed forms
        assert run_cli("point", "--solver", solver, "--param", param) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: " + param.split("=")[0] + " must be below")
        assert "Traceback" not in err

    @pytest.mark.parametrize("model", ["oneD", "twoD"])
    def test_overflowing_drift_is_config_error(self, model, capsys):
        # finite mass, but 1/m overflows to inf in the drift
        assert run_cli("point", "--param", f"model={model}", "--param", "mass=1e-310") == 2
        err = capsys.readouterr().err
        assert err == "config error: drift matrix has a non-finite entry\n"

    @pytest.mark.parametrize("model", ["oneD", "twoD"])
    def test_underflowing_hbar_is_config_error(self, model, capsys):
        # (hbar/2)^2 and (hbar/2)^4 underflow to zero in the purity formulas
        assert run_cli("point", "--param", f"model={model}", "--param", "hbar=1e-200") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: hbar must be at least 2.443e-77 ")

    @pytest.mark.parametrize("hbar", ["1.0545718e-34", "1e100"])
    def test_si_and_large_hbar_are_accepted(self, hbar):
        assert run_cli("point", "--param", f"hbar={hbar}") == 0

    def test_spectral_subnormal_mass_is_config_error(self, capsys):
        # the response polynomial over its subnormal leading coefficient overflows
        assert run_cli("point", "--solver", "spectral", "--param", "mass=1e-310") == 2
        err = capsys.readouterr().err
        assert err == ("config error: response polynomial has a non-finite coefficient "
                       "relative to its leading one\n")

    @pytest.mark.parametrize("solver, mass, reason", [
        ("spectral", "1e-300", "spectral xx integral is not finite at this record's scales"),
        ("closed_form", "1e-310", "backaction moments are not finite at this record's scales"),
    ])
    def test_non_finite_oneD_moments_are_config_errors(self, solver, mass, reason, capsys):
        assert run_cli("point", "--solver", solver, "--param", f"mass={mass}") == 2
        assert capsys.readouterr().err == f"config error: {reason}\n"

    @pytest.mark.parametrize("model, head", [
        ("oneD", "unstable: omega_b^2 - 2 g_o^2"),
        ("twoD", "unstable: (omega_b^2 - 2 g_o^2) omega_d^2 - (omega_bar_m delta_m)^2"),
    ])
    def test_underflowing_cavity_scale_is_unstable(self, model, head, capsys):
        # (kappa/2)^2 + delta^2 underflows to 0, so g_o^2 is inf: a float
        # division by zero used to end the twoD closed form in a traceback
        assert run_cli("point", "--solver", "closed_form", "--param", f"model={model}",
                       "--param", "kappa=1e-200", "--param", "delta=1e-200") == 3
        assert capsys.readouterr().err == (
            f"unstable or out of regime: {head} = -inf is not positive\n")

    def test_underflowing_rwa_rate_product_settles(self, capsys):
        # kappa gamma_tot underflows to 0, so C_o is inf: a float division
        # by zero used to end this in a traceback
        assert run_cli("point", "--solver", "closed_form", "--param", "model=rwa",
                       "--param", "kappa=1e-200", "--param", "gamma_b=1e-200",
                       "--param", "gamma_d=1e-200") == 0
        out = capsys.readouterr().out
        # 1/mu = 1 + 4 n_B gamma_tot/kappa = 1 + 4 * 25 * 2 at C_o = inf
        assert f"purity_opt = {sweep.format_float(1.0 / 201.0)}  " in out
        assert "warning: gamma_tot not small against kappa" in out

    @pytest.mark.parametrize("args", [
        ("model=twoD", "delta=1e-200"),
        ("model=twoD", "kappa=1e100"),
    ])
    def test_overflowing_determinant_is_config_error(self, args, capsys):
        # det V overflows, and so does a reduced 2x2 determinant; the
        # product of the reduced purities would read 0
        assert run_cli("point", "--solver", "closed_form", "--param", args[0],
                       "--param", args[1]) == 2
        assert capsys.readouterr().err == ("config error: covariance determinant overflows "
                                           "at this record's scales\n")

    def test_overflowing_determinant_takes_the_log_determinant(self, capsys):
        # det V overflows at n_B_b = 1e100, but its log-determinant does not
        assert run_cli("point", "--param", "model=rwa", "--param", "n_B_b=1e100") == 0
        values = {line.split()[0]: float(line.split()[2])
                  for line in capsys.readouterr().out.splitlines() if line.endswith("]")}
        mu = values["purity_2d"]
        assert 2.8e-195 < mu < 2.9e-195
        modes = (2.0 * values["N_plus"] + 1.0) * (2.0 * values["N_minus"] + 1.0)
        assert mu == pytest.approx(1.0 / modes, rel=1e-12)

    @pytest.mark.parametrize("solver", ["lyapunov", "closed_form"])
    def test_overflowing_determinant_bound_takes_the_log_determinant(self, solver, capsys):
        # (hbar/2)^4 overflows at hbar = 1e100; the state is the one at
        # hbar = 1 with the same coupling rate, lambda_o sqrt(hbar) = 0.28
        def report(*params):
            assert run_cli("point", "--param", "model=twoD", "--solver", solver,
                           *params) == 0
            return {line.split()[0]: float(line.split()[2])
                    for line in capsys.readouterr().out.splitlines() if line.endswith("]")}

        big = report("--param", "hbar=1e100", "--param", "lambda_o=2.8e-51")
        ref = report("--param", "lambda_o=0.28")
        for q in ("purity_2d", "purity_product"):
            assert big[q] == pytest.approx(ref[q], rel=1e-9)
        assert big["xx_b"] == pytest.approx(1e100 * ref["xx_b"], rel=1e-9)

    @pytest.mark.parametrize("solver", ["lyapunov", "closed_form"])
    def test_underflowing_bright_dark_frequencies_are_config_errors(self, solver, capsys):
        # omega_b omega_d underflows to 0, and bright_dark divides by its root
        assert run_cli("point", "--param", "model=twoD", "--solver", solver,
                       "--param", "omega_x=1e-200", "--param", "omega_y=1e-200") == 2
        assert capsys.readouterr().err == ("config error: omega_b omega_d of the bright and "
                                           "dark modes underflows to 0 at these scales\n")

    def test_twoD_closed_form_overflowing_mixing_is_config_error(self, capsys):
        # (omega_bar_m delta_m)^2 overflows in Python's float power
        assert run_cli("point", "--param", "model=twoD", "--solver", "closed_form",
                       "--param", "omega_x=1e100") == 2
        assert capsys.readouterr().err == ("config error: (omega_bar_m delta_m)^2 overflows "
                                           "at these frequencies\n")

    @pytest.mark.parametrize("g_o", ["0", "1e-200"])
    def test_rwa_closed_form_zero_cooperativity_is_out_of_regime(self, g_o, capsys):
        # G_o^2 is 0 or underflows, so 1/C_o in the optimum formula divides by zero
        assert run_cli("point", "--param", "model=rwa", "--solver", "closed_form",
                       "--param", f"G_o={g_o}") == 3
        assert capsys.readouterr().err == ("unstable or out of regime: cooperativity is "
                                           "zero; the optimum needs G_o^2 > 0\n")

    def test_twoD_closed_form_non_finite_covariance_is_out_of_regime(self, capsys):
        # 1/delta overflows, so the backaction moments are not finite
        assert run_cli("point", "--param", "model=twoD", "--solver", "closed_form",
                       "--param", "delta=1e-310") == 3
        assert capsys.readouterr().err == ("unstable or out of regime: covariance matrix "
                                           "has a non-finite entry\n")

    def test_missing_config_file(self, capsys):
        assert run_cli("point", "--config", "/nonexistent/x.ini") == 2
        assert capsys.readouterr().err == "config error: config file not found: /nonexistent/x.ini\n"

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("transmogrify")
        assert exc.value.code == 2


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_params_from_file(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """\
[run]
model = oneD
solver = closed_form

[params]
kappa = 0.2
G_o = 0.4
""")
        assert run_cli("point", "--config", cfg) == 0
        assert "0.18700547324622552" in capsys.readouterr().out

    def test_cli_param_beats_file(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[params]\nG_o = 0.3\n")
        assert run_cli("point", "--config", cfg, "--solver", "closed_form",
                       "--param", "G_o=0.4") == 0
        assert "0.18700547324622552" in capsys.readouterr().out

    def test_flag_coupling_form_replaces_the_file_form(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[params]\nG_o = 0.1\n")
        assert run_cli("point", "--config", cfg, "--param", "lambda_o=0.5") == 0
        assert " lambda_o=0.5 G_o=0.3535533905932738 " in capsys.readouterr().out

    def test_file_coupling_forms_must_agree(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[params]\nG_o = 0.1\nlambda_o = 0.5\n")
        assert run_cli("point", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith(
            "config error: lambda_o and G_o are inconsistent: G_o=0.1 ")

    def test_file_alone_keeps_the_coupling_form_it_derived(self, tmp_path, capsys):
        # lambda_o = G_o / 1e28 is subnormal; the empty --param source sets
        # nothing, so the pair the file's record derived is not checked as
        # if both forms were given
        params = ("omega_b=0.5", "mass=1e-56", "G_o=2e-290")
        cfg = self.write(tmp_path, "[params]\n" + "\n".join(params) + "\n")
        assert run_cli("point", "--config", cfg) == 3
        from_file = capsys.readouterr().err
        assert run_cli("point", *(a for p in params for a in ("--param", p))) == 3
        assert from_file == capsys.readouterr().err == (
            "unstable or out of regime: drift matrix has a non-decaying eigenvalue\n")

    def test_flag_temperature_beats_file_occupation(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[params]\nn_B = 2.0\n")
        assert run_cli("point", "--config", cfg, "--param", "temperature=5") == 0
        assert " temperature=5.0 " in capsys.readouterr().out

    def test_occupation_convenience_key(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """\
[params]
gamma_b = 0.001
n_B = 2.0
""")
        assert run_cli("point", "--config", cfg) == 0
        out = capsys.readouterr().out
        # n_B = 2 at omega_b = 1 converts to 1/log(3/2)
        assert "temperature=2.46630346" in out

    def test_inline_comments_stripped(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[params]\nG_o = 0.4  # drive\n")
        assert run_cli("point", "--config", cfg, "--solver", "closed_form") == 0
        assert "0.18700547324622552" in capsys.readouterr().out

    def test_case_sensitive_keys(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[params]\ng_o = 0.4\n")
        assert run_cli("point", "--config", cfg) == 2
        assert "g_o" in capsys.readouterr().err

    def one_line_config_error(self, capsys, path) -> str:
        """Run point on the config path; it must exit 2 with one stderr line."""
        assert run_cli("point", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
        return err

    def test_directory_is_unreadable_not_missing(self, tmp_path, capsys):
        err = self.one_line_config_error(capsys, tmp_path)
        assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
        assert "not found" not in err

    def test_non_utf8_byte_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[params]\nG_o = 0.4 # \xff\n")
        err = self.one_line_config_error(capsys, path)
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert "utf-8" in err

    def test_missing_section_header_is_one_line(self, tmp_path, capsys):
        path = self.write(tmp_path, "G_o = 0.4\nkappa = 0.2\n")
        err = self.one_line_config_error(capsys, path)
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert "no section headers" in err


class TestSweep:
    def test_axis_flag(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli("sweep", "--solver", "closed_form",
                       "--axis", "G_o, 0.1, 0.4, 4", "--out", str(out))
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6  # names + units + 4 rows

    def test_two_axes(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("sweep", "--solver", "closed_form",
                       "--axis", "kappa, 0.1, 0.3, 2",
                       "--axis", "G_o, 0.1, 0.2, 3",
                       "--out", str(out))
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 8

    def test_axes_from_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("""\
[run]
solver = closed_form

[sweep]
axis1 = G_o, 0.1, 0.4, 5
""", encoding="utf-8")
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 7

    def test_two_mode_stability_lost_to_cancellation_is_flagged(self, tmp_path):
        # At strong trap asymmetry (omega_b^2 - 2 g_o^2) omega_d^2 and
        # (omega_bar_m delta_m)^2 are both about 7.9e149 and differ by
        # about 2e75, far below their rounding.
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--param", "model=twoD", "--solver", "closed_form",
                       "--axis", "omega_y, 1e-310, 1e308, 33, log", "--out", str(out)) == 0
        rows = {line.split(",")[0]: line.split(",")
                for line in out.read_text(encoding="utf-8").splitlines()[2:]}
        row = rows["4.2169650342858226e+37"]
        assert row[1:10] == [""] * 8 + ["0"]
        assert row[10].startswith("UnstableRegime: stability undecided: (omega_b^2 - 2 g_o^2) "
                                  "omega_d^2 - (omega_bar_m delta_m)^2 = ")
        assert row[10].endswith(" cancels below the rounding of its two terms")

    def test_out_directory_is_config_error_and_leaves_no_temporary(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        assert run_cli("sweep", "--axis", "G_o,0.1,0.2,3", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any(out.iterdir())

    def test_missing_out(self, capsys):
        assert run_cli("sweep", "--axis", "G_o, 0.1, 0.4, 4") == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_axis(self, capsys):
        assert run_cli("sweep", "--out", "/tmp/never.csv") == 2

    def test_bad_axis_spec(self, capsys):
        assert run_cli("sweep", "--axis", "G_o, 0.1", "--out", "/tmp/n.csv") == 2
        assert "axis spec" in capsys.readouterr().err

    def test_duplicate_axis_name(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--axis", "G_o,0.1,0.2,2", "--axis", "G_o,0.3,0.4,2",
                       "--out", str(out)) == 2
        assert "duplicate axis name 'G_o'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["foo,0.1,0.2,3", "G_0,0.1,0.2,3"])
    def test_misspelled_axis_name_is_config_error(self, tmp_path, capsys, axis):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--axis", axis, "--out", str(out)) == 2
        err = capsys.readouterr().err
        name = axis.split(",")[0]
        assert err == (f"config error: SystemParams1D has no parameter {name!r}; "
                       f"settable: {SETTABLE_1D}\n")
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["G_o,0.1,inf,3", "G_o,-inf,0.2,3"])
    def test_non_finite_axis_bound_is_config_error(self, tmp_path, capsys, axis):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--axis", axis, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "config error: axis 'G_o' needs finite lo and hi\n"
        assert not out.exists()

    def test_linear_axis_wider_than_a_float_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--axis", "delta,-1e308,1e308,3", "--out", str(out)) == 2
        assert capsys.readouterr().err == ("config error: linear axis 'delta' needs a "
                                           "finite hi - lo\n")
        assert not out.exists()

    def test_rwa_closed_form_flags_zero_cooperativity_row(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--param", "model=rwa", "--solver", "closed_form",
                       "--axis", "G_o,0,2e-3,3", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[2:]]
        assert rows[0] == ["0", "", "", "0", "InvalidRegime: cooperativity is zero; "
                                              "the optimum needs G_o^2 > 0"]
        assert [r[3] for r in rows[1:]] == ["1", "1"]

    def test_huge_axis_count_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweep.Axis, "values", lambda self: pytest.fail("grid was built"))
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--axis", "G_o,0.1,0.2,100000000000",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == ("config error: grid of 100000000000 points exceeds "
                       f"the limit of {sweep.MAX_GRID_POINTS}\n")
        assert not out.exists()

    @pytest.mark.parametrize("model", ["oneD", "twoD"])
    def test_both_coupling_axes_are_config_error(self, model, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "evaluate_grid", lambda *a: pytest.fail("grid evaluated"))
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--param", f"model={model}", "--param", "outputs=purity_2d"
                       if model == "twoD" else "outputs=purity", "--axis", "G_o,0.1,0.2,2",
                       "--axis", "lambda_o,0.3,0.4,2", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "config error: G_o and lambda_o are two forms of one coupling; "
            "a grid may set only one of them\n")
        assert list(tmp_path.iterdir()) == []

    def test_twoD_coupling_axis(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("sweep", "--param", "model=twoD",
                       "--axis", "G_o,0.1,0.3,3", "--out", str(out))
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5

    def test_spectral_through_exceptional_point_band(self, tmp_path):
        # two response poles meet at G_o = kappa/4 = 0.05; the spectral
        # route must hold its accuracy on the way there
        out = tmp_path / "s.csv"
        code = run_cli("sweep", "--param", "solver=spectral",
                       "--axis", "G_o,0.0491,0.0500,40", "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        names = lines[0].split(",")
        rows = [dict(zip(names, line.split(","))) for line in lines[2:]]
        assert len(rows) == 40
        for row in rows:
            p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                               G_o=float(row["G_o"]))
            exact = backaction_1d(p)
            assert row["stable"] == "1"
            assert float(row["xx"]) == pytest.approx(exact.xx, rel=1e-6)
            assert float(row["pp"]) == pytest.approx(exact.pp, rel=1e-6)


class TestFigure:
    def test_build_and_report(self, tmp_path, capsys):
        assert run_cli("figure", "fig4", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "check joint purity closed form vs lyapunov" in out
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig4.gp").exists()

    def test_oracle_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(figures, "_EXACT_PAIR_RTOL", 1e-18)
        code = run_cli("figure", "fig4", "--out", str(tmp_path))
        assert code == 4
        assert "oracle mismatch" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "f"
        out.write_text("kept\n", encoding="utf-8")
        assert run_cli("figure", "fig2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / 'fig2.csv'}: ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_unknown_figure_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("figure", "fig9")
        assert exc.value.code == 2


class TestOptimize:
    def test_detuning_optimum(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("""\
[run]
model = oneD
solver = closed_form

[params]
G_o = 0.001

[optimize]
free = delta
lo = 0.1
hi = 3.0
objective = purity
grid = 15
""", encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        best = float(out.split("best: delta=")[1].splitlines()[0])
        # at vanishing drive the purity peaks at sqrt(omega_b^2 + (kappa/2)^2)
        assert best == pytest.approx(1.0049875621120890, abs=1e-4)
        assert "evaluations" in out

    def test_free_occupation(self, tmp_path, capsys):
        # a warmer bath only lowers the purity, so the best n_B is its lower
        # bound, where the purity is point's at that n_B
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[params]\ngamma_b = 1e-3\n\n[optimize]\nfree = n_B\nlo = 0.5\nhi = 3\n",
                       encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "best: n_B=0.5\n" in out
        assert run_cli("point", "--config", str(cfg), "--param", "n_B=0.5") == 0
        purity = re.search(r"^purity += (\S+)  \[", capsys.readouterr().out, re.M).group(1)
        assert f"purity = {purity}\n" in out

    def test_objective_outside_the_outputs(self, tmp_path, capsys):
        # [run] outputs does not limit what the search reads
        best = []
        for outputs in ("", "outputs = n_bar\n"):
            cfg = tmp_path / "opt.ini"
            cfg.write_text(f"""\
[run]
model = oneD
solver = closed_form
{outputs}
[params]
G_o = 0.001

[optimize]
free = delta
lo = 0.1
hi = 3.0
objective = purity
grid = 15
""", encoding="utf-8")
            assert run_cli("optimize", "--config", str(cfg)) == 0
            best.append([line for line in capsys.readouterr().out.splitlines()
                         if line.startswith(("best:", "purity ="))])
        assert len(best[0]) == 2 and best[1] == best[0]

    def test_rwa_mixing_optimum(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("""\
[run]
model = rwa

[optimize]
free = G_m
lo = 2e-4
hi = 2e-3
objective = purity_2d
grid = 12
""", encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        best = float(out.split("best: G_m=")[1].splitlines()[0])
        # default G_o = 2e-3; optimum at G_o/sqrt(2) within a few percent
        assert best == pytest.approx(2e-3 / 2**0.5, rel=0.05)

    def test_all_unstable_bounds(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("""\
[run]
solver = closed_form

[optimize]
free = G_o
lo = 0.6
hi = 0.9
""", encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 3
        assert "no stable point" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lo", "wide"), ("hi", "0.5, x"), ("grid", "many"), ("grid", "12.5"), ("grid", "1"),
        ("hi", "inf"), ("lo", "nan"), ("lo", "0.5"), ("scale", "cubic"),
    ])
    def test_bad_optimize_key_is_config_error(self, tmp_path, capsys, key, value):
        settings = {"free": "G_o", "lo": "0.1", "hi": "0.4", "grid": "4", key: value}
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[run]\nsolver = closed_form\n\n[optimize]\n" + "".join(
            f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_unavailable_objective_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[optimize]\nfree = delta\nlo = 0.3\nhi = 3.0\nobjective = wom\n",
                       encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: quantities ['wom'] not available for model='oneD' "
            "solver='lyapunov'; available: ['xx', 'pp', 'xp', 'n_bar', 'purity', 'n_bar_0']\n")

    def test_misspelled_free_name_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[run]\nsolver = closed_form\n\n[optimize]\n"
                       "free = G_0\nlo = 0.1\nhi = 0.4\n", encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: SystemParams1D has no parameter 'G_0'; settable: {SETTABLE_1D}\n")

    @pytest.mark.parametrize("model", ["oneD", "twoD"])
    def test_both_coupling_forms_free_is_config_error(self, model, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text(f"[run]\nmodel = {model}\nsolver = closed_form\n\n[optimize]\n"
                       "free = lambda_o, G_o\nlo = 0.1, 0.1\nhi = 0.4, 0.4\n", encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: G_o and lambda_o are two forms of one coupling; "
            "a grid may set only one of them\n")

    def test_duplicate_free_name_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[run]\nsolver = closed_form\n\n[optimize]\n"
                       "free = delta, delta\nlo = 0.3, 0.3\nhi = 3.0, 3.0\n",
                       encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == "config error: duplicate parameter name 'delta'\n"

    def test_oversized_grid_is_config_error(self, tmp_path, capsys, monkeypatch):
        # each axis is within the limit, the product grid ** 2 is not
        monkeypatch.setattr(sweep.Axis, "values", lambda self: pytest.fail("grid was built"))
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[run]\nsolver = closed_form\n\n[optimize]\n"
                       "free = delta, G_o\nlo = 0.3, 0.1\nhi = 3.0, 0.4\ngrid = 1001\n",
                       encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: grid of 1002001 points exceeds the limit of {sweep.MAX_GRID_POINTS}\n")

    def test_missing_section(self, tmp_path, capsys):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[params]\nG_o = 0.1\n", encoding="utf-8")
        assert run_cli("optimize", "--config", str(cfg)) == 2


class TestValidate:
    def test_all_pass(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "lyapunov-vs-closed-form-1d" in out

    def test_injected_fault_detected(self, capsys, perturbed_diffusion):
        assert run_cli("validate") == 1
        captured = capsys.readouterr()
        assert "validation FAILED" in captured.err
        assert "lyapunov-vs-closed-form-1d" in captured.err


@pytest.mark.parametrize("flag", ["ignore", "error"])
def test_output_does_not_depend_on_the_warning_filters(flag):
    # regime warnings are returned strings, never Python warnings
    src = Path(sweep.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from omsteady.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-W", flag, "-c", code, str(src), "point",
                           "--param", "model=rwa", "--solver", "closed_form",
                           "--param", "n_B_d=30"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("\nwarning: unequal bath occupations; using the bright-mode "
                                "value\n")


def test_subcommand_options_are_pinned():
    # adding or removing a knob must change this test on purpose
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {cmd: sorted(opt for a in p._actions for opt in a.option_strings or [a.dest])
               for cmd, p in sub.choices.items()}
    common = ["--config", "--help", "--out", "--param", "--solver", "-h"]
    assert options == {
        "point": common,
        "sweep": sorted(common + ["--axis"]),
        "figure": ["--help", "--out", "-h", "id"],
        "optimize": common,
        "validate": ["--help", "-h"],
    }


@pytest.mark.parametrize("argv, optimize, message", [
    (["point", "--param", "model=threeD"], None,
     "unknown model 'threeD'; choose from ('oneD', 'twoD', 'rwa')"),
    (["point", "--param", "solver=bogus"], None,
     "unknown solver 'bogus'; choose from ('lyapunov', 'spectral', 'closed_form')"),
    (["sweep", "--axis", "G_o,0,1,x"], None,
     "bad axis spec 'G_o,0,1,x': invalid literal for int() with base 10: 'x'"),
    (["optimize"], "free = G_o, delta\nlo = 0.1\nhi = 0.4\n",
     "optimize needs 1-3 free names with aligned lo/hi lists"),
    # a configparser.Error, which main maps to a config error as well
    (["optimize"], "lo = 0.1\nhi = 0.4\n", "No option 'free' in section: 'optimize'"),
], ids=["unknown-model", "unknown-solver", "axis-count", "unaligned-bounds", "no-free-key"])
def test_config_error_is_one_line(argv, optimize, message, tmp_path, capsys):
    out = tmp_path / "s.csv"
    cfg = tmp_path / "opt.ini"
    if optimize is not None:
        cfg.write_text("[optimize]\n" + optimize, encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("omsteady")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "point", "--param", "G_o=0.3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "n_bar" in proc.stdout
