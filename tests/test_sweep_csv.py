import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from omsteady import sweep
from omsteady.closedform import backaction_1d
from omsteady.errors import InvalidParams
from omsteady.models import SystemParams1D, SystemParams2D, SystemParamsRWA, resonant_2d_design
from omsteady.sweep import (
    Axis,
    RunConfig,
    SweepRow,
    SweepSpec,
    SweepResult,
    available_quantities,
    evaluate_config,
    evaluate_point,
    format_float,
    run_sweep,
    sweep_to_csv,
    with_param,
    write_csv,
)

P_1D = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)


def config_1d(solver="closed_form", outputs=()):
    return RunConfig(model="oneD", solver=solver, params=P_1D, outputs=outputs)


class TestAxis:
    def test_linear_values(self):
        np.testing.assert_allclose(Axis("G_o", 0.0, 1.0, 5).values(),
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_values(self):
        v = Axis("kappa", 0.01, 100.0, 5, scale="log").values()
        np.testing.assert_allclose(v, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(lo=1.0, hi=0.0, count=5),
        dict(lo=0.0, hi=1.0, count=1),
        dict(lo=0.0, hi=1.0, count=5, scale="cubic"),
        dict(lo=0.0, hi=1.0, count=5, scale="log"),
        dict(lo=0.1, hi=math.inf, count=3),
        dict(lo=-math.inf, hi=0.2, count=3),
        dict(lo=0.1, hi=0.2, count=sweep.MAX_GRID_POINTS + 1),
        dict(lo=0.1, hi=0.2, count=100_000_000_000),
    ])
    def test_invalid_axis(self, kwargs):
        with pytest.raises(InvalidParams):
            Axis("G_o", **kwargs)


class TestSweepSpec:
    def test_grid_is_row_major(self):
        spec = SweepSpec(axes=(Axis("a", 0.0, 1.0, 2), Axis("b", 10.0, 20.0, 3)))
        assert spec.grid() == [
            (0.0, 10.0), (0.0, 15.0), (0.0, 20.0),
            (1.0, 10.0), (1.0, 15.0), (1.0, 20.0),
        ]

    def test_axis_count_limits(self):
        with pytest.raises(InvalidParams):
            SweepSpec(axes=())
        with pytest.raises(InvalidParams):
            SweepSpec(axes=(Axis("a", 0, 1, 2),) * 3)

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(InvalidParams, match="duplicate axis name 'G_o'"):
            SweepSpec(axes=(Axis("G_o", 0.1, 0.2, 2), Axis("G_o", 0.3, 0.4, 3)))

    def test_point_count_above_limit_rejected_at_construction(self, monkeypatch):
        monkeypatch.setattr(Axis, "values", lambda self: pytest.fail("grid was built"))
        side = math.isqrt(sweep.MAX_GRID_POINTS)
        SweepSpec(axes=(Axis("a", 0.0, 1.0, side), Axis("b", 0.0, 1.0, side)))
        with pytest.raises(InvalidParams, match="exceeds the limit"):
            SweepSpec(axes=(Axis("a", 0.0, 1.0, side + 1), Axis("b", 0.0, 1.0, side)))


class TestRunConfig:
    def test_outputs_default_to_all(self):
        cfg = config_1d("lyapunov")
        assert cfg.outputs == available_quantities("oneD", "lyapunov")

    def test_unknown_quantity_rejected(self):
        with pytest.raises(InvalidParams, match="not available"):
            config_1d("lyapunov", outputs=("M_Omega",))

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParams, match="unknown model"):
            RunConfig(model="threeD", solver="lyapunov", params=P_1D)

    def test_spectral_solver_only_for_oneD(self):
        p2 = resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.05, kappa=0.2)
        with pytest.raises(InvalidParams, match="no evaluator"):
            RunConfig(model="twoD", solver="spectral", params=p2)

    def test_params_type_must_match_model(self):
        with pytest.raises(InvalidParams, match="needs SystemParams2D"):
            RunConfig(model="twoD", solver="lyapunov", params=P_1D)


class TestWithParam:
    def test_coupling_pair_stays_consistent(self):
        p = with_param(P_1D, "G_o", 0.3)
        assert p.lambda_o == pytest.approx(0.3 / math.sqrt(0.5), rel=1e-15)
        q = with_param(P_1D, "lambda_o", 0.1)
        assert q.G_o == pytest.approx(0.1 * math.sqrt(0.5), rel=1e-15)

    def test_plain_parameter(self):
        assert with_param(P_1D, "kappa", 0.5).kappa == 0.5

    def test_unknown_name(self):
        with pytest.raises(InvalidParams, match="no parameter"):
            with_param(P_1D, "wavelength", 1.0)

    def test_twoD_coupling_rate_maps_to_gradient(self):
        # G_o is a derived property of the 2D record; it is converted at
        # the bright-mode frequency, as resonant_2d_design does
        base = resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.05, kappa=0.2)
        p = with_param(base, "G_o", 0.3)
        assert p.G_o == pytest.approx(0.3, rel=1e-15)
        expect = resonant_2d_design(omega=1.0, G_o=0.3, G_m=0.05, kappa=0.2)
        assert p.lambda_o == pytest.approx(expect.lambda_o, rel=1e-15)

    def test_twoD_coupling_rate_holds_whatever_the_axis_order(self):
        base = resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.05, kappa=0.2)
        config = RunConfig(model="twoD", solver="closed_form", params=base)
        first = evaluate_config(config, {"G_o": 0.2, "omega_x": 1.2})[0]
        last = evaluate_config(config, {"omega_x": 1.2, "G_o": 0.2})[0]
        assert first == last

    @pytest.mark.parametrize("name", ["omega_b", "mass", "hbar"])
    def test_oneD_scale_sweep_keeps_the_coupling_rate(self, name):
        # these fields enter the G_o <-> lambda_o conversion; the rate holds
        result = run_sweep(config_1d("lyapunov"), SweepSpec((Axis(name, 0.8, 1.2, 3),)))
        for (value,), row in zip(result.spec.grid(), result.rows):
            assert row.stable, row.warnings
            assert with_param(P_1D, name, value).G_o == P_1D.G_o
            fresh = RunConfig(model="oneD", solver="lyapunov",
                              params=SystemParams1D(**{
                                  "omega_b": 1.0, "gamma_b": 0.0, "kappa": 0.2,
                                  "delta": 1.0, "G_o": P_1D.G_o, name: value}))
            assert row.values == evaluate_config(fresh)[0]

    def test_oneD_coupling_gradient_holds_whatever_the_axis_order(self):
        config = config_1d()
        first = evaluate_config(config, {"lambda_o": 0.3, "omega_b": 1.2})[0]
        last = evaluate_config(config, {"omega_b": 1.2, "lambda_o": 0.3})[0]
        assert first == last

    def test_derived_property_is_not_a_field(self):
        base = resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.05, kappa=0.2)
        with pytest.raises(InvalidParams, match="no parameter"):
            with_param(base, "G_m", 0.1)


class TestEvaluatePoint:
    def test_stable_point_values(self):
        row = evaluate_point(config_1d(), {"G_o": 0.4})
        assert row.stable
        assert row.axis_values == (0.4,)
        ref = backaction_1d(with_param(P_1D, "G_o", 0.4))
        assert row.values["n_bar"] == ref.n_bar
        assert row.values["purity"] == ref.purity

    def test_unstable_point_flagged_not_raised(self):
        row = evaluate_point(config_1d(), {"G_o": 0.55})
        assert not row.stable
        assert row.values is None
        assert "UnstableRegime" in row.warnings[0]

    def test_rwa_occupations(self):
        p = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6,
                            gamma_d=1e-6, kappa=1e-3, delta=1.0, G_o=0.0,
                            G_m=0.0, n_B_b=25.0, n_B_d=25.0)
        cfg = RunConfig(model="rwa", solver="lyapunov", params=p)
        row = evaluate_point(cfg)
        assert row.values["n_b"] == pytest.approx(25.0, rel=1e-9)
        assert row.values["n_d"] == pytest.approx(25.0, rel=1e-9)


class TestRunSweep:
    SPEC = SweepSpec(axes=(Axis("G_o", 0.40, 0.55, 16),))

    def test_row_count_and_order(self):
        res = run_sweep(config_1d(), self.SPEC)
        assert len(res.rows) == 16
        g_values = [r.axis_values[0] for r in res.rows]
        assert g_values == sorted(g_values)

    def test_stability_flips_once_at_threshold(self):
        res = run_sweep(config_1d(), self.SPEC)
        flags = [r.stable for r in res.rows]
        flip = flags.index(False)
        assert all(flags[:flip]) and not any(flags[flip:])
        k = (0.2 / 2.0) ** 2 + 1.0
        g_crit = math.sqrt(k / 4.0)
        assert res.rows[flip - 1].axis_values[0] < g_crit < res.rows[flip].axis_values[0]

    def test_jobs_do_not_change_rows(self):
        serial = run_sweep(config_1d(), self.SPEC, jobs=1)
        parallel = run_sweep(config_1d(), self.SPEC, jobs=2)
        assert serial.csv_rows() == parallel.csv_rows()

    def test_two_axis_sweep(self):
        spec = SweepSpec(axes=(Axis("kappa", 0.1, 0.3, 2), Axis("G_o", 0.1, 0.2, 3)))
        res = run_sweep(config_1d("lyapunov"), spec)
        assert len(res.rows) == 6
        assert res.rows[0].axis_values == (0.1, 0.1)
        assert res.rows[3].axis_values == (0.3, 0.1)

    def test_bad_jobs(self):
        with pytest.raises(InvalidParams):
            run_sweep(config_1d(), self.SPEC, jobs=0)

    def test_jobs_capped_at_points_and_cpus(self, monkeypatch):
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
        spec = SweepSpec(axes=(Axis("G_o", 0.1, 0.4, 4),))
        serial = run_sweep(config_1d(), spec, jobs=1).csv_rows()
        assert asked == []
        cap = min(4, sweep._usable_cpus())
        assert run_sweep(config_1d(), spec, jobs=10**6).csv_rows() == serial
        assert asked == ([cap] if cap > 1 else [])
        for cpus, expect in ((3, [3]), (64, [4]), (1, [])):
            asked.clear()
            monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
            assert run_sweep(config_1d(), spec, jobs=10**6).csv_rows() == serial
            assert asked == expect

    def test_unknown_axis_name_rejected_before_any_point(self, monkeypatch):
        calls = []
        route = ("oneD", "closed_form")
        evaluator, quantities = sweep._EVALUATORS[route]
        monkeypatch.setitem(sweep._EVALUATORS, route,
                            (lambda p: calls.append(p) or evaluator(p), quantities))
        spec = SweepSpec(axes=(Axis("G_o", 0.1, 0.2, 2), Axis("foo", 0.1, 0.2, 2)))
        with pytest.raises(InvalidParams, match="has no parameter 'foo'"):
            run_sweep(config_1d(), spec)
        assert calls == []


RWA_BATH = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=5e-13, gamma_d=5e-13,
                           kappa=1e-3, delta=1.0, G_o=1e-3, G_m=1e-3,
                           n_B_b=5e7, n_B_d=5e7)
P_2D = SystemParams2D(omega_x=1.0, omega_y=1.2, gamma_x=5e-4, gamma_y=5e-4, phi=0.5,
                      kappa=0.2, delta=1.0, lambda_o=0.3, temperature=2.0)

# Grids of 65 and 129 points put chunk boundaries mid-grid.
STACKED_GRIDS = {
    # the upper G_o values leave the rotating-wave regime and carry a warning
    "rwa": (RunConfig("rwa", "lyapunov", RWA_BATH),
            SweepSpec(axes=(Axis("G_o", 1e-3, 0.3, 65, "log"),))),
    # crosses the stability edge at G_o = 0.5025
    "oneD-edge": (config_1d("lyapunov"), SweepSpec(axes=(Axis("G_o", 0.02, 0.7, 129),))),
    # negative gamma_b is rejected at the record; the axis crosses 0
    "oneD-gamma_b": (RunConfig("oneD", "lyapunov", replace(P_1D, temperature=2.0)),
                     SweepSpec(axes=(Axis("gamma_b", -0.005, 0.005, 129),))),
    # gamma_x != gamma_y correlates the rotated baths: CorrelatedBathUnsupported
    "twoD-gamma_x": (RunConfig("twoD", "lyapunov", P_2D),
                     SweepSpec(axes=(Axis("gamma_x", 0.0, 1e-3, 65),))),
}


def _pointwise_rows(config, spec):
    names = [a.name for a in spec.axes]
    return tuple(evaluate_point(config, dict(zip(names, pt))) for pt in spec.grid())


class TestStackedSweep:
    """Lyapunov grids run as stacked solves give the rows of point-by-point evaluation."""

    @pytest.mark.parametrize("grid", STACKED_GRIDS)
    def test_rows_equal_pointwise_rows(self, grid):
        config, spec = STACKED_GRIDS[grid]
        result = run_sweep(config, spec)
        assert result.rows == _pointwise_rows(config, spec)
        assert any(r.stable for r in result.rows)
        assert any(not r.stable for r in result.rows) or grid == "rwa"
        if grid == "rwa":
            assert any(r.warnings for r in result.rows)

    def test_flag_text_per_grid(self):
        reasons = {grid: {r.warnings[0].split(":")[0] for r in run_sweep(*STACKED_GRIDS[grid]).rows
                          if not r.stable}
                   for grid in ("oneD-edge", "oneD-gamma_b", "twoD-gamma_x")}
        assert reasons == {"oneD-edge": {"UnstableSystem"}, "oneD-gamma_b": {"InvalidParams"},
                           "twoD-gamma_x": {"CorrelatedBathUnsupported"}}

    def test_warning_in_a_chunk_falls_back_with_exact_text(self, monkeypatch):
        config = STACKED_GRIDS["rwa"][0]
        spec = SweepSpec(axes=(Axis("G_o", 1e-3, 0.3, 129, "log"),))
        grid = [pt[0] for pt in spec.grid()]
        # one warning in the first chunk, two from one source line in the second
        warned = {grid[5], grid[100], grid[101]}
        build = sweep.build_rwa

        def warning_build(p):
            if p.G_o in warned:
                warnings.warn(f"injected at G_o={p.G_o!r}", RuntimeWarning)
            return build(p)

        monkeypatch.setattr(sweep, "build_rwa", warning_build)
        calls = []
        run = sweep._run
        monkeypatch.setattr(sweep, "_run", lambda ev, p: calls.append(p) or run(ev, p))
        rows = run_sweep(config, spec).rows
        # points 0-63 and 64-127 are evaluated one by one, point 128 stacked
        assert len(calls) == 128
        assert rows == _pointwise_rows(config, spec)
        for g, row in zip(grid, rows):
            injected = [w for w in row.warnings if w.startswith("injected")]
            assert injected == ([f"injected at G_o={g!r}"] if g in warned else [])

    def test_lyapunov_grid_starts_no_pool_whatever_jobs(self, monkeypatch, tmp_path):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a Lyapunov grid must not start a process pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", NoPool)
        config = RunConfig("rwa", "lyapunov", RWA_BATH)
        spec = SweepSpec(axes=(Axis("G_o", 5e-5, 5e-3, 12, "log"),
                               Axis("G_m", 5e-5, 5e-3, 11, "log")))
        one = sweep_to_csv(config, spec, tmp_path / "j1.csv", jobs=1)
        two = sweep_to_csv(config, spec, tmp_path / "j2.csv", jobs=2)
        assert one.read_bytes() == two.read_bytes()


class TestCsvOutput:
    SPEC = SweepSpec(axes=(Axis("G_o", 0.45, 0.55, 9),))

    def test_header_names_and_units(self, tmp_path):
        path = sweep_to_csv(config_1d(outputs=("n_bar", "purity")),
                            self.SPEC, tmp_path / "s.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "G_o,n_bar,purity,stable,warnings"
        assert lines[1] == "omega_ref,dimensionless,dimensionless,flag,text"

    def test_line_endings_are_lf(self, tmp_path):
        path = sweep_to_csv(config_1d(), self.SPEC, tmp_path / "s.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_values_round_trip_exactly(self, tmp_path):
        cfg = config_1d(outputs=("n_bar", "xx"))
        path = sweep_to_csv(cfg, self.SPEC, tmp_path / "s.csv")
        lines = path.read_text(encoding="utf-8").splitlines()[2:]
        rows = run_sweep(cfg, self.SPEC).rows
        for line, row in zip(lines, rows):
            g, n, xx, stable, _ = line.split(",")
            assert float(g) == row.axis_values[0]
            if row.stable:
                assert stable == "1"
                assert float(n) == row.values["n_bar"]
                assert float(xx) == row.values["xx"]

    def test_unstable_rows_have_empty_cells(self, tmp_path):
        path = sweep_to_csv(config_1d(outputs=("n_bar",)),
                            self.SPEC, tmp_path / "s.csv")
        lines = path.read_text(encoding="utf-8").splitlines()[2:]
        unstable = [ln for ln in lines if ",0," in ln]
        assert unstable
        for ln in unstable:
            _, n_cell, flag, reason = ln.split(",")
            assert n_cell == ""
            assert flag == "0"
            assert "UnstableRegime" in reason

    def test_byte_identical_across_jobs(self, tmp_path):
        digests = []
        for jobs in (1, 3):
            path = sweep_to_csv(config_1d(), self.SPEC,
                                tmp_path / f"s{jobs}.csv", jobs=jobs)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_rewrite_is_deterministic(self, tmp_path):
        a = sweep_to_csv(config_1d(), self.SPEC, tmp_path / "a.csv")
        b = sweep_to_csv(config_1d(), self.SPEC, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_no_temporary_left_behind(self, tmp_path):
        sweep_to_csv(config_1d(), self.SPEC, tmp_path / "s.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_warning_commas_sanitized(self):
        cfg = config_1d(outputs=("n_bar",))
        res = SweepResult(
            config=cfg,
            spec=SweepSpec(axes=(Axis("G_o", 0.0, 1.0, 2),)),
            rows=(SweepRow((0.1,), None, False, ("bad, very bad",)),),
        )
        cells = res.csv_rows()[0]
        assert cells[-1] == "bad; very bad"

    def test_write_csv_validates_shape(self, tmp_path):
        with pytest.raises(InvalidParams):
            write_csv(tmp_path / "x.csv", ["a", "b"], ["u"], [])
        with pytest.raises(InvalidParams):
            write_csv(tmp_path / "x.csv", ["a"], ["u"], [["1", "2"]])


class TestFormatFloat:
    @pytest.mark.parametrize("x", [
        1.0 / 3.0, 0.1, 1e-300, 2.5e17, -0.0, 5.0,
        0.18700547324622552,
    ])
    def test_parse_back_is_exact(self, x):
        assert float(format_float(x)) == x
