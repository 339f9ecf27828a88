import math
import warnings
from dataclasses import fields, replace
from itertools import compress, product

import numpy as np
import pytest

from omsteady import spectral, sweep
from omsteady.cli import _build_params
from omsteady.closedform import backaction_1d, bare_occupation
from omsteady.errors import (Batch, CorrelatedBathUnsupported, InvalidParams, OmsteadyError,
                             QuadratureFailure)
from omsteady.gaussian import Cov1D, Cov2D, occupation_and_purity_1d, purity_2d_general
from omsteady.langevin import (NoiseMode, build_1d, build_1d_batch, build_2d, build_2d_batch,
                               build_rwa, build_rwa_batch, stability, steady_covariance,
                               steady_covariance_batch)
from omsteady.models import (_SETTABLE, ParamsGrid, SystemParams1D, SystemParams2D,
                             SystemParamsRWA, _with_values, resonant_2d_design)
from omsteady.sweep import (
    Axis,
    RunConfig,
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


def _row(point) -> dict:
    """The quantities of an evaluate_point result as floats."""
    return {q: column.tolist() for q, column in point[0].items()}


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
        dict(lo=-1e308, hi=1e308, count=3),
        dict(lo=0.1, hi=0.2, count=sweep.MAX_GRID_POINTS + 1),
        dict(lo=0.1, hi=0.2, count=100_000_000_000),
    ])
    def test_invalid_axis(self, kwargs):
        with pytest.raises(InvalidParams):
            Axis("G_o", **kwargs)


class TestSweepSpec:
    def test_grid_is_row_major(self):
        spec = SweepSpec(axes=(Axis("a", 0.0, 1.0, 2), Axis("b", 10.0, 20.0, 3)))
        assert spec.grid().tolist() == [
            [0.0, 10.0], [0.0, 15.0], [0.0, 20.0],
            [1.0, 10.0], [1.0, 15.0], [1.0, 20.0],
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


def test_every_csv_column_has_a_unit():
    # a settable parameter (an axis) or a quantity without one would
    # print "unknown" in the CSV units row
    names = {name for settable in _SETTABLE.values() for name in settable}
    names |= {q for model, solver in sweep._EVALUATORS for q in available_quantities(model, solver)}
    assert sorted(names - set(sweep.UNITS)) == []


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
        first = evaluate_point(config, {"G_o": 0.2, "omega_x": 1.2})
        last = evaluate_point(config, {"omega_x": 1.2, "G_o": 0.2})
        assert first[1].all() and _row(first) == _row(last)

    @pytest.mark.parametrize("name", ["omega_b", "mass", "hbar"])
    def test_oneD_scale_sweep_keeps_the_coupling_rate(self, name):
        # these fields enter the G_o <-> lambda_o conversion; the rate holds
        result = run_sweep(config_1d("lyapunov"), SweepSpec((Axis(name, 0.8, 1.2, 3),)))
        assert result.stable.all(), result.warnings
        for k, (value,) in enumerate(result.spec.grid().tolist()):
            assert with_param(P_1D, name, value).G_o == P_1D.G_o
            fresh = RunConfig(model="oneD", solver="lyapunov",
                              params=SystemParams1D(**{
                                  "omega_b": 1.0, "gamma_b": 0.0, "kappa": 0.2,
                                  "delta": 1.0, "G_o": P_1D.G_o, name: value}))
            assert {q: c[k] for q, c in result.columns.items()} == evaluate_config(fresh)[0]

    def test_oneD_coupling_gradient_holds_whatever_the_axis_order(self):
        config = config_1d()
        first = evaluate_point(config, {"lambda_o": 0.3, "omega_b": 1.2})
        last = evaluate_point(config, {"omega_b": 1.2, "lambda_o": 0.3})
        assert first[1].all() and _row(first) == _row(last)

    def test_derived_property_is_not_a_field(self):
        base = resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.05, kappa=0.2)
        with pytest.raises(InvalidParams, match="no parameter"):
            with_param(base, "G_m", 0.1)


class TestEvaluatePoint:
    def test_stable_point_values(self):
        columns, stable, warns = evaluate_point(config_1d(), {"G_o": 0.4})
        assert stable.tolist() == [True] and warns == [()]
        ref = backaction_1d(with_param(P_1D, "G_o", 0.4))
        assert columns["n_bar"].tolist() == [ref.n_bar]
        assert columns["purity"].tolist() == [ref.purity]

    def test_unstable_point_flagged_not_raised(self):
        columns, stable, (warning,) = evaluate_point(config_1d(), {"G_o": 0.55})
        assert stable.tolist() == [False]
        assert all(c.size == 0 for c in columns.values())
        assert "UnstableRegime" in warning[0]

    def test_rwa_occupations(self):
        p = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6,
                            gamma_d=1e-6, kappa=1e-3, delta=1.0, G_o=0.0,
                            G_m=0.0, n_B_b=25.0, n_B_d=25.0)
        cfg = RunConfig(model="rwa", solver="lyapunov", params=p)
        columns, _, _ = evaluate_point(cfg)
        assert columns["n_b"][0] == pytest.approx(25.0, rel=1e-9)
        assert columns["n_d"][0] == pytest.approx(25.0, rel=1e-9)


class TestRunSweep:
    SPEC = SweepSpec(axes=(Axis("G_o", 0.40, 0.55, 16),))

    def test_row_count_and_order(self):
        res = run_sweep(config_1d(), self.SPEC)
        assert len(res.stable) == len(res.warnings) == 16
        g_values = [float(line.split(",")[0]) for line in res.csv_rows()]
        assert g_values == sorted(g_values) == self.SPEC.axes[0].values().tolist()

    def test_stability_flips_once_at_threshold(self):
        res = run_sweep(config_1d(), self.SPEC)
        flags = res.stable.tolist()
        flip = flags.index(False)
        assert all(flags[:flip]) and not any(flags[flip:])
        assert all(len(c) == flip for c in res.columns.values())
        k = (0.2 / 2.0) ** 2 + 1.0
        g_crit = math.sqrt(k / 4.0)
        g_values = res.spec.grid()[:, 0]
        assert g_values[flip - 1] < g_crit < g_values[flip]

    def test_two_axis_sweep(self):
        spec = SweepSpec(axes=(Axis("kappa", 0.1, 0.3, 2), Axis("G_o", 0.1, 0.2, 3)))
        res = run_sweep(config_1d("lyapunov"), spec)
        assert len(res.stable) == 6
        lines = res.csv_rows()
        assert [float(c) for c in lines[0].split(",")[:2]] == [0.1, 0.1]
        assert [float(c) for c in lines[3].split(",")[:2]] == [0.3, 0.1]
        # each row is the point evaluated alone
        _assert_same_rows((res.columns, res.stable, res.warnings),
                          _pointwise(res.config, ["kappa", "G_o"], spec.grid()))

    def test_unknown_axis_name_rejected_before_any_point(self, monkeypatch):
        calls = []
        route = sweep._EVALUATORS[("oneD", "closed_form")]
        monkeypatch.setitem(sweep._EVALUATORS, ("oneD", "closed_form"), route._replace(
            evaluate=lambda grid: calls.extend(grid) or route.evaluate(grid)))
        spec = SweepSpec(axes=(Axis("G_o", 0.1, 0.2, 2), Axis("foo", 0.1, 0.2, 2)))
        with pytest.raises(InvalidParams, match="has no parameter 'foo'"):
            run_sweep(config_1d(), spec)
        assert calls == []


RWA_BATH = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=5e-13, gamma_d=5e-13,
                           kappa=1e-3, delta=1.0, G_o=1e-3, G_m=1e-3,
                           n_B_b=5e7, n_B_d=5e7)
P_2D = SystemParams2D(omega_x=1.0, omega_y=1.2, gamma_x=5e-4, gamma_y=5e-4, phi=0.5,
                      kappa=0.2, delta=1.0, lambda_o=0.3, temperature=2.0)

# Grids of 65 and 129 points put LU-block boundaries (64 items, see
# langevin._LU_BLOCK) mid-grid; each fits in one 256-point Lyapunov chunk.
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


# The default points of `omsteady point`, swept over one field on a log
# axis across the whole float range. Numpy overflows inside two bands:
# the residual gate's scale at mass near 1e-228 ... 3e-156, and the 4x4
# determinant at n_B_b from 1.2e81 to the record's limit of 1.3e154.
RWA_DEFAULT = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6, gamma_d=1e-6,
                              kappa=1e-3, delta=1.0, G_o=2e-3, G_m=2e-3 / math.sqrt(2.0),
                              n_B_b=25.0, n_B_d=25.0)
PROBE_GRIDS = {
    "oneD-mass": (config_1d("lyapunov"),
                  SweepSpec(axes=(Axis("mass", 1e-310, 1e308, 129, "log"),))),
    "rwa-n_B_b": (RunConfig("rwa", "lyapunov", RWA_DEFAULT),
                  SweepSpec(axes=(Axis("n_B_b", 1e-310, 1e308, 129, "log"),))),
}


def _pointwise(config, names, points):
    """evaluate_point at each point, joined as evaluate_grid returns the rows."""
    rows = [evaluate_point(config, dict(zip(names, point))) for point in points.tolist()]
    columns = {q: np.concatenate([c[q] for c, _, _ in rows]) for q in config.outputs}
    return columns, np.concatenate([stable for _, stable, _ in rows]), [w for *_, (w,) in rows]


def _assert_same_rows(got, expect):
    """Equal stable flags and warnings, and every column the same bits."""
    (columns, stable, warns), (columns_e, stable_e, warns_e) = got, expect
    assert stable.tolist() == stable_e.tolist()
    assert warns == warns_e
    assert {q: c.tobytes() for q, c in columns.items()} == {
        q: c.tobytes() for q, c in columns_e.items()}


def _scalar_values(model, p):
    """A Lyapunov record's quantities and regime warnings through the public scalar chain."""
    if model == "oneD":
        system = build_1d(p, NoiseMode.MarkovianThermal)
        cov = steady_covariance(system).mechanical_1d()
        n, mu = occupation_and_purity_1d(cov)
        values = {"xx": cov.xx, "pp": cov.pp, "xp": cov.xp, "n_bar": n, "purity": mu,
                  "n_bar_0": bare_occupation(cov, p.omega_b, p.mass)}
        return values, system.warnings
    system = build_2d(p, NoiseMode.MarkovianThermal) if model == "twoD" else build_rwa(p)
    full = steady_covariance(system)
    V = full.matrix
    s = purity_2d_general(full.mechanical_2d())
    values = {"purity_2d": s.purity_2d, "purity_product": s.purity_product_1d,
              "N_plus": s.N_plus, "N_minus": s.N_minus}
    if model == "twoD":
        values.update(xx_b=V[0, 0], pp_b=V[1, 1], xx_d=V[2, 2], pp_d=V[3, 3],
                      x_b_x_d=V[0, 2], p_b_p_d=V[1, 3])
    else:
        values.update(n_b=0.5 * (V[2, 2] + V[3, 3] - 1.0), n_d=0.5 * (V[4, 4] + V[5, 5] - 1.0))
    return values, system.warnings


def _scalar_rows(config, spec):
    """CSV lines of a one-axis Lyapunov grid evaluated point by point
    through the scalar chain, each cell rendered on its own."""
    (axis,) = spec.axes
    rows = []
    for point in spec.grid():
        try:
            values, warn = _scalar_values(config.model,
                                          with_param(config.params, axis.name, point[0]))
            cells = [format_float(values[q]) for q in config.outputs] + ["1"]
        except OmsteadyError as exc:
            assert exc.exit_code != 4
            cells = [""] * len(config.outputs) + ["0"]
            warn = (f"{type(exc).__name__}: {exc}",)
        warning_cell = ";".join(warn).replace(",", ";").replace("\n", " ")
        rows.append(",".join([format_float(point[0]), *cells, warning_cell]))
    return rows


class TestStackedSweep:
    """Lyapunov grids run as stacked solves give the rows of point-by-point evaluation."""

    @pytest.mark.parametrize("grid", STACKED_GRIDS)
    def test_rows_equal_pointwise_rows(self, grid):
        config, spec = STACKED_GRIDS[grid]
        result = run_sweep(config, spec)
        assert result.csv_rows() == _scalar_rows(config, spec)
        _assert_same_rows((result.columns, result.stable, result.warnings),
                          _pointwise(config, [spec.axes[0].name], spec.grid()))
        assert result.stable.any()
        assert not result.stable.all() or grid == "rwa"
        if grid == "rwa":
            assert any(result.warnings)

    def test_rows_across_a_route_chunk_equal_pointwise_rows(self):
        # 17 x 17 = 289 points: a 256-point chunk and one of 33. At G_m = 0
        # the undamped dark mode decouples and the row is unstable; the
        # upper G_o values carry the regime warning.
        config = RunConfig("rwa", "lyapunov", replace(RWA_BATH, gamma_d=0.0))
        spec = SweepSpec((Axis("G_o", 1e-3, 0.3, 17, "log"), Axis("G_m", 0.0, 1e-3, 17)))
        chunk = sweep._EVALUATORS[("rwa", "lyapunov")].chunk
        assert chunk < len(spec.grid()) < 2 * chunk
        result = run_sweep(config, spec)
        _assert_same_rows((result.columns, result.stable, result.warnings),
                          _pointwise(config, ["G_o", "G_m"], spec.grid()))
        assert result.stable.sum() == 17 * 16 and any(result.warnings)

    def test_only_items_that_reach_the_solve_are_solved(self, monkeypatch):
        # Unequal axis damping with mode mixing flags every phi > 0 row at
        # the build (CorrelatedBathUnsupported), and the upper lambda_o
        # values are unstable, decided before the solve since the 2D
        # positions carry no noise. Only the built, decaying items reach
        # np.linalg.solve.
        base = replace(P_2D, gamma_y=1e-3)
        names, spec = ["phi", "lambda_o"], SweepSpec((Axis("phi", 0.0, 1.5, 20),
                                                      Axis("lambda_o", 0.05, 1.5, 20)))
        reach = 0
        for point in spec.grid().tolist():
            try:
                record = _with_values(base, dict(zip(names, point)))
                system = build_2d(record, NoiseMode.MarkovianThermal)
            except CorrelatedBathUnsupported:
                continue
            reach += stability(system)
        solved, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, b: solved.append(len(M)) or solve(M, b))
        result = run_sweep(RunConfig("twoD", "lyapunov", base), spec)
        assert sum(solved) == reach == result.stable.sum()
        assert 0 < reach < 20
        assert {w[0].split(":")[0] for w, ok in zip(result.warnings, result.stable)
                if not ok} == {"CorrelatedBathUnsupported", "UnstableSystem"}

    def test_flag_text_per_grid(self):
        results = {grid: run_sweep(*STACKED_GRIDS[grid])
                   for grid in ("oneD-edge", "oneD-gamma_b", "twoD-gamma_x")}
        reasons = {grid: {w[0].split(":")[0] for w, ok in zip(r.warnings, r.stable) if not ok}
                   for grid, r in results.items()}
        assert reasons == {"oneD-edge": {"UnstableSystem"}, "oneD-gamma_b": {"InvalidParams"},
                           "twoD-gamma_x": {"CorrelatedBathUnsupported"}}

    @pytest.mark.parametrize("grid", PROBE_GRIDS)
    def test_probe_rows_with_numpy_warnings_equal_scalar_rows(self, grid):
        config, spec = PROBE_GRIDS[grid]
        lines = run_sweep(config, spec).csv_rows()
        assert lines == _scalar_rows(config, spec)
        rows = [line.split(",") for line in lines]
        band = [row for row in rows if {"oneD-mass": 1e-228 <= float(row[0]) <= 3.2e-156,
                                        "rwa-n_B_b": 1.2e81 <= float(row[0]) < 1.3e154}[grid]]
        assert len(band) >= 10
        if grid == "oneD-mass":
            # the gate no longer forms max|A| max|V|, which overflowed there
            assert all(row[-2:] == ["1", ""] for row in band)
        else:
            # det V overflows: purity_2d comes from its log-determinant
            assert all(row[-2:] == ["1", ""] for row in band)
            for row in band:
                n_plus, n_minus = float(row[5]), float(row[6])
                assert float(row[3]) == pytest.approx(
                    1.0 / ((2.0 * n_plus + 1.0) * (2.0 * n_minus + 1.0)), rel=1e-12)

    def test_bare_occupation_overflow_adds_no_warning(self):
        # xx overflows to inf at a subnormal mass; backaction_1d rejects
        # it before the stacked bare_occupation sees it, so the row
        # carries the error alone and no numpy warning
        columns, stable, (warning,) = evaluate_point(config_1d("closed_form"), {"mass": 1e-310})
        assert stable.tolist() == [False] and all(c.size == 0 for c in columns.values())
        assert warning == ("InvalidParams: backaction moments are not finite at this "
                           "record's scales",)

    def test_later_checks_give_the_scalar_errors_in_scalar_order(self, monkeypatch):
        # covariances no real solve returns: a negative variance with a
        # determinant below the bound (Cov1D's check comes first), a
        # determinant below the bound, two modes below the bound, and
        # settled states
        blocks = {"oneD": [np.array([[-0.5, 0.0], [0.0, 0.4]]), np.diag([0.5, 0.4]),
                           np.array([[0.6, 0.1], [0.1, 0.6]])],
                  "rwa": [0.4 * np.eye(4), 0.6 * np.eye(4)]}

        def solved(A, D):
            n = A.shape[-1]
            V = np.zeros((len(A), n, n))
            lo = 0 if n == 4 else 2  # where x_b, p_b sit
            for k, block in enumerate(blocks["oneD" if n == 4 else "rwa"]):
                V[k, lo:lo + len(block), lo:lo + len(block)] = block
            return Batch([None] * len(A), [()] * len(A), {
                "matrix": V, "residual": np.zeros(len(A)), "backward_error": np.ones(len(A)),
                "decay_bound": np.full(len(A), np.nan)})

        monkeypatch.setattr(sweep, "steady_covariance_batch", solved)
        for model, params in (("oneD", P_1D), ("rwa", RWA_BATH)):
            errors, _, columns = sweep.evaluate_records(model, "lyapunov",
                                                        [params] * len(blocks[model]))
            settled = 0
            for block, error in zip(blocks[model], errors):
                try:
                    if model == "oneD":
                        expect = occupation_and_purity_1d(Cov1D(*block[[0, 1, 0], [0, 1, 1]]))
                    else:
                        expect = purity_2d_general(Cov2D(block)).purity_2d
                except OmsteadyError as exc:
                    assert (type(error), str(error)) == (type(exc), str(exc))
                else:
                    assert error is None
                    got = ((columns["n_bar"][settled], columns["purity"][settled])
                           if model == "oneD" else columns["purity_2d"][settled])
                    assert got == expect
                    settled += 1
            assert settled == 1 and sum(e is not None for e in errors) == len(errors) - 1


# A 2-axis grid of each pair with stable and flagged rows.
CHUNK_GRIDS = {
    ("oneD", "lyapunov"): (replace(P_1D, temperature=2.0),
                           (Axis("G_o", 0.02, 0.7, 6), Axis("gamma_b", -0.005, 0.005, 5))),
    ("oneD", "spectral"): (P_1D, (Axis("G_o", 0.05, 0.6, 5), Axis("kappa", 0.15, 0.25, 3))),
    ("oneD", "closed_form"): (P_1D, (Axis("G_o", 0.01, 0.7, 9), Axis("delta", -0.5, 3.0, 8))),
    ("twoD", "lyapunov"): (P_2D, (Axis("gamma_x", 0.0, 1e-3, 5), Axis("lambda_o", 0.05, 1.5, 5))),
    ("twoD", "closed_form"): (_build_params("twoD", {}),
                              (Axis("lambda_o", 0.01, 2.0, 6), Axis("phi", 0.0, 1.5, 5))),
    ("rwa", "lyapunov"): (RWA_BATH, (Axis("G_o", 1e-3, 0.3, 6, "log"),
                                     Axis("gamma_b", -1e-12, 1e-12, 5))),
    ("rwa", "closed_form"): (_build_params("rwa", {}),
                             (Axis("G_o", 0.0, 0.01, 6), Axis("G_m", 0.0, 0.01, 5))),
}


class TestChunkSize:
    """A row does not depend on the chunk its point falls in."""

    @pytest.mark.parametrize("pair", CHUNK_GRIDS, ids="-".join)
    def test_rows_do_not_depend_on_chunk_size(self, pair, monkeypatch):
        base, axes = CHUNK_GRIDS[pair]
        config, spec = RunConfig(*pair, base), SweepSpec(axes)
        default = sweep._EVALUATORS[pair]
        lines = run_sweep(config, spec).csv_rows()
        assert {line.split(",")[-2] for line in lines} == {"0", "1"}
        for chunk in (1, 7):
            monkeypatch.setitem(sweep._EVALUATORS, pair, default._replace(chunk=chunk))
            assert run_sweep(config, spec).csv_rows() == lines


# Grids whose valid records the evaluator flags too. At G_m = 0 the
# undamped dark mode decouples, so the rotating-wave drift is unstable.
EVALUATOR_FLAGS = {**CHUNK_GRIDS, ("rwa", "lyapunov"): (
    replace(RWA_BATH, gamma_d=0.0), (Axis("G_o", 1e-3, 0.3, 6, "log"), Axis("G_m", 0.0, 1e-3, 5)))}


class TestFullLengthColumns:
    """An evaluator's columns span all its items; only the chunk loop cuts them."""

    @pytest.mark.parametrize("pair", EVALUATOR_FLAGS, ids="-".join)
    def test_block_spans_the_chunk_and_settled_rows_are_pointwise(self, pair):
        base, axes = EVALUATOR_FLAGS[pair]
        route = sweep._EVALUATORS[pair]
        full = ParamsGrid.from_axes(base, [a.name for a in axes], SweepSpec(axes).grid())
        grid = full.take([k for k, e in enumerate(full.errors) if e is None])
        block = route.evaluate(grid)
        assert len(block.errors) == len(block.warnings) == len(grid)
        assert {e is None for e in block.errors} == {True, False}
        assert all(len(block.columns[q]) == len(grid) for q in route.quantities)
        items = list(range(len(grid)))
        errors, warns, columns = sweep._evaluate(route, len(grid), lambda s: grid.take(items[s]))
        alone = [route.evaluate(grid.take([k])) for k in items]
        assert [(type(e), str(e)) for e in errors] == [
            (type(a.errors[0]), str(a.errors[0])) for a in alone]
        assert warns == [a.warnings[0] for a in alone]
        for q in route.quantities:
            pointwise = np.array([a.columns[q][0] for a in alone if a.errors[0] is None])
            assert columns[q].tobytes() == pointwise.tobytes(), q


    @pytest.mark.parametrize("model", ["oneD", "twoD", "rwa"])
    def test_lyapunov_block_carries_the_solve_diagnostics(self, model):
        base, axes = EVALUATOR_FLAGS[(model, "lyapunov")]
        full = ParamsGrid.from_axes(base, [a.name for a in axes], SweepSpec(axes).grid())
        grid = full.take([k for k, e in enumerate(full.errors) if e is None])
        systems = {"oneD": lambda: build_1d_batch(grid, NoiseMode.MarkovianThermal),
                   "twoD": lambda: build_2d_batch(grid, NoiseMode.MarkovianThermal),
                   "rwa": lambda: build_rwa_batch(grid)}[model]()
        solved = steady_covariance_batch(systems.columns["drift"], systems.columns["diffusion"])
        block = sweep._EVALUATORS[(model, "lyapunov")].evaluate(grid)
        # the solve of an item its build flagged sees a NaN drift instead
        built = np.array([e is None for e in systems.errors])
        assert any(e is not None for e in compress(solved.errors, built))
        for q in ("residual", "backward_error", "decay_bound"):
            assert block.columns[q][built].tobytes() == solved.columns[q][built].tobytes(), q


class TestRecordsPath:
    """evaluate_records on the records the points make gives evaluate_grid's rows."""

    @pytest.mark.parametrize("pair", CHUNK_GRIDS, ids="-".join)
    def test_records_equal_grid_rows(self, pair):
        base, axes = CHUNK_GRIDS[pair]
        config, names = RunConfig(*pair, base), [a.name for a in axes]
        points = SweepSpec(axes).grid()
        grid_rows = sweep.evaluate_grid(config, names, points)
        records, rejected = [], {}
        for k, point in enumerate(points.tolist()):
            try:
                records.append(_with_values(base, dict(zip(names, point))))
            except InvalidParams as exc:
                rejected[k] = (f"{type(exc).__name__}: {exc}",)
        errors, warns, columns = sweep.evaluate_records(*pair, records)
        assert len(errors) == len(warns) == len(records)
        outcomes = iter(zip(errors, warns))
        stable, warns = [], []
        for k in range(len(points)):
            e, w = (InvalidParams, rejected[k]) if k in rejected else next(outcomes)
            stable.append(e is None)
            warns.append(w if e is None or k in rejected else (f"{type(e).__name__}: {e}",))
        _assert_same_rows(grid_rows, (columns, np.array(stable), warns))
        assert set(stable) == {True, False}


class TestExtremeValueProbe:
    """Every field of every pair across the float range raises no Python warning."""

    def test_every_field_of_every_pair(self):
        axes = (np.logspace(-310.0, math.log10(1e308), 33), np.linspace(-1e308, -1e-310, 33))
        stable = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (model, solver), route in sweep._EVALUATORS.items():
                base = _build_params(model, {})
                for field, axis in product(fields(base), axes):
                    errors, _, columns = sweep._evaluate(route, len(axis), lambda s: (
                        ParamsGrid.from_axes(base, [field.name], axis[s, None])))
                    stable += errors.count(None)
                    where = (model, solver, field.name)
                    assert all(len(columns[q]) == errors.count(None) for q in route.quantities)
                    assert all(np.isfinite(columns[q]).all() for q in route.quantities), where
                    assert all((columns[q] != 0.0).all() for q in ("purity_2d", "purity_product")
                               if q in columns), where
        assert stable > 500  # 886 of the probe's rows settle, 7 on the negative axis


SPECTRAL_GRIDS = {
    name: (RunConfig("oneD", "spectral", base), SweepSpec(axes=(Axis("G_o", 0.02, 0.6, 70),)))
    for name, base in (("vacuum", P_1D),
                       ("thermal", replace(P_1D, gamma_b=1e-4, temperature=2.0)))
}


class TestSpectralChunks:
    """A spectral record's outcome does not depend on the records it is evaluated with."""

    @pytest.mark.parametrize("grid", SPECTRAL_GRIDS)
    def test_rows_equal_pointwise_rows(self, grid):
        config, spec = SPECTRAL_GRIDS[grid]
        res = run_sweep(config, spec)
        _assert_same_rows((res.columns, res.stable, res.warnings),
                          _pointwise(config, ["G_o"], spec.grid()))
        # the grid crosses the stability edge near G_o = 0.5025
        assert res.stable.any()
        assert {w[0].split(":")[0] for w, ok in zip(res.warnings, res.stable) if not ok} == {
            "UnstableSystem"}

    def test_shuffled_batch_equals_records_alone(self):
        # vacuum, thermal and cold damped records in one grid, so the
        # T = 0 form and the pp tails differ from record to record; a
        # subnormal mass overflows the response polynomial, and mass =
        # 1e-300 the xx integral
        records = [with_param(config.params, "G_o", pt[0])
                   for config, spec in SPECTRAL_GRIDS.values() for pt in spec.grid()]
        records += [with_param(replace(P_1D, gamma_b=1e-4), "G_o", g) for g in (0.05, 0.3)]
        records += [with_param(P_1D, "mass", m) for m in (1e-310, 1e-300)]
        np.random.default_rng(7).shuffle(records)
        errors, _, columns = spectral.moment_integrals_batch(ParamsGrid.from_records(records))
        for k, p in enumerate(records):
            (error,), _, alone = spectral.moment_integrals_batch(ParamsGrid.from_records([p]))
            assert (type(errors[k]), str(errors[k])) == (type(error), str(error))
            if error is None:
                assert {q: c[k] for q, c in columns.items()} == {q: c[0] for q, c in alone.items()}
        assert {str(e) for e in errors if e is not None} == {
            "response poles not confined to the lower half plane",
            "response polynomial has a non-finite coefficient relative to its leading one",
            "spectral xx integral is not finite at this record's scales"}

    def test_panel_budget_fails_one_record_alone(self, monkeypatch):
        grid = ParamsGrid.from_records([with_param(P_1D, "G_o", g)
                                        for g in (0.2, 0.001, 0.05, 0.45)])
        _, _, settled = spectral.moment_integrals_batch(grid)
        # G_o = 0.001 needs 79 panels, the others 47, 55 and 47
        monkeypatch.setattr(spectral, "_MAX_PANELS", 64)
        errors, _, capped = spectral.moment_integrals_batch(grid)
        assert isinstance(errors[1], QuadratureFailure)
        assert "did not converge" in str(errors[1])
        assert [errors[k] for k in (0, 2, 3)] == [None] * 3
        assert all((capped[q][[0, 2, 3]] == settled[q][[0, 2, 3]]).all() for q in settled)
        # an exit-4 error still aborts the sweep
        with pytest.raises(QuadratureFailure):
            run_sweep(config_1d("spectral"), SweepSpec(axes=(Axis("G_o", 0.001, 0.2, 3),)))

    @pytest.mark.parametrize("solver", ["spectral", "closed_form"])
    def test_non_finite_moments_flag_their_rows(self, solver, tmp_path):
        spec = SweepSpec(axes=(Axis("mass", 1e-310, 1.0, 6, "log"),))
        path = sweep_to_csv(config_1d(solver), spec, tmp_path / "s.csv")
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[2:]]
        flagged = [r[-1] for r in rows if r[-2] == "0"]
        assert len(rows) == 6 and 1 <= len(flagged) < 6
        assert all(r[-1].startswith("InvalidParams") for r in rows if r[-2] == "0")
        assert any("not finite" in reason for reason in flagged)
        assert all(math.isfinite(float(c)) for r in rows if r[-2] == "1" for c in r[1:-2])


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
        res = run_sweep(cfg, self.SPEC)
        values = zip(res.columns["n_bar"].tolist(), res.columns["xx"].tolist())
        assert len(lines) == len(res.stable)
        for line, (point,), ok in zip(lines, self.SPEC.grid().tolist(), res.stable.tolist()):
            g, n, xx, stable, _ = line.split(",")
            assert float(g) == point
            assert stable == ("1" if ok else "0")
            if ok:
                assert (float(n), float(xx)) == next(values)
        assert next(values, None) is None

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
            columns={"n_bar": np.array([0.25])},
            stable=np.array([False, True]),
            warnings=[("bad, very bad",), ("first, note", "second\nnote")],
        )
        assert res.csv_rows() == ["0,,0,bad; very bad", "1,0.25,1,first; note;second note"]

    def test_cells_render_as_format_float(self):
        # signed zero, subnormals, the float range's ends and non-finite values
        values = [-0.0, 5e-324, 1e308, 1e-310, -1.7976931348623157e308, math.inf, -math.inf,
                  math.nan, 0.1, 1.0 / 3.0]
        cfg = config_1d(outputs=("n_bar", "purity"))
        spec = SweepSpec(axes=(Axis("G_o", -1e-310, 1e308, 5), Axis("delta", 0.0, 1.0, 3)))
        res = SweepResult(cfg, spec, {"n_bar": np.array(values),
                                      "purity": np.array(values[::-1])},
                          np.arange(15) % 3 != 1, [()] * 15)
        stable = iter(zip(values, values[::-1]))
        expect = []
        for g, d in spec.grid():
            if len(expect) % 3 != 1:
                cells = [format_float(v) for v in next(stable)] + ["1"]
            else:
                cells = ["", "", "0"]
            expect.append(",".join([format_float(g), format_float(d), *cells, ""]))
        assert res.csv_rows() == expect

    def test_write_csv_validates_shape(self, tmp_path):
        with pytest.raises(InvalidParams):
            write_csv(tmp_path / "x.csv", ["a", "b"], ["u"], [])
        for line in ("1,2,3", "1"):  # a comma too many, one too few
            with pytest.raises(InvalidParams, match="row length does not match header"):
                write_csv(tmp_path / "x.csv", ["a", "b"], ["u", "v"], ["1,2", line])
        assert not any(tmp_path.iterdir())


def _cell_writer_bytes(result):
    """A SweepResult's CSV as a per-cell writer renders it: format_float
    for each float cell, ",".join for each row and "\n" after each line."""
    names, units = result.header()
    outputs = result.config.outputs
    values = zip(*(result.columns[q].tolist() for q in outputs))
    rows = []
    for point, ok, warn in zip(result.spec.grid().tolist(), result.stable.tolist(),
                               result.warnings):
        cells = ([format_float(v) for v in next(values)] + ["1"] if ok
                 else [""] * len(outputs) + ["0"])
        rows.append([*map(format_float, point), *cells,
                     ";".join(warn).replace(",", ";").replace("\n", " ")])
    assert next(values, None) is None
    return "".join(",".join(r) + "\n" for r in (names, units, *rows)).encode("utf-8")


class TestCsvBytes:
    """The line writer gives the bytes of the per-cell writer."""

    @pytest.mark.parametrize("config, spec", [
        # crosses the stability edge, which runs from G_o = 0.25 at
        # delta = 0.2 to 0.87 at delta = 3
        (config_1d(), SweepSpec(axes=(Axis("G_o", 0.01, 0.7, 23), Axis("delta", 0.15, 3.0, 17)))),
        STACKED_GRIDS["rwa"],
    ], ids=["oneD-closed_form-2axis", "rwa-lyapunov"])
    def test_sweep_bytes_equal_cell_writer(self, config, spec, tmp_path):
        result = run_sweep(config, spec)
        flags = set(result.stable.tolist())
        assert flags == ({True, False} if config.model == "oneD" else {True})
        assert any(result.warnings)
        path = sweep_to_csv(config, spec, tmp_path / "s.csv")
        assert path.read_bytes() == _cell_writer_bytes(result)

    def test_hand_made_warnings_bytes_equal_cell_writer(self, tmp_path):
        values = [0.25, -0.0, 1.0 / 3.0, math.inf]
        res = SweepResult(
            config_1d(outputs=("n_bar", "purity")),
            SweepSpec(axes=(Axis("G_o", 0.0, 1.0, 3), Axis("delta", 0.5, 2.0, 2))),
            {"n_bar": np.array(values), "purity": np.array(values[::-1])},
            np.array([True, False, True, True, False, True]),
            [("a, b", "c\nd"), ("UnstableRegime: x, y\nz",), (), ("one,two,,three",),
             ("e\n,f",), ("plain",)],
        )
        path = write_csv(tmp_path / "s.csv", *res.header(), res.csv_rows())
        assert path.read_bytes() == _cell_writer_bytes(res)
        assert path.read_bytes().count(b"\n") == 2 + 6


class TestFormatFloat:
    @pytest.mark.parametrize("x", [
        1.0 / 3.0, 0.1, 1e-300, 2.5e17, -0.0, 5.0,
        0.18700547324622552,
    ])
    def test_parse_back_is_exact(self, x):
        assert float(format_float(x)) == x
