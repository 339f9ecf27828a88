import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from omsteady import spectral, sweep
from omsteady.cli import _build_params
from omsteady.closedform import backaction_1d, bare_occupation
from omsteady.errors import InvalidParams, OmsteadyError, QuadratureFailure
from omsteady.gaussian import Cov1D, Cov2D, occupation_and_purity_1d, purity_2d_general
from omsteady.langevin import (CovarianceBatch, NoiseMode, build_1d, build_2d, build_rwa,
                               steady_covariance)
from omsteady.models import (ParamsGrid, SystemParams1D, SystemParams2D, SystemParamsRWA,
                             resonant_2d_design)
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

    def test_two_axis_sweep(self):
        spec = SweepSpec(axes=(Axis("kappa", 0.1, 0.3, 2), Axis("G_o", 0.1, 0.2, 3)))
        res = run_sweep(config_1d("lyapunov"), spec)
        assert len(res.rows) == 6
        assert res.rows[0].axis_values == (0.1, 0.1)
        assert res.rows[3].axis_values == (0.3, 0.1)

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
    """CSV cells of a one-axis Lyapunov grid evaluated point by point
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
        rows.append([format_float(point[0]), *cells, warning_cell])
    return rows


class TestStackedSweep:
    """Lyapunov grids run as stacked solves give the rows of point-by-point evaluation."""

    @pytest.mark.parametrize("grid", STACKED_GRIDS)
    def test_rows_equal_pointwise_rows(self, grid):
        config, spec = STACKED_GRIDS[grid]
        result = run_sweep(config, spec)
        assert result.csv_rows() == _scalar_rows(config, spec)
        assert result.rows == tuple(evaluate_point(config, {spec.axes[0].name: pt[0]})
                                    for pt in spec.grid())
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

    @pytest.mark.parametrize("grid", PROBE_GRIDS)
    def test_probe_rows_with_numpy_warnings_equal_scalar_rows(self, grid):
        config, spec = PROBE_GRIDS[grid]
        cells = run_sweep(config, spec).csv_rows()
        assert cells == _scalar_rows(config, spec)
        band = [row for row in cells if {"oneD-mass": 1e-228 <= float(row[0]) <= 3.2e-156,
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
        row = evaluate_point(config_1d("closed_form"), {"mass": 1e-310})
        assert not row.stable and row.values is None
        assert row.warnings == ("InvalidParams: backaction moments are not finite at this "
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
            return CovarianceBatch(V, np.zeros(len(A)), np.ones(len(A)), (None,) * len(A))

        monkeypatch.setattr(sweep, "steady_covariance_batch", solved)
        for model, params in (("oneD", P_1D), ("rwa", RWA_BATH)):
            results = sweep.evaluate_records(model, "lyapunov", [params] * len(blocks[model]))
            for block, res in zip(blocks[model], results):
                try:
                    if model == "oneD":
                        expect = occupation_and_purity_1d(Cov1D(*block[[0, 1, 0], [0, 1, 1]]))
                        got = (res[0]["n_bar"], res[0]["purity"])
                    else:
                        expect = purity_2d_general(Cov2D(block)).purity_2d
                        got = res[0]["purity_2d"]
                except OmsteadyError as exc:
                    assert isinstance(res, OmsteadyError)
                    assert (type(res), str(res)) == (type(exc), str(exc))
                else:
                    assert got == expect
            assert sum(isinstance(r, OmsteadyError) for r in results) == len(results) - 1


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
        cells = run_sweep(config, spec).csv_rows()
        assert {row[-2] for row in cells} == {"0", "1"}
        for chunk in (1, 7):
            monkeypatch.setitem(sweep._EVALUATORS, pair, default._replace(chunk=chunk))
            assert run_sweep(config, spec).csv_rows() == cells


class TestExtremeValueProbe:
    """Every field of every pair across the float range raises no Python warning."""

    def test_every_field_of_every_pair(self):
        axis = np.logspace(-310.0, math.log10(1e308), 33)
        stable = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (model, solver), route in sweep._EVALUATORS.items():
                base = _build_params(model, {})
                for field in fields(base):
                    grid = ParamsGrid.from_axes(base, [field.name], [(v,) for v in axis])
                    valid = grid.take([k for k, e in enumerate(grid.errors) if e is None])
                    for res in sweep.evaluate_records(model, solver, valid.records()):
                        if isinstance(res, OmsteadyError):
                            continue
                        values, _ = res
                        stable += 1
                        where = (model, solver, field.name, values)
                        assert all(math.isfinite(values[q]) for q in route.quantities), where
                        assert all(values.get(q) != 0.0
                                   for q in ("purity_2d", "purity_product")), where
        assert stable > 500  # 860 of the probe's rows settle


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
        rows = run_sweep(config, spec).rows
        assert rows == tuple(evaluate_point(config, {"G_o": pt[0]}) for pt in spec.grid())
        # the grid crosses the stability edge near G_o = 0.5025
        assert any(r.stable for r in rows)
        assert {r.warnings[0].split(":")[0] for r in rows if not r.stable} == {"UnstableSystem"}

    def test_shuffled_batch_equals_records_alone(self):
        # vacuum, thermal and cold damped records in one list, so the
        # T = 0 form and the pp tails differ from record to record
        records = [with_param(config.params, "G_o", pt[0])
                   for config, spec in SPECTRAL_GRIDS.values() for pt in spec.grid()]
        records += [with_param(replace(P_1D, gamma_b=1e-4), "G_o", g) for g in (0.05, 0.3)]
        np.random.default_rng(7).shuffle(records)
        batch = spectral.moment_integrals_batch(records)
        for p, got in zip(records, batch):
            (alone,) = spectral.moment_integrals_batch([p])
            if isinstance(alone, OmsteadyError):
                assert (type(got), str(got)) == (type(alone), str(alone))
            else:
                assert got == alone

    def test_panel_budget_fails_one_record_alone(self, monkeypatch):
        records = [with_param(P_1D, "G_o", g) for g in (0.2, 0.001, 0.05, 0.45)]
        settled = spectral.moment_integrals_batch(records)
        # G_o = 0.001 needs more than 60 panels, the others fewer
        monkeypatch.setattr(spectral, "_MAX_PANELS", 60)
        capped = spectral.moment_integrals_batch(records)
        assert isinstance(capped[1], QuadratureFailure)
        assert "did not converge" in str(capped[1])
        assert [capped[k] for k in (0, 2, 3)] == [settled[k] for k in (0, 2, 3)]
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
        assert res.csv_rows() == [["0", "", "0", "bad; very bad"],
                                  ["1", "0.25", "1", "first; note;second note"]]

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
            expect.append([format_float(g), format_float(d), *cells, ""])
        assert res.csv_rows() == expect

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
