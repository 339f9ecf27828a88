import math

import numpy as np
import pytest

from omsteady import figures
from omsteady.errors import OracleMismatch
from omsteady.figures import FIGURES, make_figure
from omsteady.sweep import grid_points
from omsteady.validation import _FIG3_KAPPA, _columns, fig3_params


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    units = lines[1].split(",")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
    return names, units, data


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    return out, {fig: make_figure(fig, out) for fig in FIGURES}


class TestFig2:
    def test_artifacts_exist(self, built):
        out, outputs = built
        assert outputs["fig2"].csv_path == out / "fig2.csv"
        assert outputs["fig2"].plot_path == out / "fig2.gp"
        assert (out / "fig2.csv").exists() and (out / "fig2.gp").exists()

    def test_all_checks_gated(self, built):
        for check in built[1]["fig2"].checks:
            assert check.worst <= check.tolerance

    def test_reference_point(self, built):
        names, _, data = read_csv(built[0] / "fig2.csv")
        col = {n: i for i, n in enumerate(names)}
        row = data[np.argmin(np.abs(data[:, col["G_o"]] - 0.4))]
        assert row[col["G_o"]] == pytest.approx(0.4, abs=1e-12)
        assert row[col["n_bar"]] == pytest.approx(0.18700547324622552, rel=1e-9)
        assert row[col["n_bar_0"]] == pytest.approx(0.22087837837837854, rel=1e-9)

    def test_bare_occupation_dominates_everywhere(self, built):
        names, _, data = read_csv(built[0] / "fig2.csv")
        col = {n: i for i, n in enumerate(names)}
        assert np.all(data[:, col["n_bar_0"]] >= data[:, col["n_bar"]])

    def test_weak_limit_column_is_constant_floor(self, built):
        names, _, data = read_csv(built[0] / "fig2.csv")
        col = {n: i for i, n in enumerate(names)}
        np.testing.assert_allclose(data[:, col["n_min_weak"]], 0.0025, rtol=1e-12)

    def test_occupation_grows_toward_instability(self, built):
        _, _, data = read_csv(built[0] / "fig2.csv")
        n_bar = data[:, 1]
        assert n_bar[-1] > 10 * n_bar[0]
        assert np.all(np.diff(n_bar) > 0)


class TestFig3:
    def test_artifacts_exist(self, built):
        out, outputs = built
        assert (out / "fig3.csv").exists() and (out / "fig3.gp").exists()

    def test_all_checks_gated(self, built):
        for check in built[1]["fig3"].checks:
            assert check.worst <= check.tolerance

    def test_grid_shape(self, built):
        _, _, data = read_csv(built[0] / "fig3.csv")
        assert data.shape == (2500, 5)

    def test_purity_bounded(self, built):
        _, _, data = read_csv(built[0] / "fig3.csv")
        assert np.all(data[:, 2] > 0.0)
        assert np.all(data[:, 2] <= 1.0)

    def test_best_purity_near_analytic_optimum(self, built):
        names, _, data = read_csv(built[0] / "fig3.csv")
        col = {n: i for i, n in enumerate(names)}
        strong = data[data[:, col["G_o_over_kappa"]] == data[:, 0].max()]
        best = strong[np.argmax(strong[:, col["purity_2d"]])]
        target = best[col["G_o_over_kappa"]] / math.sqrt(2.0)
        assert best[col["G_m_over_kappa"]] == pytest.approx(target, rel=0.06)
        # approaching the large-cooperativity plateau 1/1.21
        assert best[col["purity_2d"]] == pytest.approx(0.8247, abs=2e-3)

    def test_modal_occupations_positive(self, built):
        _, _, data = read_csv(built[0] / "fig3.csv")
        assert np.all(data[:, 3] >= 0.0)
        assert np.all(data[:, 4] >= 0.0)

    def test_point_grid_gives_the_record_lists_columns(self, tmp_path, grid_columns_calls):
        # the map evaluates the (G_o, G_m) points of one fig3_params record;
        # a list of each point's own fig3_params record gives the same bits
        calls = grid_columns_calls(figures)
        make_figure("fig3", tmp_path)
        ((model, solver, _, names, _, got),) = calls
        assert (model, solver, names) == ("rwa", "lyapunov", ["G_o", "G_m"])
        want = _columns(model, solver, [
            fig3_params(ro * _FIG3_KAPPA, rm * _FIG3_KAPPA)
            for ro, rm in grid_points([figures._FIG3_RATIO] * 2).tolist()])
        for q in ("purity_2d", "N_plus", "N_minus"):
            assert got[q].tobytes() == want[q].tobytes()


class TestFig4:
    def test_artifacts_exist(self, built):
        out, outputs = built
        assert (out / "fig4.csv").exists() and (out / "fig4.gp").exists()

    def test_all_checks_gated(self, built):
        for check in built[1]["fig4"].checks:
            assert check.worst <= check.tolerance

    def test_reference_point(self, built):
        names, _, data = read_csv(built[0] / "fig4.csv")
        col = {n: i for i, n in enumerate(names)}
        row = data[np.argmin(np.abs(data[:, col["G_o"]] - 0.2))]
        assert row[col["G_o"]] == pytest.approx(0.2, abs=1e-12)
        assert row[col["one_minus_purity_2d"]] == pytest.approx(
            0.0807900275390585, rel=1e-9)
        assert row[col["one_minus_purity_product"]] == pytest.approx(
            0.10303716908069305, rel=1e-9)

    def test_purity_measures_split_with_drive(self, built):
        names, _, data = read_csv(built[0] / "fig4.csv")
        col = {n: i for i, n in enumerate(names)}
        gap_joint = data[:, col["one_minus_purity_2d"]]
        gap_prod = data[:, col["one_minus_purity_product"]]
        rel_split = (gap_prod - gap_joint) / gap_joint
        first = data[:, col["G_o"]] == 0.01
        at_02 = np.argmin(np.abs(data[:, col["G_o"]] - 0.2))
        assert abs(rel_split[first][0]) < 0.01
        assert rel_split[at_02] > 0.20
        # the split grows with drive until the stability boundary bends
        # the joint-purity branch near the right edge of the scan
        assert np.all(np.diff(rel_split[:at_02 + 1]) > 0)


class TestGating:
    def test_unattainable_tolerance_blocks_output(self, tmp_path, monkeypatch):
        monkeypatch.setattr(figures, "_EXACT_PAIR_RTOL", 1e-18)
        with pytest.raises(OracleMismatch, match="no output written"):
            make_figure("fig2", tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unattainable_route_tolerance_blocks_fig3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(figures, "_PURITY_ROUTE_RTOL", 1e-18)
        with pytest.raises(OracleMismatch, match="purity determinant route"):
            make_figure("fig3", tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            make_figure("fig9", tmp_path)

    def test_rebuild_is_byte_identical(self, built, tmp_path):
        make_figure("fig4", tmp_path)
        a = (built[0] / "fig4.csv").read_bytes()
        b = (tmp_path / "fig4.csv").read_bytes()
        assert a == b
