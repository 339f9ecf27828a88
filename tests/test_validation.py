import numpy as np
import pytest

from omsteady import spectral, validation
from omsteady.models import SystemParams1D
from omsteady.validation import _FIG3_KAPPA, CHECK_NAMES, _columns, fig3_params, run_validation


class TestRunValidation:
    def test_every_check_passes(self):
        results = run_validation()
        assert [r.name for r in results] == list(CHECK_NAMES)
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_rows_are_printable(self):
        results = run_validation(names=("psd-nonnegative",))
        row = results[0].row()
        assert "psd-nonnegative" in row
        assert "pass" in row

    def test_worst_below_tolerance(self):
        for r in run_validation(names=("oracle-chain-1d", "lyapunov-residual")):
            assert r.worst <= r.tolerance

    def test_subset_selection(self):
        results = run_validation(names=("sideband-asymmetry",))
        assert len(results) == 1
        assert results[0].name == "sideband-asymmetry"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown validation"):
            run_validation(names=("lyapunov-vs-spellcheck",))

    def test_injected_fault_caught_by_exactly_one_check(self, perturbed_diffusion):
        # scaling the diffusion matrix breaks the Lyapunov-vs-analytic
        # comparison and nothing else in the selected subset
        names = ("lyapunov-vs-closed-form-1d", "oracle-chain-2d",
                 "psd-nonnegative")
        results = run_validation(names=names)
        status = {r.name: r.passed for r in results}
        assert status["lyapunov-vs-closed-form-1d"] is False
        assert status["oracle-chain-2d"] is True
        assert status["psd-nonnegative"] is True

    def test_quadrature_convergence_refines(self, monkeypatch):
        # the check compares two rel_tol values; where both end on the same
        # partition the shift is exactly 0 and shows nothing
        finals, batch, sums = [], spectral.moment_integrals_batch, spectral._panel_sums

        def counted(grid, rel_tol):
            calls = []

            def panel_sums(columns, pp_tails, panels, rec):
                calls.append(len(panels))
                return sums(columns, pp_tails, panels, rec)

            monkeypatch.setattr(spectral, "_panel_sums", panel_sums)
            out = batch(grid, rel_tol)
            # each round after the first evaluates two halves per bisected panel
            finals.append(calls[0] + sum(calls[1:]) // 2)
            return out

        monkeypatch.setattr(spectral, "moment_integrals_batch", counted)
        (result,) = run_validation(names=("quadrature-convergence",))
        assert result.passed and result.worst > 0.0
        assert len(finals) == 4
        assert any(coarse != fine for coarse, fine in zip(finals[::2], finals[1::2]))


def test_point_grids_give_the_record_lists_columns(grid_columns_calls):
    # bare-occupation-dominates and rwa-optimum-location evaluate the points
    # of one record; a list of each point's own record gives the same bits
    calls = grid_columns_calls(validation)
    assert all(r.passed for r in run_validation(
        ("bare-occupation-dominates", "rwa-optimum-location")))
    records_1d = [SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=float(g))
                  for g in np.linspace(0.005, 0.45, 90)]
    g_o = [2.0 * _FIG3_KAPPA, 5.0 * _FIG3_KAPPA]
    target = _columns("rwa", "closed_form", [fig3_params(g, _FIG3_KAPPA) for g in g_o])["G_m_opt"]
    records_rwa = [fig3_params(g, g_m) for g, row in zip(g_o, np.linspace(
        0.3 * target, 2.0 * target, 120, axis=1)) for g_m in row.tolist()]
    expect = {("oneD", "lyapunov"): records_1d, ("oneD", "closed_form"): records_1d,
              ("rwa", "lyapunov"): records_rwa}
    assert [call[:2] for call in calls] == list(expect)
    for model, solver, *_, got in calls:
        want = _columns(model, solver, expect[(model, solver)])
        assert {q: c.tobytes() for q, c in got.items()} == {
            q: c.tobytes() for q, c in want.items()}
