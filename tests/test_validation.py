import pytest

from omsteady import spectral
from omsteady.validation import CHECK_NAMES, run_validation


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
