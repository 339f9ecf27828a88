import pytest

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
