import dataclasses
import math

import pytest

from omsteady.closedform import (
    backaction_1d,
    backaction_2d,
    bare_occupation,
    rwa_optimum,
    strong_coupling,
    weak_coupling,
)
from omsteady.errors import (
    FixedPointDivergence,
    InvalidRegime,
    UndampedDarkMode,
    UnstableRegime,
)
from omsteady.gaussian import Cov1D, decompose_1d
from omsteady.models import (
    SystemParams1D,
    SystemParamsRWA,
    resonant_2d_design,
)
from omsteady.sweep import evaluate_records


def params_1d(G_o, kappa=0.2, delta=1.0, gamma_b=0.0, **kw):
    return SystemParams1D(omega_b=1.0, gamma_b=gamma_b, kappa=kappa,
                          delta=delta, G_o=G_o, **kw)


class TestBackaction1D:
    """Pinned reference values at the working point G_o = 0.4."""

    R = backaction_1d(params_1d(0.4))

    def test_position_variance(self):
        assert self.R.xx == pytest.approx(0.939256756756757, rel=1e-13)

    def test_momentum_variance(self):
        assert self.R.pp == pytest.approx(0.5025, rel=1e-13)

    def test_occupation(self):
        assert self.R.n_bar == pytest.approx(0.18700547324622552, rel=1e-12)

    def test_purity(self):
        assert self.R.purity == pytest.approx(0.7277962395807551, rel=1e-12)

    def test_oscillator_shape(self):
        assert self.R.M_Omega == pytest.approx(0.7314352207786587, rel=1e-12)

    def test_weak_floor(self):
        assert self.R.n_min_weak == pytest.approx(0.0025, rel=1e-13)

    def test_consistent_with_state_decomposition(self):
        dec = decompose_1d(Cov1D(xx=self.R.xx, pp=self.R.pp, xp=0.0))
        assert dec.n_bar == pytest.approx(self.R.n_bar, rel=1e-12)
        assert dec.theta == 0.0
        assert dec.M_Omega.real == pytest.approx(self.R.M_Omega, rel=1e-12)
        assert dec.M_Omega.imag == 0.0

    def test_purity_times_two_n_plus_one(self):
        assert self.R.purity * (2 * self.R.n_bar + 1) == pytest.approx(1.0, rel=1e-12)

    def test_zero_coupling_occupation_is_weak_floor(self):
        # with no drive the state is the sideband floor (K+1)/2 - 1/2
        r = backaction_1d(params_1d(0.0))
        assert r.n_bar == pytest.approx(0.0025, rel=1e-12)
        assert r.xx * r.pp == pytest.approx(0.25 * (2 * r.n_bar + 1) ** 2, rel=1e-12)

    def test_instability_raises(self):
        with pytest.raises(UnstableRegime, match="not positive"):
            backaction_1d(params_1d(0.51))

    def test_negative_detuning_raises(self):
        with pytest.raises(UnstableRegime):
            backaction_1d(params_1d(0.1, delta=-1.0))


class TestBareOccupation:
    def test_reference_value(self):
        r = backaction_1d(params_1d(0.4))
        cov = Cov1D(xx=r.xx, pp=r.pp, xp=0.0)
        assert bare_occupation(cov, omega=1.0) == pytest.approx(
            0.22087837837837854, rel=1e-12)

    def test_never_below_thermal_occupation(self):
        for g in (0.01, 0.1, 0.3, 0.45):
            r = backaction_1d(params_1d(g))
            n0 = bare_occupation(Cov1D(r.xx, r.pp, 0.0), omega=1.0)
            assert n0 >= r.n_bar - 1e-15

    def test_thermal_state_saturates(self):
        # a state that is thermal in the reference basis has n_0 = n_bar
        n = 1.7
        cov = Cov1D(xx=0.5 * (2 * n + 1), pp=0.5 * (2 * n + 1), xp=0.0)
        assert bare_occupation(cov, omega=1.0) == pytest.approx(n, rel=1e-12)

    def test_invalid_reference(self):
        with pytest.raises(InvalidRegime):
            bare_occupation(Cov1D(0.5, 0.5, 0.0), omega=0.0)


class TestWeakCoupling:
    def test_reference_point(self):
        r = weak_coupling(params_1d(0.02))
        assert r.omega_tilde == pytest.approx(0.9997921422440333, rel=1e-12)
        assert r.gamma_tilde == pytest.approx(0.007981670226556018, rel=1e-12)
        assert r.n_bar == pytest.approx(0.0025005305558817507, rel=1e-12)
        assert r.warnings == ()

    def test_zero_coupling_limit_hits_floor(self):
        r = weak_coupling(params_1d(1e-4))
        floor = backaction_1d(params_1d(1e-4)).n_min_weak
        assert r.n_bar == pytest.approx(floor, abs=1e-6)

    def test_thermal_contribution(self):
        cold = weak_coupling(params_1d(0.02, gamma_b=1e-6))
        hot = weak_coupling(params_1d(0.02, gamma_b=1e-6, temperature=10.0))
        assert hot.n_bar > cold.n_bar
        assert hot.omega_tilde == cold.omega_tilde

    def test_linewidth_warning_when_pushed(self):
        r = weak_coupling(params_1d(0.15))
        assert any("kappa" in w for w in r.warnings)

    def test_blue_detuning_rejected(self):
        with pytest.raises(InvalidRegime, match="linewidth"):
            weak_coupling(params_1d(0.02, delta=-1.0))

    def test_spring_collapse_diverges(self):
        with pytest.raises(FixedPointDivergence):
            weak_coupling(params_1d(0.52))


class TestStrongCoupling:
    R = strong_coupling(params_1d(0.3, kappa=0.02))

    def test_normal_mode_frequencies(self):
        assert self.R.omega_plus == pytest.approx(math.sqrt(1.6), rel=1e-12)
        assert self.R.omega_minus == pytest.approx(math.sqrt(0.4), rel=1e-12)
        assert self.R.kappa_plus == self.R.kappa_minus == 0.01

    def test_occupation(self):
        assert self.R.n_bar == pytest.approx(0.06596157113358858, rel=1e-12)

    def test_bare_occupation_dominates(self):
        assert self.R.n_bar_0 >= self.R.n_bar

    def test_close_to_exact_solution(self):
        exact = backaction_1d(params_1d(0.3, kappa=0.02))
        assert self.R.n_bar == pytest.approx(exact.n_bar, rel=1e-3)

    def test_splitting_grows_with_drive(self):
        weak = strong_coupling(params_1d(0.1, kappa=0.02))
        assert (self.R.omega_plus - self.R.omega_minus) > (
            weak.omega_plus - weak.omega_minus)

    def test_off_resonant_detuning_rejected(self):
        with pytest.raises(InvalidRegime, match="delta"):
            strong_coupling(params_1d(0.3, kappa=0.02, delta=1.2))

    def test_overdriven_rejected(self):
        with pytest.raises(InvalidRegime, match="normal mode"):
            strong_coupling(params_1d(0.5, kappa=0.02))


class TestBackaction2D:
    P = resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.2 / math.sqrt(2.0), kappa=0.2)
    R = backaction_2d(P)

    def test_purities(self):
        assert self.R.purity_2d == pytest.approx(0.9192099724609415, rel=1e-12)
        assert self.R.purity_product == pytest.approx(0.896962830919307, rel=1e-12)

    def test_moments(self):
        assert self.R.xx_b == pytest.approx(0.5815457618304732, rel=1e-12)
        assert self.R.xx_d == pytest.approx(0.5290236609464378, rel=1e-12)
        assert self.R.x_b_x_d == pytest.approx(-0.09377530258559506, rel=1e-12)
        assert self.R.p_b_p_d == pytest.approx(0.07071067811865477, rel=1e-12)

    def test_correlations_cost_product_purity(self):
        assert self.R.purity_product < self.R.purity_2d

    def test_purity_measures_converge_at_weak_drive(self):
        weak = backaction_2d(resonant_2d_design(
            omega=1.0, G_o=0.01, G_m=0.01 / math.sqrt(2.0), kappa=0.2))
        gap_joint = 1.0 - weak.purity_2d
        gap_product = 1.0 - weak.purity_product
        assert gap_joint == pytest.approx(0.010074068011033277, rel=1e-9)
        assert gap_product == pytest.approx(0.010123585342934893, rel=1e-9)
        assert abs(gap_product - gap_joint) / gap_joint < 0.01

    def test_damped_input_rejected(self):
        import dataclasses
        p = dataclasses.replace(self.P, gamma_x=1e-3, gamma_y=1e-3)
        with pytest.raises(InvalidRegime, match="gamma"):
            backaction_2d(p)

    def test_unmixed_dark_mode_rejected(self):
        import dataclasses
        p = dataclasses.replace(self.P, omega_y=self.P.omega_x)
        with pytest.raises(UndampedDarkMode):
            backaction_2d(p)

    def test_undriven_cavity_rejected(self):
        import dataclasses
        p = dataclasses.replace(self.P, lambda_o=0.0)
        with pytest.raises(UndampedDarkMode):
            backaction_2d(p)

    def test_overdriven_rejected(self):
        p = resonant_2d_design(omega=1.0, G_o=0.45, G_m=0.3, kappa=0.2)
        with pytest.raises(UnstableRegime):
            backaction_2d(p)


class TestRwaOptimum:
    P = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=5e-13, gamma_d=5e-13,
                        kappa=1e-3, delta=1.0, G_o=2e-3,
                        G_m=2e-3 / math.sqrt(2.0), n_B_b=5e7, n_B_d=5e7)

    def test_optimum_location(self):
        g_m, _, warn = rwa_optimum(self.P)
        assert g_m == self.P.G_o / math.sqrt(2.0)
        assert warn == ()

    def test_inverse_purity_decomposition(self):
        _, mu, _ = rwa_optimum(self.P)
        # 4 n_B gamma_tot/kappa = 0.2 and 4 n_B/C_o = 0.0125 here
        assert 1.0 / mu == pytest.approx(1.2125, rel=1e-12)

    def test_large_cooperativity_plateau(self):
        import dataclasses
        # C_o grows with G_o^2, so the 1/C_o term dies and the purity
        # settles at 1/(1 + 4 n_B gamma_tot/kappa)
        p = dataclasses.replace(self.P, G_o=0.2, G_m=0.2 / math.sqrt(2.0))
        _, mu, _ = rwa_optimum(p)
        assert mu == pytest.approx(1.0 / 1.2, rel=2e-6)

    def test_low_cooperativity_warns(self):
        import dataclasses
        p = dataclasses.replace(self.P, gamma_b=1e-4, gamma_d=1e-4,
                                n_B_b=10.0, n_B_d=10.0)
        assert rwa_optimum(p)[2] == (
            "cooperativity not large; optimum formula is approximate",)

    def test_heavy_mechanical_damping_warns(self):
        import dataclasses
        p = dataclasses.replace(self.P, gamma_b=2e-4, gamma_d=2e-4, G_o=0.1,
                                n_B_b=1.0, n_B_d=1.0)
        assert rwa_optimum(p)[2] == (
            "gamma_tot not small against kappa; optimum formula is approximate",)

    def test_unequal_baths_warn(self):
        import dataclasses
        p = dataclasses.replace(self.P, n_B_d=1e7)
        assert rwa_optimum(p)[2] == ("unequal bath occupations; using the bright-mode value",)


class TestColumnErrorOrder:
    """A sweep of records that each break several conditions gives each
    row the first error of the scalar checks' order, with its text."""

    def test_two_mode_rows(self):
        P = TestBackaction2D.P
        cases = [
            (dataclasses.replace(P, gamma_x=1e-3, delta=-1.0),
             "InvalidRegime: backaction_2d assumes gamma_x = gamma_y = 0"),
            (dataclasses.replace(P, omega_y=P.omega_x, delta=-1.0),
             "UnstableRegime: backaction steady state requires delta > 0"),
            # the bright mode's 1D record is invalid, and delta_m = 0
            (dataclasses.replace(P, omega_x=1e-30, omega_y=1e-30, mass=1e-300),
             "InvalidParams: 2 mass omega_b underflows to 0 at these scales"),
            # delta_m = 0 and overdriven
            (dataclasses.replace(P, omega_y=P.omega_x, lambda_o=3.0),
             "UndampedDarkMode: dark mode is not damped: needs delta_m != 0 and a "
             "driven cavity"),
            # (omega_bar_m delta_m)^2 overflows, which makes it unstable too
            (dataclasses.replace(P, omega_x=1e154, omega_y=1.0),
             "InvalidParams: (omega_bar_m delta_m)^2 overflows at these frequencies"),
            (resonant_2d_design(omega=1.0, G_o=0.45, G_m=0.3, kappa=0.2),
             "UnstableRegime: unstable: (omega_b^2 - 2 g_o^2) omega_d^2 - "
             "(omega_bar_m delta_m)^2 = -0.16198 is not positive"),
            (P, None),
        ]
        errors, warns, columns = evaluate_records("twoD", "closed_form", [p for p, _ in cases])
        assert all(len(c) == 1 for c in columns.values())
        for (p, expect), error, warn in zip(cases, errors, warns):
            if expect is None:
                assert error is None
                assert {q: c[0] for q, c in columns.items()} == {
                    f.name: getattr(TestBackaction2D.R, f.name)
                    for f in dataclasses.fields(TestBackaction2D.R)}
                assert warn == ()
            else:
                assert f"{type(error).__name__}: {error}" == expect

    def test_rotating_wave_rows(self):
        R = TestRwaOptimum.P
        zero = "InvalidRegime: cooperativity is zero; the optimum needs G_o^2 > 0"
        cases = [
            # gamma_tot = 0 and G_o = 0
            (dataclasses.replace(R, gamma_b=0.0, gamma_d=0.0, G_o=0.0),
             "InvalidParams: cooperativity requires kappa > 0 and gamma_tot > 0"),
            # C_o = 0, with the warnings of a low C_o and unequal baths
            (dataclasses.replace(R, G_o=0.0, n_B_d=1.0), zero),
            (dataclasses.replace(R, G_o=1e-200), zero),  # G_o^2 underflows
            (dataclasses.replace(R, gamma_b=2e-4, gamma_d=2e-4, n_B_d=1.0), (
                "cooperativity not large; optimum formula is approximate",
                "gamma_tot not small against kappa; optimum formula is approximate",
                "unequal bath occupations; using the bright-mode value")),
            (R, ()),
        ]
        errors, warns, columns = evaluate_records("rwa", "closed_form", [p for p, _ in cases])
        settled = zip(columns["G_m_opt"].tolist(), columns["purity_opt"].tolist())
        for (p, expect), error, warn in zip(cases, errors, warns):
            if isinstance(expect, str):
                assert f"{type(error).__name__}: {error}" == expect
            else:
                g_m_opt, mu, _ = rwa_optimum(p)
                assert (error, next(settled), warn) == (None, (g_m_opt, mu), expect)
        assert next(settled, None) is None
