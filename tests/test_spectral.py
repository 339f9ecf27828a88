import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omsteady import spectral
from omsteady.closedform import backaction_1d, weak_coupling
from omsteady.errors import AssumptionViolated, InvalidParams, QuadratureFailure, UnstableSystem
from omsteady.gaussian import occupation_and_purity_1d
from omsteady.langevin import build_1d, stability, steady_covariance
from omsteady.models import ParamsGrid, SystemParams1D, temperature_for_occupation
from omsteady.spectral import (
    brownian_psd,
    cavity_susceptibility,
    integrate_moments,
    integrate_moments_residue,
    mechanical_response,
    moment_integrals,
    position_psd,
    response_poles,
    spectral_stability,
)
from omsteady.sweep import with_param

P_REF = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4)


class TestResponses:
    def test_susceptibility_peak(self):
        chi = cavity_susceptibility(1.0, kappa=0.2, delta=1.0)
        assert chi == pytest.approx(10.0)
        assert abs(cavity_susceptibility(0.0, 0.2, 1.0)) < abs(chi)

    def test_susceptibility_rejects_bad_kappa(self):
        with pytest.raises(InvalidParams):
            cavity_susceptibility(1.0, kappa=0.0, delta=1.0)

    def test_poles_match_time_domain_eigenvalues(self):
        # the dressed-response poles are the drift eigenvalues rotated
        # onto the frequency axis, w = i s
        a = build_1d(P_REF).drift
        from_time = np.sort_complex(1j * np.linalg.eigvals(a))
        from_freq = np.sort_complex(response_poles(P_REF))
        np.testing.assert_allclose(from_freq, from_time, rtol=1e-9, atol=1e-12)

    def test_decoupled_response_is_lorentzian(self):
        p = SystemParams1D(omega_b=1.0, gamma_b=0.01, kappa=0.2, delta=1.0,
                           G_o=0.0)
        r = mechanical_response(1.0, p)
        assert r == pytest.approx(1.0 / (-1j * 0.01), rel=1e-12)

    def test_stability_agrees_with_time_domain(self):
        for g in (0.1, 0.4, 0.502, 0.503, 0.6):
            p = with_param(P_REF, "G_o", g)
            assert spectral_stability(p) == stability(build_1d(p))


class TestBrownianPsd:
    def test_zero_temperature_is_one_sided(self):
        w = np.array([-2.0, -1e-3, 1e-3, 2.0])
        s = brownian_psd(w, gamma=0.1, temperature=0.0, m=1.0)
        assert s[0] == 0.0 and s[1] == 0.0
        assert s[2] == pytest.approx(2e-4)
        assert s[3] == pytest.approx(0.4)

    def test_zero_frequency_classical_limit(self):
        s0 = brownian_psd(0.0, gamma=0.1, temperature=3.0, m=1.0)
        assert s0 == pytest.approx(2.0 * 0.1 * 3.0, rel=1e-9)

    def test_series_switch_matches_exact_form(self):
        t = 0.7
        w = 2.0 * t * 1e-6 * 0.999  # just inside the series branch
        series = brownian_psd(w, 0.1, t, 1.0)
        exact = 0.1 * w * (1.0 / math.tanh(w / (2.0 * t)) + 1.0)
        assert series == pytest.approx(exact, rel=1e-12)

    def test_detailed_balance_weight(self):
        # S(w) - S(-w) = 2 hbar m gamma w at any temperature
        for t in (0.0, 0.5, 5.0):
            s_p = brownian_psd(1.3, 0.2, t, 1.0)
            s_m = brownian_psd(-1.3, 0.2, t, 1.0)
            assert s_p - s_m == pytest.approx(2.0 * 0.2 * 1.3, rel=1e-9)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InvalidParams):
            brownian_psd(1.0, gamma=-0.1, temperature=0.0, m=1.0)


class TestPositionPsd:
    def test_sideband_asymmetry_under_cooling(self):
        ratio = position_psd(-1.0, P_REF) / position_psd(1.0, P_REF)
        assert 0.0 < ratio < 1.0

    def test_unstable_rejected(self):
        p = with_param(P_REF, "G_o", 0.6)
        with pytest.raises(UnstableSystem):
            position_psd(1.0, p)
        # the opt-out exists for plotting the would-be spectrum
        val = position_psd(1.0, p, check_stability=False)
        assert np.isfinite(val)

    def test_vectorized(self):
        w = np.linspace(-3, 3, 11)
        s = position_psd(w, P_REF)
        assert s.shape == w.shape
        assert np.all(s >= 0)

    @pytest.mark.parametrize("p", [
        *(with_param(P_REF, "G_o", g) for g in (0.001, 0.05, 0.2, 0.45)),
        SystemParams1D(omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=1e-8,
                       temperature=temperature_for_occupation(2.0, 1.0)),
        SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.2, delta=1.0, G_o=0.05,
                       temperature=temperature_for_occupation(5.0, 1.0)),
        SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.2, delta=1.0, G_o=0.3),
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=1.0, delta=2.0, G_o=0.3),
        *(with_param(P_REF, name, v) for name, v in
          (("mass", 1e-150), ("mass", 1e150), ("hbar", 1e-60), ("hbar", 1e60))),
    ])
    def test_real_form_matches_complex_form(self, p):
        # |R_b|^2 (S_N + kappa hbar^2 lambda^2 |chi_c|^2) from the complex
        # responses, on a dense grid through every resonance
        poles = response_poles(p)
        w = np.concatenate([np.linspace(-30.0, 30.0, 6001) * np.abs(poles).max(),
                            *(q.real + abs(q.imag) * np.linspace(-50.0, 50.0, 2001) for q in poles),
                            [p.delta, -p.delta, 0.0]])
        chi = cavity_susceptibility(w, p.kappa, p.delta)
        noise = (brownian_psd(w, p.gamma_b, p.temperature, p.mass, p.hbar)
                 + p.kappa * p.hbar**2 * p.lambda_o**2 * np.abs(chi) ** 2)
        reference = np.abs(mechanical_response(w, p)) ** 2 * noise
        s = position_psd(w, p)
        finite = np.isfinite(reference) & (reference > 0)
        assert finite.all() and np.isfinite(s).all()
        assert np.max(np.abs(s - reference) / reference) <= 1e-13


class TestMomentIntegration:
    def test_matches_lyapunov_backaction_limit(self):
        cov_s = integrate_moments(P_REF)
        cov_l = steady_covariance(build_1d(P_REF)).mechanical_1d()
        assert cov_s.xx == pytest.approx(cov_l.xx, rel=1e-6)
        assert cov_s.pp == pytest.approx(cov_l.pp, rel=1e-6)
        assert cov_s.xp == 0.0

    def test_residue_route_agrees_with_quadrature(self):
        cov_q = integrate_moments(P_REF)
        cov_r = integrate_moments_residue(P_REF)
        assert cov_r.xx == pytest.approx(cov_q.xx, rel=1e-8)
        assert cov_r.pp == pytest.approx(cov_q.pp, rel=1e-8)

    @pytest.mark.parametrize("g_o", [0.01, 0.1, 0.3, 0.45])
    def test_residue_sum_is_the_per_root_loop(self, g_o):
        # the reference is a scalar loop over the roots; its complex x**2
        # and the array square may differ by an ulp
        p = with_param(P_REF, "G_o", g_o)
        coeffs = spectral._response_poly_coeffs(p)
        dpbar = np.polyder(np.conj(coeffs))
        pref = p.kappa * p.hbar**2 * p.lambda_o**2
        cov = integrate_moments_residue(p)
        for value, power in ((cov.xx, 0), (cov.pp, 2)):
            total = 0.0 + 0.0j
            for r in np.roots(np.conj(coeffs)):
                total += (pref * ((p.kappa / 2.0) ** 2 + (r + p.delta) ** 2) * p.mass**power
                          * r**power / (np.polyval(coeffs, r) * np.polyval(dpbar, r)))
            assert value == pytest.approx((1j * total).real, rel=8 * np.finfo(float).eps)

    def test_residue_route_needs_zero_damping(self):
        p = SystemParams1D(omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0,
                           G_o=0.1)
        with pytest.raises(InvalidParams):
            integrate_moments_residue(p)

    def test_residue_route_rejects_an_unstable_system(self):
        with pytest.raises(UnstableSystem):
            integrate_moments_residue(with_param(P_REF, "G_o", 0.6))

    def test_thermal_oscillator_textbook_values(self):
        n_B = 2.0
        p = SystemParams1D(
            omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=1e-8,
            temperature=temperature_for_occupation(n_B, 1.0))
        cov = integrate_moments(p)
        assert cov.xx == pytest.approx(2.5, rel=1e-3)
        assert cov.pp == pytest.approx(2.5, rel=1e-3)

    def test_weak_coupling_agreement_tightens_with_drive(self):
        temp = temperature_for_occupation(10.0, 1.0)
        devs = {}
        for g in (0.005, 0.02):
            p = SystemParams1D(omega_b=1.0, gamma_b=1e-6, kappa=0.2, delta=1.0,
                               G_o=g, temperature=temp)
            n_spec, _ = occupation_and_purity_1d(integrate_moments(p))
            n_weak = weak_coupling(p).n_bar
            devs[g] = abs(n_spec - n_weak) / n_weak
        assert devs[0.005] < 0.01
        assert devs[0.005] < devs[0.02] < 0.12

    def test_truncated_window_fails_sum_rule(self, monkeypatch):
        # a window that cuts off part of the spectrum leaves the
        # commutator integral short of hbar/2; 2e-6 is twice the gate
        batch = spectral.moment_integrals_batch

        def short(grid, rel_tol):
            errors, warnings, vals = batch(grid, rel_tol)
            return errors, warnings, dict(vals, commutator=np.full(len(grid), 0.5 * (1.0 - 2e-6)))

        monkeypatch.setattr(spectral, "moment_integrals_batch", short)
        with pytest.raises(QuadratureFailure, match="stationarity"):
            integrate_moments(P_REF)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            integrate_moments(with_param(P_REF, "G_o", 0.6))

    def test_tolerance_convergence(self):
        loose = integrate_moments(P_REF, rel_tol=1e-8)
        tight = integrate_moments(P_REF, rel_tol=1e-12)
        assert loose.xx == pytest.approx(tight.xx, rel=1e-8)
        assert loose.pp == pytest.approx(tight.pp, rel=1e-8)

    def test_error_estimates_reported(self):
        vals = moment_integrals(P_REF)
        for key in ("xx", "pp", "commutator", "err_xx", "err_pp",
                    "err_commutator"):
            assert key in vals
        assert vals["commutator"] == pytest.approx(0.5, rel=1e-6)

    def test_hbar_carried_through(self):
        hbar = 0.5
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                           G_o=0.4, hbar=hbar)
        cov = integrate_moments(p)
        assert cov.hbar == hbar
        n, _ = occupation_and_purity_1d(cov)
        n_ref, _ = occupation_and_purity_1d(integrate_moments(P_REF))
        assert n == pytest.approx(n_ref, rel=1e-6)


class TestFreqGrid:
    """The frequency grid is refined to one relative tolerance, rel_tol."""

    def test_bad_tolerances(self):
        for rel_tol in (0.0, -1e-10, math.nan):
            with pytest.raises(InvalidParams, match="rel_tol"):
                moment_integrals(P_REF, rel_tol=rel_tol)
            with pytest.raises(InvalidParams, match="rel_tol"):
                integrate_moments(P_REF, rel_tol=rel_tol)

    def test_panel_layout(self):
        w_max = _window(P_REF)
        panels, rec = spectral._initial_panels(response_poles(P_REF)[None], np.array([w_max]))
        assert (rec == 0).all()
        assert tuple(panels[0]) == (0.0, 1.0, -1.0, w_max)
        assert tuple(panels[-1]) == (0.0, 1.0, 1.0, w_max)
        window = panels[1:-1]
        assert np.all(window[:, 2:] == 0.0)
        assert window[0, 0] == -w_max and window[-1, 1] == w_max
        np.testing.assert_array_equal(window[1:, 0], window[:-1, 1])
        assert (np.diff(window[:, 0]) > 0).all()

    def test_kronrod_pair_is_exact_to_its_degree(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(10)
        g10 = spectral._GK_NODES[:spectral._G10]
        np.testing.assert_array_equal(np.sort(g10), nodes)
        np.testing.assert_allclose(spectral._G10_WEIGHTS[np.argsort(g10)], weights, rtol=4e-15)
        assert len(spectral._GK_NODES) == 21 and len(set(spectral._GK_NODES)) == 21
        for degree in range(32):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            k21 = spectral._K21_WEIGHTS @ spectral._GK_NODES**degree
            assert k21 == pytest.approx(exact, abs=1e-15)
            if degree < 20:
                assert spectral._G10_WEIGHTS @ g10**degree == pytest.approx(exact, abs=1e-15)
        # the next degrees are where each rule stops being exact
        assert abs(spectral._K21_WEIGHTS @ spectral._GK_NODES**32 - 2.0 / 33) > 1e-13
        assert abs(spectral._G10_WEIGHTS @ g10**20 - 2.0 / 21) > 1e-6

    def test_partition_equals_scalar_ladder(self):
        rng = np.random.default_rng(20)
        items = 40
        center = rng.normal(scale=3.0, size=(items, 4))
        width = 10.0 ** rng.uniform(-6.0, 1.0, size=(items, 4))
        width[0, 1] = 0.0
        width[1] = (1e-300, 5e-324, 3e-310, 1e-301)
        width[2, 0] = 0.0
        center[3, 2] = 100.0  # a pole outside the window
        center[4, 0] = -center[4, 1]
        width[4, 0] = width[4, 1]  # a mirror pair, as the response has
        poles = center - 1j * width
        w_max = 10.0 * np.abs(poles).max(axis=1)
        w_max[3] = 20.0
        w_max[5] = 1e308
        panels, rec = spectral._initial_panels(poles, w_max)
        for k in range(items):
            np.testing.assert_array_equal(panels[rec == k], _ladder_reference(poles[k], w_max[k]))
        np.testing.assert_array_equal(rec, np.sort(rec))
        empty, empty_rec = spectral._initial_panels(poles[:0], w_max[:0])
        assert empty.shape == (0, 4) and empty_rec.shape == (0,)


def _window(p):
    """The edge of the finite window: ten times past the outermost pole."""
    return 10.0 * max(float(np.abs(response_poles(p)).max()), p.omega_b)


def _ladder_reference(poles, w_max):
    """Initial panels of one item by a scalar loop over its poles."""
    points = set()
    for p in poles:
        center, scale = float(p.real), abs(float(p.imag))
        points.add(center)
        while 0.0 < scale < w_max:
            points.update((center - scale, center + scale))
            scale *= spectral._LADDER_RATIO
    edges = [-w_max, *sorted(x for x in points if abs(x) < w_max), w_max]
    return np.array([(0.0, 1.0, -1.0, w_max), *((a, b, 0.0, 0.0) for a, b in zip(edges, edges[1:])),
                     (0.0, 1.0, 1.0, w_max)])


class TestExceptionalPoint:
    """kappa = 0.2, delta = omega_b = 1: two response poles meet at G_o = kappa/4."""

    @staticmethod
    def params(g):
        return SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=g)

    def test_quadrature_holds_across_the_band(self):
        worst = 0.0
        for g in np.linspace(0.049, 0.051, 401):
            p = self.params(float(g))
            cov, exact = integrate_moments(p), backaction_1d(p)
            worst = max(worst, abs(cov.xx - exact.xx) / exact.xx,
                        abs(cov.pp - exact.pp) / exact.pp)
        assert worst <= 1e-6  # the oracle-chain-1d tolerance

    @pytest.mark.parametrize("shift", [0.0, 1e-12, 1e-10, -1e-8])
    def test_residue_route_refuses_near_double_root(self, shift):
        with pytest.raises(AssumptionViolated, match="simple roots"):
            integrate_moments_residue(self.params(0.05 + shift))

    def test_residue_route_accurate_where_it_answers(self):
        for g in (0.0491, 0.05 + 1e-6, 0.0509):
            p = self.params(g)
            cov, exact = integrate_moments_residue(p), backaction_1d(p)
            assert cov.xx == pytest.approx(exact.xx, rel=1e-8)
            assert cov.pp == pytest.approx(exact.pp, rel=1e-8)


def _quad_moments(p):
    """xx and pp by scipy's QUADPACK on the same window, a test-only oracle."""
    from scipy.integrate import quad

    w_max = _window(p)
    panels, _ = spectral._initial_panels(response_poles(p)[None], np.array([w_max]))
    points = panels[2:-1, 0]
    out = []
    for power in (0, 2):
        def f(w):
            return (p.mass * w) ** power * float(position_psd(w, p, check_stability=False))

        total = quad(f, -w_max, w_max, points=points, limit=500,
                     epsabs=0.0, epsrel=1e-11)[0]
        if power == 0 or p.gamma_b == 0.0:
            total += quad(f, w_max, np.inf, epsabs=0.0, epsrel=1e-11)[0]
            total += quad(f, -np.inf, -w_max, epsabs=0.0, epsrel=1e-11)[0]
        out.append(total / (2.0 * math.pi))
    return out


@pytest.mark.parametrize("p", [
    SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
    SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.1, delta=0.5, G_o=0.2),
    SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=1.0, delta=2.0, G_o=0.3),
    SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.2, delta=1.0, G_o=0.05,
                   temperature=temperature_for_occupation(5.0, 1.0)),
], ids=["residue-1", "residue-2", "residue-3", "thermal"])
def test_panel_rule_matches_quadpack(p):
    cov = integrate_moments(p)
    xx, pp = _quad_moments(p)
    assert cov.xx == pytest.approx(xx, rel=1e-8)
    assert cov.pp == pytest.approx(pp, rel=1e-8)


def test_import_leaves_scipy_integrate_unloaded():
    src = Path(spectral.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import omsteady; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_import_leaves_numpy_polynomial_unloaded():
    src = Path(spectral.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import omsteady.cli; "
            "print('numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_narrow_cavity_settles():
    # kappa = 3e-8 at G_o = 0.1: resolved by the ratio-3 ladder, while
    # kappa = 1e-8 still exhausts the panel rule
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=3e-8, delta=1.0, G_o=0.1)
    _, purity = occupation_and_purity_1d(integrate_moments(p))
    _, expected = occupation_and_purity_1d(steady_covariance(build_1d(p)).mechanical_1d())
    assert purity == pytest.approx(expected, rel=1e-6)


def test_stacked_poles_are_the_np_roots_poles():
    records = [with_param(P_REF, "G_o", g) for g in (0.01, 0.05, 0.2, 0.45)]
    records.append(with_param(records[0], "temperature", 2.0))
    coeffs = spectral._response_poly_coeffs(ParamsGrid.from_records(records))
    batch = spectral._poles_batch(coeffs)
    for p, c, poles in zip(records, coeffs, batch.columns["poles"]):
        # a record's coefficients are its column's
        np.testing.assert_array_equal(c, spectral._response_poly_coeffs(p))
        np.testing.assert_array_equal(poles, np.roots(c))
        np.testing.assert_array_equal(response_poles(p), poles)
    assert batch.errors == [None] * len(records)
    # np.roots trims a zero constant coefficient into a root at 0, which
    # is not in the lower half plane; a record's zero constant coefficient
    # gives a companion root at 0
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=2.0, delta=1.0, lambda_o=1.0)
    assert spectral._response_poly_coeffs(p)[-1] == 0
    assert not spectral_stability(p)
    (error,) = spectral.moment_integrals_batch(ParamsGrid.from_records([p])).errors
    assert isinstance(error, UnstableSystem) and str(error) == spectral._UNSTABLE
