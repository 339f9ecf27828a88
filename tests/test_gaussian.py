import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from omsteady.closedform import bare_occupation, bare_occupation_batch
from omsteady.errors import (
    AssumptionViolated,
    DegenerateState,
    InvalidParams,
    InvalidRegime,
    UncertaintyViolation,
)
from omsteady.figures import fig3_params
from omsteady.gaussian import (
    Cov1D,
    Cov2D,
    Summary2D,
    decompose_1d,
    occupation_and_purity_1d,
    occupation_and_purity_1d_batch,
    purity_2d_general,
    purity_2d_reduced,
    summary_2d_batch,
    symplectic_eigenvalues,
    wavefunction,
)
from omsteady.langevin import build_rwa, steady_covariance

# Strategy: build states from decomposition parameters, which guarantees
# validity, then check the analysis code recovers them. theta stays away
# from +-pi/2 so p_zpf does not blow up.
n_bars = st.floats(0.0, 50.0)
thetas = st.floats(-1.45, 1.45)
zpfs = st.floats(0.05, 20.0)
hbars = st.sampled_from([1.0, 0.5, 1.054571817e-34])


def cov_from_parameters(n_bar, theta, x_zpf, hbar):
    p_zpf = hbar / (2.0 * x_zpf * math.cos(theta))
    two_n1 = 2.0 * n_bar + 1.0
    xx = x_zpf**2 * two_n1
    pp = p_zpf**2 * two_n1
    xp = math.sin(theta) * x_zpf * p_zpf * two_n1
    return Cov1D(xx=xx, pp=pp, xp=xp, hbar=hbar)


@pytest.mark.parametrize("call", [
    lambda: occupation_and_purity_1d(Cov1D(0.5e-300, 0.5e-300, 0.0, hbar=1e-300)),
    lambda: decompose_1d(Cov1D(0.5e-300, 0.5e-300, 0.0, hbar=1e-300)),
    lambda: purity_2d_general(Cov2D(0.5e-300 * np.eye(4), hbar=1e-300)),
], ids=["occupation_and_purity_1d", "decompose_1d", "purity_2d_general"])
def test_hbar_below_the_normal_range_is_rejected(call):
    # (hbar/2)^2 and (hbar/2)^4 underflow; the records reject such an hbar too
    with pytest.raises(InvalidParams) as exc:
        call()
    assert str(exc.value) == ("hbar must be at least 2.443e-77 so that (hbar/2)^4 is a normal "
                              "float, got 1e-300")


class TestDecomposition1D:
    @given(n_bar=n_bars, theta=thetas, x_zpf=zpfs, hbar=hbars)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, n_bar, theta, x_zpf, hbar):
        cov = cov_from_parameters(n_bar, theta, x_zpf, hbar)
        dec = decompose_1d(cov)
        assert dec.n_bar == pytest.approx(n_bar, rel=1e-12, abs=1e-12)
        assert dec.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
        assert dec.x_zpf == pytest.approx(x_zpf, rel=1e-12)
        assert dec.purity == pytest.approx(1.0 / (2.0 * n_bar + 1.0), rel=1e-12)
        expected_M = complex(math.cos(theta), -math.sin(theta)) * (
            hbar / (2.0 * x_zpf**2 * math.cos(theta))
        )
        assert dec.M_Omega == pytest.approx(expected_M, rel=1e-12)

    @given(n_bar=n_bars, theta=thetas, x_zpf=zpfs, hbar=hbars)
    @settings(max_examples=300, deadline=None)
    def test_zero_point_identity(self, n_bar, theta, x_zpf, hbar):
        dec = decompose_1d(cov_from_parameters(n_bar, theta, x_zpf, hbar))
        assert dec.x_zpf * dec.p_zpf * math.cos(dec.theta) == pytest.approx(
            hbar / 2.0, rel=1e-12)
        assert dec.lambda_re == pytest.approx(dec.M_Omega.real / hbar, rel=1e-12)

    @given(n_bar=n_bars, theta=thetas, x_zpf=zpfs)
    @settings(max_examples=300, deadline=None)
    def test_occupation_matches_decomposition(self, n_bar, theta, x_zpf):
        cov = cov_from_parameters(n_bar, theta, x_zpf, 1.0)
        n, mu = occupation_and_purity_1d(cov)
        assert n == pytest.approx(n_bar, rel=1e-12, abs=1e-12)
        assert mu * (2.0 * n + 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_pure_state_exact_zero(self):
        # Clamping should return exactly zero occupation, not 1e-17.
        n, mu = occupation_and_purity_1d(Cov1D(xx=0.5, pp=0.5, xp=0.0))
        assert n == 0.0
        assert mu == 1.0

    def test_rounding_noise_clamped(self):
        eps = 2e-10  # inside the 1e-9 relative acceptance window
        n, mu = occupation_and_purity_1d(Cov1D(xx=0.5 * (1 - eps), pp=0.5))
        assert n == 0.0
        assert mu == 1.0

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(UncertaintyViolation):
            occupation_and_purity_1d(Cov1D(xx=0.5 * (1 - 1e-8), pp=0.5))

    @given(
        n_bar=n_bars, theta=thetas, x_zpf=zpfs,
        squeeze=st.floats(0.05, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_states_below_bound_rejected(self, n_bar, theta, x_zpf, squeeze):
        cov = cov_from_parameters(n_bar, theta, x_zpf, 1.0)
        # shrink the determinant below (hbar/2)^2 by scaling hbar up
        bad_hbar = (2.0 * n_bar + 1.0) / squeeze
        with pytest.raises(UncertaintyViolation):
            occupation_and_purity_1d(Cov1D(cov.xx, cov.pp, cov.xp, hbar=bad_hbar))

    def test_degenerate_input_rejected(self):
        with pytest.raises(UncertaintyViolation):
            Cov1D(xx=-1.0, pp=0.5)
        with pytest.raises(DegenerateState):
            decompose_1d(Cov1D(xx=0.0, pp=0.5))


class TestWavefunction:
    def grid(self, dec, n_sigma=10.0, points=3001):
        half_width = n_sigma / math.sqrt(dec.lambda_re)
        return np.linspace(-half_width, half_width, points)

    @pytest.mark.parametrize("theta", [0.0, 0.7, -1.1])
    def test_orthonormal_through_n4(self, theta):
        dec = decompose_1d(cov_from_parameters(0.3, theta, 1.3, 1.0))
        x = self.grid(dec)
        psi = [wavefunction(n, dec, 0.0, x) for n in range(5)]
        for m in range(5):
            for n in range(m, 5):
                overlap = np.trapezoid(np.conj(psi[m]) * psi[n], x)
                expect = 1.0 if m == n else 0.0
                assert overlap == pytest.approx(expect, abs=1e-6)

    def test_displaced_center(self):
        dec = decompose_1d(cov_from_parameters(0.0, 0.4, 0.8, 1.0))
        x = self.grid(dec) + 2.5
        psi = wavefunction(0, dec, 2.5, x)
        norm = np.trapezoid(np.abs(psi) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-8)
        peak = x[np.argmax(np.abs(psi))]
        assert peak == pytest.approx(2.5, abs=x[1] - x[0])

    def test_scalar_input_returns_scalar(self):
        dec = decompose_1d(cov_from_parameters(0.1, 0.2, 1.0, 1.0))
        val = wavefunction(2, dec, 0.0, 0.3)
        assert isinstance(val, complex)

    def test_correlated_state_has_complex_envelope(self):
        dec = decompose_1d(cov_from_parameters(0.5, 0.9, 1.0, 1.0))
        assert abs(dec.M_Omega.imag) > 0.1
        psi = wavefunction(0, dec, 0.0, np.array([0.7]))
        assert abs(psi[0].imag) > 0.0

    def test_invalid_index_rejected(self):
        dec = decompose_1d(cov_from_parameters(0.1, 0.2, 1.0, 1.0))
        with pytest.raises(AssumptionViolated):
            wavefunction(-1, dec, 0.0, 0.0)


# ---------------------------------------------------------------------------
# two-mode states


def _mix(alpha):
    """Mode-mixing symplectic acting identically on x and p pairs."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, s],
        [-s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])


def _local_squeeze(r1, r2):
    return np.diag([math.exp(r1), math.exp(-r1), math.exp(r2), math.exp(-r2)])


def _phase_rotation(beta, mode):
    c, s = math.cos(beta), math.sin(beta)
    block = np.array([[c, s], [-s, c]])
    out = np.eye(4)
    sl = slice(2 * mode, 2 * mode + 2)
    out[sl, sl] = block
    return out


def williamson_cov(nu_1, nu_2, symplectic, hbar=1.0):
    d = np.diag([nu_1, nu_1, nu_2, nu_2]) * hbar
    return Cov2D(symplectic @ d @ symplectic.T, hbar=hbar)


two_mode_nus = st.floats(0.5, 40.0)
angles = st.floats(-math.pi, math.pi)
squeezes = st.floats(-1.5, 1.5)


class TestTwoModePurity:
    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, alpha=angles,
           r1=squeezes, r2=squeezes, beta=angles)
    @example(nu_1=0.5, nu_2=0.5, alpha=0.7, r1=1.2, r2=-0.8, beta=0.3)
    @example(nu_1=7.3, nu_2=7.3, alpha=-1.1, r1=-1.4, r2=0.9, beta=2.2)
    @settings(max_examples=300, deadline=None)
    def test_williamson_eigenvalues_recovered(self, nu_1, nu_2, alpha, r1, r2, beta):
        s = _mix(alpha) @ _local_squeeze(r1, r2) @ _mix(beta)
        cov = williamson_cov(nu_1, nu_2, s)
        nu_hi, nu_lo = symplectic_eigenvalues(cov)
        assert nu_hi == pytest.approx(max(nu_1, nu_2), rel=1e-9)
        assert nu_lo == pytest.approx(min(nu_1, nu_2), rel=1e-9)

    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, alpha=angles,
           r1=squeezes, r2=squeezes)
    @settings(max_examples=300, deadline=None)
    def test_symplectic_route_matches_determinant_route(
            self, nu_1, nu_2, alpha, r1, r2):
        s = _mix(alpha) @ _local_squeeze(r1, r2)
        summary = purity_2d_general(williamson_cov(nu_1, nu_2, s))
        modal = 1.0 / ((2.0 * summary.N_plus + 1.0) * (2.0 * summary.N_minus + 1.0))
        assert summary.purity_2d == pytest.approx(modal, rel=1e-10)
        assert summary.purity_2d == pytest.approx(1.0 / (4 * nu_1 * nu_2), rel=1e-9)

    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, alpha=angles,
           r1=squeezes, extra=angles)
    @settings(max_examples=300, deadline=None)
    def test_purity_invariant_under_mode_rotation(
            self, nu_1, nu_2, alpha, r1, extra):
        base = williamson_cov(nu_1, nu_2, _mix(alpha) @ _local_squeeze(r1, 0.0))
        rot = _mix(extra)
        rotated = Cov2D(rot @ base.matrix @ rot.T, hbar=base.hbar)
        mu_0 = purity_2d_general(base).purity_2d
        mu_1 = purity_2d_general(rotated).purity_2d
        assert mu_1 == pytest.approx(mu_0, rel=1e-12)

    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, r1=squeezes, r2=squeezes)
    @settings(max_examples=200, deadline=None)
    def test_uncorrelated_joint_purity_is_product(self, nu_1, nu_2, r1, r2):
        cov = williamson_cov(nu_1, nu_2, _local_squeeze(r1, r2))
        summary = purity_2d_general(cov)
        assert summary.purity_2d == pytest.approx(
            summary.purity_product_1d, rel=1e-12)

    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, alpha=angles)
    @settings(max_examples=200, deadline=None)
    def test_correlations_reduce_product_purity(self, nu_1, nu_2, alpha):
        # tracing out one half of a correlated state loses information,
        # so the product of marginal purities is never above the joint
        cov = williamson_cov(nu_1, nu_2, _mix(alpha))
        summary = purity_2d_general(cov)
        assert summary.purity_product_1d <= summary.purity_2d * (1 + 1e-12)

    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, alpha=angles, r1=squeezes, r2=squeezes,
           hbar=st.sampled_from([1.054571817e-34, 1e100]))
    @settings(max_examples=100, deadline=None)
    def test_williamson_eigenvalues_at_physical_and_huge_hbar(
            self, nu_1, nu_2, alpha, r1, r2, hbar):
        cov = williamson_cov(nu_1, nu_2, _mix(alpha) @ _local_squeeze(r1, r2), hbar=hbar)
        nu_hi, nu_lo = symplectic_eigenvalues(cov)
        assert nu_hi == pytest.approx(max(nu_1, nu_2) * hbar, rel=1e-9)
        assert nu_lo == pytest.approx(min(nu_1, nu_2) * hbar, rel=1e-9)
        summary = purity_2d_general(cov)
        assert summary.N_plus == pytest.approx(max(nu_1, nu_2) - 0.5, rel=1e-9, abs=1e-9)
        assert summary.N_minus == pytest.approx(min(nu_1, nu_2) - 0.5, rel=1e-9, abs=1e-9)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            s = _mix(rng.uniform(-3, 3)) @ _local_squeeze(*rng.uniform(-1.5, 1.5, 2))
            m = williamson_cov(*rng.uniform(0.5, 40.0, 2), s).matrix
            nus = symplectic_eigenvalues(Cov2D(m))
            for k in (-900, -113, 7, 900):
                assert symplectic_eigenvalues(Cov2D(np.ldexp(m, k))) == tuple(
                    math.ldexp(nu, k) for nu in nus)

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, 1.0, 1.0, -1.0]),
        np.diag([1.0, 1.0, 0.0, 1.0]),
        np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    ], ids=["negative", "singular", "indefinite"])
    def test_not_positive_definite_flagged(self, matrix):
        with pytest.raises(DegenerateState, match="^covariance matrix is not positive definite$"):
            symplectic_eigenvalues(Cov2D(matrix))
        errors, _, summary = summary_2d_batch(np.stack([0.5 * np.eye(4), matrix]), [1.0, 1.0])
        assert errors[0] is None and summary["N_plus"][0] == summary["N_minus"][0] == 0.0
        assert isinstance(errors[1], DegenerateState)
        assert str(errors[1]) == "covariance matrix is not positive definite"

    def test_vacuum_is_pure(self):
        summary = purity_2d_general(Cov2D(0.5 * np.eye(4)))
        assert summary.purity_2d == 1.0
        assert summary.N_plus == 0.0
        assert summary.N_minus == 0.0

    def test_hbar_frame_carries_through(self):
        hbar = 1.054571817e-34
        summary = purity_2d_general(Cov2D(0.5 * hbar * np.eye(4), hbar=hbar))
        assert summary.purity_2d == pytest.approx(1.0, rel=1e-12)

    def test_below_bound_rejected(self):
        with pytest.raises(UncertaintyViolation):
            purity_2d_general(Cov2D(0.4999 * np.eye(4)))

    def test_shape_and_symmetry_rejected(self):
        with pytest.raises(DegenerateState):
            Cov2D(np.eye(3))
        bad = 0.5 * np.eye(4)
        bad[0, 1] = 0.3
        with pytest.raises(DegenerateState):
            Cov2D(bad)

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_non_finite_rejected(self, entry):
        bad = 0.5 * np.eye(4)
        bad[1, 1] = entry
        with pytest.raises(DegenerateState, match="non-finite entry"):
            Cov2D(bad)


class TestSymplecticAgainstMpmath:
    """N+- of rotating-wave steady states against a 40-digit eigensolver."""

    def test_rwa_occupations(self):
        mp = pytest.importorskip("mpmath")
        omega = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        # the fig3 bath over the rwa_map couplings, 0.05 to 5 kappa
        for g_o, g_m in product(np.geomspace(5e-5, 5e-3, 5), repeat=2):
            cov = steady_covariance(build_rwa(fig3_params(g_o, g_m))).mechanical_2d()
            summary = purity_2d_general(cov)
            with mp.workdps(40):
                moduli = sorted(abs(ev) for ev in mp.eig(
                    omega * mp.matrix(cov.matrix.tolist()), left=False, right=False))
                want = [float(nu / cov.hbar - mp.mpf(1) / 2) for nu in (moduli[3], moduli[0])]
            assert summary.N_plus == pytest.approx(want[0], rel=1e-12)
            assert summary.N_minus == pytest.approx(want[1], rel=1e-12)


class TestReducedPurityFormula:
    @given(nu_1=two_mode_nus, nu_2=two_mode_nus, alpha=angles, beta=angles)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_general_route(self, nu_1, nu_2, alpha, beta):
        # mixing plus a phase rotation of mode 2 keeps <{x_i,p_i}> = 0
        # and produces antisymmetric cross correlations
        s = _phase_rotation(beta, mode=1) @ _mix(alpha)
        cov = williamson_cov(nu_1, nu_2, s)
        mu_reduced = purity_2d_reduced(cov)
        mu_general = purity_2d_general(cov).purity_2d
        assert mu_reduced == pytest.approx(mu_general, rel=1e-10)

    def test_internal_correlation_rejected(self):
        s = _phase_rotation(0.6, mode=0) @ _local_squeeze(0.8, 0.0)
        cov = williamson_cov(1.2, 0.9, s)
        with pytest.raises(AssumptionViolated):
            purity_2d_reduced(cov)


def _python_float_1d(xx, pp, xp, hbar):
    """Occupation and purity in Python floats, as the scalar formula reads
    (squares as products)."""
    half = hbar / 2.0
    ratio = max((xx * pp - xp * xp) / (half * half), 1.0)
    two_n_plus_1 = math.sqrt(ratio)
    return 0.5 * (two_n_plus_1 - 1.0), 1.0 / two_n_plus_1


class TestStackedCharacterization:
    """Stacked forms give the scalar results bit for bit, and its errors."""

    def test_1d_stack_matches_python_floats_and_scalar_errors(self):
        rng = np.random.default_rng(11)
        size = 3000
        hbar = rng.choice([1.0, 0.37, 1.054571817e-34], size=size)
        root_det = (2.0 * rng.uniform(0.0, 50.0, size) + 1.0) * hbar / 2.0
        # a tenth of the items sit just below the Heisenberg bound, inside
        # the rounding tolerance or beyond it
        root_det[::10] = hbar[::10] / 2.0 * (1.0 - 10.0 ** rng.uniform(-12, -6, size // 10))
        xx = root_det * 10.0 ** rng.uniform(-3, 3, size)
        xp = root_det * rng.uniform(-0.9, 0.9, size)
        pp = (root_det**2 + xp**2) / xx
        errors, _, columns = occupation_and_purity_1d_batch(xx, pp, xp, hbar)
        n_bar, purity = columns["n_bar"], columns["purity"]
        for k in range(size):
            cov = Cov1D(xx=float(xx[k]), pp=float(pp[k]), xp=float(xp[k]), hbar=float(hbar[k]))
            if errors[k] is None:
                assert (n_bar[k], purity[k]) == _python_float_1d(cov.xx, cov.pp, cov.xp, cov.hbar)
                assert (n_bar[k], purity[k]) == occupation_and_purity_1d(cov)
            else:
                with pytest.raises(UncertaintyViolation) as exc:
                    occupation_and_purity_1d(cov)
                assert str(exc.value) == str(errors[k])
        assert 0 < sum(e is not None for e in errors) < size // 10

    def test_2d_stack_matches_batches_of_one(self):
        rng = np.random.default_rng(12)
        covs = []
        for _ in range(400):
            s = (_mix(rng.uniform(-3, 3)) @ _local_squeeze(*rng.uniform(-1.5, 1.5, 2))
                 @ _mix(rng.uniform(-3, 3)))
            covs.append(williamson_cov(*rng.uniform(0.5, 40.0, 2), s, hbar=0.37))
        covs.append(Cov2D(np.diag([0.1, 0.1, 1.0, 1.0])))  # below the bound
        errors, _, summary = summary_2d_batch(np.stack([c.matrix for c in covs]),
                                              [c.hbar for c in covs])
        for k, cov in enumerate(covs):
            if errors[k] is None:
                one = purity_2d_general(cov)
                assert one == Summary2D(summary["purity_2d"][k], summary["N_plus"][k],
                                        summary["N_minus"][k], summary["purity_product_1d"][k])
                assert one.purity_2d == 1.0 / math.sqrt(
                    float(np.linalg.det(cov.matrix)) / (cov.hbar / 2.0) ** 4)
            else:
                with pytest.raises(type(errors[k])) as exc:
                    purity_2d_general(cov)
                assert str(exc.value) == str(errors[k])
        assert errors[:-1] == [None] * 400
        assert str(errors[-1]) == "symplectic eigenvalue 0.1 below hbar/2 = 0.5"

    def test_bare_occupation_stack_matches_scalar(self):
        rng = np.random.default_rng(13)
        xx, pp = rng.uniform(0.5, 5.0, (2, 200))
        hbar, omega, mass = rng.uniform(0.1, 3.0, (3, 200))
        omega[::7] = 0.0
        errors, _, columns = bare_occupation_batch(xx, pp, hbar, omega, mass)
        n_0, settled = columns["n_bar_0"], np.array([e is None for e in errors])
        for k in range(200):
            cov = Cov1D(xx=float(xx[k]), pp=float(pp[k]), hbar=float(hbar[k]))
            if settled[k]:
                assert n_0[k] == bare_occupation(cov, float(omega[k]), float(mass[k]))
            else:
                with pytest.raises(InvalidRegime) as exc:
                    bare_occupation(cov, float(omega[k]), float(mass[k]))
                assert (type(errors[k]), str(errors[k])) == (InvalidRegime, str(exc.value))
        assert not settled[::7].any() and settled.sum() == 200 - len(omega[::7])
