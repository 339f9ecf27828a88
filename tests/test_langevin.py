import math

import numpy as np
import pytest
import scipy.linalg

from omsteady import langevin
from omsteady.errors import (
    CorrelatedBathUnsupported,
    InvalidParams,
    SolveFailure,
    UnstableSystem,
)
from omsteady.gaussian import occupation_and_purity_1d, purity_2d_general
from omsteady.langevin import (
    LYAPUNOV_RESIDUAL_RTOL,
    LinearSystem,
    NoiseMode,
    build_1d,
    build_2d,
    build_rwa,
    stability,
    steady_covariance,
)
from omsteady.models import (
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    resonant_2d_design,
    temperature_for_occupation,
)
from omsteady.sweep import with_param

P_1D = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4)


class TestBuild1D:
    def test_drift_structure(self):
        sys = build_1d(P_1D, NoiseMode.VacuumOnly)
        A = sys.drift
        lam = P_1D.lambda_o
        assert sys.labels == ("x_b", "p_b", "X_c", "P_c")
        assert A[0, 1] == 1.0
        assert A[1, 0] == -1.0
        assert A[1, 2] == pytest.approx(-math.sqrt(2.0) * lam)
        assert A[2, 3] == 1.0
        assert A[3, 2] == -1.0
        assert A[3, 0] == pytest.approx(-math.sqrt(2.0) * lam)
        # position feels no direct optical force, phase feels no position
        assert A[0, 2] == A[0, 3] == A[2, 0] == A[2, 1] == 0.0

    def test_vacuum_diffusion(self):
        sys = build_1d(P_1D, NoiseMode.VacuumOnly)
        expect = np.zeros((4, 4))
        expect[2, 2] = expect[3, 3] = 0.1
        np.testing.assert_array_equal(sys.diffusion, expect)

    def test_thermal_diffusion_strength(self):
        n_B = 2.0
        p = SystemParams1D(
            omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=0.4,
            temperature=temperature_for_occupation(n_B, 1.0))
        sys = build_1d(p, NoiseMode.MarkovianThermal)
        assert sys.diffusion[1, 1] == pytest.approx(2e-3 * (n_B + 0.5), rel=1e-12)

    def test_thermal_mode_without_damping_adds_nothing(self):
        sys = build_1d(P_1D, NoiseMode.MarkovianThermal)
        assert sys.diffusion[1, 1] == 0.0

    def test_mass_scaling(self):
        p = SystemParams1D(omega_b=2.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                           G_o=0.1, mass=3.0)
        A = build_1d(p, NoiseMode.VacuumOnly).drift
        assert A[0, 1] == pytest.approx(1.0 / 3.0)
        assert A[1, 0] == pytest.approx(-12.0)


class TestStability:
    def test_below_threshold_stable(self):
        assert stability(build_1d(P_1D, NoiseMode.VacuumOnly))

    def test_above_threshold_unstable(self):
        p = with_param(P_1D, "G_o", 0.55)
        assert not stability(build_1d(p, NoiseMode.VacuumOnly))

    def test_marginal_rotation_classed_unstable(self):
        # an undamped oscillator only rotates; its covariance never settles
        sys = LinearSystem(
            drift=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            diffusion=np.zeros((2, 2)),
            labels=("x", "p"),
        )
        assert not stability(sys)
        with pytest.raises(UnstableSystem):
            steady_covariance(sys)

    def test_threshold_location(self):
        # stability is lost where omega_b^2 = 2 g_o^2
        k = (P_1D.kappa / 2.0) ** 2 + P_1D.delta**2
        g_crit = math.sqrt(k / (4.0 * P_1D.delta))
        assert stability(build_1d(with_param(P_1D, "G_o", g_crit * (1 - 1e-6)),
                                  NoiseMode.VacuumOnly))
        assert not stability(build_1d(with_param(P_1D, "G_o", g_crit * (1 + 1e-6)),
                                      NoiseMode.VacuumOnly))


class TestSteadyCovariance:
    def test_matches_scipy_lyapunov(self):
        sys = build_1d(P_1D, NoiseMode.VacuumOnly)
        v_own = steady_covariance(sys).matrix
        v_ref = scipy.linalg.solve_continuous_lyapunov(sys.drift, -sys.diffusion)
        np.testing.assert_allclose(v_own, v_ref, rtol=1e-9, atol=1e-14)

    def test_matches_scipy_lyapunov_6x6(self):
        p = resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2)
        sys = build_2d(p, NoiseMode.VacuumOnly)
        v_own = steady_covariance(sys).matrix
        v_ref = scipy.linalg.solve_continuous_lyapunov(sys.drift, -sys.diffusion)
        np.testing.assert_allclose(v_own, v_ref, rtol=1e-9, atol=1e-14)

    def test_residual_bound_holds(self):
        sys = build_1d(P_1D, NoiseMode.VacuumOnly)
        V = steady_covariance(sys).matrix
        resid = np.abs(sys.drift @ V + V @ sys.drift.T + sys.diffusion).max()
        assert resid <= LYAPUNOV_RESIDUAL_RTOL * np.abs(sys.diffusion).max()

    def test_deterministic_bit_for_bit(self):
        sys = build_1d(P_1D, NoiseMode.VacuumOnly)
        a = steady_covariance(sys).matrix
        b = steady_covariance(sys).matrix
        assert np.array_equal(a, b)

    def test_unstable_raises(self):
        sys = build_1d(with_param(P_1D, "G_o", 0.55), NoiseMode.VacuumOnly)
        with pytest.raises(UnstableSystem):
            steady_covariance(sys)

    def test_thermal_occupation_recovered_at_weak_coupling(self):
        n_B = 2.0
        p = SystemParams1D(
            omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=1e-8,
            temperature=temperature_for_occupation(n_B, 1.0))
        cov = steady_covariance(build_1d(p, NoiseMode.MarkovianThermal))
        n_bar, _ = occupation_and_purity_1d(cov.mechanical_1d())
        assert n_bar == pytest.approx(n_B, rel=1e-6)
        assert cov.mechanical_1d().xx == pytest.approx(2.5, rel=1e-6)

    def test_mechanical_block_extraction(self):
        cov = steady_covariance(build_1d(P_1D, NoiseMode.VacuumOnly))
        c1 = cov.mechanical_1d()
        assert c1.xx == cov.matrix[0, 0]
        assert c1.pp == cov.matrix[1, 1]
        assert c1.xp == cov.matrix[0, 1]


def _loop_reference(sys):
    """The vech solve assembled entry by entry in a double loop."""
    if not langevin.stability(sys):
        raise UnstableSystem("drift matrix has a non-decaying eigenvalue")
    A, D = sys.drift, sys.diffusion
    n = sys.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(pairs)}
    M = np.zeros((len(pairs), len(pairs)))
    rhs = np.empty(len(pairs))
    for row, (i, j) in enumerate(pairs):
        rhs[row] = -D[i, j]
        for k in range(n):
            M[row, pos[(min(k, j), max(k, j))]] += A[i, k]
            M[row, pos[(min(i, k), max(i, k))]] += A[j, k]
    try:
        v = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(str(exc)) from exc
    V = np.empty((n, n))
    for k, (i, j) in enumerate(pairs):
        V[i, j] = V[j, i] = v[k]
    resid = np.abs(A @ V + V @ A.T + D).max()
    scale = max(np.abs(D).max(), np.abs(A).max() * np.abs(V).max())
    if not np.isfinite(resid) or resid > LYAPUNOV_RESIDUAL_RTOL * scale:
        raise SolveFailure("residual")
    return V


def _random_stable_system(rng, n):
    A = rng.standard_normal((n, n))
    A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.05, 1.0)) * np.eye(n)
    B = rng.standard_normal((n, n))
    labels = tuple(f"q{k}" for k in range(n))
    return LinearSystem(drift=A, diffusion=B @ B.T, labels=labels)


MODEL_BUILDS = [
    build_1d(P_1D, NoiseMode.VacuumOnly),
    build_1d(SystemParams1D(omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=0.4,
                            temperature=temperature_for_occupation(2.0, 1.0)),
             NoiseMode.MarkovianThermal),
    build_2d(resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2),
             NoiseMode.VacuumOnly),
    build_rwa(SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6, gamma_d=1e-6,
                              kappa=1e-3, delta=1.0, G_o=2e-3, G_m=2e-3 / math.sqrt(2.0),
                              n_B_b=25.0, n_B_d=25.0)),
]
MODEL_IDS = ["1d-vacuum", "1d-thermal", "2d", "rwa"]


class TestVechAssemblyMatchesLoop:
    """The index-map assembly gives the double loop's covariance bit for bit."""

    @pytest.mark.parametrize("sys", MODEL_BUILDS, ids=MODEL_IDS)
    def test_model_builds(self, sys):
        assert np.array_equal(steady_covariance(sys).matrix, _loop_reference(sys))

    def test_random_stable_drifts_in_mixed_sizes(self):
        rng = np.random.default_rng(20221018)
        for n in rng.choice([2, 4, 6], size=200):
            sys = _random_stable_system(rng, int(n))
            assert np.array_equal(steady_covariance(sys).matrix, _loop_reference(sys))

    def test_unstable_raises_like_loop(self):
        sys = build_1d(with_param(P_1D, "G_o", 0.55), NoiseMode.VacuumOnly)
        for solve in (steady_covariance, _loop_reference):
            with pytest.raises(UnstableSystem):
                solve(sys)

    def test_singular_operator_raises_like_loop(self, monkeypatch):
        # Eigenvalues +1 and -1 sum to zero, so the vech operator is singular.
        monkeypatch.setattr(langevin, "stability", lambda sys: True)
        monkeypatch.setattr(langevin, "_decaying", lambda A: np.ones(len(A), dtype=bool))
        sys = LinearSystem(drift=np.diag([1.0, -1.0]), diffusion=np.eye(2),
                           labels=("x", "p"))
        for solve in (steady_covariance, _loop_reference):
            with pytest.raises(SolveFailure):
                solve(sys)



def _stack(systems):
    return langevin.steady_covariance_batch(np.stack([s.drift for s in systems]),
                                            np.stack([s.diffusion for s in systems]))


def _scalar_outcome(sys):
    """The covariance steady_covariance returns for sys, or the error it raises."""
    try:
        return steady_covariance(sys).matrix
    except (UnstableSystem, SolveFailure) as exc:
        return exc


class TestStackedSolve:
    """A stacked solve equals the batch of one and the loop, item by item."""

    def test_model_builds_stacked_by_size(self):
        for group in (MODEL_BUILDS[:2], MODEL_BUILDS[2:]):
            batch = _stack(group + group[::-1])
            assert batch.errors == (None,) * 4
            for sys, V in zip(group + group[::-1], batch.matrix):
                assert np.array_equal(V, steady_covariance(sys).matrix)
                assert np.array_equal(V, _loop_reference(sys))

    def test_random_stable_drifts_stacked_by_size(self):
        rng = np.random.default_rng(20221018)
        systems = [_random_stable_system(rng, int(n)) for n in rng.choice([2, 4, 6], size=200)]
        for n in (2, 4, 6):
            group = [s for s in systems if s.dim == n]
            batch = _stack(group)
            assert batch.errors == (None,) * len(group)
            assert np.all(batch.backward_error <= LYAPUNOV_RESIDUAL_RTOL)
            for sys, V in zip(group, batch.matrix):
                assert np.array_equal(V, steady_covariance(sys).matrix)
                assert np.array_equal(V, _loop_reference(sys))

    def test_mixed_chunk_flags_items_like_the_scalar_solve(self, monkeypatch):
        rng = np.random.default_rng(7)
        singular = LinearSystem(drift=np.diag([1.0, -1.0]), diffusion=np.eye(2),
                                labels=("x", "p"))
        unstable = LinearSystem(drift=np.diag([0.5, -1.0]), diffusion=np.eye(2),
                                labels=("x", "p"))
        # Let the singular drift past the stability check, as if it were stable.
        decaying = langevin._decaying
        monkeypatch.setattr(langevin, "_decaying", lambda A: decaying(A) | np.array(
            [np.array_equal(a, singular.drift) for a in A]))
        stable = [_random_stable_system(rng, 2) for _ in range(4)]
        systems = [stable[0], singular, stable[1], unstable, stable[2], singular, stable[3]]
        batch = _stack(systems)
        for sys, V, err in zip(systems, batch.matrix, batch.errors):
            expect = _scalar_outcome(sys)
            if isinstance(expect, Exception):
                assert type(err) is type(expect) and str(err) == str(expect)
            else:
                assert err is None
                assert np.array_equal(V, expect)
                assert np.array_equal(V, _loop_reference(sys))
        assert [type(e).__name__ for e in batch.errors] == [
            "NoneType", "SolveFailure", "NoneType", "UnstableSystem", "NoneType",
            "SolveFailure", "NoneType"]
        assert str(batch.errors[1]) == "Lyapunov linear system is singular: Singular matrix"

    def test_scalar_errors_come_from_the_batch_outcome(self):
        sys = build_1d(with_param(P_1D, "G_o", 0.55), NoiseMode.VacuumOnly)
        batch = _stack([sys])
        with pytest.raises(UnstableSystem, match="non-decaying eigenvalue") as exc:
            steady_covariance(sys)
        assert str(exc.value) == str(batch.errors[0])


class TestResidualGateScale:
    """The gate's scale max(max|D|, max|A| max|V|) is never formed as a product."""

    def test_tiny_mass_has_a_finite_backward_error(self):
        # max|A| = 1/m = 1e200 and max|V| = hbar/(2 m omega) ~ 5e199:
        # their product overflows, which made the old scale inf
        sys = build_1d(with_param(P_1D, "mass", 1e-200), NoiseMode.MarkovianThermal)
        batch = _stack([sys])
        a, v = float(np.abs(sys.drift).max()), float(np.abs(batch.matrix).max())
        assert a * v == math.inf
        assert batch.errors == (None,)
        err = batch.backward_error[0]
        assert 0.0 < err <= LYAPUNOV_RESIDUAL_RTOL
        assert err == batch.residual[0] / a / v

    def test_perturbed_V_fails_where_the_product_overflows(self, monkeypatch):
        # max|A| = 1e200 and max|V| = 2e108, so max|A| max|V| overflows,
        # while the bound 1e-10 * 2e308 is still a float: a residual of
        # 2e305 from the perturbed V must fail the gate
        sys = LinearSystem(drift=np.diag([-1e200, -1e190]),
                           diffusion=np.diag([2e200, 4e298]), labels=("x", "p"))
        assert _stack([sys]).errors == (None,)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda M, b: solve(M, b) + np.array([[1e105], [0.0], [0.0]]))
        (err,) = _stack([sys]).errors
        assert isinstance(err, SolveFailure)
        assert str(err) == ("Lyapunov residual 2.000e+305 is 1.000e-03 of its scale, "
                            "above 1.0e-10")


class TestBuild2D:
    P = resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2)

    def test_labels_and_coupling_structure(self):
        sys = build_2d(self.P, NoiseMode.VacuumOnly)
        A = sys.drift
        assert sys.labels == ("x_b", "p_b", "x_d", "p_d", "X_c", "P_c")
        # only the bright mode drives (and is driven by) the cavity
        assert A[5, 0] == pytest.approx(-math.sqrt(2.0) * self.P.lambda_o)
        assert A[5, 2] == 0.0
        assert A[3, 4] == 0.0
        # elastic bright/dark cross coupling is symmetric
        assert A[1, 2] == A[3, 0]
        assert A[1, 2] != 0.0

    def test_correlated_bath_rejected(self):
        p = SystemParams2D(omega_x=1.1, omega_y=0.9, gamma_x=1e-3, gamma_y=1e-4,
                           phi=math.pi / 4, kappa=0.2, delta=1.0, lambda_o=0.1,
                           temperature=1.0)
        with pytest.raises(CorrelatedBathUnsupported):
            build_2d(p, NoiseMode.MarkovianThermal)
        # vacuum-only never touches the bath correlation question
        build_2d(p, NoiseMode.VacuumOnly)

    def test_equal_damping_thermal_ok(self):
        p = SystemParams2D(omega_x=1.1, omega_y=0.9, gamma_x=1e-3, gamma_y=1e-3,
                           phi=math.pi / 4, kappa=0.2, delta=1.0, lambda_o=0.1,
                           temperature=1.0)
        sys = build_2d(p, NoiseMode.MarkovianThermal)
        assert sys.diffusion[1, 1] > 0.0
        assert sys.diffusion[3, 3] > 0.0

    def test_axis_aligned_thermal_ok_with_unequal_damping(self):
        # no mixing at phi = 0, so distinct baths stay uncorrelated
        p = SystemParams2D(omega_x=1.1, omega_y=0.9, gamma_x=1e-3, gamma_y=1e-4,
                           phi=0.0, kappa=0.2, delta=1.0, lambda_o=0.1,
                           temperature=1.0)
        sys = build_2d(p, NoiseMode.MarkovianThermal)
        assert sys.diffusion[1, 1] > sys.diffusion[3, 3] > 0.0

    def test_steady_state_block_structure(self):
        cov = steady_covariance(build_2d(self.P, NoiseMode.VacuumOnly))
        m = cov.mechanical_2d().matrix
        # position-position and momentum-momentum correlations survive,
        # same-mode cross moments vanish at steady state
        assert abs(m[0, 1]) < 1e-12 * m[0, 0]
        assert abs(m[2, 3]) < 1e-12 * m[2, 2]
        assert m[0, 2] != 0.0
        summary = purity_2d_general(cov.mechanical_2d())
        assert 0.0 < summary.purity_2d <= 1.0


class TestBuildRWA:
    P = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6, gamma_d=1e-6,
                        kappa=1e-3, delta=1.0, G_o=2e-3, G_m=2e-3 / math.sqrt(2.0),
                        n_B_b=25.0, n_B_d=25.0)

    def test_in_regime_no_warning(self):
        assert build_rwa(self.P).warnings == ()

    def test_out_of_regime_warns(self):
        import dataclasses
        p = dataclasses.replace(self.P, kappa=0.2)
        sys = build_rwa(p)
        assert len(sys.warnings) == 1
        assert "regime" in sys.warnings[0]

    def test_decoupled_modes_thermalize(self):
        import dataclasses
        p = dataclasses.replace(self.P, G_o=0.0, G_m=0.0)
        cov = steady_covariance(build_rwa(p))
        v = cov.matrix
        # each quadrature pair settles at n_B + 1/2; cavity at vacuum
        assert v[0, 0] == pytest.approx(0.5, rel=1e-9)
        assert v[2, 2] == pytest.approx(25.5, rel=1e-9)
        assert v[4, 4] == pytest.approx(25.5, rel=1e-9)

    def test_beamsplitter_antisymmetry(self):
        A = build_rwa(self.P).drift
        # exchange coupling blocks are antisymmetric between quadratures
        assert A[0, 3] == pytest.approx(self.P.G_o)
        assert A[1, 2] == pytest.approx(-self.P.G_o)
        assert A[2, 5] == pytest.approx(self.P.G_m)
        assert A[3, 4] == pytest.approx(-self.P.G_m)
        # no direct cavity-dark coupling
        assert A[0, 5] == A[1, 4] == 0.0

    def test_mechanical_block_uses_amplitude_labels(self):
        cov = steady_covariance(build_rwa(self.P))
        c2 = cov.mechanical_2d()
        assert c2.matrix.shape == (4, 4)
        assert c2.hbar == 1.0


class TestLinearSystemValidation:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidParams):
            LinearSystem(drift=np.zeros((3, 2)), diffusion=np.zeros((3, 3)),
                         labels=("a", "b", "c"))

    def test_odd_dimension(self):
        with pytest.raises(InvalidParams):
            LinearSystem(drift=-np.eye(3), diffusion=np.eye(3),
                         labels=("a", "b", "c"))

    def test_asymmetric_diffusion(self):
        d = np.eye(2)
        d[0, 1] = 0.5
        with pytest.raises(InvalidParams):
            LinearSystem(drift=-np.eye(2), diffusion=d, labels=("x", "p"))

    @pytest.mark.parametrize("name", ["drift", "diffusion"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry(self, name, bad):
        mats = {"drift": -np.eye(2), "diffusion": np.eye(2)}
        mats[name][0, 0] = bad
        with pytest.raises(InvalidParams, match=f"{name} matrix has a non-finite entry"):
            LinearSystem(labels=("x", "p"), **mats)
