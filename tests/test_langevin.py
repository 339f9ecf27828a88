import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from omsteady import langevin
from omsteady.errors import (
    CorrelatedBathUnsupported,
    InvalidParams,
    OmsteadyError,
    SolveFailure,
    UnstableSystem,
)
from omsteady.figures import _FIG3_KAPPA, _FIG3_RATIO, fig3_params
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
    ParamsGrid,
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


def _vech_loop(A, D):
    """The vech solve assembled entry by entry in a double loop."""
    n = A.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(pairs)}
    M = np.zeros((len(pairs), len(pairs)))
    rhs = np.empty(len(pairs))
    for row, (i, j) in enumerate(pairs):
        rhs[row] = -D[i, j]
        for k in range(n):
            M[row, pos[(min(k, j), max(k, j))]] += A[i, k]
            M[row, pos[(min(i, k), max(i, k))]] += A[j, k]
    v = np.linalg.solve(M, rhs)
    V = np.empty((n, n))
    for k, (i, j) in enumerate(pairs):
        V[i, j] = V[j, i] = v[k]
    return V


def _reduced_system(A, D):
    """The phase-insensitive system M x = rhs over (triu P, strict-triu Q), entry by entry.

    With A = Ar (x) I_2 + Ai (x) J, D likewise and V = P (x) I_2 + Q (x) J,
    the I_2 and J parts of A V + V A^T + D = 0 are
    Ar P - Ai Q + P Ar^T + Q Ai^T + Dr = 0 (rows i <= j) and
    Ar Q + Ai P + Q Ar^T - P Ai^T + Di = 0 (rows i < j).
    """
    h = A.shape[0] // 2
    Ar, Ai, Dr, Di = A[0::2, 0::2], A[0::2, 1::2], D[0::2, 0::2], D[0::2, 1::2]
    ps = [(i, j) for i in range(h) for j in range(i, h)]
    qs = [(i, j) for i in range(h) for j in range(i + 1, h)]
    M = np.zeros((len(ps) + len(qs),) * 2)
    rhs = np.empty(len(M))

    def add(row, part, i, j, a):
        # P_ij = P_ji; Q_ij = -Q_ji and Q_ii = 0
        if part == "P":
            M[row, ps.index((min(i, j), max(i, j)))] += a
        elif i != j:
            M[row, len(ps) + qs.index((min(i, j), max(i, j)))] += a if i < j else -a

    for row, (i, j) in enumerate(ps):
        rhs[row] = -Dr[i, j]
        for k in range(h):
            add(row, "P", k, j, Ar[i, k])
            add(row, "P", i, k, Ar[j, k])
            add(row, "Q", k, j, -Ai[i, k])
            add(row, "Q", i, k, Ai[j, k])
    for row, (i, j) in enumerate(qs, len(ps)):
        rhs[row] = -Di[i, j]
        for k in range(h):
            add(row, "Q", k, j, Ar[i, k])
            add(row, "P", k, j, Ai[i, k])
            add(row, "Q", i, k, Ar[j, k])
            add(row, "P", i, k, -Ai[j, k])
    return M, rhs, ps, qs


def _reduced_loop(A, D):
    """_reduced_system solved, and V = P (x) I_2 + Q (x) J written entry by entry."""
    M, rhs, ps, qs = _reduced_system(A, D)
    x = np.linalg.solve(M, rhs)
    h = A.shape[0] // 2
    P, Q = np.empty((h, h)), np.zeros((h, h))
    for k, (i, j) in enumerate(ps):
        P[i, j] = P[j, i] = x[k]
    for k, (i, j) in enumerate(qs, len(ps)):
        Q[i, j], Q[j, i] = x[k], -x[k]
    V = np.empty(A.shape)
    V[0::2, 0::2] = V[1::2, 1::2] = P
    V[0::2, 1::2], V[1::2, 0::2] = Q, Q.T
    return V


def _loop_reference(sys, solve=_vech_loop):
    """The stability check, a loop-assembled solve and the residual gate, item alone."""
    if not langevin.stability(sys):
        raise UnstableSystem("drift matrix has a non-decaying eigenvalue")
    A, D = sys.drift, sys.diffusion
    try:
        V = solve(A, D)
    except np.linalg.LinAlgError as exc:
        raise UnstableSystem(str(exc)) from exc
    resid = np.abs(A @ V + V @ A.T + D).max()
    scale = max(np.abs(D).max(), np.abs(A).max() * np.abs(V).max())
    if not np.isfinite(resid) or resid > LYAPUNOV_RESIDUAL_RTOL * scale:
        raise SolveFailure("residual")
    return V


def _assert_loop_solution(sys, V):
    """V is the loop reference's bit for bit. A rotating-wave build takes the
    reduced system, whose V agrees with the vech loop's to 1e-12 max|V|."""
    if sys.labels[0] == "X_a":
        assert V.tobytes() == _loop_reference(sys, _reduced_loop).tobytes()
        vech = _loop_reference(sys)
        assert np.abs(V - vech).max() <= 1e-12 * np.abs(vech).max()
    else:
        assert V.tobytes() == _loop_reference(sys).tobytes()


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
        _assert_loop_solution(sys, steady_covariance(sys).matrix)

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
        # Eigenvalues +1 and -1 sum to zero, so the vech operator is
        # singular, which only a drift that is not stable makes it.
        monkeypatch.setattr(langevin, "stability", lambda sys: True)
        monkeypatch.setattr(langevin, "_decaying", lambda A: np.ones(len(A), dtype=bool))
        sys = LinearSystem(drift=np.diag([1.0, -1.0]), diffusion=np.eye(2),
                           labels=("x", "p"))
        for solve in (steady_covariance, _loop_reference):
            with pytest.raises(UnstableSystem):
                solve(sys)

    @pytest.mark.parametrize("e", [-1074, -1000, -200, 0, 200, 1000])
    def test_defective_drift_is_unstable(self, e):
        # 2^e [[1, 1], [-1, -1]] is nilpotent, so its operator is singular;
        # the eigenvalue check calls it decaying except at 2^-1074.
        sys = LinearSystem(drift=math.ldexp(1.0, e) * np.array([[1.0, 1.0], [-1.0, -1.0]]),
                           diffusion=np.eye(2), labels=("x", "p"))
        with pytest.raises(UnstableSystem):
            steady_covariance(sys)



def _add_at_operator(A):
    """The vech operators filled by np.add.at from the (target, source) term list."""
    B, n = A.shape[0], A.shape[-1]
    iu, ju = np.triu_indices(n)
    nn = iu.size
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(nn)
    k, row = np.arange(n), np.arange(nn)[:, None] * nn
    i, j = iu[:, None], ju[:, None]
    target = np.concatenate([(row + pos[k, j]).ravel(), (row + pos[i, k]).ravel()])
    source = np.concatenate([(i * n + k).ravel(), (j * n + k).ravel()])
    M = np.zeros((B, nn * nn))
    np.add.at(M, (slice(None), target), A.reshape(B, n * n)[:, source])
    return M.reshape(B, nn, nn)


def _random_phase_insensitive(rng, B, h):
    """B drifts Ar (x) I_2 + Ai (x) J with about a third of Ar and Ai zero, each
    zero's sign drawn apart from its partner's (the block comparison is exact,
    and 0.0 == -0.0)."""
    Ar, Ai = rng.standard_normal((2, B, h, h))
    Ar[rng.random(Ar.shape) < 0.3] = 0.0
    Ai[rng.random(Ai.shape) < 0.3] = 0.0
    A = np.empty((B, 2 * h, 2 * h))
    A[:, 0::2, 0::2] = A[:, 1::2, 1::2] = Ar
    A[:, 0::2, 1::2], A[:, 1::2, 0::2] = Ai, -Ai
    zero = A == 0.0
    A[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return A


class TestGatheredVechFill:
    """The two-gather operator fill equals np.add.at's, bit for bit and signed zeros too."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_random_drifts_with_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((300, n, n))
        A[rng.random(A.shape) < 0.3] = -0.0
        A[rng.random(A.shape) < 0.2] = 0.0
        M = langevin._operator(A, False)
        assert M.tobytes() == _add_at_operator(A).tobytes()
        assert np.signbit(M).any() and (M == 0.0).any()

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_reduced_operator_of_random_phase_insensitive_drifts(self, h):
        rng = np.random.default_rng(260 + h)
        A = _random_phase_insensitive(rng, 300, h)
        assert langevin._phase_insensitive(A).all()
        assert np.signbit(A[A == 0.0]).any() and not np.signbit(A[A == 0.0]).all()
        M = langevin._operator(A, True)
        assert M.shape == (300, h * h, h * h)
        assert M.tobytes() == np.array([_reduced_system(a, a)[0] for a in A]).tobytes()

    def test_model_drifts_with_zero_detuning_and_damping(self):
        # delta = 0 and gamma = 0 write -0.0 into the drifts
        drifts = [
            build_1d(replace(P_1D, delta=0.0), NoiseMode.VacuumOnly).drift,
            build_rwa(SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=0.0, gamma_d=0.0,
                                      kappa=1e-3, delta=0.0, G_o=2e-3, G_m=1e-3)).drift,
        ]
        for A in drifts:
            assert np.signbit(A[A == 0.0]).any()
            assert langevin._operator(A[None], False).tobytes() == \
                _add_at_operator(A[None]).tobytes()
        assert langevin._operator(drifts[1][None], True).tobytes() == \
            _reduced_system(drifts[1], drifts[1])[0][None].tobytes()


def _random_phase_insensitive_system(rng, h):
    """A stable drift and a positive definite diffusion, both phase-insensitive."""
    A = _random_phase_insensitive(rng, 1, h)[0]
    A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.05, 1.0)) * np.eye(2 * h)
    C = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    H = C @ C.conj().T + 1e-3 * np.eye(h)
    D = np.kron(H.real, np.eye(2)) + np.kron(H.imag, [[0.0, 1.0], [-1.0, 0.0]])
    return LinearSystem(drift=A, diffusion=D, labels=tuple(f"q{k}" for k in range(2 * h)))


class TestReducedSolve:
    """Phase-insensitive items, and only they, are solved over (triu P, strict-triu Q)."""

    def test_agrees_with_the_vech_solve(self):
        rng = np.random.default_rng(2608)
        B = 100
        u = lambda lo, hi: rng.uniform(lo, hi, B).tolist()
        logu = lambda lo, hi: (10.0 ** rng.uniform(lo, hi, B)).tolist()
        # detuned modes, unequal damping and bath occupations
        records = [SystemParamsRWA(*p) for p in zip(
            u(0.8, 1.2), u(0.8, 1.2), logu(-5, -2), logu(-5, -2), logu(-3, -1), u(0.8, 1.2),
            logu(-3, -1), logu(-3, -1), logu(0, 4), logu(0, 4))]
        groups = [[build_rwa(p) for p in records]]
        groups += [[_random_phase_insensitive_system(rng, h) for _ in range(50)] for h in (1, 2, 3)]
        for group in groups:
            batch = _stack(group)
            assert batch.errors == [None] * len(group)
            assert np.all(batch.columns["backward_error"] <= LYAPUNOV_RESIDUAL_RTOL)
            assert langevin._phase_insensitive(batch.columns["matrix"]).all()
            for sys, V in zip(group, batch.columns["matrix"]):
                vech = _loop_reference(sys)
                assert np.abs(V - vech).max() <= 1e-12 * np.abs(vech).max()
                assert V.tobytes() == _loop_reference(sys, _reduced_loop).tobytes()

    @pytest.mark.parametrize("name, entry", [
        (None, None), ("drift", (1, 1)), ("drift", (3, 0)), ("diffusion", (3, 3))])
    def test_a_nudged_entry_takes_the_vech_path(self, name, entry, monkeypatch):
        rwa = MODEL_BUILDS[3]
        mats = {"drift": rwa.drift.copy(), "diffusion": rwa.diffusion.copy()}
        if name:
            mats[name][entry] = np.nextafter(mats[name][entry], math.inf)
        sys = LinearSystem(labels=rwa.labels, **mats)
        seen, operator = [], langevin._operator
        monkeypatch.setattr(langevin, "_operator",
                            lambda A, reduced: seen.append(reduced) or operator(A, reduced))
        V = steady_covariance(sys).matrix
        assert seen == [name is None]
        solve = _reduced_loop if name is None else _vech_loop
        assert V.tobytes() == _loop_reference(sys, solve).tobytes()


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
            assert batch.errors == [None] * 4
            for sys, V in zip(group + group[::-1], batch.columns["matrix"]):
                assert V.tobytes() == steady_covariance(sys).matrix.tobytes()
                _assert_loop_solution(sys, V)

    def test_random_stable_drifts_stacked_by_size(self):
        rng = np.random.default_rng(20221018)
        systems = [_random_stable_system(rng, int(n)) for n in rng.choice([2, 4, 6], size=200)]
        for n in (2, 4, 6):
            group = [s for s in systems if s.dim == n]
            batch = _stack(group)
            assert batch.errors == [None] * len(group)
            assert np.all(batch.columns["backward_error"] <= LYAPUNOV_RESIDUAL_RTOL)
            for sys, V in zip(group, batch.columns["matrix"]):
                assert np.array_equal(V, steady_covariance(sys).matrix)
                assert np.array_equal(V, _loop_reference(sys))

    def test_mixed_chunk_flags_items_like_the_scalar_solve(self, monkeypatch):
        rng = np.random.default_rng(7)
        singular = LinearSystem(drift=np.diag([1.0, -1.0]), diffusion=np.eye(2),
                                labels=("x", "p"))
        unstable = LinearSystem(drift=np.diag([0.5, -1.0]), diffusion=np.eye(2),
                                labels=("x", "p"))
        # Phase-insensitive, so it is solved over the reduced system, where
        # the equation of P_01 vanishes: Ar = diag(1, -1, -1) and Ai = 0.
        singular_rwa = np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        # Let the singular drifts past the stability check, as if they were stable.
        decaying = langevin._decaying
        monkeypatch.setattr(langevin, "_decaying", lambda A: decaying(A) | np.array(
            [any(np.array_equal(a, s) for s in (singular.drift, singular_rwa)) for a in A]))
        stable = [_random_stable_system(rng, 2) for _ in range(4)]
        systems = [stable[0], singular, stable[1], unstable, stable[2], singular, stable[3]]
        batch = _stack(systems)
        for sys, V, err in zip(systems, batch.columns["matrix"], batch.errors):
            expect = _scalar_outcome(sys)
            if isinstance(expect, Exception):
                assert type(err) is type(expect) and str(err) == str(expect)
            else:
                assert err is None
                assert np.array_equal(V, expect)
                assert np.array_equal(V, _loop_reference(sys))
        assert [type(e).__name__ for e in batch.errors] == [
            "NoneType", "UnstableSystem", "NoneType", "UnstableSystem", "NoneType",
            "UnstableSystem", "NoneType"]
        assert str(batch.errors[1]) == "Lyapunov linear system is singular: Singular matrix"
        # 6x6: rotating-wave items (reduced path; undamped ones decided by
        # eigenvalues first) beside twoD items (vech path), non-finite items
        # and singular ones, each as its batch of one
        rwa, twod = MODEL_BUILDS[3], MODEL_BUILDS[2]
        undamped = build_rwa(SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=0.0, gamma_d=0.0,
                                             kappa=1e-3, delta=1.0, G_o=2e-3, G_m=1e-3))
        nan_drift, inf_diffusion = rwa.drift.copy(), rwa.diffusion.copy()
        nan_drift[0, 0], inf_diffusion[2, 2] = math.nan, math.inf
        items = [(rwa.drift, rwa.diffusion), (singular_rwa, np.eye(6)),
                 (twod.drift, twod.diffusion), (undamped.drift, undamped.diffusion),
                 (nan_drift, rwa.diffusion), (rwa.drift, inf_diffusion),
                 (twod.drift, twod.diffusion), (singular_rwa, np.eye(6)),
                 (rwa.drift, rwa.diffusion)]
        A, D = (np.stack(m) for m in zip(*items))
        batch = langevin.steady_covariance_batch(A, D)
        for k in range(len(items)):
            alone = langevin.steady_covariance_batch(A[k:k + 1], D[k:k + 1])
            assert type(batch.errors[k]) is type(alone.errors[0])
            assert str(batch.errors[k]) == str(alone.errors[0])
            for field in ("matrix", "residual", "backward_error", "decay_bound"):
                assert batch.columns[field][k].tobytes() == alone.columns[field][0].tobytes()
        assert [type(e).__name__ for e in batch.errors] == [
            "NoneType", "UnstableSystem", "NoneType", "NoneType", "InvalidParams",
            "InvalidParams", "NoneType", "UnstableSystem", "NoneType"]
        for k in (0, 3, 8):
            assert batch.columns["matrix"][k].tobytes() == _reduced_loop(A[k], D[k]).tobytes()
        for k in (2, 6):
            assert batch.columns["matrix"][k].tobytes() == _vech_loop(A[k], D[k]).tobytes()

    def test_flags_across_lu_blocks_match_the_scalar_solve(self, monkeypatch):
        # 150 items make three LU blocks. Singular items (let past the
        # stability check) fall back to per-item solves in every block,
        # at stack positions 63, 64 and 128 among others; unstable items
        # with a positive diffusion are solved and then decided, those
        # with a zero diffusion entry are decided before the solve and
        # leave it, which shifts the later blocks.
        rng = np.random.default_rng(23)
        singular = LinearSystem(drift=np.diag([1.0, -1.0]), diffusion=np.eye(2),
                                labels=("x", "p"))
        unstable_solved = LinearSystem(drift=np.diag([0.5, -1.0]), diffusion=np.eye(2),
                                       labels=("x", "p"))
        unstable_unsolved = LinearSystem(drift=np.diag([0.5, -1.0]),
                                         diffusion=np.diag([0.0, 1.0]), labels=("x", "p"))
        decaying = langevin._decaying
        monkeypatch.setattr(langevin, "_decaying", lambda A: decaying(A) | np.array(
            [np.array_equal(a, singular.drift) for a in A]))
        systems = [_random_stable_system(rng, 2) for _ in range(150)]
        for k in (5, 63, 64, 65, 128, 145):
            systems[k] = singular
        for k in (20, 70, 129):
            systems[k] = unstable_solved
        for k in (10, 100, 140):
            systems[k] = unstable_unsolved
        expected = [_scalar_outcome(sys) for sys in systems]
        sizes, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, b: sizes.append(len(M)) or solve(M, b))
        batch = _stack(systems)
        # 147 items reach the solve: items 0-64, 65-129 and 130-149, less
        # the three unstable_unsolved, in blocks of 64, 64 and 19. Each
        # block holds a singular item, so each falls back to one solve per
        # item.
        assert sizes == [64] + [1] * 64 + [64] + [1] * 64 + [19] + [1] * 19
        monkeypatch.setattr(np.linalg, "solve", solve)
        for sys, V, err, expect in zip(systems, batch.columns["matrix"], batch.errors, expected):
            if isinstance(expect, Exception):
                assert type(err) is type(expect) and str(err) == str(expect)
                with pytest.raises(type(expect)):
                    _loop_reference(sys)
                assert not V.any()
            else:
                assert err is None
                assert V.tobytes() == expect.tobytes() == _loop_reference(sys).tobytes()
        singular_items = [5, 63, 64, 65, 128, 145]
        singular_message = "Lyapunov linear system is singular: Singular matrix"
        assert [k for k, e in enumerate(batch.errors) if str(e) == singular_message] == (
            singular_items)
        assert [k for k, e in enumerate(batch.errors) if isinstance(e, UnstableSystem)] == sorted(
            singular_items + [10, 20, 70, 100, 129, 140])

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
        a, v = float(np.abs(sys.drift).max()), float(np.abs(batch.columns["matrix"]).max())
        assert a * v == math.inf
        assert batch.errors == [None]
        err = batch.columns["backward_error"][0]
        assert 0.0 < err <= LYAPUNOV_RESIDUAL_RTOL
        assert err == batch.columns["residual"][0] / a / v

    def test_perturbed_V_fails_where_the_product_overflows(self, monkeypatch):
        # max|A| = 1e200 and max|V| = 2e108, so max|A| max|V| overflows,
        # while the bound 1e-10 * 2e308 is still a float: a residual of
        # 2e305 from the perturbed V must fail the gate
        sys = LinearSystem(drift=np.diag([-1e200, -1e190]),
                           diffusion=np.diag([2e200, 4e298]), labels=("x", "p"))
        assert _stack([sys]).errors == [None]
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda M, b: solve(M, b) + np.array([[1e105], [0.0], [0.0]]))
        (err,) = _stack([sys]).errors
        assert isinstance(err, SolveFailure)
        assert str(err) == ("Lyapunov residual 2.000e+305 is 1.000e-03 of its scale, "
                            "above 1.0e-10")


def _eigvals_reference(A, D):
    """The stacked solve with the eigenvalue check deciding every item, before the solve.

    Phase-insensitive items are solved one by one over the reduced system.
    Returns (matrix, residual, backward_error, errors) as the batch does.
    """
    B, n = A.shape[0], A.shape[-1]
    iu, ju = np.triu_indices(n)
    errors = [None] * B
    stable = langevin._decaying(A)
    for k in np.flatnonzero(~stable):
        errors[k] = UnstableSystem("drift matrix has a non-decaying eigenvalue")
    reduced = langevin._phase_insensitive(A) & langevin._phase_insensitive(D)
    M = langevin._operator(A, False)
    M[~stable | reduced] = np.eye(iu.size)
    rhs = -D[:, iu, ju]
    try:
        v = np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        v = np.zeros((B, iu.size))
        for k in range(B):
            try:
                v[k] = np.linalg.solve(M[k:k + 1], rhs[k:k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                if errors[k] is None:
                    errors[k] = UnstableSystem(f"Lyapunov linear system is singular: {exc}")
    v[reduced | np.array([e is not None for e in errors])] = 0.0
    V = np.empty((B, n, n))
    V[:, iu, ju] = V[:, ju, iu] = v
    for k in np.flatnonzero(reduced & stable):
        try:
            V[k] = _reduced_loop(A[k], D[k])
        except np.linalg.LinAlgError as exc:
            errors[k] = UnstableSystem(f"Lyapunov linear system is singular: {exc}")
    resid = np.abs(A @ V + V @ A.swapaxes(-1, -2) + D).max(axis=(-2, -1))
    d, a, vmax = (np.abs(X).max(axis=(-2, -1)) for X in (D, A, V))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.fmin(resid / d, resid / a / vmax)
    for k in range(B):
        if errors[k] is None and not (np.isfinite(resid[k]) and err[k] <= LYAPUNOV_RESIDUAL_RTOL):
            errors[k] = SolveFailure(f"Lyapunov residual {resid[k]:.3e} is {err[k]:.3e} of "
                                     f"its scale, above {LYAPUNOV_RESIDUAL_RTOL:.1e}")
    return V, resid, err, errors


def _assert_batch_is_reference(A, D):
    """The batch equals the eigenvalue-only reference item by item; returns the batch."""
    batch = langevin.steady_covariance_batch(A, D)
    V, resid, err, errors = _eigvals_reference(A, D)
    assert [(type(e), str(e)) for e in batch.errors] == [(type(e), str(e)) for e in errors]
    assert batch.columns["matrix"].tobytes() == V.tobytes()
    assert batch.columns["residual"].tobytes() == resid.tobytes()
    assert batch.columns["backward_error"].tobytes() == err.tobytes()
    return batch


def _seeded_diffusions(rng, n):
    """A diagonally dominant diffusion, a positive definite one Gershgorin's discs
    do not certify, and a singular one with no noise on the even rows."""
    off = rng.uniform(-1.0, 1.0, (n, n))
    dominant = np.diag(rng.uniform(1.0, 2.0, n)) + 0.5 / n * (off + off.T)
    X = rng.standard_normal((n, n))
    singular = np.diag(np.tile([0.0, 1.0], n // 2))
    return dominant, X @ X.T + 1e-3 * np.eye(n), singular


def _shifted_drift(rng, n, margin):
    """A seeded drift shifted so that its max Re lambda is margin * rho."""
    A = rng.standard_normal((n, n))
    A -= np.linalg.eigvals(A).real.max() * np.eye(n)
    return A + margin * np.abs(np.linalg.eigvals(A)).max() * np.eye(n)


MARGINS = [s * m for s in (1.0, -1.0) for m in (1e-13, 1e-12, 1e-11, 1e-9)]


class TestStabilityCertificate:
    """Certified items settle as the eigenvalue check alone settles them, bit for bit."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_seeded_drifts_match_the_eigvals_reference(self, n):
        rng = np.random.default_rng(1900 + n)
        drifts, diffusions, shifted = [], [], []
        for _ in range(20):
            A = rng.standard_normal((n, n))
            A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.05, 1.0)) * np.eye(n)
            # a raw Gaussian drift mostly has eigenvalues on both sides
            mixed = (rng.standard_normal((n, n)), "mixed")
            for A, margin in [(A, None), mixed] + [(_shifted_drift(rng, n, m), m)
                                                   for m in MARGINS]:
                for D in _seeded_diffusions(rng, n):
                    drifts.append(A)
                    diffusions.append(D)
                    shifted.append(isinstance(margin, float))
        A, D = np.array(drifts), np.array(diffusions)
        batch = _assert_batch_is_reference(A, D)
        certified = np.isfinite(batch.columns["decay_bound"])
        # the certificate never reaches a drift within 1e-9 rho of the
        # imaginary axis, nor a D that is not definite by Gershgorin's discs
        gershgorin = (2.0 * np.diagonal(D, axis1=1, axis2=2) - np.abs(D).sum(axis=2)).min(axis=1)
        assert certified.sum() >= 20
        assert not (certified & np.array(shifted)).any()
        assert not (certified & (gershgorin <= 0.0)).any()
        # the bound bounds: -max Re lambda is at least decay_bound
        worst = np.linalg.eigvals(A[certified]).real.max(axis=-1)
        assert np.all(-worst >= batch.columns["decay_bound"][certified])
        assert {type(e).__name__ for e in batch.errors} == {"NoneType", "UnstableSystem"}

    def test_model_builds_match_the_eigvals_reference(self):
        undamped_rwa = build_rwa(SystemParamsRWA(
            omega_b=1.0, omega_d=1.0, gamma_b=0.0, gamma_d=0.0, kappa=1e-3, delta=1.0,
            G_o=2e-3, G_m=2e-3 / math.sqrt(2.0), n_B_b=25.0, n_B_d=25.0))
        for group, certified in ((MODEL_BUILDS[:2], [False, False]),
                                 (MODEL_BUILDS[2:] + [undamped_rwa], [False, True, False])):
            batch = _assert_batch_is_reference(np.stack([s.drift for s in group]),
                                               np.stack([s.diffusion for s in group]))
            assert batch.errors == [None] * len(group)
            # only the damped rwa build has a certifiably definite diffusion
            assert np.isfinite(batch.columns["decay_bound"]).tolist() == certified

    def test_bound_is_the_gershgorin_margin_over_twice_the_trace(self):
        A, D, V = (np.stack([m] * 3) for m in (-np.eye(4), np.eye(4), 0.5 * np.eye(4)))
        D[:, 0, 1] = D[:, 1, 0] = 0.25
        bound = langevin._decay_bound(A, D, V, np.array([0.0, 0.0625, 0.1875]))
        # (0.75 - 4 r) / (2 tr V); at r = 3/16 nothing is left to certify
        assert bound[:2].tolist() == [0.1875, 0.125] and np.isnan(bound[2])
        # a bound of 0.1875 is below the margin 1e-8 ||A||_inf at ||A||_inf = 2e7
        assert np.isnan(langevin._decay_bound(2e7 * A, D, V, np.zeros(3))).all()

    def test_positive_pivots_decide_definiteness(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((500, 6, 6))
        V = X @ X.swapaxes(1, 2) + rng.uniform(-4.0, 4.0, (500, 1, 1)) * np.eye(6)
        lowest = np.linalg.eigvalsh(V)[:, 0]
        clear = np.abs(lowest) > 1e-6
        assert np.array_equal(langevin._positive_definite(V)[clear], (lowest > 0.0)[clear])
        assert 100 < (lowest > 0.0).sum() < 400

    def test_fig3_bath_needs_no_eigenvalues(self, monkeypatch):
        # every point of the fig3 map with G_m <= 10 G_o, which holds the
        # optimum line G_m = G_o / sqrt(2); only the corner G_o ~ 0.05 kappa,
        # G_m ~ 5 kappa of the map is left to the eigenvalue check
        seen, decaying = [], langevin._decaying

        def counting(A):
            seen.append(len(A))
            return decaying(A)

        monkeypatch.setattr(langevin, "_decaying", counting)
        records = [fig3_params(float(ro) * _FIG3_KAPPA, float(rm) * _FIG3_KAPPA)
                   for ro in _FIG3_RATIO for rm in _FIG3_RATIO if rm <= 10.0 * ro]
        systems = langevin.build_rwa_batch(ParamsGrid.from_records(records)).columns
        batch = langevin.steady_covariance_batch(systems["drift"], systems["diffusion"])
        assert batch.errors == [None] * len(records)
        assert np.all(batch.columns["decay_bound"] > 0.0)
        assert sum(seen) == 0


class TestNonFiniteAndHugeItems:
    """Bad items are flagged one by one and leave the others' bits alone."""

    @pytest.mark.parametrize("name", ["drift", "diffusion"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_item_is_flagged_alone(self, name, bad, monkeypatch):
        A, D = np.array([-np.eye(2), np.diag([-1.0, -1.0])]), np.array([np.eye(2), np.eye(2)])
        (A if name == "drift" else D)[1, 0, 0] = bad
        batch = _stack([LinearSystem(drift=-np.eye(2), diffusion=np.eye(2), labels=("x", "p"))])
        solves, solve = [], np.linalg.solve

        def finite_solve(M, b):
            solves.append(np.isfinite(M).all() and np.isfinite(b).all())
            return solve(M, b)

        monkeypatch.setattr(np.linalg, "solve", finite_solve)
        both = langevin.steady_covariance_batch(A, D)
        # one stacked solve, and the bad item's numbers never reach LAPACK
        assert solves == [True]
        assert isinstance(both.errors[1], InvalidParams)
        assert str(both.errors[1]) == f"{name} matrix has a non-finite entry"
        assert both.errors[0] is None
        assert both.columns["matrix"][0].tobytes() == batch.columns["matrix"][0].tobytes()
        assert both.columns["residual"][0] == batch.columns["residual"][0]
        assert both.columns["backward_error"][0] == batch.columns["backward_error"][0]
        assert not both.columns["matrix"][1].any()

    def test_unstable_item_is_not_solved(self, monkeypatch):
        # a marginal rotation has a singular vech operator; it is decided
        # unstable before the solve and left out of it, so one solve sees
        # the one stable item
        rotation = LinearSystem(drift=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                diffusion=np.zeros((2, 2)), labels=("x", "p"))
        fine = LinearSystem(drift=-np.eye(2), diffusion=np.diag([0.0, 1.0]), labels=("x", "p"))
        solves, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, b: solves.append(len(M)) or solve(M, b))
        batch = _stack([fine, rotation])
        assert solves == [1]
        assert batch.errors[0] is None and isinstance(batch.errors[1], UnstableSystem)

    def test_drift_near_the_float_limit_warns_nothing(self):
        # the vech fill adds 1e308 + 1e308; the item must end in an error
        sys = LinearSystem(drift=np.array([[1e308, 1e308], [-1e308, -1e308]]),
                           diffusion=np.eye(2), labels=("x", "p"))
        with pytest.raises(OmsteadyError):
            steady_covariance(sys)
        fine = LinearSystem(drift=-np.eye(2), diffusion=np.eye(2), labels=("x", "p"))
        batch = _stack([sys, fine])
        assert isinstance(batch.errors[0], OmsteadyError) and batch.errors[1] is None
        assert batch.columns["matrix"][1].tobytes() == steady_covariance(fine).matrix.tobytes()


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
