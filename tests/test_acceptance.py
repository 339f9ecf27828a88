"""End-to-end acceptance checks for the headline results.

Every test here covers one deliverable of the package: it exercises a
full computation route (not a unit), enforces the quoted tolerance and
runtime budget, and prints a single verdict line so the run log reads
as a checklist. Run with ``pytest tests/test_acceptance.py -v``.

The rotating-wave plateau check compares against the exact large-
cooperativity limit 1/(1 + 2h)^2 with h = gamma_tot * n_B / kappa. At
G_m = G_o/sqrt(2) the cavity a and the mechanical modes b, d form a
chain whose three normal modes (frequencies 0 and
+/-sqrt(G_o^2 + G_m^2)) each carry cavity weight 1/3. Each normal mode
is therefore damped at kappa/3 and heated at gamma_tot * n_B / 3, so it
settles at occupation h. Three equally occupied thermal modes form an
isotropic state in any basis, so the reduced (b, d) state is two
thermal modes at h and 1/mu = (1 + 2h)^2. The familiar 1/(1 + 4h)
(1/1.2 at h = 0.05) is the first-order form of that product.
"""

import math
import time

import numpy as np
import pytest

from omsteady.closedform import (
    backaction_1d,
    backaction_2d,
    bare_occupation,
    weak_coupling,
)
from omsteady.errors import UncertaintyViolation
from omsteady.figures import fig3_params
from omsteady.gaussian import (
    Cov1D,
    Cov2D,
    Summary2D,
    decompose_1d,
    occupation_and_purity_1d,
    purity_2d_general,
    wavefunction,
)
from omsteady.langevin import (
    NoiseMode,
    build_1d,
    build_rwa,
    stability,
    steady_covariance,
)
from omsteady.models import (
    SystemParams1D,
    g_o_squared,
    resonant_2d_design,
    temperature_for_occupation,
)
from omsteady.spectral import integrate_moments
from omsteady.sweep import with_param


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _params_1d(g_o: float, kappa: float = 0.2) -> SystemParams1D:
    return SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=kappa, delta=1.0,
                          G_o=g_o)


def test_lyapunov_reproduces_closed_form_occupation():
    t0 = time.perf_counter()
    worst = 0.0
    for kappa in (0.1, 0.2, 1.0):
        for g_o in (0.01, 0.1, 0.3, 0.45):
            p = _params_1d(g_o, kappa)
            cov = steady_covariance(build_1d(p, NoiseMode.VacuumOnly))
            n_num, _ = occupation_and_purity_1d(cov.mechanical_1d())
            n_exact = backaction_1d(p).n_bar
            worst = max(worst, abs(n_num - n_exact) / n_exact)
    elapsed = time.perf_counter() - t0

    ok = _verdict("lyapunov vs closed-form occupation", worst <= 1e-8,
                  f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert ok, f"worst relative error {worst:.3e} exceeds 1e-8"
    assert elapsed < 1.0, f"runtime budget 1 s exceeded: {elapsed:.2f}s"


def test_cooling_curve_limits_and_reference_point():
    t0 = time.perf_counter()
    grid = np.concatenate(([1e-4], np.linspace(0.01, 0.45, 45)))
    n_bar = np.empty_like(grid)
    n_0 = np.empty_like(grid)
    for i, g_o in enumerate(grid):
        r = backaction_1d(_params_1d(float(g_o)))
        n_bar[i] = r.n_bar
        n_0[i] = bare_occupation(Cov1D(r.xx, r.pp, 0.0), omega=1.0)
    elapsed = time.perf_counter() - t0

    at_04 = int(np.argmin(np.abs(grid - 0.4)))
    assert grid[at_04] == pytest.approx(0.4, abs=1e-12)

    limit_ok = (abs(n_bar[0] - 0.0025) <= 1e-6
                and abs(n_0[0] - 0.0025) <= 1e-6)
    ref_ok = (abs(n_bar[at_04] - 0.1870) <= 1e-3
              and abs(n_0[at_04] - 0.2209) <= 1e-3)
    order_ok = bool(np.all(n_0 >= n_bar - 1e-15))

    ok = _verdict(
        "cooling curve weak limit and reference drive",
        limit_ok and ref_ok and order_ok,
        f"n(0+)={n_bar[0]:.7f}, n(0.4)={n_bar[at_04]:.4f}, "
        f"n0(0.4)={n_0[at_04]:.4f}, {elapsed:.2f}s")
    assert ok, (limit_ok, ref_ok, order_ok)
    assert elapsed < 5.0, f"runtime budget 5 s exceeded: {elapsed:.2f}s"


def test_two_mode_purity_split_reference_points():
    t0 = time.perf_counter()

    def deviations(g_o):
        p = resonant_2d_design(omega=1.0, G_o=g_o, G_m=g_o / math.sqrt(2.0),
                               kappa=0.2)
        r = backaction_2d(p)
        return 1.0 - r.purity_2d, 1.0 - r.purity_product

    joint_weak, product_weak = deviations(0.01)
    joint, product = deviations(0.2)
    elapsed = time.perf_counter() - t0

    ref_ok = abs(joint - 0.081) <= 0.002 and abs(product - 0.103) <= 0.002
    split_weak = abs(product_weak - joint_weak) / joint_weak
    split = abs(product - joint) / joint
    split_ok = split_weak <= 0.01 and split > 0.20

    ok = _verdict(
        "two-mode purity measures split with drive",
        ref_ok and split_ok,
        f"1-mu2D={joint:.4f}, 1-mu_b*mu_d={product:.4f}, "
        f"split {split_weak:.2%} weak / {split:.2%} strong, {elapsed:.2f}s")
    assert ok, (ref_ok, split_weak, split)
    assert elapsed < 5.0, f"runtime budget 5 s exceeded: {elapsed:.2f}s"


# rotating-wave checks run on the fig3 bath (figures.fig3_params):
# gamma_tot/kappa = 1e-9 and n_B chosen so gamma_tot * n_B / kappa = 0.05;
# the constants restate it for the expected values
_RWA_KAPPA = 1e-3
_RWA_GAMMA_TOT = 1e-9 * _RWA_KAPPA
_RWA_NB = 0.05 * _RWA_KAPPA / _RWA_GAMMA_TOT


def _rwa_summary(g_o: float, g_m: float) -> Summary2D:
    cov = steady_covariance(build_rwa(fig3_params(g_o, g_m))).mechanical_2d()
    return purity_2d_general(cov)


def test_rwa_purity_plateau_at_large_cooperativity():
    t0 = time.perf_counter()
    ladder = [0.02, 0.05, 0.1, 0.2]
    summaries = [_rwa_summary(g, g / math.sqrt(2.0)) for g in ladder]
    elapsed = time.perf_counter() - t0

    modal = summaries[-1]
    plateau = modal.purity_2d
    h = _RWA_GAMMA_TOT * _RWA_NB / _RWA_KAPPA
    target = 1.0 / (1.0 + 2.0 * h) ** 2
    coop = 4.0 * ladder[-1] ** 2 / (_RWA_KAPPA * _RWA_GAMMA_TOT)
    ok = _verdict(
        "rwa purity plateau at large cooperativity",
        abs(plateau - target) <= 0.005,
        f"plateau {plateau:.6f} at C_o={coop:.1e}, target {target:.6f} "
        f"+/- 0.005, N+={modal.N_plus:.5f}, N-={modal.N_minus:.5f}, "
        f"{elapsed:.2f}s")
    assert ok, (
        f"plateau is {plateau:.6f}, expected 1/(1 + 2h)^2 = {target:.6f} "
        f"with h = gamma_tot*n_B/kappa = {h:g}: each of the three normal "
        "modes of the a-b-d chain carries cavity weight 1/3 and settles at "
        "occupation h, so 1/mu = (1 + 2h)^2 (1/(1 + 4h) is its first-order "
        "form)")
    for name, n_mode in (("N_plus", modal.N_plus), ("N_minus", modal.N_minus)):
        assert abs(n_mode - h) <= 1e-3, (
            f"{name} = {n_mode:.6f}, expected modal occupation h = {h:g}")
    assert elapsed < 30.0, f"runtime budget 30 s exceeded: {elapsed:.2f}s"


def test_rwa_grid_optimum_location():
    t0 = time.perf_counter()
    g_o = 5.0 * _RWA_KAPPA
    ratios = np.logspace(math.log10(0.05), math.log10(5.0), 50)
    best_purity, best_gm = max(
        (_rwa_summary(g_o, float(r) * _RWA_KAPPA).purity_2d,
         float(r) * _RWA_KAPPA)
        for r in ratios)
    elapsed = time.perf_counter() - t0

    target = g_o / math.sqrt(2.0)
    rel = abs(best_gm - target) / target
    ok = _verdict(
        "rwa grid optimum near G_o/sqrt(2)",
        rel <= 0.05,
        f"best G_m={best_gm:.3e} vs {target:.3e} ({rel:.2%}), "
        f"purity {best_purity:.4f}, {elapsed:.2f}s")
    assert ok, f"grid optimum off by {rel:.2%}"
    assert elapsed < 30.0, f"runtime budget 30 s exceeded: {elapsed:.2f}s"


def test_spectral_integration_cross_checks():
    t0 = time.perf_counter()

    worst_vac = 0.0
    for kappa, g_o in ((0.2, 0.4), (1.0, 0.3), (0.1, 0.05)):
        p = _params_1d(g_o, kappa)
        mom = integrate_moments(p)
        ref = steady_covariance(build_1d(p, NoiseMode.VacuumOnly)).mechanical_1d()
        worst_vac = max(worst_vac,
                        abs(mom.xx - ref.xx) / ref.xx,
                        abs(mom.pp - ref.pp) / ref.pp)

    p_th = SystemParams1D(
        omega_b=1.0, gamma_b=1e-6, kappa=0.2, delta=1.0, G_o=0.005,
        temperature=temperature_for_occupation(10.0, 1.0))
    n_spec, _ = occupation_and_purity_1d(integrate_moments(p_th))
    n_weak = weak_coupling(p_th).n_bar
    rel_th = abs(n_spec - n_weak) / n_weak
    elapsed = time.perf_counter() - t0

    ok = _verdict(
        "spectral integration vs lyapunov and weak coupling",
        worst_vac <= 1e-6 and rel_th <= 0.01,
        f"vacuum worst rel {worst_vac:.2e}, thermal rel {rel_th:.2%}, "
        f"{elapsed:.2f}s")
    assert ok, (worst_vac, rel_th)
    assert elapsed < 10.0, f"runtime budget 10 s exceeded: {elapsed:.2f}s"


def _cov_1d(n_bar, theta, x_zpf, hbar):
    p_zpf = hbar / (2.0 * x_zpf * math.cos(theta))
    t = 2.0 * n_bar + 1.0
    return Cov1D(xx=x_zpf**2 * t, pp=p_zpf**2 * t,
                 xp=math.sin(theta) * x_zpf * p_zpf * t, hbar=hbar)


def _mode_mix(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, s],
        [-s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])


def _phase_rot(beta, mode):
    c, s = math.cos(beta), math.sin(beta)
    out = np.eye(4)
    sl = slice(2 * mode, 2 * mode + 2)
    out[sl, sl] = [[c, s], [-s, c]]
    return out


def test_gaussian_core_randomized_properties():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    cases = 0

    # decomposition round trip and the uncertainty relation on 450
    # randomly parameterized correlated thermal states
    worst_rt = 0.0
    for _ in range(450):
        n_bar = rng.uniform(0.0, 50.0)
        theta = rng.uniform(-1.45, 1.45)
        x_zpf = rng.uniform(0.05, 20.0)
        hbar = float(rng.choice([1.0, 0.5]))
        cov = _cov_1d(n_bar, theta, x_zpf, hbar)
        assert cov.xx * cov.pp - cov.xp**2 >= hbar * hbar / 4.0 * (1 - 1e-12)
        dec = decompose_1d(cov)
        t = 2.0 * dec.n_bar + 1.0
        rebuilt = (dec.x_zpf**2 * t, dec.p_zpf**2 * t,
                   math.sin(dec.theta) * dec.x_zpf * dec.p_zpf * t)
        for got, want in zip(rebuilt, (cov.xx, cov.pp, cov.xp)):
            worst_rt = max(worst_rt, abs(got - want) / max(abs(want), 1e-300))
        cases += 1

    # states below the uncertainty bound must be rejected, not clamped
    for _ in range(50):
        deficit = rng.uniform(1e-3, 0.4)
        bad = _cov_1d(0.0, 0.0, rng.uniform(0.3, 3.0), 1.0)
        with pytest.raises(UncertaintyViolation):
            decompose_1d(Cov1D(bad.xx, bad.pp * (1.0 - deficit) ** 2, 0.0))
        cases += 1

    # two-mode purity: determinant route equals the symplectic-modal
    # route, and both are invariant under local phase rotations
    worst_route = 0.0
    worst_rot = 0.0
    for _ in range(400):
        nu = rng.uniform(0.5, 40.0, 2)
        r1, r2 = rng.uniform(-1.5, 1.5, 2)
        S = (_phase_rot(rng.uniform(-3, 3), 0)
             @ _mode_mix(rng.uniform(-3, 3))
             @ np.diag([math.exp(r1), math.exp(-r1),
                        math.exp(r2), math.exp(-r2)]))
        V = S @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ S.T
        s = purity_2d_general(Cov2D(V, hbar=1.0))
        mu_modes = 1.0 / ((2 * s.N_plus + 1) * (2 * s.N_minus + 1))
        worst_route = max(worst_route,
                          abs(mu_modes - s.purity_2d) / s.purity_2d)
        R = _phase_rot(rng.uniform(-3, 3), 0) @ _phase_rot(rng.uniform(-3, 3), 1)
        s_rot = purity_2d_general(Cov2D(R @ V @ R.T, hbar=1.0))
        worst_rot = max(worst_rot,
                        abs(s_rot.purity_2d - s.purity_2d) / s.purity_2d)
        cases += 1

    # wavefunction orthonormality through n = 4 on a trapezoid grid
    worst_orth = 0.0
    for _ in range(12):
        dec = decompose_1d(_cov_1d(rng.uniform(0.0, 2.0),
                                   rng.uniform(-1.0, 1.0),
                                   rng.uniform(0.3, 3.0), 1.0))
        x = np.linspace(-10.0, 10.0, 3001) / math.sqrt(dec.lambda_re)
        psi = [wavefunction(n, dec, 0.0, x) for n in range(5)]
        for m in range(5):
            for n in range(m, 5):
                overlap = np.trapezoid(np.conj(psi[m]) * psi[n], x)
                worst_orth = max(worst_orth,
                                 abs(overlap - (1.0 if m == n else 0.0)))
                cases += 1
    elapsed = time.perf_counter() - t0

    ok = _verdict(
        "gaussian core randomized property suite",
        (cases >= 1000 and worst_rt <= 1e-12 and worst_route <= 1e-10
         and worst_rot <= 1e-12 and worst_orth <= 1e-6),
        f"{cases} cases, round-trip {worst_rt:.1e}, routes {worst_route:.1e}, "
        f"rotation {worst_rot:.1e}, orthonormality {worst_orth:.1e}, "
        f"{elapsed:.2f}s")
    assert ok, (cases, worst_rt, worst_route, worst_rot, worst_orth)
    assert elapsed < 10.0, f"runtime budget 10 s exceeded: {elapsed:.2f}s"


def test_stability_flip_location():
    t0 = time.perf_counter()
    base = _params_1d(0.01)
    # the closed-form position variance diverges where the softened
    # frequency crosses zero: omega_b^2 = 2 g_o^2, solved for G_o
    g_star = math.sqrt(1.0 / (2.0 * g_o_squared(with_param(base, "G_o", 1.0))))
    grid = np.arange(0.49, 0.52 + 1e-12, 1e-4)
    flags = [stability(build_1d(with_param(base, "G_o", float(g)),
                                NoiseMode.VacuumOnly)) for g in grid]
    flips = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    elapsed = time.perf_counter() - t0

    single = len(flips) == 1 and flags[0] and not flags[-1]
    lo = grid[flips[0]] if flips else math.nan
    hi = grid[flips[0] + 1] if flips else math.nan
    within = single and lo <= g_star <= hi + 1e-12

    ok = _verdict(
        "stability flip at the frequency-softening point",
        within,
        f"flip in [{lo:.6f}, {hi:.6f}], analytic {g_star:.6f}, {elapsed:.2f}s")
    assert ok, (flips, lo, hi, g_star)
    assert elapsed < 2.0, f"runtime budget 2 s exceeded: {elapsed:.2f}s"
