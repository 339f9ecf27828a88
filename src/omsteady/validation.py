"""Cross-solver validation suite.

Every analytic result in :mod:`omsteady.closedform` has at least one
independent numerical route (Lyapunov steady state, adaptive spectral
quadrature, residue summation). This module runs the named agreement
checks between those routes and reports the worst scaled error per
check. The CLI `validate` subcommand prints the table and fails loudly
on any violation.

The checks are deliberately kept as separate named entries rather than
one big assertion, so a regression report points at the physics that
broke, not at a generic "validation failed".

Checks that compare solvers on model quantities evaluate each route's
grid as one list through the sweep evaluator registry, so they test
the same numeric path that sweeps and figures use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import backaction_1d, strong_coupling
from .figures import _FIG3_KAPPA, fig3_params
from .gaussian import Cov1D, decompose_1d
from .langevin import (
    LYAPUNOV_RESIDUAL_RTOL,
    NoiseMode,
    build_1d,
    build_2d,
    steady_covariance,
)
from .models import (
    SystemParams1D,
    SystemParamsRWA,
    resonant_2d_design,
    temperature_for_occupation,
)
from .spectral import (
    integrate_moments,
    integrate_moments_residue,
    position_psd,
    moment_integrals,
)
from .sweep import record_values

__all__ = ["CheckResult", "run_validation", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        # comparisons of numpy scalars leak numpy bool/float types
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))

    def row(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"{self.name:32s} {flag:4s} worst={self.worst:10.3e} tol={self.tolerance:8.1e} {self.detail}"


def _stability_bound(delta: float, kappa: float, omega_b: float = 1.0) -> float:
    """Drive strength G_o at which omega_b^2 = 2 g_o^2."""
    K = (kappa / 2.0) ** 2 + delta**2
    return omega_b * math.sqrt(K / (4.0 * delta * omega_b))


# Reference margin: G_o = 0.45 at delta = omega_b = 1, kappa = 0.2 sits at
# ~89.6% of the stability bound; the grid's strongest point keeps that
# margin at every (delta, kappa) so no grid point goes unstable.
_MARGIN = 0.45 / _stability_bound(1.0, 0.2)

_DELTAS = (0.5, 1.0, 2.0)
_KAPPAS = (0.1, 0.2, 1.0)
_G_FIXED = (0.01, 0.1, 0.3)


def _grid_1d():
    for delta in _DELTAS:
        for kappa in _KAPPAS:
            gs = _G_FIXED + (_MARGIN * _stability_bound(delta, kappa),)
            for g in gs:
                yield SystemParams1D(
                    omega_b=1.0, gamma_b=0.0, kappa=kappa, delta=delta, G_o=g
                )


def _check_lyapunov_vs_closed_form_1d() -> CheckResult:
    """Five steady-state quantities, exact formulas vs Lyapunov solve."""
    tol = 1e-10
    grid = list(_grid_1d())
    worst, where = 0.0, ""
    for p, cf, ly in zip(grid, record_values("oneD", "closed_form", grid),
                         record_values("oneD", "lyapunov", grid)):
        cov = Cov1D(xx=ly["xx"], pp=ly["pp"], xp=ly["xp"], hbar=p.hbar)
        errs = (
            abs(cov.xx - cf["xx"]) / cf["xx"],
            abs(cov.pp - cf["pp"]) / cf["pp"],
            abs(cov.xp) / math.sqrt(cov.xx * cov.pp),
            abs(ly["n_bar"] - cf["n_bar"]) / max(cf["n_bar"], 1e-3),
            abs(decompose_1d(cov).M_Omega - cf["M_Omega"]) / cf["M_Omega"],
        )
        e = max(errs)
        if e > worst:
            worst, where = e, f"delta={p.delta} kappa={p.kappa} G_o={p.G_o:.4g}"
    return CheckResult("lyapunov-vs-closed-form-1d", worst <= tol, worst, tol, where)


def _check_oracle_chain_1d() -> CheckResult:
    """Closed form, Lyapunov and spectral quadrature, pairwise on xx/pp."""
    tol = 1e-6
    grid = list(_grid_1d())
    routes = [record_values("oneD", s, grid) for s in ("closed_form", "lyapunov", "spectral")]
    worst, where = 0.0, ""
    for p, cf, ly, sp in zip(grid, *routes):
        for name in ("xx", "pp"):
            a, b, c = cf[name], ly[name], sp[name]
            e = max(abs(a - b), abs(b - c), abs(a - c)) / abs(a)
            if e > worst:
                worst, where = e, f"{name} at delta={p.delta} kappa={p.kappa} G_o={p.G_o:.4g}"
    return CheckResult("oracle-chain-1d", worst <= tol, worst, tol, where)


_G_2D = (0.01, 0.05, 0.1, 0.2, 0.3)


def _grid_2d():
    for g in _G_2D:
        for g_m_ratio in (1.0 / math.sqrt(2.0), 0.35):
            yield resonant_2d_design(omega=1.0, G_o=g, G_m=g_m_ratio * g, kappa=0.2)


def _check_oracle_chain_2d() -> CheckResult:
    """Six exact two-mode moments vs the 6x6 Lyapunov solve."""
    tol = 1e-8
    grid = list(_grid_2d())
    worst, where = 0.0, ""
    for p, cf, ly in zip(grid, record_values("twoD", "closed_form", grid),
                         record_values("twoD", "lyapunov", grid)):
        for name in ("xx_b", "pp_b", "xx_d", "pp_d", "x_b_x_d", "p_b_p_d"):
            e = abs(ly[name] - cf[name]) / max(abs(cf[name]), 1e-6)
            if e > worst:
                worst, where = e, f"{name} at G_o={p.G_o:.3g}"
    return CheckResult("oracle-chain-2d", worst <= tol, worst, tol, where)


def _check_structure_zeros_2d() -> CheckResult:
    """Position-momentum cross moments that must vanish at steady state."""
    tol = 1e-10
    worst, where = 0.0, ""
    for p in _grid_2d():
        V = steady_covariance(build_2d(p, NoiseMode.VacuumOnly)).mechanical_2d().matrix
        scale = math.sqrt(max(V[0, 0], V[2, 2]) * max(V[1, 1], V[3, 3]))
        zeros = (
            ("x_b p_b", V[0, 1]), ("x_d p_d", V[2, 3]),
            ("x_b p_d", V[0, 3]), ("x_d p_b", V[2, 1]),
        )
        for name, val in zeros:
            e = abs(val) / scale
            if e > worst:
                worst, where = e, name
    return CheckResult("steady-state-structure-2d", worst <= tol, worst, tol, where)


def _check_rwa_vs_full_model() -> CheckResult:
    """Rotating-wave 6x6 against the full two-mode model on purity."""
    tol = 1e-2
    kappa, g_o, gamma, n_b = 1e-3, 1e-2, 1e-8, 100.0
    temp = temperature_for_occupation(n_b, 1.0)
    p2 = resonant_2d_design(
        omega=1.0, G_o=g_o, G_m=g_o / math.sqrt(2.0), kappa=kappa,
        gamma=gamma, temperature=temp,
    )
    mu_full = record_values("twoD", "lyapunov", [p2])[0]["purity_2d"]
    pr = SystemParamsRWA(
        omega_b=1.0, omega_d=1.0, gamma_b=gamma, gamma_d=gamma,
        kappa=kappa, delta=1.0, G_o=g_o, G_m=g_o / math.sqrt(2.0),
        n_B_b=n_b, n_B_d=n_b,
    )
    mu_rwa = record_values("rwa", "lyapunov", [pr])[0]["purity_2d"]
    worst = abs(mu_full - mu_rwa) / mu_full
    return CheckResult(
        "rwa-vs-full-model", worst <= tol, worst, tol,
        f"mu_full={mu_full:.6f} mu_rwa={mu_rwa:.6f}",
    )


def _check_bare_occupation_dominates() -> CheckResult:
    """n_bar_0 >= n_bar for the resonantly driven single mode.

    The gap must be nonnegative everywhere, vanish toward zero drive
    and open up at strong drive (the two occupations are genuinely
    different quantities there, not one curve with rounding noise).
    """
    grid = [SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=float(g))
            for g in np.linspace(0.005, 0.45, 90)]
    gaps = [ly["n_bar_0"] - cf["n_bar"]
            for ly, cf in zip(record_values("oneD", "lyapunov", grid),
                              record_values("oneD", "closed_form", grid))]
    worst = -min(gaps)  # positive iff the ordering is violated somewhere
    passed = worst <= 0.0 and gaps[0] < 1e-4 and gaps[-1] > 1e-2
    return CheckResult(
        "bare-occupation-dominates", passed, max(worst, 0.0), 0.0,
        f"gap range [{min(gaps):.3e}, {max(gaps):.3e}]",
    )


def _check_strong_coupling_regime() -> CheckResult:
    """Normal-mode occupation converges to the exact result in its regime."""
    worst_ratio, where = 0.0, ""
    for kappa, g in ((0.02, 0.3), (0.01, 0.2), (0.002, 0.1), (0.02, 0.1)):
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=kappa, delta=1.0, G_o=g)
        sc = strong_coupling(p)
        exact = backaction_1d(p)
        rel = abs(sc.n_bar - exact.n_bar) / exact.n_bar
        bound = 10.0 * ((kappa / g) ** 2 + g**2)
        if rel / bound > worst_ratio:
            worst_ratio, where = rel / bound, f"kappa={kappa} G_o={g} rel={rel:.3e}"
    return CheckResult(
        "strong-coupling-regime", worst_ratio <= 1.0, worst_ratio, 1.0, where
    )


def _check_rwa_optimum_location() -> CheckResult:
    """Grid maximization over G_m lands within 5% of the analytic optimum.

    Evaluated on the fig3 bath.
    """
    tol = 0.05
    kappa = _FIG3_KAPPA
    worst, where = 0.0, ""
    for g_o_ratio in (2.0, 5.0):
        g_o = g_o_ratio * kappa
        target = g_o / math.sqrt(2.0)
        grid = np.linspace(0.3 * target, 2.0 * target, 120)
        purities = [s["purity_2d"] for s in record_values(
            "rwa", "lyapunov", [fig3_params(g_o, float(g)) for g in grid])]
        g_best = float(grid[int(np.argmax(purities))])
        e = abs(g_best - target) / target
        if e > worst:
            worst, where = e, f"G_o={g_o:.3g}: grid opt {g_best:.4g} vs {target:.4g}"
    (optimum,) = record_values("rwa", "closed_form", [fig3_params(2.0 * kappa, kappa)])
    formula_opt = optimum["G_m_opt"]
    assert abs(formula_opt - 2.0 * kappa / math.sqrt(2.0)) < 1e-15
    return CheckResult("rwa-optimum-location", worst <= tol, worst, tol, where)


def _check_psd_nonnegative() -> CheckResult:
    """S_xx(omega) >= 0 everywhere on stable parameter sets."""
    worst = 0.0
    omegas = np.linspace(-8.0, 8.0, 4001)
    cases = (
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
        SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.5, delta=0.7, G_o=0.1,
                       temperature=temperature_for_occupation(10.0, 1.0)),
        SystemParams1D(omega_b=1.0, gamma_b=1e-2, kappa=1.0, delta=2.0, G_o=0.3),
    )
    for p in cases:
        s = position_psd(omegas, p)
        worst = min(worst, float(np.min(s)))
    return CheckResult("psd-nonnegative", worst >= 0.0, abs(worst), 0.0, "")


def _check_residue_vs_quadrature() -> CheckResult:
    """Contour integration vs adaptive quadrature on undamped cases."""
    tol = 1e-8
    worst, where = 0.0, ""
    for p in (
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.1, delta=0.5, G_o=0.2),
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=1.0, delta=2.0, G_o=0.3),
    ):
        quad = integrate_moments(p)
        res = integrate_moments_residue(p)
        for name in ("xx", "pp"):
            e = abs(getattr(quad, name) - getattr(res, name)) / getattr(res, name)
            if e > worst:
                worst, where = e, f"{name} at kappa={p.kappa} delta={p.delta}"
    return CheckResult("residue-vs-quadrature", worst <= tol, worst, tol, where)


def _check_quadrature_convergence() -> CheckResult:
    """Halving rel_tol moves the result by less than the error estimate."""
    ok = True
    worst, where = 0.0, ""
    for p in (
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
        SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.2, delta=1.0, G_o=0.05,
                       temperature=temperature_for_occupation(5.0, 1.0)),
    ):
        coarse = moment_integrals(p, rel_tol=1e-12)
        fine = moment_integrals(p, rel_tol=5e-13)
        for name in ("xx", "pp"):
            shift = abs(coarse[name] - fine[name])
            budget = coarse["err_" + name] + fine["err_" + name]
            ratio = shift / budget if budget > 0 else 0.0
            if ratio > worst:
                worst, where = ratio, name
            ok = ok and shift <= budget
    return CheckResult("quadrature-convergence", ok, worst, 1.0, where)


def _check_sideband_asymmetry() -> CheckResult:
    """At T=0 the spectrum at -omega_b is positive but strongly suppressed."""
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.3)
    ratio = float(position_psd(-p.omega_b, p)) / float(position_psd(p.omega_b, p))
    passed = 0.0 < ratio < 1.0
    return CheckResult("sideband-asymmetry", passed, ratio, 1.0,
                       "S(-omega_b)/S(+omega_b)")


def _check_lyapunov_residual() -> CheckResult:
    """Residual of A V + V A^T + D = 0 stays within the solver's bound."""
    worst, where = 0.0, ""
    systems = [build_1d(p, NoiseMode.VacuumOnly) for p in _grid_1d()]
    systems += [build_2d(p, NoiseMode.VacuumOnly) for p in _grid_2d()]
    for sys in systems:
        V = steady_covariance(sys).matrix
        resid = float(np.abs(sys.drift @ V + V @ sys.drift.T + sys.diffusion).max())
        scaled = resid / np.abs(sys.diffusion).max()
        if scaled > worst:
            worst, where = scaled, f"dim={sys.dim}"
    return CheckResult(
        "lyapunov-residual", worst <= LYAPUNOV_RESIDUAL_RTOL, worst,
        LYAPUNOV_RESIDUAL_RTOL, where,
    )


_CHECKS = (
    ("lyapunov-vs-closed-form-1d", _check_lyapunov_vs_closed_form_1d),
    ("oracle-chain-1d", _check_oracle_chain_1d),
    ("oracle-chain-2d", _check_oracle_chain_2d),
    ("steady-state-structure-2d", _check_structure_zeros_2d),
    ("rwa-vs-full-model", _check_rwa_vs_full_model),
    ("bare-occupation-dominates", _check_bare_occupation_dominates),
    ("strong-coupling-regime", _check_strong_coupling_regime),
    ("rwa-optimum-location", _check_rwa_optimum_location),
    ("psd-nonnegative", _check_psd_nonnegative),
    ("residue-vs-quadrature", _check_residue_vs_quadrature),
    ("quadrature-convergence", _check_quadrature_convergence),
    ("sideband-asymmetry", _check_sideband_asymmetry),
    ("lyapunov-residual", _check_lyapunov_residual),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_validation(names: tuple[str, ...] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results."""
    selected = set(names) if names is not None else set(CHECK_NAMES)
    unknown = selected - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown validation checks: {sorted(unknown)}")
    return [fn() for name, fn in _CHECKS if name in selected]
