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
grid through the sweep evaluator registry, as one list of records
(sweep.evaluate_records) or as the points of one record
(sweep.evaluate_axes), so they test the same numeric path that sweeps
and figures use, and compare the routes as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import strong_coupling
from .gaussian import Cov1D, decompose_1d
from .langevin import LYAPUNOV_RESIDUAL_RTOL, build_1d, build_2d, steady_covariance
from .models import (
    SystemParams1D,
    SystemParamsRWA,
    resonant_2d_design,
    temperature_for_occupation,
)
from .spectral import (
    integrate_moments_residue,
    position_psd,
    moment_integrals,
)
from .sweep import evaluate_axes, evaluate_records, grid_points

__all__ = ["CheckResult", "run_validation", "CHECK_NAMES", "fig3_params"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check, or of a figure's paired check."""

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


def _columns(model: str, solver: str, records: list) -> dict:
    """The pair's columns over records that must all settle; raises the
    error of the first record that does not."""
    return _settled(evaluate_records(model, solver, records))


def _grid_columns(model: str, solver: str, base, names: list, points) -> dict:
    """_columns over the points of base: the records that set its named
    parameters to each point's values (see ParamsGrid.from_axes)."""
    return _settled(evaluate_axes(model, solver, base, names, points))


def _settled(batch) -> dict:
    for e in batch.errors:
        if e is not None:
            raise e
    return batch.columns


def _worst(errors: np.ndarray, where) -> tuple[float, str]:
    """The largest error, and where(*i) at the first index i that has it
    ('' when it is 0), as a loop over the items in index order finds it."""
    i = np.unravel_index(np.argmax(errors), errors.shape)
    worst = float(errors[i])
    return worst, where(*(int(j) for j in i)) if worst > 0 else ""


# The fig3 bath: kappa = 1e-3, gamma_tot/kappa = 1e-9, n_B gamma_tot/kappa = 0.05.
_FIG3_KAPPA = 1e-3
_FIG3_GAMMA_TOT = 1e-9 * _FIG3_KAPPA
_FIG3_NB = 0.05 * _FIG3_KAPPA / _FIG3_GAMMA_TOT


def fig3_params(g_o: float, g_m: float) -> SystemParamsRWA:
    """Rotating-wave record with the fig3 bath at coupling rates G_o, G_m."""
    return SystemParamsRWA(
        omega_b=1.0, omega_d=1.0,
        gamma_b=_FIG3_GAMMA_TOT / 2.0, gamma_d=_FIG3_GAMMA_TOT / 2.0,
        kappa=_FIG3_KAPPA, delta=1.0, G_o=g_o, G_m=g_m,
        n_B_b=_FIG3_NB, n_B_d=_FIG3_NB,
    )


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


def _grid_1d() -> list:
    return [SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=kappa, delta=delta, G_o=g)
            for delta in _DELTAS for kappa in _KAPPAS
            for g in _G_FIXED + (_MARGIN * _stability_bound(delta, kappa),)]


def _check_lyapunov_vs_closed_form_1d() -> CheckResult:
    """Five steady-state quantities, exact formulas vs Lyapunov solve."""
    tol = 1e-10
    grid = _grid_1d()
    cf, ly = (_columns("oneD", s, grid) for s in ("closed_form", "lyapunov"))
    m_omega = np.array([decompose_1d(Cov1D(xx, pp, xp, p.hbar)).M_Omega for p, xx, pp, xp in zip(
        grid, ly["xx"].tolist(), ly["pp"].tolist(), ly["xp"].tolist())])
    errs = np.max([
        abs(ly["xx"] - cf["xx"]) / cf["xx"],
        abs(ly["pp"] - cf["pp"]) / cf["pp"],
        abs(ly["xp"]) / np.sqrt(ly["xx"] * ly["pp"]),
        abs(ly["n_bar"] - cf["n_bar"]) / np.maximum(cf["n_bar"], 1e-3),
        abs(m_omega - cf["M_Omega"]) / cf["M_Omega"],
    ], axis=0)
    worst, where = _worst(errs, lambda k: f"delta={grid[k].delta} kappa={grid[k].kappa} "
                                          f"G_o={grid[k].G_o:.4g}")
    return CheckResult("lyapunov-vs-closed-form-1d", worst <= tol, worst, tol, where)


def _check_oracle_chain_1d() -> CheckResult:
    """Closed form, Lyapunov and spectral quadrature, pairwise on xx/pp."""
    tol = 1e-6
    grid = _grid_1d()
    a, b, c = (_columns("oneD", s, grid) for s in ("closed_form", "lyapunov", "spectral"))
    names = ("xx", "pp")
    errs = np.stack([np.maximum.reduce([abs(a[q] - b[q]), abs(b[q] - c[q]), abs(a[q] - c[q])])
                     / abs(a[q]) for q in names], axis=1)
    worst, where = _worst(errs, lambda k, j: f"{names[j]} at delta={grid[k].delta} "
                                             f"kappa={grid[k].kappa} G_o={grid[k].G_o:.4g}")
    return CheckResult("oracle-chain-1d", worst <= tol, worst, tol, where)


_G_2D = (0.01, 0.05, 0.1, 0.2, 0.3)


def _grid_2d() -> list:
    return [resonant_2d_design(omega=1.0, G_o=g, G_m=g_m_ratio * g, kappa=0.2)
            for g, g_m_ratio in grid_points([_G_2D, (1.0 / math.sqrt(2.0), 0.35)]).tolist()]


def _check_oracle_chain_2d() -> CheckResult:
    """Six exact two-mode moments vs the 6x6 Lyapunov solve."""
    tol = 1e-8
    grid = _grid_2d()
    cf, ly = (_columns("twoD", s, grid) for s in ("closed_form", "lyapunov"))
    names = ("xx_b", "pp_b", "xx_d", "pp_d", "x_b_x_d", "p_b_p_d")
    errs = np.stack([abs(ly[q] - cf[q]) / np.maximum(abs(cf[q]), 1e-6) for q in names], axis=1)
    worst, where = _worst(errs, lambda k, j: f"{names[j]} at G_o={grid[k].G_o:.3g}")
    return CheckResult("oracle-chain-2d", worst <= tol, worst, tol, where)


def _check_structure_zeros_2d() -> CheckResult:
    """Position-momentum cross moments that must vanish at steady state."""
    tol = 1e-10
    V = np.array([steady_covariance(build_2d(p)).mechanical_2d().matrix for p in _grid_2d()])
    scale = np.sqrt(np.maximum(V[:, 0, 0], V[:, 2, 2]) * np.maximum(V[:, 1, 1], V[:, 3, 3]))
    names = ("x_b p_b", "x_d p_d", "x_b p_d", "x_d p_b")
    errs = abs(V[:, [0, 2, 0, 2], [1, 3, 3, 1]]) / scale[:, None]
    worst, where = _worst(errs, lambda k, j: names[j])
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
    (mu_full,) = _columns("twoD", "lyapunov", [p2])["purity_2d"]
    pr = SystemParamsRWA(
        omega_b=1.0, omega_d=1.0, gamma_b=gamma, gamma_d=gamma,
        kappa=kappa, delta=1.0, G_o=g_o, G_m=g_o / math.sqrt(2.0),
        n_B_b=n_b, n_B_d=n_b,
    )
    (mu_rwa,) = _columns("rwa", "lyapunov", [pr])["purity_2d"]
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
    g_o = np.linspace(0.005, 0.45, 90)
    base = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.005)
    gaps = _grid_columns("oneD", "lyapunov", base, ["G_o"], g_o)["n_bar_0"] - _grid_columns(
        "oneD", "closed_form", base, ["G_o"], g_o)["n_bar"]
    worst = -gaps.min()  # positive iff the ordering is violated somewhere
    passed = worst <= 0.0 and gaps[0] < 1e-4 and gaps[-1] > 1e-2
    return CheckResult(
        "bare-occupation-dominates", passed, max(worst, 0.0), 0.0,
        f"gap range [{gaps.min():.3e}, {gaps.max():.3e}]",
    )


def _check_strong_coupling_regime() -> CheckResult:
    """Normal-mode occupation converges to the exact result in its regime."""
    cases = ((0.02, 0.3), (0.01, 0.2), (0.002, 0.1), (0.02, 0.1))
    grid = [SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=kappa, delta=1.0, G_o=g)
            for kappa, g in cases]
    exact = _columns("oneD", "closed_form", grid)["n_bar"]
    rel = abs(np.array([strong_coupling(p).n_bar for p in grid]) - exact) / exact
    ratio = rel / [10.0 * ((kappa / g) ** 2 + g**2) for kappa, g in cases]
    worst, where = _worst(ratio, lambda k: f"kappa={cases[k][0]} G_o={cases[k][1]} "
                                           f"rel={rel[k]:.3e}")
    return CheckResult("strong-coupling-regime", worst <= 1.0, worst, 1.0, where)


def _check_rwa_optimum_location() -> CheckResult:
    """Grid maximization over G_m lands within 5% of the analytic optimum.

    For each G_o, the Lyapunov purity on a 120-point G_m grid around the
    closed form's G_m_opt peaks within 5% of G_m_opt. Evaluated on the
    fig3 bath.
    """
    tol = 0.05
    g_o = [2.0 * _FIG3_KAPPA, 5.0 * _FIG3_KAPPA]
    target = _columns("rwa", "closed_form", [fig3_params(g, _FIG3_KAPPA) for g in g_o])["G_m_opt"]
    grid = np.linspace(0.3 * target, 2.0 * target, 120, axis=1)
    points = np.column_stack([np.repeat(g_o, grid.shape[1]), grid.ravel()])
    purity = _grid_columns("rwa", "lyapunov", fig3_params(g_o[0], _FIG3_KAPPA), ["G_o", "G_m"],
                           points)["purity_2d"]
    g_best = grid[np.arange(len(g_o)), purity.reshape(grid.shape).argmax(axis=1)]
    worst, where = _worst(abs(g_best - target) / target, lambda k: (
        f"G_o={g_o[k]:.3g}: grid opt {g_best[k]:.4g} vs {target[k]:.4g}"))
    return CheckResult("rwa-optimum-location", worst <= tol, worst, tol, where)


def _check_psd_nonnegative() -> CheckResult:
    """S_xx(omega) >= 0 everywhere on stable parameter sets."""
    omegas = np.linspace(-8.0, 8.0, 4001)
    cases = (
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
        SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.5, delta=0.7, G_o=0.1,
                       temperature=temperature_for_occupation(10.0, 1.0)),
        SystemParams1D(omega_b=1.0, gamma_b=1e-2, kappa=1.0, delta=2.0, G_o=0.3),
    )
    worst = min(0.0, *(float(np.min(position_psd(omegas, p))) for p in cases))
    return CheckResult("psd-nonnegative", worst >= 0.0, abs(worst), 0.0, "")


def _check_residue_vs_quadrature() -> CheckResult:
    """Contour integration vs adaptive quadrature on undamped cases."""
    tol = 1e-8
    grid = [
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.1, delta=0.5, G_o=0.2),
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=1.0, delta=2.0, G_o=0.3),
    ]
    names = ("xx", "pp")
    quad = _columns("oneD", "spectral", grid)
    res = np.array([[getattr(integrate_moments_residue(p), q) for q in names] for p in grid])
    errs = abs(np.stack([quad[q] for q in names], axis=1) - res) / res
    worst, where = _worst(errs, lambda k, j: f"{names[j]} at kappa={grid[k].kappa} "
                                             f"delta={grid[k].delta}")
    return CheckResult("residue-vs-quadrature", worst <= tol, worst, tol, where)


def _check_quadrature_convergence() -> CheckResult:
    """Halving rel_tol moves the result by less than the error estimate."""
    names = ("xx", "pp")
    runs = [(moment_integrals(p, rel_tol=1e-12), moment_integrals(p, rel_tol=5e-13)) for p in (
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4),
        SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.2, delta=1.0, G_o=0.05,
                       temperature=temperature_for_occupation(5.0, 1.0)),
    )]
    shift = np.array([[abs(coarse[q] - fine[q]) for q in names] for coarse, fine in runs])
    budget = np.array([[coarse["err_" + q] + fine["err_" + q] for q in names]
                       for coarse, fine in runs])
    worst, where = _worst(shift / np.where(budget > 0, budget, np.inf), lambda k, j: names[j])
    return CheckResult("quadrature-convergence", np.all(shift <= budget), worst, 1.0, where)


def _check_sideband_asymmetry() -> CheckResult:
    """At T=0 the spectrum at -omega_b is positive but strongly suppressed."""
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.3)
    ratio = float(position_psd(-p.omega_b, p)) / float(position_psd(p.omega_b, p))
    passed = 0.0 < ratio < 1.0
    return CheckResult("sideband-asymmetry", passed, ratio, 1.0,
                       "S(-omega_b)/S(+omega_b)")


def _check_lyapunov_residual() -> CheckResult:
    """Residual of A V + V A^T + D = 0 stays within the solver's bound."""
    systems = [build_1d(p) for p in _grid_1d()]
    systems += [build_2d(p) for p in _grid_2d()]
    covariances = [steady_covariance(sys).matrix for sys in systems]
    scaled = np.array([np.abs(s.drift @ V + V @ s.drift.T + s.diffusion).max()
                       / np.abs(s.diffusion).max() for s, V in zip(systems, covariances)])
    worst, where = _worst(scaled, lambda k: f"dim={systems[k].dim}")
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
