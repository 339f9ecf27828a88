"""Analytic steady-state results, usable as fast evaluators and as
independent oracles for the numerical solvers.

Four regimes are covered for the single-mode system: weak coupling
(optical spring fixed point plus Lorentzian occupation), strong
coupling (normal-mode picture), and the exact backaction limit for
arbitrary coupling. For the two-mode system the exact backaction
moment set and both purity measures are provided, plus the optimum of
the rotating-wave model. Everything here is closed-form arithmetic
except the optical-spring fixed point, which is a damped scalar
iteration. The backaction limits and the rotating-wave optimum are
evaluated on a ParamsGrid's columns (the *_batch functions, each
returning an errors.Batch), and their record functions are grids of
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from types import SimpleNamespace

import numpy as np

from .errors import (Batch, DegenerateState, FixedPointDivergence, InvalidParams,
                     InvalidRegime, UndampedDarkMode, UnstableRegime, flag_first)
from .gaussian import Cov1D, summary_2d_batch
from .models import (
    ParamsGrid,
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    _settle_1d,
    bright_dark,
    g_o_squared,
    planck,
)
from .spectral import cavity_self_energy, cavity_susceptibility

__all__ = [
    "WeakCouplingResult",
    "StrongCouplingResult",
    "Backaction1DResult",
    "Backaction2DResult",
    "weak_coupling",
    "strong_coupling",
    "backaction_1d",
    "backaction_1d_batch",
    "backaction_2d",
    "backaction_2d_batch",
    "bare_occupation",
    "bare_occupation_batch",
    "rwa_optimum",
    "rwa_optimum_batch",
]


@dataclass(frozen=True)
class WeakCouplingResult:
    """Effective oscillator after adiabatic elimination of the cavity."""

    omega_tilde: float
    gamma_tilde: float
    n_bar: float
    x_zpf_eff: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class StrongCouplingResult:
    """Normal-mode (polariton) description at resonant detuning."""

    omega_plus: float
    omega_minus: float
    kappa_plus: float
    kappa_minus: float
    n_plus: float
    n_minus: float
    n_bar: float
    n_bar_0: float


@dataclass(frozen=True)
class Backaction1DResult:
    """Exact vacuum-noise-dominated steady state of the single mode."""

    xx: float
    pp: float
    n_bar: float
    purity: float
    M_Omega: float
    n_min_weak: float


@dataclass(frozen=True)
class Backaction2DResult:
    """Exact vacuum-noise-dominated steady state of the two-mode trap."""

    xx_b: float
    xx_d: float
    pp_b: float
    pp_d: float
    x_b_x_d: float
    p_b_p_d: float
    purity_2d: float
    purity_product: float


_FIXED_POINT_RTOL = 1e-12
_FIXED_POINT_MAX_ITER = 10_000
_FIXED_POINT_DAMPING = 0.5

#: Bound on the relative rounding of a difference of two float products.
_ROUNDING = 4.0 * np.finfo(float).eps


def weak_coupling(params: SystemParams1D) -> WeakCouplingResult:
    """Effective frequency, linewidth and occupation at weak coupling.

    The renormalized frequency solves the optical-spring equation

        w~^2 = omega_b^2 + (hbar lambda_o^2 / m) Im[chi_c(w~) - chi_c*(-w~)]

    by damped fixed-point iteration (damping 0.5, relative tolerance
    1e-12), seeded at the bare frequency so the branch continuously
    connected to omega_b is selected when several fixed points exist.
    The linewidth gains the corresponding Re[...] term and the
    occupation combines the thermal bath at the shifted frequency with
    the residual cavity backaction:

        n = (gamma_b n_B(w~) + kappa lambda_o^2 x~^2 |chi_c(-w~)|^2) / gamma~

    with x~^2 = hbar/(2 m w~). Results carry warning strings when the
    assumed hierarchy gamma~ << kappa, w~ does not hold.
    """
    m, hbar, lam2 = params.mass, params.hbar, params.lambda_o**2
    w = params.omega_b
    for _ in range(_FIXED_POINT_MAX_ITER):
        shift = (hbar * lam2 / m) * complex(cavity_self_energy(w, params)).imag
        w2_new = params.omega_b**2 + shift
        if w2_new <= 0:
            raise FixedPointDivergence(
                "optical-spring iterate drove the squared frequency nonpositive"
            )
        w_new = (1.0 - _FIXED_POINT_DAMPING) * w + _FIXED_POINT_DAMPING * math.sqrt(w2_new)
        if abs(w_new - w) <= _FIXED_POINT_RTOL * w_new:
            w = w_new
            break
        w = w_new
    else:
        raise FixedPointDivergence(
            f"optical-spring fixed point not converged in {_FIXED_POINT_MAX_ITER} iterations"
        )

    gamma_tilde = params.gamma_b + (hbar * lam2 / (m * w)) * complex(
        cavity_self_energy(w, params)
    ).real
    x2 = hbar / (2.0 * m * w)
    chi_neg = complex(cavity_susceptibility(-w, params.kappa, params.delta))
    heating = params.kappa * lam2 * x2 * abs(chi_neg) ** 2
    thermal = params.gamma_b * planck(w, params.temperature) if params.gamma_b > 0 else 0.0
    if gamma_tilde <= 0:
        raise InvalidRegime(
            "effective linewidth not positive; weak-coupling cooling formulas do not apply"
        )
    n_bar = (thermal + heating) / gamma_tilde

    warn: list[str] = []
    if gamma_tilde > 0.1 * params.kappa:
        warn.append("effective linewidth not small against kappa")
    if gamma_tilde > 0.1 * w:
        warn.append("effective linewidth not small against the effective frequency")
    return WeakCouplingResult(
        omega_tilde=w,
        gamma_tilde=gamma_tilde,
        n_bar=n_bar,
        x_zpf_eff=math.sqrt(x2),
        warnings=tuple(warn),
    )


_RESONANT_RTOL = 1e-12


def strong_coupling(params: SystemParams1D) -> StrongCouplingResult:
    """Normal-mode frequencies, linewidths and occupations.

    Valid at resonant cooling detuning (delta = omega_b) with
    well-split normal modes. The hybridized frequencies are
    omega_pm = omega_b sqrt(1 +- 2 G_o/omega_b), each with linewidth
    kappa/2, and each normal mode carries

        n_pm = [gamma_b n_B(omega_pm)/2 + kappa (omega_pm - omega_b)^2
                / (8 omega_b omega_pm)] / (kappa/2).

    The single-mode thermal occupation follows from combining the two
    normal-mode occupations, and n_bar_0 is the same combination
    referred to the bare oscillator basis.
    """
    wb = params.omega_b
    if abs(params.delta - wb) > _RESONANT_RTOL * wb:
        raise InvalidRegime("strong-coupling formulas assume delta = omega_b")
    if params.G_o >= wb / 2.0:
        raise InvalidRegime("lower normal mode not real: needs G_o < omega_b/2")
    ratio = 2.0 * params.G_o / wb
    w_plus = wb * math.sqrt(1.0 + ratio)
    w_minus = wb * math.sqrt(1.0 - ratio)
    k_half = params.kappa / 2.0

    def modal_occ(w_pm: float) -> float:
        thermal = 0.5 * params.gamma_b * planck(w_pm, params.temperature) \
            if params.gamma_b > 0 else 0.0
        backaction = params.kappa * (w_pm - wb) ** 2 / (8.0 * wb * w_pm)
        return (thermal + backaction) / k_half

    n_plus = modal_occ(w_plus)
    n_minus = modal_occ(w_minus)
    a = 2.0 * n_minus + 1.0
    b = 2.0 * n_plus + 1.0
    inner = a**2 + b**2 + (2.0 * wb**2 / (w_plus * w_minus)) * a * b
    n_bar = 0.5 * (0.5 * math.sqrt(inner) - 1.0)
    combo = (wb**2 + w_plus**2) / (wb * w_plus) * b + (wb**2 + w_minus**2) / (wb * w_minus) * a
    n_bar_0 = 0.5 * (0.25 * combo - 1.0)
    return StrongCouplingResult(
        omega_plus=w_plus,
        omega_minus=w_minus,
        kappa_plus=k_half,
        kappa_minus=k_half,
        n_plus=n_plus,
        n_minus=n_minus,
        n_bar=n_bar,
        n_bar_0=n_bar_0,
    )


def _detuning_error() -> UnstableRegime:
    return UnstableRegime("backaction steady state requires delta > 0")


def backaction_1d(params: SystemParams1D) -> Backaction1DResult:
    """Exact single-mode steady state when vacuum noise dominates.

    Treats gamma_b as zero. All moments follow from the coupling scale
    g_o^2 and K = (kappa/2)^2 + delta^2:

        xx = hbar/(4 m delta) (1 + K/(omega_b^2 - 2 g_o^2))
        pp = hbar m (K + omega_b^2)/(4 delta)

    with zero cross correlation. The occupation, purity and the
    oscillator-shape parameter M_Omega follow, together with the
    small-coupling limit n_min_weak that sets the familiar sideband
    cooling floor. A grid of one through backaction_1d_batch.
    """
    return Backaction1DResult(**backaction_1d_batch(ParamsGrid.from_records([params])).only())


def backaction_1d_batch(grid: ParamsGrid) -> Batch:
    """backaction_1d of every record of a 1D grid.

    Returns a Batch with a column per field of Backaction1DResult and,
    per item, the error backaction_1d raises for it (None where it
    settles) and a warning where its gamma_b > 0 is treated as zero.
    """
    errors: list = [None] * len(grid)
    m, hbar, delta, omega_b = grid.mass, grid.hbar, grid.delta, grid.omega_b
    flag_first(errors, delta <= 0, lambda k: _detuning_error())
    with np.errstate(all="ignore"):
        half_kappa, detuning = grid.kappa / 2.0, delta - omega_b
        K = half_kappa * half_kappa + delta * delta
        wb2 = omega_b * omega_b
        margin = wb2 - 2.0 * g_o_squared(grid)
        two_n_plus_1 = np.sqrt((K + margin) * (K + wb2)) / (2.0 * delta * np.sqrt(margin))
        columns = dict(
            xx=hbar / (4.0 * m * delta) * (1.0 + K / margin),
            pp=hbar * m * (K + wb2) / (4.0 * delta),
            n_bar=0.5 * (two_n_plus_1 - 1.0),
            purity=1.0 / two_n_plus_1,
            M_Omega=m * np.sqrt((K + wb2) * margin / (K + margin)),
            n_min_weak=(half_kappa * half_kappa + detuning * detuning) / (4.0 * omega_b * delta),
        )
    flag_first(errors, margin <= 0, lambda k: UnstableRegime(
        f"unstable: omega_b^2 - 2 g_o^2 = {margin[k]:.6g} is not positive"))
    finite = np.isfinite(list(columns.values())).all(axis=0)
    flag_first(errors, ~finite, lambda k: InvalidParams(
        "backaction moments are not finite at this record's scales"))
    warnings = [("gamma_b > 0 is treated as zero in the backaction limit",) if d else ()
                for d in (grid.gamma_b > 0).tolist()]
    return Batch(errors, warnings, columns)


def bare_occupation(cov: Cov1D, omega: float, mass: float = 1.0) -> float:
    """Occupation of a state referred to a fixed reference oscillator.

    n_0 = (xx / (2 x_zpf^2) + pp / (2 p_zpf^2) - 1) / 2 with the
    zero-point variances of an oscillator at frequency ``omega``. This
    is the conventional phonon number; it upper-bounds the thermal
    occupation of the diagonalizing basis and coincides with it only
    when the state is thermal in that reference basis. A grid of one
    through bare_occupation_batch.
    """
    one = bare_occupation_batch(*([v] for v in (cov.xx, cov.pp, cov.hbar, omega, mass)))
    return one.only()["n_bar_0"]


def bare_occupation_batch(xx, pp, hbar, omega, mass) -> Batch:
    """Stacked bare_occupation over arrays of moments and reference oscillators.

    Returns a Batch with the occupations as its column n_bar_0 and, per
    item whose omega or mass is not positive, an InvalidRegime.
    Overflow gives inf without a warning.
    """
    xx, pp, hbar, omega, mass = (np.asarray(a, dtype=float)
                                 for a in (xx, pp, hbar, omega, mass))
    settled = (omega > 0) & (mass > 0)
    errors: list = [None] * len(xx)
    flag_first(errors, ~settled, lambda k: InvalidRegime(
        "reference oscillator needs omega > 0 and mass > 0"))
    omega, mass = np.where(settled, omega, 1.0), np.where(settled, mass, 1.0)
    with np.errstate(all="ignore"):
        x_zpf2 = hbar / (2.0 * mass * omega)
        p_zpf2 = hbar * mass * omega / 2.0
        n_bar_0 = 0.25 * (xx / x_zpf2 + pp / p_zpf2) - 0.5
    return Batch(errors, [()] * len(xx), {"n_bar_0": n_bar_0})


def backaction_2d(params: SystemParams2D) -> Backaction2DResult:
    """Exact two-mode steady state when vacuum noise dominates.

    Requires undamped mechanics (the definition of the backaction
    limit) and a dark mode that is actually cooled: the dark mode has
    no direct optical damping, so it needs both nonzero mixing with
    the bright mode (delta_m != 0) and a driven cavity (g_o != 0).
    Stability requires (omega_b^2 - 2 g_o^2) omega_d^2 to exceed
    (omega_bar_m delta_m)^2; a record where the two are equal to within
    their rounding raises UnstableRegime as undecided. A grid of one
    through backaction_2d_batch.
    """
    return Backaction2DResult(**backaction_2d_batch(ParamsGrid.from_records([params])).only())


def backaction_2d_batch(grid: ParamsGrid) -> Batch:
    """backaction_2d of every record of a 2D grid.

    Returns a Batch with a column per field of Backaction2DResult and,
    per item, the first error of backaction_2d's conditions in the
    order they are checked (None where it settles): undamped mechanics,
    delta > 0, a valid bright-mode SystemParams1D, a damped dark mode,
    a finite (omega_bar_m delta_m)^2, a stability term whose sign is not
    lost to cancellation, stability, a finite covariance,
    its 2D summary and a positive purity product.
    """
    n, kappa, delta, m, hbar = len(grid), grid.kappa, grid.delta, grid.mass, grid.hbar
    errors: list = [None] * n
    flag_first(errors, (grid.gamma_x != 0.0) | (grid.gamma_y != 0.0),
               lambda k: InvalidRegime("backaction_2d assumes gamma_x = gamma_y = 0"))
    flag_first(errors, delta <= 0, lambda k: _detuning_error())
    with np.errstate(all="ignore"):
        bd = bright_dark(grid)
        # The bright mode as the undamped 1D record that gives its g_o^2.
        bright = SimpleNamespace(omega_b=bd.omega_b, gamma_b=np.zeros(n), kappa=kappa,
                                 delta=delta, lambda_o=grid.lambda_o, G_o=np.zeros(n),
                                 mass=m, temperature=np.zeros(n), hbar=hbar)
        _settle_1d(bright, errors)
        g2 = g_o_squared(bright)
        flag_first(errors, (bd.delta_m == 0.0) | (g2 == 0.0), lambda k: UndampedDarkMode(
            "dark mode is not damped: needs delta_m != 0 and a driven cavity"))
        cross = bd.omega_bar_m * bd.delta_m
        flag_first(errors, ~np.isfinite(cross * cross), lambda k: InvalidParams(
            "(omega_bar_m delta_m)^2 overflows at these frequencies"))
        wb2, wd2 = bd.omega_b * bd.omega_b, bd.omega_d * bd.omega_d
        margin = wb2 - 2.0 * g2
        denom = margin * wd2 - cross * cross
        # With margin > 0 the two terms have one sign; where their
        # difference is inside the rounding of the terms, so is its sign.
        flag_first(errors, (margin > 0) & (np.abs(denom) <= _ROUNDING * (
            np.abs(margin * wd2) + cross * cross)), lambda k: UnstableRegime(
            "stability undecided: (omega_b^2 - 2 g_o^2) omega_d^2 - (omega_bar_m delta_m)^2 "
            f"= {denom[k]:.6g} cancels below the rounding of its two terms"))
        flag_first(errors, (denom <= 0) | (margin <= 0), lambda k: UnstableRegime(
            "unstable: (omega_b^2 - 2 g_o^2) omega_d^2 - (omega_bar_m delta_m)^2 "
            f"= {denom[k]:.6g} is not positive"))
        half_kappa = kappa / 2.0
        K = half_kappa * half_kappa + delta * delta
        pref = hbar / (4.0 * m * delta)
        W = np.zeros((n, 4, 4))
        W[:, 0, 0] = pref * (1.0 + K * wd2 / denom)
        W[:, 2, 2] = pref * (1.0 + K * margin / denom)
        W[:, 1, 1] = hbar * m * (K + wb2) / (4.0 * delta)
        W[:, 3, 3] = hbar * m * (K + wd2) / (4.0 * delta)
        W[:, 0, 2] = W[:, 2, 0] = -pref * K * bd.omega_bar_m * bd.delta_m / denom
        W[:, 1, 3] = W[:, 3, 1] = hbar * m * bd.omega_bar_m * bd.delta_m / (4.0 * delta)
    flag_first(errors, ~np.isfinite(W).all(axis=(1, 2)),
               lambda k: DegenerateState("covariance matrix has a non-finite entry"))
    # A flagged item's W means nothing; zeros keep it finite for LAPACK.
    W[[e is not None for e in errors]] = 0.0
    summary = Batch(errors, [()] * n, {}).then(summary_2d_batch(W, hbar))
    xx_b, pp_b, xx_d, pp_d = (W[:, i, i] for i in range(4))
    with np.errstate(all="ignore"):
        product, h2 = xx_b * pp_b * xx_d * pp_d, hbar * hbar
        purity_product = np.where(np.isfinite(product), h2 / (4.0 * np.sqrt(product)),
                                  h2 / 4.0 / np.sqrt(xx_b * pp_b) / np.sqrt(xx_d * pp_d))
    flag_first(summary.errors, ~(purity_product > 0.0), lambda k: InvalidParams(
        "covariance determinant overflows at this record's scales"))
    return summary._replace(columns=dict(
        xx_b=xx_b, xx_d=xx_d, pp_b=pp_b, pp_d=pp_d, x_b_x_d=W[:, 0, 2], p_b_p_d=W[:, 1, 3],
        purity_2d=summary.columns["purity_2d"], purity_product=purity_product))


_RWA_WARNINGS = ("cooperativity not large; optimum formula is approximate",
                 "gamma_tot not small against kappa; optimum formula is approximate",
                 "unequal bath occupations; using the bright-mode value")


def rwa_optimum(params: SystemParamsRWA) -> tuple[float, float, tuple[str, ...]]:
    """Purity-maximizing mechanical mixing rate, the purity there, and warnings.

    In the rotating-wave model at large cooperativity the purity along
    the optimum satisfies

        1/mu = 1 + 4 n_B (1/C_o + gamma_tot/kappa),

    maximized at G_m = G_o/sqrt(2). The formula is first order in
    4 n_B gamma_tot/kappa: the exact large-C_o plateau is
    1/(1 + 2 n_B gamma_tot/kappa)^2, since each of the three normal
    modes of the cavity-mechanics chain settles at occupation
    n_B gamma_tot/kappa. At 4 n_B gamma_tot/kappa = 0.2 the formula
    overstates the purity by 0.8% (1/1.2 against 1/1.21).

    The warning strings name each validity condition the record misses
    (C_o >> 1, gamma_tot << kappa, equal bath occupations). Raises
    InvalidRegime when C_o is zero (G_o^2 is 0 or underflows). A grid
    of one through rwa_optimum_batch.
    """
    batch = rwa_optimum_batch(ParamsGrid.from_records([params]))
    optimum = batch.only()
    return optimum["G_m_opt"], optimum["purity_opt"], batch.warnings[0]


def rwa_optimum_batch(grid: ParamsGrid) -> Batch:
    """rwa_optimum of every record of a rotating-wave grid.

    Returns a Batch with the columns G_m_opt and purity_opt, each
    item's warnings and the error rwa_optimum raises for it (None where
    it settles): the cooperativity's InvalidParams, then the
    InvalidRegime of a zero one.
    """
    errors: list = [None] * len(grid)
    gamma_tot = grid.gamma_b + grid.gamma_d
    flag_first(errors, (grid.kappa <= 0) | (gamma_tot <= 0), lambda k: InvalidParams(
        "cooperativity requires kappa > 0 and gamma_tot > 0"))
    with np.errstate(all="ignore"):
        c_o = 4.0 * (grid.G_o * grid.G_o) / (grid.kappa * gamma_tot)
        inv_purity = 1.0 + 4.0 * grid.n_B_b * (1.0 / c_o + gamma_tot / grid.kappa)
    flag_first(errors, c_o == 0.0, lambda k: InvalidRegime(
        "cooperativity is zero; the optimum needs G_o^2 > 0"))
    missed = zip(*(c.tolist() for c in (c_o < 100.0, gamma_tot > 0.2 * grid.kappa,
                                        grid.n_B_b != grid.n_B_d)))
    warnings = [tuple(compress(_RWA_WARNINGS, flags)) for flags in missed]
    return Batch(errors, warnings, {"G_m_opt": grid.G_o / math.sqrt(2.0),
                                    "purity_opt": 1.0 / inv_purity})
