"""Analytic steady-state results, usable as fast evaluators and as
independent oracles for the numerical solvers.

Four regimes are covered for the single-mode system: weak coupling
(optical spring fixed point plus Lorentzian occupation), strong
coupling (normal-mode picture), and the exact backaction limit for
arbitrary coupling. For the two-mode system the exact backaction
moment set and both purity measures are provided, plus the optimum of
the rotating-wave model. Everything here is closed-form arithmetic
except the optical-spring fixed point, which is a damped scalar
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (FixedPointDivergence, InvalidParams, InvalidRegime, UndampedDarkMode,
                     UnstableRegime)
from .gaussian import Cov1D, Cov2D, purity_2d_general
from .models import (
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    bright_dark,
    cooperativity,
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
    "backaction_2d",
    "bare_occupation",
    "bare_occupation_batch",
    "rwa_optimum",
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


def backaction_1d(params: SystemParams1D) -> Backaction1DResult:
    """Exact single-mode steady state when vacuum noise dominates.

    Treats gamma_b as zero. All moments follow from the coupling scale
    g_o^2 and K = (kappa/2)^2 + delta^2:

        xx = hbar/(4 m delta) (1 + K/(omega_b^2 - 2 g_o^2))
        pp = hbar m (K + omega_b^2)/(4 delta)

    with zero cross correlation. The occupation, purity and the
    oscillator-shape parameter M_Omega follow, together with the
    small-coupling limit n_min_weak that sets the familiar sideband
    cooling floor.
    """
    if params.delta <= 0:
        raise UnstableRegime("backaction steady state requires delta > 0")
    g2 = g_o_squared(params)
    wb2 = params.omega_b**2
    margin = wb2 - 2.0 * g2
    if margin <= 0:
        raise UnstableRegime(
            f"unstable: omega_b^2 - 2 g_o^2 = {margin:.6g} is not positive"
        )
    K = (params.kappa / 2.0) ** 2 + params.delta**2
    m, hbar, delta = params.mass, params.hbar, params.delta
    xx = hbar / (4.0 * m * delta) * (1.0 + K / margin)
    pp = hbar * m * (K + wb2) / (4.0 * delta)
    two_n_plus_1 = math.sqrt((K + margin) * (K + wb2)) / (2.0 * delta * math.sqrt(margin))
    n_bar = 0.5 * (two_n_plus_1 - 1.0)
    M_Omega = m * math.sqrt((K + wb2) * margin / (K + margin))
    n_min_weak = ((params.kappa / 2.0) ** 2 + (delta - params.omega_b) ** 2) / (
        4.0 * params.omega_b * delta
    )
    if not (math.isfinite(xx) and math.isfinite(pp) and math.isfinite(n_bar)
            and math.isfinite(M_Omega) and math.isfinite(n_min_weak)):
        raise InvalidParams("backaction moments are not finite at this record's scales")
    return Backaction1DResult(
        xx=xx,
        pp=pp,
        n_bar=n_bar,
        purity=1.0 / two_n_plus_1,
        M_Omega=M_Omega,
        n_min_weak=n_min_weak,
    )


def _bare_occupation(xx, pp, hbar, omega, mass):
    # One formula for floats and for arrays.
    x_zpf2 = hbar / (2.0 * mass * omega)
    p_zpf2 = hbar * mass * omega / 2.0
    return 0.25 * (xx / x_zpf2 + pp / p_zpf2) - 0.5


def bare_occupation(cov: Cov1D, omega: float, mass: float = 1.0) -> float:
    """Occupation of a state referred to a fixed reference oscillator.

    n_0 = (xx / (2 x_zpf^2) + pp / (2 p_zpf^2) - 1) / 2 with the
    zero-point variances of an oscillator at frequency ``omega``. This
    is the conventional phonon number; it upper-bounds the thermal
    occupation of the diagonalizing basis and coincides with it only
    when the state is thermal in that reference basis.
    """
    if omega <= 0 or mass <= 0:
        raise _reference_error()
    return _bare_occupation(cov.xx, cov.pp, cov.hbar, omega, mass)


def _reference_error() -> InvalidRegime:
    return InvalidRegime("reference oscillator needs omega > 0 and mass > 0")


def bare_occupation_batch(xx, pp, hbar, omega, mass):
    """Stacked bare_occupation over arrays of moments and reference oscillators.

    Returns the occupations and a mask of the items that settle; an
    item whose omega or mass is not positive does not (the scalar call
    raises InvalidRegime for it) and its occupation means nothing.
    Overflow gives inf without a warning, as in the scalar call on
    Python floats.
    """
    xx, pp, hbar, omega, mass = (np.asarray(a, dtype=float)
                                 for a in (xx, pp, hbar, omega, mass))
    settled = (omega > 0) & (mass > 0)
    with np.errstate(all="ignore"):
        return _bare_occupation(xx, pp, hbar, np.where(settled, omega, 1.0),
                                np.where(settled, mass, 1.0)), settled


def backaction_2d(params: SystemParams2D) -> Backaction2DResult:
    """Exact two-mode steady state when vacuum noise dominates.

    Requires undamped mechanics (the definition of the backaction
    limit) and a dark mode that is actually cooled: the dark mode has
    no direct optical damping, so it needs both nonzero mixing with
    the bright mode (delta_m != 0) and a driven cavity (g_o != 0).
    Stability requires (omega_b^2 - 2 g_o^2) omega_d^2 to exceed
    (omega_bar_m delta_m)^2.
    """
    if params.gamma_x != 0.0 or params.gamma_y != 0.0:
        raise InvalidRegime("backaction_2d assumes gamma_x = gamma_y = 0")
    bd = bright_dark(params)
    kappa, delta, lambda_o = params.kappa, params.delta, params.lambda_o
    m, hbar = params.mass, params.hbar
    if delta <= 0:
        raise UnstableRegime("backaction steady state requires delta > 0")
    p1 = SystemParams1D(
        omega_b=bd.omega_b,
        gamma_b=0.0,
        kappa=kappa,
        delta=delta,
        lambda_o=lambda_o,
        mass=m,
        hbar=hbar,
    )
    g2 = g_o_squared(p1)
    if bd.delta_m == 0.0 or g2 == 0.0:
        raise UndampedDarkMode(
            "dark mode is not damped: needs delta_m != 0 and a driven cavity"
        )
    K = (kappa / 2.0) ** 2 + delta**2
    try:
        cross2 = (bd.omega_bar_m * bd.delta_m) ** 2
    except OverflowError:
        raise InvalidParams("(omega_bar_m delta_m)^2 overflows at these frequencies") from None
    margin = bd.omega_b**2 - 2.0 * g2
    denom = margin * bd.omega_d**2 - cross2
    if denom <= 0 or margin <= 0:
        raise UnstableRegime(
            "unstable: (omega_b^2 - 2 g_o^2) omega_d^2 - (omega_bar_m delta_m)^2 "
            f"= {denom:.6g} is not positive"
        )
    pref = hbar / (4.0 * m * delta)
    xx_b = pref * (1.0 + K * bd.omega_d**2 / denom)
    xx_d = pref * (1.0 + K * margin / denom)
    pp_b = hbar * m * (K + bd.omega_b**2) / (4.0 * delta)
    pp_d = hbar * m * (K + bd.omega_d**2) / (4.0 * delta)
    x_b_x_d = -pref * K * bd.omega_bar_m * bd.delta_m / denom
    p_b_p_d = hbar * m * bd.omega_bar_m * bd.delta_m / (4.0 * delta)

    cov = Cov2D(
        matrix=[
            [xx_b, 0.0, x_b_x_d, 0.0],
            [0.0, pp_b, 0.0, p_b_p_d],
            [x_b_x_d, 0.0, xx_d, 0.0],
            [0.0, p_b_p_d, 0.0, pp_d],
        ],
        hbar=hbar,
    )
    purity_2d = purity_2d_general(cov).purity_2d
    purity_product = hbar**2 / (4.0 * math.sqrt(xx_b * pp_b * xx_d * pp_d))
    return Backaction2DResult(
        xx_b=xx_b,
        xx_d=xx_d,
        pp_b=pp_b,
        pp_d=pp_d,
        x_b_x_d=x_b_x_d,
        p_b_p_d=p_b_p_d,
        purity_2d=purity_2d,
        purity_product=purity_product,
    )


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
    InvalidRegime when C_o is zero (G_o^2 is 0 or underflows).
    """
    gamma_tot = params.gamma_b + params.gamma_d
    c_o = cooperativity(params)
    if c_o == 0.0:
        raise InvalidRegime("cooperativity is zero; the optimum needs G_o^2 > 0")
    warn = []
    if c_o < 100.0:
        warn.append("cooperativity not large; optimum formula is approximate")
    if gamma_tot > 0.2 * params.kappa:
        warn.append("gamma_tot not small against kappa; optimum formula is approximate")
    if params.n_B_b != params.n_B_d:
        warn.append("unequal bath occupations; using the bright-mode value")
    g_m_opt = params.G_o / math.sqrt(2.0)
    inv_purity = 1.0 + 4.0 * params.n_B_b * (1.0 / c_o + gamma_tot / params.kappa)
    return g_m_opt, 1.0 / inv_purity, tuple(warn)
