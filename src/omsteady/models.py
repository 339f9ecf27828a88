"""Parameter records and derived model coefficients.

All quantities live in a single dimensionless frame unless stated
otherwise: frequencies and rates in units of a reference angular
frequency (typically the mechanical resonance), mass and hbar default
to 1. Temperature is stored as k_B*T/hbar in the same angular-frequency
units, so the thermal occupation of a mode at frequency ``omega`` is
``planck(omega, temperature)`` with no stray constants. Helpers are
provided to go back and forth between a temperature and a target bath
occupation.

The drive-enhanced optomechanical coupling can be specified either as
a rate ``G_o`` or as the force-gradient form ``lambda_o``; the two are
related by G_o = lambda_o * sqrt(hbar / (2 m omega_b)) and consistency
is enforced when both are supplied.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .errors import InvalidParams

__all__ = [
    "SystemParams1D",
    "SystemParams2D",
    "BrightDark",
    "SystemParamsRWA",
    "bright_dark",
    "planck",
    "cooperativity",
    "g_o_squared",
    "temperature_for_occupation",
    "resonant_2d_design",
]

_COUPLING_CONSISTENCY_RTOL = 1e-9


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParams(msg)


#: Smallest hbar whose (hbar/2)^4, the scale of a two-mode covariance
#: determinant, is a normal float (about 2.443e-77; SI's 1.05e-34 passes).
#: Compared with hbar itself, since (hbar/2)^4 overflows for large hbar.
_HBAR_MIN = 2.0 * sys.float_info.min ** 0.25


def _reject_tiny_hbar(hbar: float) -> None:
    raise InvalidParams(f"hbar must be at least {_HBAR_MIN:.4g} so that (hbar/2)^4 is a "
                        f"normal float, got {hbar!r}")


def _reject_non_finite(record) -> None:
    """Raise InvalidParams naming the first field that is not finite or
    whose square overflows, if any.

    Called when the sum of the squares of a record's fields is not
    finite, which is as cheap to test on every construction as a plain
    sum and also catches fields so large that the squares the models
    are built from overflow. A sum of finite squares that merely
    overflows passes.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if value is not None and not math.isfinite(value):
            raise InvalidParams(f"{f.name} must be finite, got {value!r}")
        if value is not None and not math.isfinite(value * value):
            raise InvalidParams(f"{f.name} must be below 1.3e154 in magnitude, got {value!r}")


@dataclass(frozen=True)
class SystemParams1D:
    """One mechanical mode coupled to one driven cavity mode.

    Parameters
    ----------
    omega_b : mechanical resonance frequency, > 0.
    gamma_b : mechanical energy damping rate, >= 0.
    kappa : cavity energy decay rate, > 0.
    delta : laser detuning; positive detuning cools.
    lambda_o, G_o : the linearized coupling, in either convention.
        Give one; if both are given they must agree.
    mass, hbar : scale factors, default 1 (dimensionless frame).
    temperature : bath temperature as k_B*T/hbar, in frequency units.
    """

    omega_b: float
    gamma_b: float
    kappa: float
    delta: float
    lambda_o: float | None = None
    G_o: float | None = None
    mass: float = 1.0
    temperature: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        # NaN and infinities first: they slip through the sign checks below.
        lam, rate = self.lambda_o or 0.0, self.G_o or 0.0
        if not math.isfinite(self.omega_b * self.omega_b + self.gamma_b * self.gamma_b
                             + self.kappa * self.kappa + self.delta * self.delta
                             + lam * lam + rate * rate + self.mass * self.mass
                             + self.temperature * self.temperature + self.hbar * self.hbar):
            _reject_non_finite(self)
        _require(self.omega_b > 0, "omega_b must be positive")
        _require(self.gamma_b >= 0, "gamma_b must be nonnegative")
        _require(self.kappa > 0, "kappa must be positive")
        _require(self.mass > 0, "mass must be positive")
        _require(self.hbar > 0, "hbar must be positive")
        if self.hbar < _HBAR_MIN:
            _reject_tiny_hbar(self.hbar)
        _require(self.temperature >= 0, "temperature must be nonnegative")
        conv = math.sqrt(self.hbar / (2.0 * self.mass * self.omega_b))
        if self.lambda_o is None and self.G_o is None:
            raise InvalidParams("specify lambda_o or G_o")
        if self.lambda_o is None:
            object.__setattr__(self, "lambda_o", self.G_o / conv)
        elif self.G_o is None:
            object.__setattr__(self, "G_o", self.lambda_o * conv)
        else:
            expect = self.lambda_o * conv
            scale = max(abs(expect), abs(self.G_o), 1e-300)
            if abs(expect - self.G_o) > _COUPLING_CONSISTENCY_RTOL * scale:
                raise InvalidParams(
                    "lambda_o and G_o are inconsistent: "
                    f"G_o={self.G_o} but lambda_o implies {expect}"
                )
        # the derived form of the coupling can overflow where the given one did not
        if not math.isfinite(self.lambda_o * self.lambda_o + self.G_o * self.G_o):
            _reject_non_finite(self)


@dataclass(frozen=True)
class SystemParams2D:
    """Two mechanical modes (principal trap axes x, y) and one cavity.

    ``phi`` is the angle between the cavity axis and the x principal
    axis, restricted to [0, pi/2]. ``lambda_o`` is an independent
    input here; any dependence of the coupling on the trap geometry
    (for instance through the tweezer polarization direction) is out
    of scope and must be folded in by the caller.
    """

    omega_x: float
    omega_y: float
    gamma_x: float
    gamma_y: float
    phi: float
    kappa: float
    delta: float
    lambda_o: float
    mass: float = 1.0
    temperature: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.omega_x * self.omega_x + self.omega_y * self.omega_y
                             + self.gamma_x * self.gamma_x + self.gamma_y * self.gamma_y
                             + self.phi * self.phi + self.kappa * self.kappa
                             + self.delta * self.delta + self.lambda_o * self.lambda_o
                             + self.mass * self.mass + self.temperature * self.temperature
                             + self.hbar * self.hbar):
            _reject_non_finite(self)
        _require(self.omega_x > 0, "omega_x must be positive")
        _require(self.omega_y > 0, "omega_y must be positive")
        _require(self.gamma_x >= 0, "gamma_x must be nonnegative")
        _require(self.gamma_y >= 0, "gamma_y must be nonnegative")
        _require(0.0 <= self.phi <= math.pi / 2, "phi must lie in [0, pi/2]")
        _require(self.kappa > 0, "kappa must be positive")
        _require(self.mass > 0, "mass must be positive")
        _require(self.hbar > 0, "hbar must be positive")
        if self.hbar < _HBAR_MIN:
            _reject_tiny_hbar(self.hbar)
        _require(self.temperature >= 0, "temperature must be nonnegative")

    @property
    def G_o(self) -> float:
        """Coupling rate of the bright mode, lambda_o in rate form."""
        wb = bright_dark(self).omega_b
        return self.lambda_o * math.sqrt(self.hbar / (2.0 * self.mass * wb))


@dataclass(frozen=True)
class BrightDark:
    """Bright/dark decomposition of a 2D mechanical system.

    The bright mode is the mechanical combination along the cavity
    axis (the only one coupled directly to light); the dark mode is
    orthogonal to it. ``delta_m`` and ``eta_m`` quantify the elastic
    and dissipative mixing of the two, ``omega_bar_m`` is the mean
    trap frequency, and ``G_m`` is the mixing rate expressed in the
    same normalized form as the optomechanical rate.
    """

    omega_b: float
    omega_d: float
    gamma_b: float
    gamma_d: float
    delta_m: float
    eta_m: float
    omega_bar_m: float
    G_m: float


@dataclass(frozen=True)
class SystemParamsRWA:
    """Resonant three-mode model after dropping counter-rotating terms.

    Valid for kappa, G_o, G_m much smaller than the mode frequencies.
    Bath occupations are given directly (``n_B_b``, ``n_B_d``) since
    that is how cooling performance is usually parameterized.
    """

    omega_b: float
    omega_d: float
    gamma_b: float
    gamma_d: float
    kappa: float
    delta: float
    G_o: float
    G_m: float
    n_B_b: float = 0.0
    n_B_d: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.omega_b * self.omega_b + self.omega_d * self.omega_d
                             + self.gamma_b * self.gamma_b + self.gamma_d * self.gamma_d
                             + self.kappa * self.kappa + self.delta * self.delta
                             + self.G_o * self.G_o + self.G_m * self.G_m
                             + self.n_B_b * self.n_B_b + self.n_B_d * self.n_B_d):
            _reject_non_finite(self)
        _require(self.omega_b > 0, "omega_b must be positive")
        _require(self.omega_d > 0, "omega_d must be positive")
        _require(self.gamma_b >= 0, "gamma_b must be nonnegative")
        _require(self.gamma_d >= 0, "gamma_d must be nonnegative")
        _require(self.kappa > 0, "kappa must be positive")
        _require(self.n_B_b >= 0, "n_B_b must be nonnegative")
        _require(self.n_B_d >= 0, "n_B_d must be nonnegative")


def bright_dark(params: SystemParams2D) -> BrightDark:
    """Rotate the (x, y) trap modes into the bright/dark basis.

    Returns the effective resonance frequencies and damping rates of
    the two rotated modes together with the mixing coefficients. The
    rotation preserves omega_b^2 + omega_d^2 = omega_x^2 + omega_y^2
    and gamma_b + gamma_d = gamma_x + gamma_y.
    """
    c2 = math.cos(params.phi) ** 2
    s2 = math.sin(params.phi) ** 2
    s2phi = math.sin(2.0 * params.phi)
    wb2 = c2 * params.omega_x**2 + s2 * params.omega_y**2
    wd2 = s2 * params.omega_x**2 + c2 * params.omega_y**2
    omega_b = math.sqrt(wb2)
    omega_d = math.sqrt(wd2)
    gamma_b = c2 * params.gamma_x + s2 * params.gamma_y
    gamma_d = s2 * params.gamma_x + c2 * params.gamma_y
    omega_bar_m = 0.5 * (params.omega_x + params.omega_y)
    delta_m = (params.omega_x - params.omega_y) * s2phi
    eta_m = 0.5 * (params.gamma_x - params.gamma_y) * s2phi
    G_m = omega_bar_m * delta_m / (2.0 * math.sqrt(omega_b * omega_d))
    return BrightDark(
        omega_b=omega_b,
        omega_d=omega_d,
        gamma_b=gamma_b,
        gamma_d=gamma_d,
        delta_m=delta_m,
        eta_m=eta_m,
        omega_bar_m=omega_bar_m,
        G_m=G_m,
    )


def planck(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(omega/T) - 1) at frequency omega > 0.

    ``temperature`` is k_B*T/hbar in frequency units; T=0 gives 0.
    """
    if omega <= 0:
        raise InvalidParams("planck requires omega > 0")
    if temperature <= 0:
        return 0.0
    return 1.0 / math.expm1(omega / temperature)


def temperature_for_occupation(n_B: float, omega_ref: float) -> float:
    """Temperature (as k_B*T/hbar) giving occupation n_B at omega_ref.

    Inverse of :func:`planck`; the CLI uses this so sweeps can be
    parameterized by a bath occupation instead of a temperature.
    """
    if n_B < 0:
        raise InvalidParams("n_B must be nonnegative")
    if omega_ref <= 0:
        raise InvalidParams("omega_ref must be positive")
    if n_B == 0:
        return 0.0
    return omega_ref / math.log1p(1.0 / n_B)


def cooperativity(params: SystemParamsRWA) -> float:
    """Optomechanical cooperativity 4 G_o^2 / (kappa * gamma_tot)."""
    gamma_tot = params.gamma_b + params.gamma_d
    if params.kappa <= 0 or gamma_tot <= 0:
        raise InvalidParams("cooperativity requires kappa > 0 and gamma_tot > 0")
    return 4.0 * params.G_o**2 / (params.kappa * gamma_tot)


def g_o_squared(params: SystemParams1D) -> float:
    """Squared backaction coupling scale 2 G_o^2 delta omega_b / ((kappa/2)^2 + delta^2).

    This combination controls the softening of the mechanical spring
    by the cavity; the steady state loses stability at
    omega_b^2 = 2 * g_o_squared.
    """
    return (
        2.0
        * params.G_o**2
        * params.delta
        * params.omega_b
        / ((params.kappa / 2.0) ** 2 + params.delta**2)
    )


def resonant_2d_design(
    omega: float,
    G_o: float,
    G_m: float,
    kappa: float,
    gamma: float = 0.0,
    temperature: float = 0.0,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> SystemParams2D:
    """Trap parameters whose bright and dark modes are both at ``omega``.

    At phi = pi/4 the bright and dark frequencies are degenerate at
    sqrt((omega_x^2 + omega_y^2)/2) and the mixing rate is fixed by the
    trap asymmetry. Choosing

        omega_x = sqrt(omega^2 + 2 G_m omega)
        omega_y = sqrt(omega^2 - 2 G_m omega)

    gives exactly omega_b = omega_d = omega and mixing rate G_m, since
    omega_bar_m * delta_m = (omega_x^2 - omega_y^2)/2 = 2 G_m omega.
    The detuning is set resonant (delta = omega) and the coupling rate
    G_o is converted to lambda_o at the bright-mode frequency.
    """
    if not (omega > 0 and omega**2 > 2.0 * abs(G_m) * omega):
        raise InvalidParams("need omega > 0 and |G_m| < omega/2 for real trap frequencies")
    omega_x = math.sqrt(omega**2 + 2.0 * G_m * omega)
    omega_y = math.sqrt(omega**2 - 2.0 * G_m * omega)
    lambda_o = G_o / math.sqrt(hbar / (2.0 * mass * omega))
    return SystemParams2D(
        omega_x=omega_x,
        omega_y=omega_y,
        gamma_x=gamma,
        gamma_y=gamma,
        phi=math.pi / 4.0,
        kappa=kappa,
        delta=omega,
        lambda_o=lambda_o,
        mass=mass,
        temperature=temperature,
        hbar=hbar,
    )
