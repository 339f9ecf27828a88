"""Parameter records, their columnar grids, and derived model coefficients.

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

Each record class validates with one ordered table of rules. The rules
and the formulas here use numpy's elementwise ufuncs, with squares
written as products, so they read a record's floats or a ParamsGrid's
columns alike and give an item the same bits either way: a record
raises the InvalidParams of the first rule it breaks, and a grid gives
each item the error its record would raise, with the same text. A
record's fields stay Python floats. A ParamsGrid holds many records as
one float64 column per field; sweeps build one per chunk of grid
points with ParamsGrid.from_axes, which sets each point's values at
once, and every evaluator of omsteady.sweep takes one. with_param is
the record of a from_axes grid of one point.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .errors import InvalidParams, flag_first

__all__ = [
    "SystemParams1D",
    "SystemParams2D",
    "BrightDark",
    "SystemParamsRWA",
    "ParamsGrid",
    "bright_dark",
    "planck",
    "cooperativity",
    "g_o_squared",
    "temperature_for_occupation",
    "resonant_2d_design",
    "with_param",
]

_COUPLING_CONSISTENCY_RTOL = 1e-9

#: Smallest hbar whose (hbar/2)^4, the scale of a two-mode covariance
#: determinant, is a normal float (about 2.443e-77; SI's 1.05e-34 passes).
#: Compared with hbar itself, since (hbar/2)^4 overflows for large hbar.
_HBAR_MIN = 2.0 * sys.float_info.min ** 0.25


# A rule is (reads, bad, message): bad(r) is true where r breaks the
# rule, for a record (a bool) or for columns (a bool per item); reads
# names the fields bad reads, and message is the InvalidParams text, or
# a function of the failing record that makes it.


class _Finite(tuple):
    """Rule group: the named fields and their squares must be finite.

    The models are built from the squares, so a field whose square
    overflows is rejected too. The sum of the squares is finite exactly
    when no field breaks the group, so it gates the per-field rules,
    which name the first field that does. A sum of finite squares that
    merely overflows passes. Fields not given (``unset``) are skipped.
    """

    @functools.cache
    def names(self, unset: tuple) -> tuple:
        return tuple(n for n in self if n not in unset)


def _finite_rules(names) -> list:
    return [rule for name in names for rule in (
        ((name,), lambda r, n=name: ~np.isfinite(getattr(r, n)),
         lambda r, n=name: f"{n} must be finite, got {getattr(r, n)!r}"),
        ((name,), lambda r, n=name: ~np.isfinite(getattr(r, n) * getattr(r, n)),
         lambda r, n=name: f"{n} must be below 1.3e154 in magnitude, got {getattr(r, n)!r}"),
    )]


def _text(message, r) -> str:
    return message if isinstance(message, str) else message(r)


def _check(r, table, unset=()) -> None:
    """Raise the InvalidParams of the first rule of table the record r breaks.

    A past-range result is inf or nan here, as in a column, not a warning.
    """
    with np.errstate(all="ignore"):
        for entry in table:
            if type(entry) is not _Finite:
                if entry[1](r):
                    raise InvalidParams(_text(entry[2], r))
                continue
            values = [getattr(r, n) for n in entry.names(unset)]
            if not math.isfinite(sum(map(operator.mul, values, values))):
                _check(r, _finite_rules(entry.names(unset)))


def _item(r, k: int) -> SimpleNamespace:
    """Item k of the columns r, as floats."""
    return SimpleNamespace(**{name: float(col[k]) for name, col in vars(r).items()})


@functools.cache
def _rules_reading(table: tuple, changed: frozenset | None, unset: tuple) -> tuple:
    """The entries of table that read a field in changed (all if None);
    a _Finite group keeps the names it checks that are in changed."""
    out = []
    for entry in table:
        if type(entry) is _Finite:
            names = _Finite(n for n in entry.names(unset) if changed is None or n in changed)
            if names:
                out.append(names)
        elif changed is None or not changed.isdisjoint(entry[0]):
            out.append(entry)
    return tuple(out)


def _flag(r, table, errors: list, unset=(), changed=None) -> None:
    """Give each item of the columns r that has no error yet the error
    _check raises for its record: the first rule of table it breaks.

    With ``changed``, r holds valid records apart from the fields named
    there, and only the rules that read one of them can fail; the
    others are skipped.
    """
    for entry in _rules_reading(table, changed, unset):
        if type(entry) is _Finite:
            if np.isfinite(sum(getattr(r, n) * getattr(r, n) for n in entry)).all():
                continue
            rules = _finite_rules(entry)
        else:
            rules = (entry,)
        for _, bad, message in rules:
            flag_first(errors, bad(r), lambda k: InvalidParams(_text(message, _item(r, k))))


_TINY_HBAR = (("hbar",), lambda r: r.hbar < _HBAR_MIN,
              lambda r: f"hbar must be at least {_HBAR_MIN:.4g} so that (hbar/2)^4 is a "
                        f"normal float, got {r.hbar!r}")
#: hbar / (2 m omega_b), the zero-point position variance that converts
#: between the two forms of the coupling, must be a positive float: a
#: quotient by 0 (Python raises) or of 0 would make one form 0 or inf.
_ZERO_POINT = (
    (("mass", "omega_b"), lambda r: 2.0 * r.mass * r.omega_b <= 0.0,
     "2 mass omega_b underflows to 0 at these scales"),
    (("hbar", "mass", "omega_b"), lambda r: r.hbar / (2.0 * r.mass * r.omega_b) <= 0.0,
     "hbar / (2 mass omega_b) underflows to 0 at these scales"),
)


def _positive(name: str):
    return ((name,), lambda r: getattr(r, name) <= 0, f"{name} must be positive")


def _nonnegative(name: str):
    return ((name,), lambda r: getattr(r, name) < 0, f"{name} must be nonnegative")


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
        _settle_1d(self, tuple(n for n in _COUPLINGS if getattr(self, n) is None), _check)


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
        _check(self, _RULES[SystemParams2D])

    @property
    def G_o(self) -> float:
        """Coupling rate of the bright mode, lambda_o in rate form."""
        return self.lambda_o * float(_rate_per_gradient(_bright_scales(self)))


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
        _check(self, _RULES[SystemParamsRWA])


_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls))
                for cls in (SystemParams1D, SystemParams2D, SystemParamsRWA)}

#: Each record class's rules, in the order they are checked. The 1D
#: record then settles its coupling pair (_settle_1d).
_RULES = {
    SystemParams1D: (
        _Finite(_FIELD_NAMES[SystemParams1D]),
        _positive("omega_b"), _nonnegative("gamma_b"), _positive("kappa"), _positive("mass"),
        _positive("hbar"), _TINY_HBAR, _nonnegative("temperature"), *_ZERO_POINT,
    ),
    SystemParams2D: (
        _Finite(_FIELD_NAMES[SystemParams2D]),
        _positive("omega_x"), _positive("omega_y"), _nonnegative("gamma_x"),
        _nonnegative("gamma_y"),
        (("phi",), lambda r: (r.phi < 0.0) | (r.phi > math.pi / 2),
         "phi must lie in [0, pi/2]"),
        _positive("kappa"), _positive("mass"), _positive("hbar"), _TINY_HBAR,
        _nonnegative("temperature"),
        # bright_dark divides by sqrt(omega_b omega_d)
        (("omega_x", "omega_y", "phi"),
         lambda r: operator.mul(*_rotated_frequencies(r)[2:]) <= 0.0,
         "omega_b omega_d of the bright and dark modes underflows to 0 at these scales"),
    ),
    SystemParamsRWA: (
        _Finite(_FIELD_NAMES[SystemParamsRWA]),
        _positive("omega_b"), _positive("omega_d"), _nonnegative("gamma_b"),
        _nonnegative("gamma_d"), _positive("kappa"), _nonnegative("n_B_b"),
        _nonnegative("n_B_d"),
    ),
}

_COUPLINGS = ("lambda_o", "G_o")


def _rate_per_gradient(r):
    """sqrt(hbar / (2 m omega_b)), the factor G_o / lambda_o."""
    return np.sqrt(r.hbar / (2.0 * r.mass * r.omega_b))


def _implied_rate(r):
    return r.lambda_o * _rate_per_gradient(r)


_CONSISTENT = (
    ("lambda_o", "G_o", "hbar", "mass", "omega_b"),
    lambda r: abs(_implied_rate(r) - r.G_o) > _COUPLING_CONSISTENCY_RTOL * np.maximum(
        np.maximum(abs(_implied_rate(r)), abs(r.G_o)), 1e-300),
    lambda r: "lambda_o and G_o are inconsistent: "
              f"G_o={r.G_o} but lambda_o implies {float(_implied_rate(r))}",
)
#: The rules on the settled coupling pair: a derived form of the coupling
#: can overflow where the given one did not, and a given pair must agree.
_DERIVED_COUPLING = (_Finite(_COUPLINGS),)
_GIVEN_COUPLING = (_CONSISTENT, *_DERIVED_COUPLING)
#: The rules on a 2D G_o, checked before it is converted to lambda_o.
_GIVEN_RATE = (_Finite(("G_o",)),)


def _settle_1d(r, unset: tuple, check, field=float) -> None:
    """Validate a 1D record, or its columns, and set the coupling fields
    named in unset (those not given) from the other one.

    check(r, table, unset) applies a rule table and field makes the
    derived value a field: _check and float for a record, _flag and
    np.asarray for columns.
    """
    check(r, _RULES[SystemParams1D], unset)
    if len(unset) == 2:
        raise InvalidParams("specify lambda_o or G_o")
    with np.errstate(all="ignore"):
        if unset == ("lambda_o",):
            object.__setattr__(r, "lambda_o", field(r.G_o / _rate_per_gradient(r)))
        elif unset == ("G_o",):
            object.__setattr__(r, "G_o", field(r.lambda_o * _rate_per_gradient(r)))
    check(r, _DERIVED_COUPLING if unset else _GIVEN_COUPLING, ())


def _settle_1d_columns(r, errors: list, unset=("G_o",), changed=None) -> None:
    """Validate the 1D columns r as SystemParams1D does: give each item
    with no error yet the error its record raises, and set the coupling
    fields named in unset (G_o, by default) from the other form. With
    changed, only the rules reading those fields are checked (see _flag)."""
    _settle_1d(r, unset, lambda r, table, unset: _flag(r, table, errors, unset, changed),
               np.asarray)


#: SystemParams1D fields whose replacement clears a coupling field, so
#: the record rebuilds it: the other form of the coupling, or lambda_o
#: where the factor sqrt(hbar / (2 m omega_b)) between the two changes.
_CLEARS_1D = {"G_o": "lambda_o", "lambda_o": "G_o",
              "omega_b": "lambda_o", "mass": "lambda_o", "hbar": "lambda_o"}
#: Names with_param can set: the record's fields, G_o on 2D and n_B on 1D and 2D records.
_SETTABLE = {SystemParams1D: frozenset((*_FIELD_NAMES[SystemParams1D], "n_B")),
             SystemParams2D: frozenset((*_FIELD_NAMES[SystemParams2D], "G_o", "n_B")),
             SystemParamsRWA: frozenset(_FIELD_NAMES[SystemParamsRWA])}


def _rebuilt(cls, names) -> tuple:
    """The coupling fields of a cls record that setting names clears and
    does not give, so that the record rebuilds them from the other form."""
    if cls is not SystemParams1D:
        return ()
    cleared = {_CLEARS_1D.get(name) for name in names}
    return tuple(c for c in _COUPLINGS if c in cleared and c not in names)


def _bright_scales(p) -> SimpleNamespace:
    """hbar, mass and the bright-mode frequency omega_b (as bright_dark has
    it, without the mixing terms) of a 2D record or columns."""
    return SimpleNamespace(hbar=p.hbar, mass=p.mass, omega_b=_rotated_frequencies(p)[2])


def with_param(params, name: str, value: float):
    """Copy of a params record with one named parameter replaced.

    The record is item 0 of the one-point ParamsGrid.from_axes grid, so
    a sweep row at the value is this record: on a 1D record, setting one
    coupling form rebuilds the other, and omega_b, mass or hbar rebuild
    lambda_o, so G_o holds; a 2D G_o becomes lambda_o, and an n_B a
    temperature, at the record's (bright) mode frequency.
    """
    return _with_values(params, {name: value})


def _with_values(params, values: dict):
    """with_param for several names at once: the record of item 0 of the
    ParamsGrid.from_axes grid of the one point, or its error."""
    grid = ParamsGrid.from_axes(params, values, [tuple(values.values())])
    (error,) = grid.errors
    if error is not None:
        raise error
    rebuilt = _rebuilt(type(params), values)
    return type(params)(**{name: None if name in rebuilt else float(column[0])
                           for name, column in grid.columns.items()})


@dataclass(frozen=True, eq=False)
class ParamsGrid:
    """Params records as columns: the record class, one float64 array per
    field, and per item the InvalidParams its record raises (None where
    the record is valid).

    A grid reads like a record, ``grid.kappa`` being the kappa column,
    so the rules and the formulas written for a record's floats run on
    its columns too. The columns of an item with an error mean nothing.
    """

    cls: type
    columns: dict
    errors: tuple

    def __getattr__(self, name: str):
        columns = self.__dict__.get("columns", {})
        if name in columns:
            return columns[name]
        raise AttributeError(f"{type(self).__name__} has no column {name!r}")

    def __len__(self) -> int:
        return len(self.errors)

    @classmethod
    def from_records(cls, records) -> ParamsGrid:
        """The grid of a nonempty list of valid records of one class."""
        record_cls = type(records[0])
        columns = {name: np.array([getattr(r, name) for r in records], dtype=float)
                   for name in _FIELD_NAMES[record_cls]}
        return cls(record_cls, columns, (None,) * len(records))

    @classmethod
    def from_axes(cls, base, names, points) -> ParamsGrid:
        """base with the named parameters set to each point's values at once.

        Raises the InvalidParams of a name that cannot be set on base or
        is given twice, or of n_B beside temperature. On a 1D record, a
        coupling form, omega_b, mass or hbar clears the coupling field
        named in _CLEARS_1D, which is rebuilt from the other form unless
        the point gives it too; then the two forms must agree. A 2D G_o
        is converted to lambda_o at the bright-mode scales of the record
        that the other values make, or must agree with a lambda_o the
        point gives. Last, n_B is converted to a temperature at that
        record's (bright) mode frequency. Each item is the record the
        point makes, validated once, or carries that record's error.
        """
        record_cls, n, names = type(base), len(points), list(names)
        for i, name in enumerate(names):
            if name not in _SETTABLE[record_cls]:
                raise InvalidParams(f"{record_cls.__name__} has no parameter {name!r}; "
                                    f"settable: {' '.join(sorted(_SETTABLE[record_cls]))}")
            if name in names[:i]:
                raise InvalidParams(f"duplicate parameter name {name!r}")
        if "n_B" in names and "temperature" in names:
            raise InvalidParams("give n_B or temperature, not both")
        fields_ = _FIELD_NAMES[record_cls]
        values = np.array(points, dtype=float).reshape(n, len(names)).T.copy()
        start = np.array([getattr(base, name) for name in fields_], dtype=float)
        r = SimpleNamespace(**dict(zip(fields_, np.repeat(start[:, None], n, axis=1))))
        errors: list = [None] * n
        given = dict(zip(names, values))
        rate = given.pop("G_o") if record_cls is SystemParams2D and "G_o" in given else None
        occupation = given.pop("n_B", None)
        vars(r).update(given)
        # The base is a valid record, so only the rules reading a field the
        # point sets can fail, and on a 1D record the agreement of the
        # coupling pair, which a base that derived one form of it has not
        # been checked for.
        with np.errstate(all="ignore"):
            if record_cls is SystemParams1D:
                unset = _rebuilt(record_cls, names)
                _settle_1d_columns(r, errors, unset, frozenset((*given, *(unset or _COUPLINGS))))
            else:
                _flag(r, _RULES[record_cls], errors, (), frozenset(given))
            if rate is not None:
                _flag(SimpleNamespace(G_o=rate), _GIVEN_RATE, errors)
                scales = _bright_scales(r)
                _flag(scales, _ZERO_POINT, errors)
                if "lambda_o" in given:
                    _flag(SimpleNamespace(**vars(scales), lambda_o=r.lambda_o, G_o=rate),
                          (_CONSISTENT,), errors)
                else:
                    r.lambda_o = rate / _rate_per_gradient(scales)
                    _flag(r, _RULES[record_cls], errors, (), frozenset(("lambda_o",)))
            if occupation is not None:
                omega = (r if record_cls is SystemParams1D else _bright_scales(r)).omega_b
                for k in [k for k, e in enumerate(errors) if e is None]:
                    try:
                        r.temperature[k] = temperature_for_occupation(
                            float(occupation[k]), float(omega[k]))
                    except InvalidParams as exc:
                        errors[k] = exc
                _flag(r, _RULES[record_cls], errors, (), frozenset(("temperature",)))
        return cls(record_cls, vars(r), tuple(errors))

    def take(self, idx) -> ParamsGrid:
        """The items idx (a list of indices) as a grid of their own, without errors."""
        return ParamsGrid(self.cls, {name: col[idx] for name, col in self.columns.items()},
                          (None,) * len(idx))


def _rotated_frequencies(p) -> tuple:
    """cos^2 phi, sin^2 phi and the bright and dark mode frequencies of a
    2D record or columns."""
    c, s = np.cos(p.phi), np.sin(p.phi)
    c2, s2 = c * c, s * s
    wx2, wy2 = p.omega_x * p.omega_x, p.omega_y * p.omega_y
    return c2, s2, np.sqrt(c2 * wx2 + s2 * wy2), np.sqrt(s2 * wx2 + c2 * wy2)


def bright_dark(params) -> BrightDark:
    """Rotate the (x, y) trap modes into the bright/dark basis.

    Returns the effective resonance frequencies and damping rates of
    the two rotated modes together with the mixing coefficients. The
    rotation preserves omega_b^2 + omega_d^2 = omega_x^2 + omega_y^2
    and gamma_b + gamma_d = gamma_x + gamma_y. Takes a SystemParams2D,
    or a grid of them, whose columns give columns.
    """
    c2, s2, omega_b, omega_d = _rotated_frequencies(params)
    s2phi = np.sin(2.0 * params.phi)
    gamma_b = c2 * params.gamma_x + s2 * params.gamma_y
    gamma_d = s2 * params.gamma_x + c2 * params.gamma_y
    omega_bar_m = 0.5 * (params.omega_x + params.omega_y)
    delta_m = (params.omega_x - params.omega_y) * s2phi
    eta_m = 0.5 * (params.gamma_x - params.gamma_y) * s2phi
    G_m = omega_bar_m * delta_m / (2.0 * np.sqrt(omega_b * omega_d))
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


def planck(omega, temperature):
    """Bose occupation 1/(exp(omega/T) - 1) at frequency omega > 0.

    ``temperature`` is k_B*T/hbar in frequency units; T <= 0 gives 0.
    Past omega/T of about 709.8, where expm1 overflows, this is
    exp(-omega/T). Takes floats, which give a float, or columns, which
    give a column.
    """
    if np.any(omega <= 0):
        raise InvalidParams("planck requires omega > 0")
    with np.errstate(all="ignore"):
        x = np.divide(omega, temperature)
        grown = np.expm1(x)
        n = np.where(np.isinf(grown), np.exp(-x), 1.0 / grown)
    return np.where(temperature > 0, n, 0.0)[()]


def temperature_for_occupation(n_B: float, omega_ref: float) -> float:
    """Temperature (as k_B*T/hbar) giving occupation n_B at omega_ref.

    Inverse of :func:`planck`; ParamsGrid.from_axes uses this to set a
    point's bath occupation n_B instead of its temperature.
    """
    if not math.isfinite(n_B):
        raise InvalidParams(f"n_B must be finite, got {n_B!r}")
    if n_B < 0:
        raise InvalidParams("n_B must be nonnegative")
    if not 0 < omega_ref < math.inf:
        raise InvalidParams(f"omega_ref must be positive and finite, got {omega_ref!r}")
    if n_B == 0:
        return 0.0
    return omega_ref / math.log1p(1.0 / n_B)


def cooperativity(params: SystemParamsRWA) -> float:
    """Optomechanical cooperativity 4 G_o^2 / (kappa * gamma_tot).

    Raises InvalidParams when kappa or gamma_tot is not positive, or
    when their product underflows to 0.
    """
    gamma_tot = params.gamma_b + params.gamma_d
    if params.kappa <= 0 or gamma_tot <= 0:
        raise InvalidParams("cooperativity requires kappa > 0 and gamma_tot > 0")
    try:
        return 4.0 * (params.G_o * params.G_o) / (params.kappa * gamma_tot)
    except ZeroDivisionError:
        raise InvalidParams("cooperativity: kappa gamma_tot underflows to 0 "
                            "at this record's scales") from None


def g_o_squared(params: SystemParams1D) -> float:
    """Squared backaction coupling scale 2 G_o^2 delta omega_b / ((kappa/2)^2 + delta^2)
    of a 1D record, or of columns.

    This combination controls the softening of the mechanical spring
    by the cavity; the steady state loses stability at
    omega_b^2 = 2 * g_o_squared. A record whose (kappa/2)^2 + delta^2
    underflows to 0 raises InvalidParams; columns give inf or nan there.
    """
    half_kappa = params.kappa / 2.0
    try:
        return (2.0 * (params.G_o * params.G_o) * params.delta * params.omega_b
                / (half_kappa * half_kappa + params.delta * params.delta))
    except ZeroDivisionError:
        raise InvalidParams("g_o_squared: (kappa/2)^2 + delta^2 underflows to 0 "
                            "at this record's scales") from None


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
