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

Each record class validates with one ordered table of rules. A rule
reads a record's floats or a ParamsGrid's columns alike, so a record
raises the InvalidParams of the first rule it breaks, and a grid gives
each item the error its record would raise, with the same text. A
ParamsGrid holds many records as one float64 column per field; sweeps
build one per chunk of grid points with ParamsGrid.from_axes, which
applies overrides as with_param does, and every evaluator of
omsteady.sweep takes one.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, fields, replace
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
    "check_param_names",
]

_COUPLING_CONSISTENCY_RTOL = 1e-9

#: Smallest hbar whose (hbar/2)^4, the scale of a two-mode covariance
#: determinant, is a normal float (about 2.443e-77; SI's 1.05e-34 passes).
#: Compared with hbar itself, since (hbar/2)^4 overflows for large hbar.
_HBAR_MIN = 2.0 * sys.float_info.min ** 0.25


# Float-or-array helpers: one formula serves a record's floats and a
# grid's columns. Powers and transcendentals go item by item through
# Python's float math, since numpy rounds x**2 (as x*x) and x**4
# differently from the C pow behind Python's float power in about 1
# case in 1,000 and 1 in 40 on random inputs; +, -, *, / and sqrt are
# correctly rounded in both.


def _items(fn, x):
    """fn(x) for a float; fn of each item, as a float, for an array.

    An item fn raises on gets what numpy gives: inf past the float
    range, nan outside fn's domain. Column rules see such items, though
    an earlier rule rejects them.
    """
    if not isinstance(x, np.ndarray):
        return fn(x)
    values = x.tolist()
    try:
        return np.array([fn(v) for v in values], dtype=float)
    except (OverflowError, ValueError):
        return np.array([_item_or_numpy(fn, v) for v in values], dtype=float)


def _item_or_numpy(fn, v: float) -> float:
    try:
        return fn(v)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _py_pow(x, k: int):
    """x**k, for an even k, with Python's float power (item by item for an
    array, as _items does)."""
    if not isinstance(x, np.ndarray):
        return x ** k
    try:
        return np.array([v ** k for v in x.tolist()], dtype=float)
    except OverflowError:
        return _items(lambda v: v ** k, x)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _nonfinite(x):
    return ~np.isfinite(x) if isinstance(x, np.ndarray) else not math.isfinite(x)


def _maximum(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


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
        ((name,), lambda r, n=name: _nonfinite(getattr(r, n)),
         lambda r, n=name: f"{n} must be finite, got {getattr(r, n)!r}"),
        ((name,), lambda r, n=name: _nonfinite(getattr(r, n) * getattr(r, n)),
         lambda r, n=name: f"{n} must be below 1.3e154 in magnitude, got {getattr(r, n)!r}"),
    )]


def _text(message, r) -> str:
    return message if isinstance(message, str) else message(r)


def _check(r, table, unset=()) -> None:
    """Raise the InvalidParams of the first rule of table the record r breaks."""
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
    return _sqrt(r.hbar / (2.0 * r.mass * r.omega_b))


def _implied_rate(r):
    return r.lambda_o * _rate_per_gradient(r)


_CONSISTENT = (
    ("lambda_o", "G_o", "hbar", "mass", "omega_b"),
    lambda r: abs(_implied_rate(r) - r.G_o) > _COUPLING_CONSISTENCY_RTOL * _maximum(
        _maximum(abs(_implied_rate(r)), abs(r.G_o)), 1e-300),
    lambda r: "lambda_o and G_o are inconsistent: "
              f"G_o={r.G_o} but lambda_o implies {_implied_rate(r)}",
)
#: The rules on the settled coupling pair: a derived form of the coupling
#: can overflow where the given one did not, and a given pair must agree.
_DERIVED_COUPLING = (_Finite(_COUPLINGS),)
_GIVEN_COUPLING = (_CONSISTENT, *_DERIVED_COUPLING)


def _settle_1d(r, unset: tuple, check) -> None:
    """Validate a 1D record, or its columns, and set the coupling fields
    named in unset (those not given) from the other one.

    check(r, table, unset) applies a rule table: _check for a record,
    _flag for columns.
    """
    check(r, _RULES[SystemParams1D], unset)
    if len(unset) == 2:
        raise InvalidParams("specify lambda_o or G_o")
    if unset == ("lambda_o",):
        object.__setattr__(r, "lambda_o", r.G_o / _rate_per_gradient(r))
    elif unset == ("G_o",):
        object.__setattr__(r, "G_o", r.lambda_o * _rate_per_gradient(r))
    check(r, _DERIVED_COUPLING if unset else _GIVEN_COUPLING, ())


#: SystemParams1D fields whose replacement clears a coupling field, so
#: the record rebuilds it: the other form of the coupling, or lambda_o
#: where the factor sqrt(hbar / (2 m omega_b)) between the two changes.
_CLEARS_1D = {"G_o": "lambda_o", "lambda_o": "G_o",
              "omega_b": "lambda_o", "mass": "lambda_o", "hbar": "lambda_o"}
#: Names with_param can set: the record's fields, and G_o on a 2D record.
_SETTABLE = {cls: frozenset(names) | ({"G_o"} if cls is SystemParams2D else frozenset())
             for cls, names in _FIELD_NAMES.items()}


def _no_parameter(cls, name: str) -> InvalidParams:
    return InvalidParams(f"{cls.__name__} has no parameter {name!r}")


def check_param_names(params, names) -> None:
    """Raise InvalidParams for the first name with_param cannot set on params."""
    for name in names:
        if name not in _SETTABLE[type(params)]:
            raise _no_parameter(type(params), name)


def _bright_scales(p) -> SimpleNamespace:
    """hbar, mass and the bright-mode frequency omega_b (as bright_dark has
    it, without the mixing terms) of a 2D record or columns."""
    return SimpleNamespace(hbar=p.hbar, mass=p.mass, omega_b=_rotated_frequencies(p)[2])


def with_param(params, name: str, value: float):
    """Copy of a params record with one named parameter replaced.

    The 1D coupling is stored in both rate (G_o) and gradient
    (lambda_o) form; overriding either clears the other so the pair is
    rebuilt consistently. Overriding omega_b, mass or hbar, which enter
    the conversion between the two, clears lambda_o, so the coupling
    rate G_o holds. The 2D record stores only lambda_o; a G_o there is
    converted at the bright-mode frequency of the record, as in
    resonant_2d_design.
    """
    check_param_names(params, (name,))
    if isinstance(params, SystemParams1D) and name in _CLEARS_1D:
        return replace(params, **{name: value, _CLEARS_1D[name]: None})
    if name == "G_o" and isinstance(params, SystemParams2D):
        scales = _bright_scales(params)
        _check(scales, _ZERO_POINT)
        return replace(params, lambda_o=value / _rate_per_gradient(scales))
    return replace(params, **{name: value})


@dataclass(frozen=True, eq=False)
class ParamsGrid:
    """Params records as columns: the record class, one float64 array per
    field, and per item the InvalidParams its record raises (None where
    the record is valid).

    A grid reads like a record, ``grid.kappa`` being the kappa column,
    so the rules and the formulas written for a record's floats run on
    its columns too. The columns of an item with an error hold the base
    record's values and mean nothing.
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

    def __iter__(self):
        return iter(self.records())

    @classmethod
    def from_records(cls, records) -> ParamsGrid:
        """The grid of a nonempty list of valid records of one class."""
        record_cls = type(records[0])
        columns = {name: np.array([getattr(r, name) for r in records], dtype=float)
                   for name in _FIELD_NAMES[record_cls]}
        return cls(record_cls, columns, (None,) * len(records))

    @classmethod
    def from_axes(cls, base, names, points) -> ParamsGrid:
        """base with the named parameters set to each point's values.

        Applies the overrides as a chain of with_param calls would:
        names that are not couplings in order, then lambda_o, then G_o,
        so the coupling they set holds at the point's final frequencies
        and scales. Each step is validated as the record it makes, so an
        item gets the error of the first invalid record of its chain; a
        name with_param cannot set is that error at its step.
        """
        record_cls, n, names = type(base), len(points), list(names)
        fields_ = _FIELD_NAMES[record_cls]
        values = np.array(points, dtype=float).reshape(n, len(names))
        start = np.array([getattr(base, name) for name in fields_], dtype=float)
        r = SimpleNamespace(**dict(zip(fields_, np.repeat(start[:, None], n, axis=1))))
        errors: list = [None] * n
        changed = frozenset()

        def check(r, table, unset=()):
            _flag(r, table, errors, unset, changed)

        order = [j for j, name in enumerate(names) if name not in _COUPLINGS]
        order += [names.index(name) for name in _COUPLINGS if name in names]
        with np.errstate(all="ignore"):
            for j in order:
                name, column = names[j], values[:, j].copy()
                if name not in _SETTABLE[record_cls]:
                    flag_first(errors, np.ones(n, dtype=bool),
                               lambda k: _no_parameter(record_cls, name))
                    continue
                if record_cls is SystemParams2D and name == "G_o":
                    scales = _bright_scales(r)
                    _flag(scales, _ZERO_POINT, errors)
                    name, column = "lambda_o", column / _rate_per_gradient(scales)
                setattr(r, name, column)
                # Every item holds a valid record before the step, so only
                # the rules reading the fields it changes can fail, and the
                # agreement of a coupling pair, which a record that derived
                # one form of the coupling has not been checked for.
                if record_cls is SystemParams1D:
                    unset = (_CLEARS_1D[name],) if name in _CLEARS_1D else ()
                    changed = frozenset((name, *(unset or _COUPLINGS)))
                    _settle_1d(r, unset, check)
                else:
                    changed = frozenset((name,))
                    check(r, _RULES[record_cls])
                # Later steps run Python's float math on every item, so a
                # failed item goes back to the base record's values.
                failed = [k for k, e in enumerate(errors) if e is not None]
                if failed:
                    for field, col in vars(r).items():
                        col[failed] = getattr(base, field)
        return cls(record_cls, vars(r), tuple(errors))

    def take(self, idx) -> ParamsGrid:
        """The items idx (a list of indices) as a grid of their own, without errors."""
        return ParamsGrid(self.cls, {name: col[idx] for name, col in self.columns.items()},
                          (None,) * len(idx))

    def records(self) -> list:
        """The params record of each item; every item must be valid.

        The records are not validated again: their values passed the
        class's rules when the grid was made, and the fields are set as
        they are.
        """
        names = list(self.columns)
        out = []
        for row in zip(*(col.tolist() for col in self.columns.values())):
            record = object.__new__(self.cls)
            record.__dict__.update(zip(names, row))
            out.append(record)
        return out


def _rotated_frequencies(p) -> tuple:
    """cos^2 phi, sin^2 phi and the bright and dark mode frequencies of a
    2D record or columns."""
    c2 = _py_pow(_items(math.cos, p.phi), 2)
    s2 = _py_pow(_items(math.sin, p.phi), 2)
    wx2, wy2 = _py_pow(p.omega_x, 2), _py_pow(p.omega_y, 2)
    return c2, s2, _sqrt(c2 * wx2 + s2 * wy2), _sqrt(s2 * wx2 + c2 * wy2)


def bright_dark(params) -> BrightDark:
    """Rotate the (x, y) trap modes into the bright/dark basis.

    Returns the effective resonance frequencies and damping rates of
    the two rotated modes together with the mixing coefficients. The
    rotation preserves omega_b^2 + omega_d^2 = omega_x^2 + omega_y^2
    and gamma_b + gamma_d = gamma_x + gamma_y. Takes a SystemParams2D,
    or a grid of them, whose columns give columns.
    """
    c2, s2, omega_b, omega_d = _rotated_frequencies(params)
    s2phi = _items(math.sin, 2.0 * params.phi)
    gamma_b = c2 * params.gamma_x + s2 * params.gamma_y
    gamma_d = s2 * params.gamma_x + c2 * params.gamma_y
    omega_bar_m = 0.5 * (params.omega_x + params.omega_y)
    delta_m = (params.omega_x - params.omega_y) * s2phi
    eta_m = 0.5 * (params.gamma_x - params.gamma_y) * s2phi
    G_m = omega_bar_m * delta_m / (2.0 * _sqrt(omega_b * omega_d))
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
    Past omega/T of about 709.8, where exp overflows, this is exp(-omega/T).
    """
    if omega <= 0:
        raise InvalidParams("planck requires omega > 0")
    if temperature <= 0:
        return 0.0
    try:
        return 1.0 / math.expm1(omega / temperature)
    except OverflowError:
        return math.exp(-omega / temperature)


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
