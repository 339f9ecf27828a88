import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from omsteady.errors import InvalidParams
from omsteady.models import (
    _CLEARS_1D,
    _CONSISTENT,
    _GIVEN_RATE,
    _HBAR_MIN,
    _SETTABLE,
    _ZERO_POINT,
    _bright_scales,
    _check,
    _rate_per_gradient,
    _with_values,
    BrightDark,
    ParamsGrid,
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    bright_dark,
    cooperativity,
    g_o_squared,
    planck,
    resonant_2d_design,
    temperature_for_occupation,
    with_param,
)


class TestSystemParams1D:
    def test_coupling_filled_from_rate(self):
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4)
        assert p.lambda_o == pytest.approx(0.4 / math.sqrt(0.5), rel=1e-15)

    def test_coupling_filled_from_gradient(self):
        lam = 0.4 / math.sqrt(0.5)
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                           lambda_o=lam)
        assert p.G_o == pytest.approx(0.4, rel=1e-15)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InvalidParams):
            SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                           lambda_o=1.0, G_o=0.4)

    def test_consistent_pair_accepted(self):
        lam = 0.4 / math.sqrt(0.5)
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                           lambda_o=lam, G_o=0.4)
        assert p.G_o == 0.4

    def test_missing_coupling_rejected(self):
        with pytest.raises(InvalidParams):
            SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0)

    @pytest.mark.parametrize("field,value", [
        ("omega_b", 0.0), ("omega_b", -1.0), ("gamma_b", -1e-9),
        ("kappa", 0.0), ("mass", 0.0), ("temperature", -0.1), ("hbar", 0.0),
        ("hbar", 2.4426e-77),  # (hbar/2)^4 below the smallest normal float
    ])
    def test_domain_violations(self, field, value):
        kwargs = dict(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)
        kwargs[field] = value
        with pytest.raises(InvalidParams):
            SystemParams1D(**kwargs)

    def test_nonunit_mass_conversion(self):
        p = SystemParams1D(omega_b=2.0, gamma_b=0.0, kappa=0.2, delta=1.0,
                           G_o=0.1, mass=3.0, hbar=0.5)
        conv = math.sqrt(0.5 / (2.0 * 3.0 * 2.0))
        assert p.lambda_o == pytest.approx(0.1 / conv, rel=1e-15)


class TestBrightDark:
    def test_quarter_rotation_example(self):
        p = SystemParams2D(omega_x=1.1, omega_y=0.9, gamma_x=0.0, gamma_y=0.0,
                           phi=math.pi / 4, kappa=0.2, delta=1.0, lambda_o=0.1)
        bd = bright_dark(p)
        assert bd.omega_b == pytest.approx(math.sqrt(1.01), rel=1e-15)
        assert bd.omega_d == pytest.approx(math.sqrt(1.01), rel=1e-15)
        assert bd.delta_m == pytest.approx(0.2, rel=1e-15)
        assert bd.omega_bar_m == pytest.approx(1.0, rel=1e-15)
        assert bd.G_m == pytest.approx(0.0995, abs=5e-5)

    def test_axis_aligned_has_no_mixing(self):
        p = SystemParams2D(omega_x=1.1, omega_y=0.9, gamma_x=1e-3, gamma_y=1e-4,
                           phi=0.0, kappa=0.2, delta=1.0, lambda_o=0.1)
        bd = bright_dark(p)
        assert bd.delta_m == 0.0
        assert bd.eta_m == 0.0
        assert bd.omega_b == pytest.approx(1.1)
        assert bd.gamma_b == pytest.approx(1e-3)

    @given(
        wx=st.floats(0.2, 3.0), wy=st.floats(0.2, 3.0),
        gx=st.floats(0.0, 0.1), gy=st.floats(0.0, 0.1),
        phi=st.floats(0.0, math.pi / 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_traces_preserved(self, wx, wy, gx, gy, phi):
        p = SystemParams2D(omega_x=wx, omega_y=wy, gamma_x=gx, gamma_y=gy,
                           phi=phi, kappa=0.2, delta=1.0, lambda_o=0.1)
        bd = bright_dark(p)
        assert bd.omega_b**2 + bd.omega_d**2 == pytest.approx(
            wx**2 + wy**2, rel=1e-12)
        assert bd.gamma_b + bd.gamma_d == pytest.approx(gx + gy, rel=1e-12, abs=1e-15)

    @given(
        wx=st.floats(0.2, 3.0), wy=st.floats(0.2, 3.0),
        gx=st.floats(0.0, 0.1), gy=st.floats(0.0, 0.1),
        phi=st.floats(1e-3, math.pi / 2 - 1e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_complementary_angle_swaps_roles(self, wx, wy, gx, gy, phi):
        base = dict(omega_x=wx, omega_y=wy, gamma_x=gx, gamma_y=gy,
                    kappa=0.2, delta=1.0, lambda_o=0.1)
        a = bright_dark(SystemParams2D(phi=phi, **base))
        b = bright_dark(SystemParams2D(phi=math.pi / 2 - phi, **base))
        assert a.omega_b == pytest.approx(b.omega_d, rel=1e-12)
        assert a.omega_d == pytest.approx(b.omega_b, rel=1e-12)
        assert a.gamma_b == pytest.approx(b.gamma_d, rel=1e-12, abs=1e-15)
        assert a.delta_m == pytest.approx(b.delta_m, rel=1e-12)
        assert a.eta_m == pytest.approx(b.eta_m, rel=1e-12, abs=1e-15)


class TestPlanck:
    def test_matched_scale_occupation(self):
        # k_B T = hbar omega gives 1/(e - 1)
        assert planck(1.0, 1.0) == pytest.approx(0.5820, abs=5e-5)

    def test_zero_temperature(self):
        assert planck(1.0, 0.0) == 0.0

    def test_high_temperature_is_classical(self):
        assert planck(1.0, 1e6) == pytest.approx(1e6, rel=1e-5)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(InvalidParams):
            planck(0.0, 1.0)

    @given(n=st.floats(1e-6, 1e8), w=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_temperature_roundtrip(self, n, w):
        t = temperature_for_occupation(n, w)
        assert planck(w, t) == pytest.approx(n, rel=1e-12)

    def test_temperature_for_zero_occupation(self):
        assert temperature_for_occupation(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("omega_ref", [math.nan, math.inf, 0.0, -1.0])
    def test_temperature_needs_a_positive_finite_frequency(self, omega_ref):
        with pytest.raises(InvalidParams, match="omega_ref must be positive and finite, got "):
            temperature_for_occupation(1.0, omega_ref)

    def test_column_equals_items(self):
        # one formula for a record's floats and a grid's columns, past the
        # overflow of expm1 (omega/T > 709.8) and at T <= 0 too
        omega = np.array([1.0, 2.0, 800.0, 1e-3, 5.0, 1.0])
        temperature = np.array([1.0, 0.0, 1.0, 1e-3, -0.0, 1e300])
        column = planck(omega, temperature)
        assert column[2] == math.exp(-800.0) and column[1] == column[4] == 0.0
        for w, t, n in zip(omega.tolist(), temperature.tolist(), column.tolist()):
            assert float(planck(w, t)).hex() == n.hex()


class TestDerivedScales:
    def test_g_o_squared_reference_value(self):
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.4)
        assert g_o_squared(p) == pytest.approx(2 * 0.16 / 1.01, rel=1e-15)

    def test_cooperativity(self):
        p = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6, gamma_d=1e-6,
                            kappa=1e-3, delta=1.0, G_o=2e-3, G_m=1e-3)
        assert cooperativity(p) == pytest.approx(4 * 4e-6 / (1e-3 * 2e-6), rel=1e-12)

    def test_g_o_squared_underflowing_denominator_rejected(self):
        # (kappa/2)^2 + delta^2 underflows to 0
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=1e-200, delta=1e-200, G_o=0.1)
        with pytest.raises(InvalidParams, match=r"^g_o_squared: \(kappa/2\)\^2 \+ delta\^2 "
                                                r"underflows to 0 at this record's scales$"):
            g_o_squared(p)

    def test_cooperativity_underflowing_denominator_rejected(self):
        # kappa gamma_tot underflows to 0
        p = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-200, gamma_d=1e-200,
                            kappa=1e-200, delta=1.0, G_o=2e-3, G_m=1e-3)
        with pytest.raises(InvalidParams, match="^cooperativity: kappa gamma_tot underflows "
                                                "to 0 at this record's scales$"):
            cooperativity(p)

    def test_resonant_design_hits_target(self):
        p = resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2)
        bd = bright_dark(p)
        assert bd.omega_b == pytest.approx(1.0, rel=1e-12)
        assert bd.omega_d == pytest.approx(1.0, rel=1e-12)
        assert bd.G_m == pytest.approx(0.1, rel=1e-12)
        assert p.G_o == pytest.approx(0.2, rel=1e-12)
        assert p.delta == 1.0

    def test_resonant_design_rejects_overstrong_mixing(self):
        with pytest.raises(InvalidParams):
            resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.51, kappa=0.2)

    def test_bright_dark_record_fields(self):
        bd = BrightDark(omega_b=1.0, omega_d=1.0, gamma_b=0.0, gamma_d=0.0,
                        delta_m=0.1, eta_m=0.0, omega_bar_m=1.0, G_m=0.05)
        assert bd.delta_m == 0.1


_VALID_RECORDS = (
    SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1),
    resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2),
    SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-9, gamma_d=1e-9,
                    kappa=1e-3, delta=1.0, G_o=2e-3, G_m=1e-3),
)


def _with_field(record, name, value):
    kwargs = {g.name: getattr(record, g.name) for g in dataclasses.fields(record)}
    kwargs[name] = value
    if name in ("G_o", "lambda_o") and isinstance(record, SystemParams1D):
        kwargs["lambda_o" if name == "G_o" else "G_o"] = None
    return kwargs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record", _VALID_RECORDS, ids=lambda r: type(r).__name__)
def test_non_finite_fields_rejected(record, bad):
    # every field of every params record, so a field added later without
    # a finiteness check fails here
    for f in dataclasses.fields(record):
        with pytest.raises(InvalidParams, match=f"{f.name} must be finite"):
            type(record)(**_with_field(record, f.name, bad))


@pytest.mark.parametrize("big", [1e160, -1e160])
@pytest.mark.parametrize("record", _VALID_RECORDS, ids=lambda r: type(r).__name__)
def test_fields_whose_square_overflows_rejected(record, big):
    # finite, but the drift matrices and closed forms square every field
    for f in dataclasses.fields(record):
        with pytest.raises(InvalidParams, match=f"{f.name} must be below 1.3e154"):
            type(record)(**_with_field(record, f.name, big))


def test_finite_fields_whose_sum_overflows_accepted():
    # the record checks the sum of the squares of its fields first; an
    # overflowing sum of finite squares must not be taken for a
    # non-finite field
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=1e154, delta=1e154, G_o=0.1)
    assert p.delta == 1e154


@pytest.mark.parametrize("given, derived", [
    (dict(lambda_o=1e150, mass=1e-20), "G_o"),
    (dict(G_o=1e150, mass=1e20), "lambda_o"),
])
def test_derived_coupling_that_overflows_rejected(given, derived):
    with pytest.raises(InvalidParams, match=f"{derived} must be below 1.3e154") as exc:
        SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, **given)
    assert "np." not in str(exc.value)


@pytest.mark.parametrize("given", ["G_o", "lambda_o"])
def test_records_hold_python_floats(given):
    # The formulas run on numpy's ufuncs; a numpy float leaking into a
    # field would print as np.float64(...) in an InvalidParams text.
    p = SystemParams1D(omega_b=1.3, gamma_b=1e-3, kappa=0.2, delta=1.0, mass=0.7, hbar=1.1,
                       temperature=0.5, **{given: 0.1})
    records = [p, with_param(p, "mass", 0.3), with_param(p, "lambda_o", 0.2)]
    p2d = resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2, mass=0.7, hbar=1.1)
    records += [with_param(p2d, "G_o", 0.05), with_param(p2d, "phi", 0.3),
                # as the CLI sets a bath occupation: at the bright-mode frequency
                with_param(p2d, "temperature",
                           temperature_for_occupation(5.0, bright_dark(p2d).omega_b))]
    for record in records:
        assert [type(getattr(record, f.name)) for f in dataclasses.fields(record)] == [
            float] * len(dataclasses.fields(record)), record
    assert type(records[-3].G_o) is float


def test_several_values_keep_a_coupling_form_that_is_given():
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)
    # omega_b clears lambda_o only where lambda_o is not given beside it
    chain = with_param(with_param(p, "omega_b", 1.2), "lambda_o", 0.3)
    assert _with_values(p, {"lambda_o": 0.3, "omega_b": 1.2}) == chain
    assert _with_values(p, {"omega_b": 1.2, "G_o": 0.2}).G_o == 0.2
    assert _with_values(p, {"G_o": chain.G_o, "lambda_o": 0.3, "omega_b": 1.2}) == chain
    with pytest.raises(InvalidParams, match="lambda_o and G_o are inconsistent"):
        _with_values(p, {"G_o": 0.1, "lambda_o": 0.3, "omega_b": 1.2})
    p2d = resonant_2d_design(omega=1.0, G_o=0.2, G_m=0.1, kappa=0.2)
    # a 2D rate is converted at the record the other values make
    moved = _with_values(p2d, {"G_o": 0.2, "omega_x": 1.3})
    assert moved == with_param(with_param(p2d, "omega_x", 1.3), "G_o", 0.2)
    assert _with_values(p2d, {"G_o": 0.2, "lambda_o": moved.lambda_o, "omega_x": 1.3}) == moved
    with pytest.raises(InvalidParams, match="lambda_o and G_o are inconsistent: G_o=0.2 "):
        _with_values(p2d, {"G_o": 0.2, "lambda_o": p2d.lambda_o, "omega_x": 1.3})


def test_zero_point_variance_that_underflows_rejected():
    # hbar / (2 mass omega_b) converts between G_o and lambda_o; a
    # quotient by 0 raised ZeroDivisionError, one of 0 made a coupling 0
    with pytest.raises(InvalidParams, match="2 mass omega_b underflows to 0"):
        SystemParams1D(omega_b=1e-200, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1,
                       mass=1e-200)
    with pytest.raises(InvalidParams, match=r"hbar / \(2 mass omega_b\) underflows to 0"):
        SystemParams1D(omega_b=1e154, gamma_b=0.0, kappa=0.2, delta=1.0, lambda_o=0.1,
                       mass=1e154)


# Values an axis or a base record may hold: the edges of the float range,
# the record's own limits, and ordinary numbers.
_EDGES = (0.0, -0.0, -1.0, 1.0, 0.2, math.nan, math.inf, -math.inf, 1e308, -1e308,
          1e-308, 1e-310, 5e-324, 1e154, 1.3e154, 1.35e154, 1e-200, 1e150, math.pi / 2,
          math.nextafter(math.pi / 2, 4.0), _HBAR_MIN, math.nextafter(_HBAR_MIN, 0.0),
          2.5e-77)
_AXIS_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(),
                         st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
_BASE_VALUES = st.one_of(st.sampled_from([v for v in _EDGES if v > 0 and v < 1e154]),
                         st.floats(-300.0, 150.0).map(lambda e: 10.0 ** e))
_MODELS = {
    SystemParams1D: ("omega_b", "gamma_b", "kappa", "delta", "mass", "temperature", "hbar"),
    SystemParams2D: ("omega_x", "omega_y", "gamma_x", "gamma_y", "kappa", "delta",
                     "lambda_o", "mass", "temperature", "hbar"),
    SystemParamsRWA: ("omega_b", "omega_d", "gamma_b", "gamma_d", "kappa", "delta", "G_o",
                      "G_m", "n_B_b", "n_B_d"),
}


def _record_override(base, values):
    """The record that sets the values on base at once, made through the
    record classes alone: the reference for ParamsGrid.from_axes.

    An n_B is the temperature of that occupation at the (bright) mode
    frequency of the record that the other values make, as the command
    line converted it before from_axes took n_B; that temperature is
    then set at once with the other values.
    """
    values = {name: float(value) for name, value in values.items()}
    n_b = values.pop("n_B", None)
    record = _set_at_once(base, values)
    if n_b is None:
        return record
    omega = record.omega_b if isinstance(record, SystemParams1D) else bright_dark(record).omega_b
    return _set_at_once(base, {**values, "temperature": temperature_for_occupation(
        n_b, float(omega))})


def _set_at_once(base, values):
    values = dict(values)
    with np.errstate(all="ignore"):
        if isinstance(base, SystemParams1D):
            cleared = {_CLEARS_1D[name]: None for name in values if name in _CLEARS_1D}
            return dataclasses.replace(base, **{**cleared, **values})
        if isinstance(base, SystemParams2D) and "G_o" in values:
            rate = values.pop("G_o")
            base = dataclasses.replace(base, **values)
            _check(SimpleNamespace(G_o=rate), _GIVEN_RATE)
            scales = _bright_scales(base)
            _check(scales, _ZERO_POINT)
            if "lambda_o" in values:
                _check(SimpleNamespace(**vars(scales), lambda_o=base.lambda_o, G_o=rate),
                       (_CONSISTENT,))
                return base
            values = {"lambda_o": rate / float(_rate_per_gradient(scales))}
        return dataclasses.replace(base, **values)


@st.composite
def _grid_case(draw, cls):
    kwargs = {name: draw(_BASE_VALUES) for name in _MODELS[cls]}
    if "hbar" in kwargs:  # most of _BASE_VALUES lies below _HBAR_MIN
        kwargs["hbar"] = draw(st.one_of(st.sampled_from([_HBAR_MIN, 2.5e-77, 1.0]),
                                        st.floats(-76.0, 150.0).map(lambda e: 10.0 ** e)))
    if cls is SystemParams1D:
        kwargs[draw(st.sampled_from(["G_o", "lambda_o"]))] = draw(_BASE_VALUES)
    if cls is SystemParams2D:
        kwargs["phi"] = draw(st.floats(0.0, math.pi / 2))
    try:
        base = cls(**kwargs)
    except InvalidParams:
        assume(False)
    settable = sorted(_SETTABLE[cls]) + ["wavelength"]
    names = draw(st.lists(st.sampled_from(settable), min_size=0, max_size=3, unique=True))
    points = draw(st.lists(st.tuples(*[_AXIS_VALUES] * len(names)), min_size=1, max_size=4))
    return base, names, points


@pytest.mark.parametrize("cls", list(_MODELS), ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_grid_from_axes_equals_the_record_override(cls, data):
    # Each item of the grid is the record that sets the point's values at
    # once, bit for bit, or carries the error that record raises, with
    # the same text. A name that cannot be set raises for the grid.
    base, names, points = data.draw(_grid_case(cls))
    if "wavelength" in names:
        with pytest.raises(InvalidParams, match="has no parameter 'wavelength'"):
            ParamsGrid.from_axes(base, names, points)
        return
    if {"n_B", "temperature"} <= set(names):
        with pytest.raises(InvalidParams, match="^give n_B or temperature, not both$"):
            ParamsGrid.from_axes(base, names, points)
        return
    grid = ParamsGrid.from_axes(base, names, points)
    assert len(grid) == len(points) and grid.cls is cls
    for k, point in enumerate(points):
        try:
            expect = _record_override(base, dict(zip(names, point)))
        except InvalidParams as exc:
            assert (type(grid.errors[k]), str(grid.errors[k])) == (type(exc), str(exc))
        else:
            assert grid.errors[k] is None
            for f in dataclasses.fields(expect):
                assert float(getattr(expect, f.name)).hex() == grid.columns[f.name][k].hex()


@pytest.mark.parametrize("names", [["G_o", "G_o"], ["n_B", "delta", "n_B"]])
def test_grid_rejects_a_repeated_name(names):
    base = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)
    with pytest.raises(InvalidParams, match=f"^duplicate parameter name {names[0]!r}$"):
        ParamsGrid.from_axes(base, names, [[0.1, 0.3, 0.5][:len(names)]])


def test_occupation_is_converted_at_the_record_the_other_values_make():
    base = SystemParams1D(omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=0.1)
    grid = ParamsGrid.from_axes(base, ["n_B", "omega_b"], [(2.0, 1.3), (-1.0, 1.3), (0.0, 0.7)])
    assert grid.errors[0] is None and grid.errors[2] is None
    assert str(grid.errors[1]) == "n_B must be nonnegative"
    assert grid.temperature[[0, 2]].tolist() == [temperature_for_occupation(2.0, 1.3), 0.0]
    # on a 2D record, at the bright-mode frequency of the moved trap
    moved = with_param(_BASE_2D, "omega_x", 1.3)
    assert with_param(moved, "n_B", 5.0) == _with_values(_BASE_2D, {
        "omega_x": 1.3, "temperature": temperature_for_occupation(5.0, bright_dark(moved).omega_b)})
    assert _with_values(_BASE_2D, {"n_B": 5.0, "omega_x": 1.3}) == with_param(moved, "n_B", 5.0)


def test_record_derives_the_coupling_form_the_grid_derived():
    # lambda_o = G_o / 1e28 is subnormal here, so lambda_o * 1e28 misses
    # G_o past the agreement tolerance: with_param must derive lambda_o as
    # the grid did rather than check the pair as if both forms were given
    base = SystemParams1D(omega_b=0.5, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=1e-290,
                          mass=1e-56)
    for values in ({"G_o": 2e-290}, {"G_o": 2e-290, "n_B": 1.0}):
        grid = ParamsGrid.from_axes(base, values, [tuple(values.values())])
        record = _with_values(base, values)
        assert grid.errors == (None,)
        assert [getattr(record, name) for name in grid.columns] == [
            float(column[0]) for column in grid.columns.values()]
    assert record.lambda_o == 2e-318 and record.temperature == temperature_for_occupation(1.0, 0.5)


def test_grid_checks_the_pair_a_derived_coupling_made():
    # lambda_o = G_o / 1.1e115 underflows to 0 in the base record; the
    # record the delta override makes gives both forms, which disagree
    base = SystemParams1D(omega_b=1.0, gamma_b=1.0, kappa=1.0, delta=1.0, G_o=1e-308,
                          mass=1e-308, temperature=1.0, hbar=_HBAR_MIN)
    with pytest.raises(InvalidParams) as exc:
        with_param(base, "delta", 0.5)
    (error,) = ParamsGrid.from_axes(base, ["delta"], [(0.5,)]).errors
    assert str(error) == str(exc.value) == ("lambda_o and G_o are inconsistent: G_o=1e-308 "
                                             "but lambda_o implies 0.0")


def test_grid_sets_a_point_at_once():
    # hbar alone would rebuild lambda_o from the base G_o, past the float
    # range at this hbar; the point gives lambda_o, from which G_o is rebuilt
    base = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=1e130)
    expect = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, lambda_o=1.0,
                            hbar=2.5e-77)
    (error,) = ParamsGrid.from_axes(base, ["hbar", "lambda_o"], [(2.5e-77, 1.0)]).errors
    assert error is None
    assert _with_values(base, {"hbar": 2.5e-77, "lambda_o": 1.0}) == expect
    with pytest.raises(InvalidParams, match="lambda_o must be below 1.3e154"):
        with_param(base, "hbar", 2.5e-77)


_BASE_2D = SystemParams2D(omega_x=1.1, omega_y=0.9, gamma_x=0.0, gamma_y=0.0, phi=math.pi / 4,
                          kappa=0.2, delta=1.0, lambda_o=0.2 * math.sqrt(2.0))


@pytest.mark.parametrize("rate, message", [
    (1e300, "G_o must be below 1.3e154 in magnitude, got 1e+300"),
    (math.nan, "G_o must be finite, got nan"),
    # a rate whose square is finite, but not that of its lambda_o
    (1.2e154, "lambda_o must be below 1.3e154 in magnitude, got 1.7012830978067163e+154"),
])
def test_twoD_rate_is_checked_under_its_own_name(rate, message):
    with pytest.raises(InvalidParams) as exc:
        with_param(_BASE_2D, "G_o", rate)
    (error,) = ParamsGrid.from_axes(_BASE_2D, ["G_o"], [(rate,)]).errors
    assert str(error) == str(exc.value) == message


def test_twoD_non_finite_rate_beside_its_gradient_is_rejected():
    with pytest.raises(InvalidParams, match="^G_o must be finite, got nan$"):
        _with_values(_BASE_2D, {"G_o": math.nan, "lambda_o": 0.3})


def test_grid_records_round_trip():
    base = SystemParams1D(omega_b=1.0, gamma_b=1e-3, kappa=0.2, delta=1.0, G_o=0.1)
    records = [with_param(base, "G_o", g) for g in (0.05, 0.2)] + [base]
    grid = ParamsGrid.from_records(records)
    taken = grid.take([2, 0])
    assert [SystemParams1D(**{name: float(col[k]) for name, col in taken.columns.items()})
            for k in range(len(taken))] == [base, records[0]]
    assert grid.G_o.tolist() == [0.05, 0.2, 0.1]
