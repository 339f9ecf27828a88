"""Every stacked routine returns an errors.Batch, and each item's grid of
one is its public scalar function, bit for bit and error for error."""

import copy
import math
from dataclasses import asdict

import numpy as np
import pytest

from omsteady.closedform import (backaction_1d, backaction_1d_batch, backaction_2d,
                                 backaction_2d_batch, bare_occupation, bare_occupation_batch,
                                 rwa_optimum, rwa_optimum_batch)
from omsteady.errors import Batch, DegenerateState, InvalidParams, UnstableRegime
from omsteady.gaussian import (Cov1D, Cov2D, occupation_and_purity_1d,
                               occupation_and_purity_1d_batch, purity_2d_general,
                               summary_2d_batch)
from omsteady.langevin import (LinearSystem, build_1d, build_1d_batch, build_2d,
                               build_2d_batch, build_rwa, build_rwa_batch, steady_covariance,
                               steady_covariance_batch)
from omsteady.models import (ParamsGrid, SystemParams1D, SystemParamsRWA, resonant_2d_design,
                             with_param)
from omsteady.spectral import (integrate_moments, integrate_moments_batch, moment_integrals,
                               moment_integrals_batch)

P_1D = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)
RECORDS_1D = [P_1D, with_param(P_1D, "G_o", 0.75), with_param(P_1D, "delta", -1.0),
              with_param(P_1D, "G_o", 0.3),
              SystemParams1D(omega_b=1.0, gamma_b=1e-4, kappa=0.2, delta=1.0, G_o=0.05,
                             temperature=2.0)]
P_2D = resonant_2d_design(omega=1.0, G_o=0.1, G_m=0.1 / math.sqrt(2.0), kappa=0.2)
RECORDS_2D = [P_2D, with_param(P_2D, "gamma_x", 1e-3), with_param(P_2D, "phi", 0.0),
              with_param(P_2D, "lambda_o", 2.0), with_param(P_2D, "lambda_o", 0.3)]
P_RWA = SystemParamsRWA(omega_b=1.0, omega_d=1.0, gamma_b=1e-6, gamma_d=1e-6, kappa=1e-3,
                        delta=1.0, G_o=2e-3, G_m=2e-3 / math.sqrt(2.0), n_B_b=25.0, n_B_d=25.0)
RECORDS_RWA = [P_RWA, with_param(P_RWA, "G_o", 0.0), with_param(P_RWA, "G_o", 1e-5),
               with_param(P_RWA, "n_B_d", 30.0)]

# The rotating-wave record whose diffusion gamma_b (n_B_b + 1/2) is near
# the top of the float range. Below 1.3e154 each field's square is finite,
# so no valid rotating-wave record overflows its drift or diffusion.
HOT_RWA = with_param(with_param(P_RWA, "gamma_b", 1.2e154), "n_B_b", 1.2e154)
# A copy of P_RWA with an infinite n_B_b, set past the record's own checks,
# whose diffusion the build's checks flag.
UNCHECKED_RWA = copy.copy(P_RWA)
object.__setattr__(UNCHECKED_RWA, "n_B_b", math.inf)
# Records whose build flags them: a drift and a diffusion past the float
# range, the unchecked copy, and an out-of-regime record that only warns.
BUILD_1D = RECORDS_1D + [with_param(with_param(P_1D, "mass", 1e150), "omega_b", 1e100),
                         with_param(with_param(with_param(RECORDS_1D[-1], "mass", 1e100),
                                               "gamma_b", 1e150), "temperature", 1e150)]
BUILD_RWA = RECORDS_RWA + [HOT_RWA, UNCHECKED_RWA, with_param(P_RWA, "G_o", 0.5)]
# (drift, diffusion) pairs of dimension 4: a settled build, an unstable
# one, a defective drift that the eigenvalue check calls decaying but
# whose operator is singular (so it is unstable too), a non-finite
# drift, that drift times 1e308, whose operator overflows (the
# residual gate fails), and a settled thermal build.
_DEFECTIVE = np.kron(np.eye(2), [[1.0, 1.0], [-1.0, -1.0]])
_VACUUM, _UNSTABLE, _THERMAL = (build_1d(p) for p in (
    P_1D, with_param(P_1D, "G_o", 0.75), RECORDS_1D[4]))
SYSTEMS_4 = [(_VACUUM.drift, _VACUUM.diffusion), (_UNSTABLE.drift, _UNSTABLE.diffusion),
             (_DEFECTIVE, np.eye(4)), (np.where(np.eye(4) > 0, math.nan, -np.eye(4)), np.eye(4)),
             (1e308 * _DEFECTIVE, np.eye(4)),
             (_THERMAL.drift, _THERMAL.diffusion)]

# Second moments: settled, below the Heisenberg bound, hbar = 0.37.
MOMENTS_1D = [(0.5, 0.5, 0.0, 1.0), (0.1, 0.1, 0.0, 1.0), (2.0, 0.7, 0.3, 0.37)]
COVS_2D = [Cov2D(0.5 * np.eye(4)), Cov2D(np.diag([0.1, 0.1, 1.0, 1.0])),
           Cov2D(np.diag([1.0, 1.0, 1.0, -1.0])),
           Cov2D(np.array([[2.0, 0.1, 0.3, 0.0], [0.1, 1.5, 0.0, -0.2],
                           [0.3, 0.0, 1.2, 0.1], [0.0, -0.2, 0.1, 0.9]]), hbar=0.37)]
# (xx, pp, hbar, omega, mass): settled, a zero reference frequency, a
# negative reference mass.
BARE = [(1.5, 0.5, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0, 1.0), (0.7, 2.0, 0.37, 2.0, -1.0),
        (3.0, 0.2, 0.37, 0.5, 2.0)]


def _columns(items):
    return [np.array(c, dtype=float) for c in zip(*items)]


def _rwa_optimum(p):
    g_m_opt, purity_opt, warnings = rwa_optimum(p)
    return {"G_m_opt": g_m_opt, "purity_opt": purity_opt}, warnings


def _backaction_1d(p):
    """backaction_1d's values, and the warning its batch gives a damped
    record, which the record function's result has no field for."""
    damped = ("gamma_b > 0 is treated as zero in the backaction limit",)
    return asdict(backaction_1d(p)), damped if p.gamma_b > 0 else ()


def _system(sys):
    return {"drift": sys.drift, "diffusion": sys.diffusion, "hbar": sys.hbar}, sys.warnings


def _stacked_systems(idx):
    A, D = zip(*(SYSTEMS_4[k] for k in idx))
    return steady_covariance_batch(np.stack(A), np.stack(D))


def _steady_covariance(item):
    """steady_covariance's matrix, and the gate's figures of the item solved alone."""
    A, D = item
    alone = steady_covariance_batch(A[None], D[None])
    values = {"matrix": steady_covariance(LinearSystem(A, D, ("x_b", "p_b", "X_c", "P_c"))).matrix}
    values.update({q: alone.columns[q][0] for q in ("residual", "backward_error", "decay_bound")})
    return values, ()


def _grid_case(batch, scalar, records):
    return (lambda idx: batch(ParamsGrid.from_records([records[k] for k in idx])),
            scalar, records)


# name -> (stack(idx), the Batch of the items idx; scalar(item), its
# columns as a dict and its warnings; the items)
CASES = {
    "backaction_1d": _grid_case(backaction_1d_batch, _backaction_1d, RECORDS_1D),
    "backaction_2d": _grid_case(backaction_2d_batch,
                                lambda p: (asdict(backaction_2d(p)), ()), RECORDS_2D),
    "rwa_optimum": _grid_case(rwa_optimum_batch, _rwa_optimum, RECORDS_RWA),
    "moment_integrals": _grid_case(moment_integrals_batch,
                                   lambda p: (moment_integrals(p), ()), RECORDS_1D),
    "integrate_moments": _grid_case(
        integrate_moments_batch,
        lambda p: ({**{q: getattr(integrate_moments(p), q) for q in ("xx", "pp", "xp")},
                    **{q: moment_integrals(p)[q] for q in ("err_xx", "err_pp", "commutator")}},
                   ()),
        RECORDS_1D),
    "occupation_and_purity_1d": (
        lambda idx: occupation_and_purity_1d_batch(*_columns([MOMENTS_1D[k] for k in idx])),
        lambda m: (dict(zip(("n_bar", "purity"), occupation_and_purity_1d(Cov1D(*m)))), ()),
        MOMENTS_1D),
    "summary_2d": (
        lambda idx: summary_2d_batch(np.stack([COVS_2D[k].matrix for k in idx]),
                                     [COVS_2D[k].hbar for k in idx]),
        lambda c: (asdict(purity_2d_general(c)), ()),
        COVS_2D),
    "build_1d": _grid_case(build_1d_batch, lambda p: _system(build_1d(p)), BUILD_1D),
    "build_2d": _grid_case(build_2d_batch, lambda p: _system(build_2d(p)), RECORDS_2D),
    "build_rwa": _grid_case(build_rwa_batch, lambda p: _system(build_rwa(p)), BUILD_RWA),
    "steady_covariance": (_stacked_systems, _steady_covariance, SYSTEMS_4),
    "bare_occupation": (
        lambda idx: bare_occupation_batch(*_columns([BARE[k] for k in idx])),
        lambda b: ({"n_bar_0": bare_occupation(Cov1D(b[0], b[1], hbar=b[2]), b[3], b[4])}, ()),
        BARE),
}


def _bits(values: dict) -> dict:
    """Each value's bits: a matrix's bytes, a number's hex."""
    return {q: v.tobytes() if np.ndim(v) else float(v).hex() for q, v in values.items()}


@pytest.mark.parametrize("name", CASES)
def test_batch_is_the_stack_of_its_scalar_function(name):
    stack, scalar, items = CASES[name]
    n = len(items)
    batch = stack(range(n))
    assert isinstance(batch, Batch)
    assert len(batch.errors) == len(batch.warnings) == n
    # a column of numbers, or of d x d matrices
    assert all(c.shape in ((n,), (n, c.shape[-1], c.shape[-1])) for c in batch.columns.values())
    assert any(e is None for e in batch.errors) and any(e is not None for e in batch.errors)
    for k, item in enumerate(items):
        one, error = stack([k]), batch.errors[k]
        if error is None:
            values, warnings = scalar(item)
            assert _bits(one.only()) == _bits(values)
            assert _bits({q: c[k] for q, c in batch.columns.items()}) == _bits(values)
            assert one.warnings == [warnings] and batch.warnings[k] == warnings
        else:
            with pytest.raises(type(error)) as raised:
                scalar(item)
            assert str(raised.value) == str(error)
            with pytest.raises(type(error)) as again:
                one.only()
            assert str(again.value) == str(error)


def test_rwa_diffusion_near_the_float_range_settles():
    # 0.5 (D + D^T) overflowed this diagonal entry, which is finite
    system = build_rwa(HOT_RWA)
    assert system.diffusion[2, 2] == system.diffusion[3, 3] == 1.2e154 * (1.2e154 + 0.5)


def test_then_keeps_each_item_first_error_and_joins_the_rest():
    first, second, third = (UnstableRegime("a"), DegenerateState("b"), InvalidParams("c"))
    earlier = Batch([None, first, None], [(), ("w",), ()], {"x": np.arange(3.0)})
    later = Batch([second, third, None], [("v",), (), ()], {"y": np.ones(3)})
    joined = earlier.then(later)
    assert joined.errors == [second, first, None]
    assert joined.warnings == [("v",), ("w",), ()]
    assert list(joined.columns) == ["x", "y"]
    assert earlier.then(Batch([None] * 3, [()] * 3, {})).warnings == earlier.warnings


def test_only_gives_floats_or_raises_the_item_error():
    assert Batch([None], [()], {"x": np.array([0.25])}).only() == {"x": 0.25}
    assert type(Batch([None], [()], {"x": np.array([0.25])}).only()["x"]) is float
    V = np.arange(4.0).reshape(1, 2, 2)
    one = Batch([None], [()], {"x": np.array([0.25]), "V": V}).only()
    assert type(one["x"]) is float and one["V"].shape == (2, 2)
    assert one["V"].tobytes() == V[0].tobytes()
    error = UnstableRegime("item 0")
    with pytest.raises(UnstableRegime, match="^item 0$"):
        Batch([error], [()], {"x": np.array([0.25]), "V": V}).only()
