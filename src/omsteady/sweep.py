"""Grid evaluation engine and deterministic CSV output.

A sweep is a RunConfig (model, solver, base parameters, requested
quantities) plus a SweepSpec (one or two named axes). Each (model,
solver) pair has one route in the registry: an evaluator, the
quantities it gives and its chunk. The evaluator takes a ParamsGrid
(the records of a chunk as one float64 column per field, see
omsteady.models) and returns a block: per item its error or None and
its warnings tuple, and per quantity one float64 column over the items
that settled. The Lyapunov evaluators build the drift and diffusion
stacks from the columns and solve them as one stack, the 1D closed
form evaluates its formulas on the columns, the spectral evaluator
shares each round of its panel rule across the chunk, and the twoD and
rwa closed forms evaluate record by record into one block.

Stacked routes (Lyapunov, spectral) take 64 items per call, since their
memory grows with the chunk (the 21x21 vech operators, the panel
table); the others take 1,024, where only the Python work per call is
to amortize. Sweeps, figures, validation and optimize all evaluate
through the registry, a grid in chunks of grid points whose ParamsGrid
comes from the axis values directly (ParamsGrid.from_axes), a list of
records in chunks of records (ParamsGrid.from_records). Rows come out
in grid order, and a row never depends on the chunk its point falls
in.

A SweepResult keeps the rows as columns: each requested quantity over
the stable rows, a stable mask, and each row's warnings. Its CSV cells
are formatted from the columns, and SweepRow objects (SweepResult.rows,
evaluate_point) and values dicts (evaluate_config, evaluate_records)
are made only at those boundaries.

Unstable or invalid grid points (errors with exit code 2 or 3, see
:mod:`omsteady.errors`) are kept as rows with an explicit stable=0
flag and empty quantity cells; an error with exit code 4 aborts the
sweep. Nothing is interpolated or fabricated.

CSV format: comma separated, '.' decimal point, first line column
names, second line units, UTF-8 with LF line endings, every float
rendered with %.17g so a reread reproduces the binary value exactly.
Files are written to a temporary sibling and atomically renamed.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .closedform import (_reference_error, backaction_1d_batch, backaction_2d,
                         bare_occupation_batch, rwa_optimum)
from .errors import InvalidParams, OmsteadyError, UncertaintyViolation, flag_first
from .gaussian import occupation_and_purity_1d_batch, summary_2d_batch
from .langevin import (NoiseMode, build_1d_batch, build_2d_batch, build_rwa_batch,
                       steady_covariance_batch)
from .models import (ParamsGrid, SystemParams1D, SystemParams2D, SystemParamsRWA,
                     check_param_names, with_param)
from .spectral import moment_integrals_batch, stationary_moments

# Not called here, since every route evaluates a ParamsGrid, but
# perfbench/spans.py wraps these names of this module for its traces.
from .closedform import backaction_1d, bare_occupation  # noqa: F401
from .gaussian import occupation_and_purity_1d, purity_2d_general  # noqa: F401
from .langevin import build_1d, build_2d, build_rwa, steady_covariance  # noqa: F401
from .spectral import integrate_moments  # noqa: F401

__all__ = [
    "RunConfig",
    "Axis",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "MODELS",
    "SOLVERS",
    "available_quantities",
    "evaluate_point",
    "run_sweep",
    "write_csv",
    "sweep_to_csv",
    "with_param",
    "check_param_names",
    "evaluate_config",
    "evaluate_records",
    "record_values",
    "evaluate_grid",
    "format_float",
    "UNITS",
    "MAX_GRID_POINTS",
    "check_grid_size",
]

MODELS = ("oneD", "twoD", "rwa")
SOLVERS = ("lyapunov", "spectral", "closed_form")

_PARAM_TYPES = {
    "oneD": SystemParams1D,
    "twoD": SystemParams2D,
    "rwa": SystemParamsRWA,
}

#: Unit strings for every quantity and parameter the CSV can contain,
#: in the hbar = m = 1 frame with frequencies in units of omega_ref.
UNITS = {
    "xx": "hbar/(m*omega_ref)",
    "pp": "hbar*m*omega_ref",
    "xp": "hbar",
    "xx_b": "hbar/(m*omega_ref)",
    "xx_d": "hbar/(m*omega_ref)",
    "pp_b": "hbar*m*omega_ref",
    "pp_d": "hbar*m*omega_ref",
    "x_b_x_d": "hbar/(m*omega_ref)",
    "p_b_p_d": "hbar*m*omega_ref",
    "n_bar": "dimensionless",
    "n_bar_0": "dimensionless",
    "purity": "dimensionless",
    "purity_2d": "dimensionless",
    "purity_product": "dimensionless",
    "N_plus": "dimensionless",
    "N_minus": "dimensionless",
    "n_b": "dimensionless",
    "n_d": "dimensionless",
    "M_Omega": "m*omega_ref",
    "n_min_weak": "dimensionless",
    "G_m_opt": "omega_ref",
    "purity_opt": "dimensionless",
    "omega_b": "omega_ref",
    "omega_d": "omega_ref",
    "omega_x": "omega_ref",
    "omega_y": "omega_ref",
    "gamma_b": "omega_ref",
    "gamma_d": "omega_ref",
    "gamma_x": "omega_ref",
    "gamma_y": "omega_ref",
    "kappa": "omega_ref",
    "delta": "omega_ref",
    "G_o": "omega_ref",
    "G_m": "omega_ref",
    "lambda_o": "(m*omega_ref^3/hbar)^(1/2)",
    "phi": "rad",
    "temperature": "hbar*omega_ref/k_B",
    "n_B_b": "dimensionless",
    "n_B_d": "dimensionless",
    "mass": "m",
    "hbar": "hbar",
    "stable": "flag",
    "warnings": "text",
}


class _Block(NamedTuple):
    """What an evaluator returns for n items, as columns.

    errors[k] is item k's OmsteadyError, or None where it settled;
    warnings[k] is its regime warnings; columns maps each quantity to a
    float64 array over the settled items, in item order.
    """

    errors: list
    warnings: list
    columns: dict


def _settled(errors: list) -> list:
    return [k for k, e in enumerate(errors) if e is None]


def _block(errors: list, warns: list, idx: list, cols: dict, later: list) -> _Block:
    """The block of the items idx, settled so far with the columns cols
    over them, after later checks gave each its error or None."""
    errors = list(errors)
    keep = []
    for j, (k, e) in enumerate(zip(idx, later)):
        if e is None:
            keep.append(j)
        else:
            errors[k] = e
    if len(keep) < len(idx):
        cols = {q: c[keep] for q, c in cols.items()}
    return _Block(errors, warns, cols)


def _each(evaluate, items, names: tuple) -> _Block:
    """The block of evaluate(item) per item: (its values in the order of
    names, its warnings), or the OmsteadyError it raised.

    An error is kept without its traceback. The traceback holds this
    frame and its callers, which hold the list the error is kept in: a
    reference cycle that would keep each chunk alive until the garbage
    collector runs.
    """
    errors, warns, rows = [], [], []
    for item in items:
        try:
            values, warn = evaluate(item)
        except OmsteadyError as exc:
            errors.append(exc.with_traceback(None))
            warns.append(())
        else:
            errors.append(None)
            warns.append(warn)
            rows.append(values)
    table = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return _Block(errors, warns, dict(zip(names, table.T)))


def _oneD_block(grid, block: _Block) -> _Block:
    """A 1D route's block from the second moments xx, pp, xp (and, where
    the route gives them, n_bar and purity) of block's settled items.

    The checks follow the scalar chain: Cov1D's nonnegative variances,
    occupation_and_purity_1d (skipped where the route gives n_bar), and
    bare_occupation at the record's oscillator.
    """
    idx = _settled(block.errors)
    given = block.columns
    xx, pp, xp = given["xx"], given["pp"], given["xp"]
    later: list = [None] * len(idx)
    flag_first(later, (xx < 0) | (pp < 0),
               lambda j: UncertaintyViolation("diagonal variances must be nonnegative"))
    hbar = grid.hbar[idx]
    if "n_bar" in given:
        n, mu = given["n_bar"], given["purity"]
    else:
        n, mu, occupation_errors = occupation_and_purity_1d_batch(xx, pp, xp, hbar)
        later = [e if e is not None else f for e, f in zip(later, occupation_errors)]
    n_0, settled = bare_occupation_batch(xx, pp, hbar, grid.omega_b[idx], grid.mass[idx])
    flag_first(later, ~settled, lambda j: _reference_error())
    cols = dict(zip(_ONE_D, (xx, pp, xp, n, mu, n_0)))
    cols.update((q, c) for q, c in given.items() if q not in cols)
    return _block(block.errors, block.warnings, idx, cols, later)


def _moments(item) -> tuple:
    p, integrals = item
    if isinstance(integrals, OmsteadyError):
        raise integrals
    cov = stationary_moments(p, integrals)
    return (cov.xx, cov.pp, cov.xp), ()


def _batch_oneD_spectral(grid) -> _Block:
    records = grid.records()
    return _oneD_block(grid, _each(_moments, zip(records, moment_integrals_batch(records)),
                                   ("xx", "pp", "xp")))


def _batch_oneD_closed_form(grid) -> _Block:
    results, errors = backaction_1d_batch(grid)
    idx = _settled(errors)
    cols = {q: getattr(results, q)[idx]
            for q in ("xx", "pp", "n_bar", "purity", "M_Omega", "n_min_weak")}
    cols["xp"] = np.zeros(len(idx))
    return _oneD_block(grid, _Block(errors, [()] * len(grid), cols))


def _eval_twoD_closed_form(p: SystemParams2D) -> tuple:
    result = backaction_2d(p)
    return tuple(getattr(result, q) for q in _TWO_D + _JOINT), ()


def _eval_rwa_closed_form(p: SystemParamsRWA) -> tuple:
    g_m_opt, mu, warn = rwa_optimum(p)
    return (g_m_opt, mu), warn


def _settled_covariances(grid, build, n: int):
    """Build the grid's systems as one stack and solve the valid ones as one stack.

    Returns per item the error its build or solve raised (None where it
    settled) and its system's warnings, then the indices of the settled
    items with their covariances V[len(idx), n, n] and hbar.
    """
    systems = build(grid)
    errors = list(systems.errors)
    built = _settled(errors)
    V = np.empty((0, n, n))
    if built:
        batch = steady_covariance_batch(systems.drift[built], systems.diffusion[built])
        for k, e in zip(built, batch.errors):
            errors[k] = e
        V = batch.matrix[_settled(batch.errors)]
    idx = _settled(errors)
    return errors, systems.warnings, idx, V, systems.hbar[idx]


def _summary_block(errors, warns, idx, W, hbar, head: dict) -> _Block:
    """The block of a two-mode route: its own columns, then the 2D summary of W."""
    s, later = summary_2d_batch(W, hbar)
    cols = {**head, "purity_2d": s.purity_2d, "purity_product": s.purity_product_1d,
            "N_plus": s.N_plus, "N_minus": s.N_minus}
    return _block(errors, warns, idx, cols, later)


def _batch_oneD_lyapunov(grid) -> _Block:
    errors, warns, _, V, _ = _settled_covariances(
        grid, lambda g: build_1d_batch(g, NoiseMode.MarkovianThermal), 4)
    return _oneD_block(grid, _Block(errors, warns,
                                    {"xx": V[:, 0, 0], "pp": V[:, 1, 1], "xp": V[:, 0, 1]}))


def _batch_twoD_lyapunov(grid) -> _Block:
    errors, warns, idx, V, hbar = _settled_covariances(
        grid, lambda g: build_2d_batch(g, NoiseMode.MarkovianThermal), 6)
    head = {"xx_b": V[:, 0, 0], "pp_b": V[:, 1, 1], "xx_d": V[:, 2, 2], "pp_d": V[:, 3, 3],
            "x_b_x_d": V[:, 0, 2], "p_b_p_d": V[:, 1, 3]}
    return _summary_block(errors, warns, idx, V[:, :4, :4], hbar, head)


def _batch_rwa_lyapunov(grid) -> _Block:
    errors, warns, idx, V, hbar = _settled_covariances(grid, build_rwa_batch, 6)
    head = {"n_b": 0.5 * (V[:, 2, 2] + V[:, 3, 3] - 1.0),
            "n_d": 0.5 * (V[:, 4, 4] + V[:, 5, 5] - 1.0)}
    return _summary_block(errors, warns, idx, V[:, 2:, 2:], hbar, head)


_ONE_D = ("xx", "pp", "xp", "n_bar", "purity", "n_bar_0")
_TWO_D = ("xx_b", "pp_b", "xx_d", "pp_d", "x_b_x_d", "p_b_p_d")
_JOINT = ("purity_2d", "purity_product")
_MODAL = ("N_plus", "N_minus")


class _Route(NamedTuple):
    """An evaluator, the quantities its block holds (in CSV order), and
    the items it takes per call."""

    evaluate: Callable[[ParamsGrid], _Block]
    quantities: tuple
    chunk: int


#: Items per call of a stacked route. Its memory grows with the chunk:
#: the Lyapunov solve's 21x21 vech operators, the spectral panel table.
_STACKED = 64
#: Items per call of a route that works item by item or elementwise,
#: where only the Python work per call is to amortize.
_ELEMENTWISE = 1024

#: (model, solver) -> its _Route. The evaluator takes a ParamsGrid of
#: valid records and returns their _Block.
_EVALUATORS = {
    ("oneD", "lyapunov"): _Route(_batch_oneD_lyapunov, _ONE_D, _STACKED),
    ("oneD", "spectral"): _Route(_batch_oneD_spectral, _ONE_D, _STACKED),
    ("oneD", "closed_form"): _Route(_batch_oneD_closed_form,
                                    _ONE_D + ("M_Omega", "n_min_weak"), _ELEMENTWISE),
    ("twoD", "lyapunov"): _Route(_batch_twoD_lyapunov, _TWO_D + _JOINT + _MODAL, _STACKED),
    ("twoD", "closed_form"): _Route(
        lambda grid: _each(_eval_twoD_closed_form, grid.records(), _TWO_D + _JOINT),
        _TWO_D + _JOINT, _ELEMENTWISE),
    ("rwa", "lyapunov"): _Route(_batch_rwa_lyapunov, ("n_b", "n_d") + _JOINT + _MODAL,
                                _STACKED),
    ("rwa", "closed_form"): _Route(
        lambda grid: _each(_eval_rwa_closed_form, grid.records(), ("G_m_opt", "purity_opt")),
        ("G_m_opt", "purity_opt"), _ELEMENTWISE),
}


def available_quantities(model: str, solver: str) -> tuple[str, ...]:
    """Quantity names a (model, solver) pair can produce."""
    try:
        return _EVALUATORS[(model, solver)].quantities
    except KeyError:
        raise InvalidParams(
            f"no evaluator for model={model!r} solver={solver!r}"
        ) from None


@dataclass(frozen=True)
class RunConfig:
    """What to evaluate: model, solver, parameters and outputs."""

    model: str
    solver: str
    params: SystemParams1D | SystemParams2D | SystemParamsRWA
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParams(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.solver not in SOLVERS:
            raise InvalidParams(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        if not isinstance(self.params, _PARAM_TYPES[self.model]):
            raise InvalidParams(
                f"model {self.model!r} needs {_PARAM_TYPES[self.model].__name__}, "
                f"got {type(self.params).__name__}"
            )
        allowed = available_quantities(self.model, self.solver)
        if not self.outputs:
            object.__setattr__(self, "outputs", allowed)
        else:
            bad = [q for q in self.outputs if q not in allowed]
            if bad:
                raise InvalidParams(
                    f"quantities {bad} not available for "
                    f"model={self.model!r} solver={self.solver!r}; "
                    f"available: {list(allowed)}"
                )
            object.__setattr__(self, "outputs", tuple(self.outputs))


MAX_GRID_POINTS = 1_000_000


def check_grid_size(points: int) -> None:
    """Reject a grid of more than MAX_GRID_POINTS points before it is built."""
    if points > MAX_GRID_POINTS:
        raise InvalidParams(f"grid of {points} points exceeds the limit of {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class Axis:
    """One sweep axis over a named parameter."""

    name: str
    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise InvalidParams("axis count must be at least 2")
        check_grid_size(self.count)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParams(f"axis {self.name!r} needs finite lo and hi")
        if not (self.lo < self.hi):
            raise InvalidParams("axis needs lo < hi")
        if self.scale not in ("linear", "log"):
            raise InvalidParams("axis scale must be 'linear' or 'log'")
        if self.scale == "log" and self.lo <= 0:
            raise InvalidParams("log axis needs lo > 0")
        if self.scale == "linear" and not math.isfinite(self.hi - self.lo):
            raise InvalidParams(f"linear axis {self.name!r} needs a finite hi - lo")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """One or two axes; grid order is row-major, first axis outermost."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not (1 <= len(self.axes) <= 2):
            raise InvalidParams("a sweep takes one or two axes")
        if len({a.name for a in self.axes}) < len(self.axes):
            raise InvalidParams(f"duplicate axis name {self.axes[0].name!r}")
        check_grid_size(math.prod(a.count for a in self.axes))

    def grid(self) -> list[tuple[float, ...]]:
        vals = [a.values() for a in self.axes]
        if len(vals) == 1:
            return [(float(v),) for v in vals[0]]
        return [(float(u), float(v)) for u in vals[0] for v in vals[1]]


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point."""

    axis_values: tuple[float, ...]
    values: dict | None
    stable: bool
    warnings: tuple[str, ...]


def _sweep_rows(points, columns: dict, stable: np.ndarray, warnings) -> list[SweepRow]:
    """A SweepRow per point from the columns evaluate_grid returns."""
    names = list(columns)
    values = zip(*(c.tolist() for c in columns.values()))
    return [SweepRow(tuple(point), dict(zip(names, next(values))) if ok else None, ok, warn)
            for point, ok, warn in zip(points, stable.tolist(), warnings)]


@dataclass(frozen=True, eq=False)
class SweepResult:
    """All rows of a sweep in grid order, as columns, plus labeling metadata.

    ``columns`` maps each requested quantity to a float64 array over the
    stable rows, ``stable`` flags each row, and ``warnings`` holds each
    row's regime warnings, or a flagged row's error as its one string.
    """

    config: RunConfig
    spec: SweepSpec
    columns: dict
    stable: np.ndarray
    warnings: list

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """A SweepRow per grid point, built on each call."""
        columns = {q: self.columns[q] for q in self.config.outputs}
        return tuple(_sweep_rows(self.spec.grid(), columns, self.stable, self.warnings))

    def header(self) -> tuple[list[str], list[str]]:
        names = [a.name for a in self.spec.axes]
        names += list(self.config.outputs) + ["stable", "warnings"]
        units = [UNITS.get(n, "unknown") for n in names]
        return names, units

    def csv_rows(self) -> list[list[str]]:
        outputs = self.config.outputs
        # Python floats, so %.17g renders each cell exactly as format_float
        # does. No cell holds a comma, so each row is formatted as one
        # line and split; each axis value is formatted once.
        axes = [[f"{v:.17g}" for v in a.values().tolist()] for a in self.spec.axes]
        heads = axes[0] if len(axes) == 1 else [f"{u},{v}" for u in axes[0] for v in axes[1]]
        stable = self.stable.tolist()
        template = ",".join(["%s", *["%.17g"] * len(outputs), "1", ""])
        filled = (template % row for row in zip(
            compress(heads, stable), *(self.columns[q].tolist() for q in outputs)))
        flagged = "," * len(outputs) + ",0,"
        out = [(next(filled) if ok else head + flagged).split(",")
               for head, ok in zip(heads, stable)]
        for cells, warn in zip(out, self.warnings):
            if warn:
                cells[-1] = ";".join(warn).replace(",", ";").replace("\n", " ")
        return out


def format_float(x: float) -> str:
    """Fixed %.17g rendering: round-trips any double exactly."""
    return f"{float(x):.17g}"


def _evaluate(route: _Route, grid: ParamsGrid) -> _Block:
    """The block of every item of the grid: its record's error, or what
    the route's evaluator gives it."""
    n = len(grid)
    idx = _settled(grid.errors)
    if len(idx) == n:
        return route.evaluate(grid)
    errors, warns = list(grid.errors), [()] * n
    if not idx:
        return _Block(errors, warns, {q: np.empty(0) for q in route.quantities})
    block = route.evaluate(grid.take(idx))
    for k, e, w in zip(idx, block.errors, block.warnings):
        errors[k], warns[k] = e, w
    return _Block(errors, warns, block.columns)


def _outcomes(block: _Block) -> list:
    """Per item of the block, its error or (its values dict, its warnings)."""
    names = list(block.columns)
    values = zip(*(c.tolist() for c in block.columns.values()))
    return [e if e is not None else (dict(zip(names, next(values))), w)
            for e, w in zip(block.errors, block.warnings)]


def evaluate_config(config: RunConfig,
                    overrides: dict | None = None) -> tuple[dict, tuple[str, ...]]:
    """Evaluate one parameter point; raises on instability or bad input.

    Returns the requested quantities and any regime warnings the
    underlying solver attached. Coupling overrides (lambda_o, then G_o)
    are applied last, so the coupling they set holds at the point's
    final frequencies and scales. The point is a grid of one.
    """
    overrides = overrides or {}
    grid = ParamsGrid.from_axes(config.params, list(overrides), [tuple(overrides.values())])
    (res,) = _outcomes(_evaluate(_EVALUATORS[(config.model, config.solver)], grid))
    if isinstance(res, OmsteadyError):
        raise res
    values, warn = res
    return {q: values[q] for q in config.outputs}, warn


def evaluate_point(config: RunConfig, overrides: dict | None = None) -> SweepRow:
    """Evaluate one parameter point, folding in optional overrides.

    Returns a flagged row instead of raising when the point is
    unstable, out of regime, or parametrically invalid (an error with
    exit code 2 or 3); an error with exit code 4 propagates. A grid of
    one point through evaluate_grid.
    """
    overrides = overrides or {}
    point = tuple(float(v) for v in overrides.values())
    (row,) = _sweep_rows([point], *evaluate_grid(config, list(overrides), [point]))
    return row


def evaluate_records(model: str, solver: str, records: list) -> list:
    """Evaluate params records; per record what evaluate_config returns.

    Each item is (values, warnings) with every quantity of the pair, or
    the OmsteadyError the record's evaluation raised. The pair's
    evaluator runs on a ParamsGrid of each chunk of records.
    Warnings are the strings the evaluation returns: a record's own
    regime warnings, whatever chunk it falls in, and nothing the
    interpreter's warning filters decide.
    """
    route = _EVALUATORS[(model, solver)]
    out = []
    for start in range(0, len(records), route.chunk):
        grid = ParamsGrid.from_records(records[start:start + route.chunk])
        out.extend(_outcomes(_evaluate(route, grid)))
    return out


def record_values(model: str, solver: str, records: list) -> list[dict]:
    """The values of each record, evaluated as in evaluate_records.

    Raises the error of the first record that does not settle.
    """
    outcomes = evaluate_records(model, solver, records)
    for out in outcomes:
        if isinstance(out, OmsteadyError):
            raise out
    return [values for values, _ in outcomes]


def evaluate_grid(config: RunConfig, names: list[str], grid) -> tuple[dict, np.ndarray, list]:
    """The rows of the grid points (values of the named parameters) as columns.

    Returns each requested quantity as a float64 array over the stable
    rows, the stable flag of each row, and each row's warnings. An
    unstable, out-of-regime or invalid point (an error with exit code 2
    or 3) is a stable=0 row with the error in its warnings; an error
    with exit code 4 propagates. Each chunk of grid points is one
    ParamsGrid, with the overrides applied as with_param applies them,
    so a large grid never holds more than one chunk of parameters.
    """
    route = _EVALUATORS[(config.model, config.solver)]
    points = np.asarray(grid, dtype=float).reshape(len(grid), len(names))
    parts: dict = {q: [] for q in config.outputs}
    stable: list = []
    warns: list = []
    for start in range(0, len(points), route.chunk):
        block = _evaluate(route, ParamsGrid.from_axes(config.params, names,
                                                      points[start:start + route.chunk]))
        for e in block.errors:
            if e is not None and e.exit_code == 4:
                raise e
        for q, part in parts.items():
            part.append(block.columns[q])
        stable += [e is None for e in block.errors]
        warns += [w if e is None else (f"{type(e).__name__}: {e}",)
                  for e, w in zip(block.errors, block.warnings)]
    columns = {q: np.concatenate(part) if part else np.empty(0) for q, part in parts.items()}
    return columns, np.array(stable, dtype=bool), warns


def run_sweep(config: RunConfig, spec: SweepSpec) -> SweepResult:
    """Evaluate the grid in chunks (see evaluate_grid); rows in grid order.

    An axis that with_param cannot set raises InvalidParams first."""
    names = [a.name for a in spec.axes]
    check_param_names(config.params, names)
    values = np.meshgrid(*(a.values() for a in spec.axes), indexing="ij")
    points = np.stack([v.ravel() for v in values], axis=1)
    return SweepResult(config, spec, *evaluate_grid(config, names, points))


def _write_atomic(path: str | Path, lines) -> Path:
    """Write text lines to a temporary sibling, then rename it onto path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(lines)
    os.replace(tmp, path)
    return path


def write_csv(path: str | Path, names: list[str], units: list[str],
              rows: list[list[str]]) -> Path:
    """Write a two-header-line CSV atomically (write then rename)."""
    if len(names) != len(units):
        raise InvalidParams("names and units rows must have equal length")
    for r in rows:
        if len(r) != len(names):
            raise InvalidParams("row length does not match header")
    return _write_atomic(path, (",".join(r) + "\n" for r in (names, units, *rows)))


def sweep_to_csv(config: RunConfig, spec: SweepSpec, path: str | Path) -> Path:
    """Run a sweep and write its CSV; returns the final path."""
    result = run_sweep(config, spec)
    names, units = result.header()
    return write_csv(path, names, units, result.csv_rows())
