"""Grid evaluation engine and deterministic CSV output.

A sweep is a RunConfig (model, solver, base parameters, requested
quantities) plus a SweepSpec (one or two named axes). Each (model,
solver) pair has one route in the registry: an evaluator, the
quantities it gives and its chunk. The evaluator takes a ParamsGrid
(the records of a chunk as one float64 column per field, see
omsteady.models) and returns an errors.Batch: per item its error or
None and its warnings tuple, and per quantity one float64 column over
all its items. Every batch routine it calls returns an errors.Batch
too, and each public scalar function is the grid of one of its batch
routine. Batch.then joins a later check, each item keeping its first
error; the entries of a flagged item mean nothing. The Lyapunov
evaluators build the drift and diffusion stacks from the columns and
solve them as one stack, the closed forms evaluate their formulas on
the columns, and the spectral evaluator shares each round of its panel
rule across the chunk and gates the integrals it settles as columns.

The Lyapunov routes take 256 items per call, which amortizes the numpy
calls on their 4x4 and 6x6 stacks (the builds, the stability and
residual checks, the 2D summary), while steady_covariance_batch fills and
solves the operators (10x10 and 21x21 vech ones, 9x9 ones for the
rotating-wave items) in blocks of 64 so that they stay in cache. A
Lyapunov route's Batch keeps the build's and the solve's columns
(drift, matrix, residual and the rest) beside its quantities. The
spectral route takes 64, since its panel table grows with the chunk;
the closed forms take 1,024, where only the Python work per call is
to amortize. One chunk loop turns the chunks of a request into
one Batch; it alone keeps invalid records from the evaluators and cuts
each column down to the settled items. Two functions sit on it:
evaluate_grid takes grid points (values of named parameters; each
chunk is a ParamsGrid.from_axes) and returns each quantity as a
column, a stable flag and the warnings of each row; evaluate_records
takes params records (each chunk a ParamsGrid.from_records) and
returns the Batch, with each record's error in place. Sweeps and
optimize evaluate grid points, figures and validation evaluate
records, and evaluate_point is a grid of one. evaluate_config (the
point command) runs the route's evaluator on its one valid record.
Rows come out in grid order (see grid_points), and a row never
depends on the chunk its point falls in: numpy's elementwise ufuncs
and gufuncs give an item the same bits alone or in a column.

A SweepResult keeps the rows as columns: each requested quantity over
the stable rows, a stable mask, and each row's warnings. csv_rows
formats each row from the columns as one CSV line, as written.

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
from contextlib import suppress
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .closedform import (backaction_1d_batch, backaction_2d_batch, bare_occupation_batch,
                         rwa_optimum_batch)
from .errors import Batch, InvalidParams, UncertaintyViolation, flag_first
from .gaussian import occupation_and_purity_1d_batch, summary_2d_batch
from .langevin import (NoiseMode, build_1d_batch, build_2d_batch, build_rwa_batch,
                       steady_covariance_batch)
from .models import ParamsGrid, SystemParams1D, SystemParams2D, SystemParamsRWA, with_param
from .spectral import integrate_moments_batch

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
    "SweepResult",
    "MODELS",
    "SOLVERS",
    "available_quantities",
    "evaluate_point",
    "run_sweep",
    "write_csv",
    "sweep_to_csv",
    "with_param",
    "evaluate_config",
    "evaluate_records",
    "evaluate_grid",
    "grid_points",
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
    "n_B": "dimensionless",
    "n_B_b": "dimensionless",
    "n_B_d": "dimensionless",
    "mass": "m",
    "hbar": "hbar",
    "stable": "flag",
    "warnings": "text",
}


def _oneD(moments: Callable[[ParamsGrid], Batch]) -> Callable[[ParamsGrid], Batch]:
    """The evaluator of a 1D route whose moments(grid) is the Batch of
    the second moments xx, pp and, where it is not zero, xp (and, where
    the route gives them, n_bar and purity) of the grid's items.

    The checks follow the scalar chain: Cov1D's nonnegative variances,
    occupation_and_purity_1d (skipped where the route gives n_bar), and
    bare_occupation at the record's oscillator.
    """
    def evaluate(grid: ParamsGrid) -> Batch:
        block = moments(grid)
        if "xp" not in block.columns:
            block.columns["xp"] = np.zeros(len(grid))
        xx, pp, xp = (block.columns[q] for q in ("xx", "pp", "xp"))
        flag_first(block.errors, (xx < 0) | (pp < 0),
                   lambda k: UncertaintyViolation("diagonal variances must be nonnegative"))
        if "n_bar" not in block.columns:
            block = block.then(occupation_and_purity_1d_batch(xx, pp, xp, grid.hbar))
        return block.then(bare_occupation_batch(xx, pp, grid.hbar, grid.omega_b, grid.mass))
    return evaluate


def _covariances(grid, build) -> tuple[Batch, np.ndarray]:
    """Build the grid's systems as one stack and solve them as one stack.

    Returns the Batch of the build, then the solve: per item the first
    error they raised and its system's warnings, and the columns of
    both (drift, diffusion and hbar; matrix, residual, backward_error
    and decay_bound). Also returns the matrix column, the covariances
    V[B, n, n], zero where an item did not settle.
    """
    systems = build(grid)
    A = systems.columns["drift"]
    # A NaN drift keeps a system its build flagged out of the stacked solve.
    A[[e is not None for e in systems.errors]] = np.nan
    block = systems.then(steady_covariance_batch(A, systems.columns["diffusion"]))
    V = block.columns["matrix"]
    V[[e is not None for e in block.errors]] = 0.0
    return block, V


def _summary_block(block: Batch, W, head: dict) -> Batch:
    """The Batch of a two-mode route: its own columns joined by the head
    columns, then the 2D summary of W."""
    summary = summary_2d_batch(W, block.columns["hbar"])
    summary.columns["purity_product"] = summary.columns.pop("purity_product_1d")
    block.columns.update(head)
    return block.then(summary)


def _batch_oneD_lyapunov(grid) -> Batch:
    block, V = _covariances(grid, lambda g: build_1d_batch(g, NoiseMode.MarkovianThermal))
    block.columns.update(xx=V[:, 0, 0], pp=V[:, 1, 1], xp=V[:, 0, 1])
    return block


def _batch_twoD_lyapunov(grid) -> Batch:
    block, V = _covariances(grid, lambda g: build_2d_batch(g, NoiseMode.MarkovianThermal))
    head = {"xx_b": V[:, 0, 0], "pp_b": V[:, 1, 1], "xx_d": V[:, 2, 2], "pp_d": V[:, 3, 3],
            "x_b_x_d": V[:, 0, 2], "p_b_p_d": V[:, 1, 3]}
    return _summary_block(block, V[:, :4, :4], head)


def _batch_rwa_lyapunov(grid) -> Batch:
    block, V = _covariances(grid, build_rwa_batch)
    head = {"n_b": 0.5 * (V[:, 2, 2] + V[:, 3, 3] - 1.0),
            "n_d": 0.5 * (V[:, 4, 4] + V[:, 5, 5] - 1.0)}
    return _summary_block(block, V[:, 2:, 2:], head)


_ONE_D = ("xx", "pp", "xp", "n_bar", "purity", "n_bar_0")
_TWO_D = ("xx_b", "pp_b", "xx_d", "pp_d", "x_b_x_d", "p_b_p_d")
_JOINT = ("purity_2d", "purity_product")
_MODAL = ("N_plus", "N_minus")


class _Route(NamedTuple):
    """An evaluator, the quantities its Batch holds (in CSV order), and
    the items it takes per call."""

    evaluate: Callable[[ParamsGrid], Batch]
    quantities: tuple
    chunk: int


#: Items per call of the spectral route, whose panel table grows with
#: the chunk.
_STACKED = 64
#: Items per call of a Lyapunov route. Its operators are filled and
#: solved in blocks of 64 (langevin._LU_BLOCK), so a larger chunk only
#: amortizes the numpy calls on its columns.
_LYAPUNOV = 256
#: Items per call of an elementwise route (the closed forms), where
#: only the Python work per call is to amortize.
_ELEMENTWISE = 1024

#: (model, solver) -> its _Route. The evaluator takes a ParamsGrid of
#: valid records and returns their Batch.
_EVALUATORS = {
    ("oneD", "lyapunov"): _Route(_oneD(_batch_oneD_lyapunov), _ONE_D, _LYAPUNOV),
    ("oneD", "spectral"): _Route(_oneD(integrate_moments_batch), _ONE_D, _STACKED),
    ("oneD", "closed_form"): _Route(_oneD(backaction_1d_batch),
                                    _ONE_D + ("M_Omega", "n_min_weak"), _ELEMENTWISE),
    ("twoD", "lyapunov"): _Route(_batch_twoD_lyapunov, _TWO_D + _JOINT + _MODAL, _LYAPUNOV),
    ("twoD", "closed_form"): _Route(backaction_2d_batch, _TWO_D + _JOINT, _ELEMENTWISE),
    ("rwa", "lyapunov"): _Route(_batch_rwa_lyapunov, ("n_b", "n_d") + _JOINT + _MODAL,
                                _LYAPUNOV),
    ("rwa", "closed_form"): _Route(rwa_optimum_batch, ("G_m_opt", "purity_opt"),
                                   _ELEMENTWISE),
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
            for i, q in enumerate(self.outputs):
                if q in self.outputs[:i]:
                    raise InvalidParams(f"duplicate output name {q!r}")
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
    """One or two axes; the grid is grid_points of their values."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not (1 <= len(self.axes) <= 2):
            raise InvalidParams("a sweep takes one or two axes")
        if len({a.name for a in self.axes}) < len(self.axes):
            raise InvalidParams(f"duplicate axis name {self.axes[0].name!r}")
        check_grid_size(math.prod(a.count for a in self.axes))

    def grid(self) -> np.ndarray:
        return grid_points([a.values() for a in self.axes])


def grid_points(values: list) -> np.ndarray:
    """The points of the grid over each axis's values, one row per point,
    in grid order: row-major, first axis outermost."""
    return np.stack([v.ravel() for v in np.meshgrid(*values, indexing="ij")], axis=1)


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

    def header(self) -> tuple[list[str], list[str]]:
        names = [*(a.name for a in self.spec.axes), *self.config.outputs, "stable", "warnings"]
        return names, [UNITS.get(n, "unknown") for n in names]

    def csv_rows(self) -> list[str]:
        """Each row's CSV line, no LF, in grid order: axis cells, then the
        quantities (%.17g) and 1, or empty cells and 0 if flagged, then
        the warnings joined by ';' with ',' made ';' and newlines spaces."""
        outputs = self.config.outputs
        axes = [_csv_lines(a.values()) for a in self.spec.axes]
        heads = axes[0] if len(axes) == 1 else [f"{u},{v}" for u in axes[0] for v in axes[1]]
        notes = [";".join(w).replace(",", ";").replace("\n", " ") if w else ""
                 for w in self.warnings]
        stable = self.stable.tolist()
        filled = iter(_csv_lines(
            compress(heads, stable), *(self.columns[q] for q in outputs), compress(notes, stable),
            template=",".join(["%s", *["%.17g"] * len(outputs), "1", "%s"])))
        flagged = "," * len(outputs) + ",0,"
        return [next(filled) if ok else head + flagged + note
                for head, ok, note in zip(heads, stable, notes)]


def format_float(x: float) -> str:
    """Fixed %.17g rendering: round-trips any double exactly."""
    return f"{float(x):.17g}"


def _csv_lines(*columns, template: str = "") -> list[str]:
    """template % row for each row of the columns, by default one %.17g
    cell per column; arrays are read as Python floats, so a %.17g cell
    is format_float's rendering."""
    template = template or ",".join(["%.17g"] * len(columns))
    return [template % row for row in
            zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))]


def _evaluate(route: _Route, n: int, chunk_grid: Callable[[slice], ParamsGrid]) -> Batch:
    """The Batch of n items, evaluated chunk by chunk in item order, with
    each column cut down to the settled items.

    chunk_grid(s) is the ParamsGrid of the items in the slice s, at most
    route.chunk of them, so a request never holds more than one chunk of
    parameters. An item's error is its record's, or what the route's
    evaluator gives it; the evaluator sees only the valid records.
    """
    errors: list = []
    warns: list = []
    parts: dict = {q: [] for q in route.quantities}
    for start in range(0, n, route.chunk):
        grid = chunk_grid(slice(start, start + route.chunk))
        valid = [k for k, e in enumerate(grid.errors) if e is None]
        block = (route.evaluate(grid if len(valid) == len(grid) else grid.take(valid)) if valid
                 else Batch([], [], {q: np.empty(0) for q in route.quantities}))
        settled = np.flatnonzero([e is None for e in block.errors])
        for q, part in parts.items():
            part.append(block.columns[q][settled])
        if len(valid) < len(grid):
            chunk_errors, chunk_warns = list(grid.errors), [()] * len(grid)
            for k, e, w in zip(valid, block.errors, block.warnings):
                chunk_errors[k], chunk_warns[k] = e, w
            block = Batch(chunk_errors, chunk_warns, {})
        errors += block.errors
        warns += block.warnings
    return Batch(errors, warns, {q: np.concatenate(part) if part else np.empty(0)
                                 for q, part in parts.items()})


#: The Batch columns the point command prints after the quantities: a Lyapunov
#: solve's residual gate and decay bound, a spectral quadrature's error
#: estimates and commutator integral (hbar/2 for a stationary state).
_DIAGNOSTICS = ("residual", "backward_error", "decay_bound", "err_xx", "err_pp", "commutator")


def evaluate_config(config: RunConfig) -> tuple[dict, tuple[str, ...], dict]:
    """Evaluate the config's params record; raises on instability or bad input.

    Returns the requested quantities, the regime warnings of the solver
    and the route's _DIAGNOSTICS, from its evaluator on the one record.
    """
    point = _EVALUATORS[(config.model, config.solver)].evaluate(
        ParamsGrid.from_records([config.params]))
    values = point.only()
    return ({q: values[q] for q in config.outputs}, point.warnings[0],
            {d: values[d] for d in _DIAGNOSTICS if d in values})


def evaluate_point(config: RunConfig,
                   overrides: dict | None = None) -> tuple[dict, np.ndarray, list]:
    """Evaluate one parameter point, folding in optional overrides: a grid
    of one point through evaluate_grid, with what it returns."""
    overrides = overrides or {}
    return evaluate_grid(config, list(overrides), [tuple(overrides.values())])


def evaluate_records(model: str, solver: str, records: list) -> Batch:
    """Evaluate params records of one class with the (model, solver) route.

    Returns the Batch: per record its OmsteadyError or None and its
    regime warnings, and per quantity of the pair one float64 column
    over the records that settled, in record order. Warnings are the
    strings the evaluation returns, whatever chunk a record falls in,
    and nothing the interpreter's warning filters decide.
    """
    return _evaluate(_EVALUATORS[(model, solver)], len(records),
                     lambda s: ParamsGrid.from_records(records[s]))


def evaluate_grid(config: RunConfig, names: list[str], points) -> tuple[dict, np.ndarray, list]:
    """The rows of the grid points (values of the named parameters) as columns.

    Returns each requested quantity as a float64 array over the stable
    rows, the stable flag of each row, and each row's warnings. An
    unstable, out-of-regime or invalid point (an error with exit code 2
    or 3) is a stable=0 row with the error in its warnings; an error
    with exit code 4 propagates. Each chunk of grid points is one
    ParamsGrid.from_axes, which sets a point's values at once, so a row
    is the record with_param makes from the same values; a name that
    cannot be set or is given twice raises InvalidParams before any point.
    """
    points = np.asarray(points, dtype=float).reshape(len(points), len(names))
    errors, warns, columns = _evaluate(
        _EVALUATORS[(config.model, config.solver)], len(points),
        lambda s: ParamsGrid.from_axes(config.params, names, points[s]))
    for e in errors:
        if e is not None and e.exit_code == 4:
            raise e
    warns = [w if e is None else (f"{type(e).__name__}: {e}",) for e, w in zip(errors, warns)]
    return ({q: columns[q] for q in config.outputs},
            np.array([e is None for e in errors], dtype=bool), warns)


def _check_grid_names(names) -> None:
    """Raise InvalidParams for a grid over both forms of the coupling,
    whose points would disagree on it (see ParamsGrid.from_axes)."""
    if {"G_o", "lambda_o"} <= set(names):
        raise InvalidParams("G_o and lambda_o are two forms of one coupling; "
                            "a grid may set only one of them")


def run_sweep(config: RunConfig, spec: SweepSpec) -> SweepResult:
    """Evaluate the grid in chunks (see evaluate_grid); rows in grid order.

    Axes that _check_grid_names rejects raise InvalidParams first."""
    names = [a.name for a in spec.axes]
    _check_grid_names(names)
    return SweepResult(config, spec, *evaluate_grid(config, names, spec.grid()))


def _write_atomic(path: str | Path, text: str) -> Path:
    """Write the text to a temporary sibling, then rename it onto path.

    An OSError (path is a directory, say) removes the sibling and is
    raised as InvalidParams.
    """
    path = Path(path)
    tmp = path.parent / (path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink()
        raise InvalidParams(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def write_csv(path: str | Path, names: list[str], units: list[str], rows: list[str]) -> Path:
    """Write the names and units lines and the row lines (as csv_rows
    gives them, without LF), LF-terminated, atomically (write then
    rename). Each row must have len(names) - 1 commas."""
    if len(names) != len(units):
        raise InvalidParams("names and units rows must have equal length")
    commas = len(names) - 1
    for row in rows:
        if row.count(",") != commas:
            raise InvalidParams("row length does not match header")
    return _write_atomic(path, "\n".join([",".join(names), ",".join(units), *rows]) + "\n")


def sweep_to_csv(config: RunConfig, spec: SweepSpec, path: str | Path) -> Path:
    """Run a sweep and write its CSV; returns the final path."""
    result = run_sweep(config, spec)
    names, units = result.header()
    return write_csv(path, names, units, result.csv_rows())
