"""Grid evaluation engine and deterministic CSV output.

A sweep is a RunConfig (model, solver, base parameters, requested
quantities) plus a SweepSpec (one or two named axes). Each (model,
solver) pair has one evaluator, which takes a ParamsGrid (the records
of a chunk as one float64 column per field, see omsteady.models) and
returns one outcome per item. The Lyapunov evaluators build the drift
and diffusion stacks from the columns and solve them as one stack, the
1D closed form evaluates its formulas on the columns, and the spectral
evaluator shares each round of its panel rule across the chunk.
Sweeps, figures, validation and optimize all evaluate through it, a
grid in chunks of grid points whose ParamsGrid comes from the axis
values directly (ParamsGrid.from_axes), a list of records in chunks of
records (ParamsGrid.from_records). Rows come out in grid order, and a
row never depends on the chunk its point falls in.

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
from dataclasses import asdict, dataclass
from pathlib import Path

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


def _each(evaluate, records) -> list:
    """evaluate(p) per record, or the OmsteadyError it raised.

    An error is kept without its traceback. The traceback holds this
    frame and its callers, which hold the list the error is kept in: a
    reference cycle that would keep each chunk alive until the garbage
    collector runs.
    """
    out = []
    for p in records:
        try:
            out.append(evaluate(p))
        except OmsteadyError as exc:
            out.append(exc.with_traceback(None))
    return out


def _rows(errors: list, warns, idx, cols: dict, later: list) -> list:
    """Per record its error, or (values, warnings) from the columns over the records idx."""
    out = list(errors)
    names = list(cols)
    for k, e, vals in zip(idx, later, zip(*(c.tolist() for c in cols.values()))):
        out[k] = e if e is not None else (dict(zip(names, vals)), warns[k])
    return out


def _settled(errors: list) -> list:
    return [k for k, e in enumerate(errors) if e is None]


def _oneD_rows(grid, errors, warns, idx, xx, pp, xp, n_mu=None, extra=None) -> list:
    """Rows of a 1D route from the second moments of the items idx of the grid.

    The checks follow the scalar chain: Cov1D's nonnegative variances,
    occupation_and_purity_1d (skipped where the route gives n_mu), and
    bare_occupation at the record's oscillator.
    """
    later: list = [None] * len(idx)
    flag_first(later, (xx < 0) | (pp < 0),
               lambda j: UncertaintyViolation("diagonal variances must be nonnegative"))
    hbar = grid.hbar[idx]
    if n_mu is None:
        n, mu, occupation_errors = occupation_and_purity_1d_batch(xx, pp, xp, hbar)
        later = [e if e is not None else f for e, f in zip(later, occupation_errors)]
    else:
        n, mu = n_mu
    n_0, settled = bare_occupation_batch(xx, pp, hbar, grid.omega_b[idx], grid.mass[idx])
    flag_first(later, ~settled, lambda j: _reference_error())
    cols = {**dict(zip(_ONE_D, (xx, pp, xp, n, mu, n_0))), **(extra or {})}
    return _rows(errors, warns, idx, cols, later)


def _batch_oneD_spectral(grid) -> list:
    records = grid.records()
    covs = _each(lambda pv: pv[1] if isinstance(pv[1], OmsteadyError)
                 else stationary_moments(*pv),
                 list(zip(records, moment_integrals_batch(records))))
    errors = [c if isinstance(c, OmsteadyError) else None for c in covs]
    idx = _settled(errors)
    xx, pp, xp = (np.array([getattr(covs[k], f) for k in idx], dtype=float)
                  for f in ("xx", "pp", "xp"))
    return _oneD_rows(grid, errors, [()] * len(grid), idx, xx, pp, xp)


def _batch_oneD_closed_form(grid) -> list:
    results, errors = backaction_1d_batch(grid)
    idx = _settled(errors)
    col = {name: getattr(results, name)[idx] for name in ("xx", "pp", "n_bar", "purity",
                                                          "M_Omega", "n_min_weak")}
    return _oneD_rows(grid, errors, [()] * len(grid), idx, col["xx"], col["pp"],
                      np.zeros(len(idx)), n_mu=(col["n_bar"], col["purity"]),
                      extra={"M_Omega": col["M_Omega"], "n_min_weak": col["n_min_weak"]})


def _eval_rwa_closed_form(p: SystemParamsRWA) -> tuple[dict, tuple[str, ...]]:
    g_m_opt, mu, warn = rwa_optimum(p)
    return {"G_m_opt": g_m_opt, "purity_opt": mu}, warn


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


def _summary_rows(errors, warns, idx, W, hbar, head: dict) -> list:
    """Rows of a two-mode route: its own columns, then the 2D summary of W."""
    s, later = summary_2d_batch(W, hbar)
    cols = {**head, "purity_2d": s.purity_2d, "purity_product": s.purity_product_1d,
            "N_plus": s.N_plus, "N_minus": s.N_minus}
    return _rows(errors, warns, idx, cols, later)


def _batch_oneD_lyapunov(grid) -> list:
    errors, warns, idx, V, _ = _settled_covariances(
        grid, lambda g: build_1d_batch(g, NoiseMode.MarkovianThermal), 4)
    return _oneD_rows(grid, errors, warns, idx, V[:, 0, 0], V[:, 1, 1], V[:, 0, 1])


def _batch_twoD_lyapunov(grid) -> list:
    errors, warns, idx, V, hbar = _settled_covariances(
        grid, lambda g: build_2d_batch(g, NoiseMode.MarkovianThermal), 6)
    head = {"xx_b": V[:, 0, 0], "pp_b": V[:, 1, 1], "xx_d": V[:, 2, 2], "pp_d": V[:, 3, 3],
            "x_b_x_d": V[:, 0, 2], "p_b_p_d": V[:, 1, 3]}
    return _summary_rows(errors, warns, idx, V[:, :4, :4], hbar, head)


def _batch_rwa_lyapunov(grid) -> list:
    errors, warns, idx, V, hbar = _settled_covariances(grid, build_rwa_batch, 6)
    head = {"n_b": 0.5 * (V[:, 2, 2] + V[:, 3, 3] - 1.0),
            "n_d": 0.5 * (V[:, 4, 4] + V[:, 5, 5] - 1.0)}
    return _summary_rows(errors, warns, idx, V[:, 2:, 2:], hbar, head)


_ONE_D = ("xx", "pp", "xp", "n_bar", "purity", "n_bar_0")
_TWO_D = ("xx_b", "pp_b", "xx_d", "pp_d", "x_b_x_d", "p_b_p_d")
_JOINT = ("purity_2d", "purity_product")
_MODAL = ("N_plus", "N_minus")

#: (model, solver) -> (evaluate_many, the quantities it returns, in CSV
#: order). evaluate_many takes a ParamsGrid of valid records and
#: returns, per item, (values, warnings) or the OmsteadyError its
#: evaluation raises.
_EVALUATORS = {
    ("oneD", "lyapunov"): (_batch_oneD_lyapunov, _ONE_D),
    ("oneD", "spectral"): (_batch_oneD_spectral, _ONE_D),
    ("oneD", "closed_form"): (_batch_oneD_closed_form, _ONE_D + ("M_Omega", "n_min_weak")),
    ("twoD", "lyapunov"): (_batch_twoD_lyapunov, _TWO_D + _JOINT + _MODAL),
    ("twoD", "closed_form"): (lambda grid: _each(lambda p: (asdict(backaction_2d(p)), ()),
                                                 grid.records()), _TWO_D + _JOINT),
    ("rwa", "lyapunov"): (_batch_rwa_lyapunov, ("n_b", "n_d") + _JOINT + _MODAL),
    ("rwa", "closed_form"): (lambda grid: _each(_eval_rwa_closed_form, grid.records()),
                             ("G_m_opt", "purity_opt")),
}


def available_quantities(model: str, solver: str) -> tuple[str, ...]:
    """Quantity names a (model, solver) pair can produce."""
    try:
        return _EVALUATORS[(model, solver)][1]
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


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep in grid order, plus labeling metadata."""

    config: RunConfig
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def header(self) -> tuple[list[str], list[str]]:
        names = [a.name for a in self.spec.axes]
        names += list(self.config.outputs) + ["stable", "warnings"]
        units = [UNITS.get(n, "unknown") for n in names]
        return names, units

    def csv_rows(self) -> list[list[str]]:
        outputs = self.config.outputs
        empty = [""] * len(outputs)
        out = []
        for row in self.rows:
            # The rows hold Python floats, so %.17g renders each exactly
            # as format_float does.
            cells = [f"{v:.17g}" for v in row.axis_values]
            if row.values is None:
                cells += empty
            else:
                values = row.values
                cells += [f"{values[q]:.17g}" for q in outputs]
            cells.append("1" if row.stable else "0")
            cells.append(";".join(row.warnings).replace(",", ";").replace("\n", " "))
            out.append(cells)
        return out


def format_float(x: float) -> str:
    """Fixed %.17g rendering: round-trips any double exactly."""
    return f"{float(x):.17g}"


def _outcomes(model: str, solver: str, grid: ParamsGrid) -> list:
    """Per item of the grid, its record's error or what its evaluation returns."""
    out = list(grid.errors)
    idx = [k for k, e in enumerate(out) if e is None]
    if idx:
        evaluate_many = _EVALUATORS[(model, solver)][0]
        for k, res in zip(idx, evaluate_many(grid if len(idx) == len(out) else grid.take(idx))):
            out[k] = res
    return out


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
    (res,) = _outcomes(config.model, config.solver, grid)
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
    (row,) = evaluate_grid(config, list(overrides), [tuple(float(v) for v in overrides.values())])
    return row


#: Records per stacked evaluation: large enough to amortize the Python
#: work per call, small enough to keep the stacks' memory flat.
_CHUNK = 64


def evaluate_records(model: str, solver: str, records: list) -> list:
    """Evaluate params records; per record what evaluate_config returns.

    Each item is (values, warnings) with every quantity of the pair, or
    the OmsteadyError the record's evaluation raised. The pair's
    evaluator runs on a ParamsGrid of each chunk of _CHUNK records.
    Warnings are the strings the evaluation returns: a record's own
    regime warnings, whatever chunk it falls in, and nothing the
    interpreter's warning filters decide.
    """
    out = []
    for start in range(0, len(records), _CHUNK):
        out.extend(_outcomes(model, solver,
                             ParamsGrid.from_records(records[start:start + _CHUNK])))
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


def evaluate_grid(config: RunConfig, names: list[str], grid) -> list[SweepRow]:
    """The rows of the grid points (values of the named parameters), in order.

    An unstable, out-of-regime or invalid point (an error with exit
    code 2 or 3) is a stable=0 row with the error in its warnings; an
    error with exit code 4 propagates. Each chunk of grid points is one
    ParamsGrid, with the overrides applied as with_param applies them,
    so a large grid never holds more than one chunk of parameters.
    """
    rows = []
    outputs = config.outputs
    # An evaluation returns a fresh dict of every quantity of the pair.
    every = set(outputs) == set(available_quantities(config.model, config.solver))
    for start in range(0, len(grid), _CHUNK):
        points = [tuple(pt) for pt in grid[start:start + _CHUNK]]
        params = ParamsGrid.from_axes(config.params, names, points)
        for point, res in zip(points, _outcomes(config.model, config.solver, params)):
            if not isinstance(res, OmsteadyError):
                values, warn = res
                if not every:
                    values = {q: values[q] for q in outputs}
                rows.append(SweepRow(point, values, True, warn))
            elif res.exit_code == 4:
                raise res
            else:
                rows.append(SweepRow(point, None, False, (f"{type(res).__name__}: {res}",)))
    return rows


def run_sweep(config: RunConfig, spec: SweepSpec) -> SweepResult:
    """Evaluate the grid in chunks (see evaluate_grid); rows in grid order.

    An axis that with_param cannot set raises InvalidParams first."""
    names = [a.name for a in spec.axes]
    check_param_names(config.params, names)
    rows = evaluate_grid(config, names, spec.grid())
    return SweepResult(config=config, spec=spec, rows=tuple(rows))


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
