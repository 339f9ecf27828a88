"""Command-line front end.

Subcommands
-----------
point      evaluate one parameter point and print a quantity report
sweep      evaluate a 1- or 2-axis grid and write a CSV
figure     reproduce one of the reference figures (CSV + gnuplot script)
optimize   maximize a quantity over 1-3 free parameters
validate   run the cross-solver validation suite

Exit codes: 0 success, 1 validation failure, 2 usage or configuration
error, 3 unstable system or out-of-regime request, 4 internal oracle
mismatch (including quadrature or solver self-check failures). An
error's code is its ``exit_code`` (see :mod:`omsteady.errors`).

Configuration files are plain-text INI: a [run] section for model,
solver and outputs, a [params] section for the physical parameters,
plus [sweep] / [optimize] sections for those subcommands. Every key is
documented in --help. The [params] values apply first, then the
--param ones, each source by the params layer's override rule.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from dataclasses import fields, replace

import numpy as np

from .errors import InvalidParams, OmsteadyError, UnstableRegime
from .figures import FIGURES, make_figure
from .models import _with_values
from .sweep import (
    _PARAM_TYPES,
    MODELS,
    SOLVERS,
    UNITS,
    Axis,
    RunConfig,
    SweepSpec,
    _check_grid_names,
    _write_atomic,
    available_quantities,
    check_grid_size,
    evaluate_config,
    evaluate_grid,
    format_float,
    grid_points,
    sweep_to_csv,
)
from .validation import run_validation

__all__ = ["main"]

#: Baseline parameter sets, overridable from config files and --param.
_DEFAULT_PARAMS = {
    "oneD": {"omega_b": 1.0, "gamma_b": 0.0, "kappa": 0.2, "delta": 1.0,
             "G_o": 0.1},
    "twoD": {"omega_x": 1.1, "omega_y": 0.9, "gamma_x": 0.0, "gamma_y": 0.0,
             "phi": math.pi / 4.0, "kappa": 0.2, "delta": 1.0,
             "lambda_o": 0.2 * math.sqrt(2.0)},
    # gamma_tot * n_B / kappa = 0.05 with margins wide enough that the
    # fully decoupled limit (G_o = G_m = 0) is still strictly stable.
    "rwa": {"omega_b": 1.0, "omega_d": 1.0, "gamma_b": 1e-6, "gamma_d": 1e-6,
            "kappa": 1e-3, "delta": 1.0, "G_o": 2e-3,
            "G_m": 2e-3 / math.sqrt(2.0), "n_B_b": 25.0, "n_B_d": 25.0},
}

_CONFIG_HELP = """\
configuration file keys (INI format):

  [run]
    model    = oneD | twoD | rwa                 (default oneD)
    solver   = lyapunov | spectral | closed_form (default lyapunov)
    outputs  = comma list of quantity names      (default: all available)

  [params]   physical parameters; unknown keys are rejected
    oneD: omega_b gamma_b kappa delta G_o|lambda_o mass temperature|n_B hbar
    twoD: omega_x omega_y gamma_x gamma_y phi kappa delta G_o|lambda_o
          mass temperature|n_B hbar
    rwa:  omega_b omega_d gamma_b gamma_d kappa delta G_o G_m n_B_b n_B_d
    n_B   = bath occupation, as a temperature at the (bright) mechanical
            frequency of the record its source makes; an n_B axis or
            free name is converted at each point's own frequency

  [sweep]
    axis1  = name, lo, hi, count[, linear|log]
    axis2  = same format (optional)

  [optimize]
    free      = comma list of 1-3 distinct parameter names
    lo, hi    = comma lists of bounds, aligned with free
    objective = quantity to maximize (default purity / purity_2d)
    grid      = coarse-scan points per dimension (default 12; at most
                1000000 points over all dimensions, as for a sweep)
    scale     = linear | log grid spacing (default linear)

[params] applies over the model's defaults, then --param KEY=VALUE (the
keys model, solver and outputs override [run]). In each, a coupling form
given alone replaces the other, and two given must agree. Frequencies
are in units of omega_ref and hbar = m = 1 unless overridden.
"""

#: What main prints before the message of an error with each exit code.
_PREFIXES = {2: "config error", 3: "unstable or out of regime", 4: "oracle mismatch"}


def _read_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # parameter names are case sensitive (G_o, n_B_b)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                cp.read_file(f)
        except FileNotFoundError:
            raise InvalidParams(f"config file not found: {path}") from None
        except (OSError, UnicodeError, configparser.Error) as exc:
            why = getattr(exc, "strerror", None) or " ".join(str(exc).split())
            raise InvalidParams(f"cannot read config file {path}: {why}") from None
    return cp


def _split_params(pairs: list[str]) -> tuple[dict, dict]:
    """Split --param KEY=VALUE pairs into run overrides and param overrides."""
    run: dict[str, str] = {}
    par: dict[str, str] = {}
    for item in pairs:
        if "=" not in item:
            raise InvalidParams(f"--param needs KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        (run if key in ("model", "solver", "outputs") else par)[key] = value
    return run, par


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InvalidParams(f"parameter {key!r} is not a number: {raw!r}") from None


def _build_params(model: str, sources: list[dict[str, str]]):
    """The model's default record with each source of values applied in turn."""
    params = _PARAM_TYPES[model](**_DEFAULT_PARAMS[model])
    for raw in sources:
        params = _with_values(params, {key: _to_float(key, text) for key, text in raw.items()})
    return params


def _build_run_config(args, cp: configparser.ConfigParser) -> RunConfig:
    run_over, par_over = _split_params(args.param or [])
    model = run_over.get("model") or cp.get("run", "model", fallback="oneD")
    solver = (
        args.solver
        or run_over.get("solver")
        or cp.get("run", "solver", fallback="lyapunov")
    )
    if model not in MODELS:
        raise InvalidParams(f"unknown model {model!r}; choose from {MODELS}")
    file_params = dict(cp.items("params")) if cp.has_section("params") else {}
    params = _build_params(model, [file_params, par_over])
    outputs_text = run_over.get("outputs") or cp.get("run", "outputs", fallback="")
    outputs = tuple(q.strip() for q in outputs_text.split(",") if q.strip())
    return RunConfig(model=model, solver=solver, params=params, outputs=outputs)


def _cmd_point(args) -> int:
    config = _build_run_config(args, _read_config(args.config))
    values, warn, figures = evaluate_config(config)
    lines = [
        f"model={config.model} solver={config.solver}",
        "unit frame: hbar = m = 1, frequencies in omega_ref",
        "params: " + " ".join(
            f"{f.name}={getattr(config.params, f.name)!r}"
            for f in fields(config.params)
        ),
    ]
    width = max(len(q) for q in config.outputs)
    for q in config.outputs:
        unit = UNITS.get(q, "unknown")
        lines.append(f"{q:<{width}} = {format_float(values[q])}  [{unit}]")
    lines += [f"diagnostic {d} = {format_float(v)}" for d, v in figures.items()]
    for w in warn:
        lines.append(f"warning: {w}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_axis(text: str) -> Axis:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (4, 5):
        raise InvalidParams(
            f"axis spec needs 'name, lo, hi, count[, scale]', got {text!r}"
        )
    name, lo, hi, count = parts[:4]
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        return Axis(name=name, lo=float(lo), hi=float(hi),
                    count=int(count), scale=scale)
    except ValueError as exc:
        raise InvalidParams(f"bad axis spec {text!r}: {exc}") from None


def _cmd_sweep(args) -> int:
    cp = _read_config(args.config)
    config = _build_run_config(args, cp)
    axis_texts = [t for t in (args.axis or []) if t] or [
        cp.get("sweep", key) for key in ("axis1", "axis2") if cp.has_option("sweep", key)]
    if not axis_texts:
        raise InvalidParams("sweep needs [sweep] axis1 in the config or --axis")
    if args.out is None:
        raise InvalidParams("sweep needs --out for the CSV path")
    spec = SweepSpec(axes=tuple(_parse_axis(t) for t in axis_texts))
    path = sweep_to_csv(config, spec, args.out)
    print(f"wrote {path} ({math.prod(a.count for a in spec.axes)} rows)")
    return 0


def _cmd_figure(args) -> int:
    out = make_figure(args.id, args.out)
    for c in out.checks:
        print(f"check {c.name}: worst {c.worst:.3e} <= tol {c.tolerance:.1e}")
    print(f"wrote {out.csv_path}")
    print(f"wrote {out.plot_path}")
    return 0


def _default_objective(config: RunConfig) -> str:
    quantities = available_quantities(config.model, config.solver)
    for candidate in ("purity_2d", "purity", "purity_opt"):
        if candidate in quantities:
            return candidate
    return quantities[0]


def _cmd_optimize(args) -> int:
    cp = _read_config(args.config)
    config = _build_run_config(args, cp)
    if not cp.has_section("optimize"):
        raise InvalidParams("optimize needs an [optimize] config section")
    names = [n.strip() for n in cp.get("optimize", "free").split(",") if n.strip()]
    los = [_to_float("lo", x) for x in cp.get("optimize", "lo").split(",")]
    his = [_to_float("hi", x) for x in cp.get("optimize", "hi").split(",")]
    if not (1 <= len(names) <= 3) or len(los) != len(names) or len(his) != len(names):
        raise InvalidParams("optimize needs 1-3 free names with aligned lo/hi lists")
    _check_grid_names(names)
    grid_text = cp.get("optimize", "grid", fallback="12")
    try:
        grid_n = int(grid_text)
    except ValueError:
        raise InvalidParams(f"optimize grid is not an integer: {grid_text!r}") from None
    check_grid_size(grid_n ** len(names))
    scale = cp.get("optimize", "scale", fallback="linear").strip()
    axes = [Axis(nm, lo, hi, grid_n, scale).values() for nm, lo, hi in zip(names, los, his)]
    objective = cp.get("optimize", "objective", fallback="").strip() \
        or _default_objective(config)
    # The search reads only the objective, whatever [run] outputs asks for;
    # RunConfig rejects an objective the route does not give.
    config = replace(config, outputs=(objective,))

    grid = grid_points(axes)
    evals = len(grid)
    columns, stable, _ = evaluate_grid(config, names, grid)
    # The first stable point with the largest value; nan is never larger.
    values = np.where(np.isnan(columns[objective]), -math.inf, columns[objective])
    if not np.any(values > -math.inf):
        raise UnstableRegime("no stable point inside the optimize bounds")
    best = int(np.argmax(values))
    best_x, best_val = grid[stable][best], float(values[best])

    lo_arr, hi_arr = np.asarray(los), np.asarray(his)
    steps = np.array([axis[1] - axis[0] if scale == "linear"
                      else best_x[i] * (axes[i][1] / axes[i][0] - 1.0)
                      for i, axis in enumerate(axes)])

    def neg(x: np.ndarray) -> float:
        nonlocal evals
        if np.any(x < lo_arr) or np.any(x > hi_arr):
            return 1e6
        evals += 1
        point, (ok,), _ = evaluate_grid(config, names, [x])
        return -point[objective][0] if ok else 1e6

    simplex = [best_x]
    for i in range(len(names)):
        vertex = best_x.copy()
        step = steps[i] if best_x[i] + steps[i] <= hi_arr[i] else -steps[i]
        vertex[i] = min(max(vertex[i] + step, lo_arr[i]), hi_arr[i])
        simplex.append(vertex)
    from scipy.optimize import minimize  # only this subcommand needs it

    result = minimize(
        neg, best_x, method="Nelder-Mead",
        options={
            "initial_simplex": np.array(simplex),
            "xatol": 1e-10 * float(np.max(np.abs(hi_arr))),
            "fatol": 1e-12,
            "maxiter": 400 * len(names),
        },
    )
    refined = -result.fun if -result.fun > best_val else best_val
    refined_x = result.x if -result.fun > best_val else best_x

    lines = [
        f"model={config.model} solver={config.solver} objective={objective} (maximized)",
        "bounds: " + "; ".join(
            f"{nm} in [{lo:g}, {hi:g}]" for nm, lo, hi in zip(names, los, his)
        ),
        f"coarse grid: {grid_n} points/dim ({scale})",
        "best: " + " ".join(
            f"{nm}={format_float(v)}" for nm, v in zip(names, refined_x)
        ),
        f"{objective} = {format_float(refined)}",
        f"evaluations = {evals}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_validate(args) -> int:
    t0 = time.perf_counter()
    results = run_validation()
    for r in results:
        print(r.row())
    print(f"elapsed {time.perf_counter() - t0:.2f} s")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print("validation FAILED: " + ", ".join(failed), file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omsteady",
        description="Steady states of linearized optomechanical models: "
                    "occupations, purities and spectra.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI config file (see main --help for keys)")
        p.add_argument("--param", metavar="KEY=VALUE", action="append",
                       help="override one config value (repeatable)")
        p.add_argument("--solver", choices=SOLVERS, default=None,
                       help="override the solver")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output path ('-' or absent: stdout)")

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    common(p_point)
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    common(p_sweep)
    p_sweep.add_argument("--axis", metavar="SPEC", action="append",
                         help="axis as 'name, lo, hi, count[, scale]' "
                              "(repeatable, max twice; overrides [sweep])")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="reproduce a reference figure")
    p_fig.add_argument("id", choices=FIGURES, help="which figure to build")
    p_fig.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (default: current)")
    p_fig.set_defaults(func=_cmd_figure)

    p_opt = sub.add_parser("optimize", help="maximize a quantity over 1-3 parameters")
    common(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_val = sub.add_parser("validate", help="run the cross-solver validation suite")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except configparser.Error as exc:
        print(f"{_PREFIXES[2]}: {exc}", file=sys.stderr)
        return 2
    except OmsteadyError as exc:
        print(f"{_PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
