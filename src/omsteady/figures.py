"""Reference figure artifacts: CSV data plus gnuplot scripts.

Three standard figures are produced:

fig2  occupation vs drive strength for the resonantly driven single
      mode (exact, bare-basis, and normal-mode approximation curves).
fig3  purity map of the rotating-wave three-mode model over the two
      coupling rates, with the analytic optimum line overlaid.
fig4  two-mode purity deviations vs drive strength for the degenerate
      trap, comparing the joint purity against the product of the
      reduced single-mode purities.

Every curve column is cross-checked against an independent route
(closed form vs Lyapunov, determinant route vs symplectic route)
before anything is written; a mismatch raises OracleMismatch and
leaves no partial files behind. The plot scripts are self-contained
gnuplot text so the artifacts carry no binary or library dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .closedform import strong_coupling, weak_coupling
from .errors import OracleMismatch
from .models import SystemParams1D, SystemParamsRWA, resonant_2d_design
from .sweep import _write_atomic, format_float, record_values, write_csv

__all__ = ["FIGURES", "FigureCheck", "FigureOutput", "fig3_params", "make_figure"]

FIGURES = ("fig2", "fig3", "fig4")

#: Relative tolerance for exact-vs-numeric paired columns.
_EXACT_PAIR_RTOL = 1e-8
#: Dual purity routes on the same covariance matrix.
_PURITY_ROUTE_RTOL = 1e-10
#: Grid optimum must sit this close (relative, in G_m) to the analytic one.
_OPTIMUM_RTOL = 0.05


@dataclass(frozen=True)
class FigureCheck:
    """One paired cross-check performed before the figure was written."""

    name: str
    worst: float
    tolerance: float


@dataclass(frozen=True)
class FigureOutput:
    """Paths of the emitted artifacts and the checks that gated them."""

    csv_path: Path
    plot_path: Path
    checks: tuple[FigureCheck, ...]


def _gate(name: str, worst: float, tol: float) -> FigureCheck:
    if not (worst <= tol):
        raise OracleMismatch(
            f"paired check {name!r} failed: worst error {worst:.3e} "
            f"exceeds tolerance {tol:.3e}; no output written"
        )
    return FigureCheck(name=name, worst=worst, tolerance=tol)


# fig2: occupation vs drive, single mode, resonant detuning ------------

_FIG2_KAPPA = 0.2
# The interesting drive range starts where the coupling competes with
# the cavity linewidth and ends just below the stability boundary at
# 0.5025; the weak-drive limit enters as the constant reference column.
_FIG2_G = np.linspace(0.2, 0.49, 59)


def _rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / exact


def _fig2(out_dir: Path) -> FigureOutput:
    records = [SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=_FIG2_KAPPA,
                              delta=1.0, G_o=float(g)) for g in _FIG2_G]
    rows = []
    worst_exact = 0.0
    worst_bare = 0.0
    worst_strong = 0.0
    worst_strong_bare = 0.0
    for g, p, cf, ly in zip(_FIG2_G, records, record_values("oneD", "closed_form", records),
                            record_values("oneD", "lyapunov", records)):
        sc = strong_coupling(p)
        worst_exact = max(worst_exact, _rel_err(ly["n_bar"], cf["n_bar"]))
        worst_bare = max(worst_bare, _rel_err(ly["n_bar_0"], cf["n_bar_0"]))
        bound = 10.0 * ((p.kappa / g) ** 2 + g**2)
        worst_strong = max(worst_strong, _rel_err(sc.n_bar, cf["n_bar"]) / bound)
        worst_strong_bare = max(
            worst_strong_bare, _rel_err(sc.n_bar_0, cf["n_bar_0"]) / bound
        )
        rows.append([format_float(v) for v in (
            g, cf["n_bar"], cf["n_bar_0"], sc.n_bar, sc.n_bar_0, cf["n_min_weak"],
        )])

    # The reference column must agree with the weak-coupling route in
    # its own limit (evaluated once; the column is drive-independent).
    p_weak = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=_FIG2_KAPPA,
                            delta=1.0, G_o=1e-4)
    ref = record_values("oneD", "closed_form", [p_weak])[0]["n_min_weak"]
    worst_weak = _rel_err(weak_coupling(p_weak).n_bar, ref)

    checks = (
        _gate("n_bar closed form vs lyapunov", worst_exact, _EXACT_PAIR_RTOL),
        _gate("n_bar_0 closed form vs lyapunov", worst_bare, _EXACT_PAIR_RTOL),
        _gate("normal-mode curve within regime bound", worst_strong, 1.0),
        _gate("normal-mode bare curve within regime bound", worst_strong_bare, 1.0),
        _gate("weak limit reference column", worst_weak, 1e-4),
    )

    names = ["G_o", "n_bar", "n_bar_0", "n_bar_normal_mode",
             "n_bar_0_normal_mode", "n_min_weak"]
    units = ["omega_ref"] + ["dimensionless"] * 5
    csv_path = write_csv(out_dir / "fig2.csv", names, units, rows)
    plot = f"""# occupation vs drive strength (single mode, delta = omega_b, kappa = {_FIG2_KAPPA})
set datafile separator comma
set xlabel "G_o / omega_b"
set ylabel "occupation"
set key top left
plot "fig2.csv" skip 2 using 1:2 with lines lw 2 title "thermal occupation (exact)", \\
     "fig2.csv" skip 2 using 1:3 with lines lw 2 title "bare-basis occupation (exact)", \\
     "fig2.csv" skip 2 using 1:4 with lines dt 2 title "thermal, normal-mode approx", \\
     "fig2.csv" skip 2 using 1:5 with lines dt 2 title "bare-basis, normal-mode approx", \\
     "fig2.csv" skip 2 using 1:6 with lines dt 3 title "weak-drive limit"
"""
    plot_path = _write_atomic(out_dir / "fig2.gp", [plot])
    return FigureOutput(csv_path, plot_path, checks)


# fig3: purity map of the rotating-wave model --------------------------

_FIG3_KAPPA = 1e-3
_FIG3_GAMMA_TOT = 1e-9 * _FIG3_KAPPA
_FIG3_NB = 0.05 * _FIG3_KAPPA / _FIG3_GAMMA_TOT
# Axis ranges in units of kappa, logarithmic; chosen to straddle the
# analytic optimum line G_m = G_o/sqrt(2) on both sides.
_FIG3_RATIO = np.logspace(math.log10(0.05), math.log10(5.0), 50)


def fig3_params(g_o: float, g_m: float) -> SystemParamsRWA:
    """Rotating-wave record with the fig3 bath at coupling rates G_o, G_m."""
    return SystemParamsRWA(
        omega_b=1.0, omega_d=1.0,
        gamma_b=_FIG3_GAMMA_TOT / 2.0, gamma_d=_FIG3_GAMMA_TOT / 2.0,
        kappa=_FIG3_KAPPA, delta=1.0, G_o=g_o, G_m=g_m,
        n_B_b=_FIG3_NB, n_B_d=_FIG3_NB,
    )


def _fig3(out_dir: Path) -> FigureOutput:
    values = iter(record_values("rwa", "lyapunov", [
        fig3_params(float(ro) * _FIG3_KAPPA, float(rm) * _FIG3_KAPPA)
        for ro in _FIG3_RATIO for rm in _FIG3_RATIO]))
    rows = []
    worst_route = 0.0
    best_by_column: dict[int, tuple[float, float]] = {}
    for i, ro in enumerate(_FIG3_RATIO):
        for rm in _FIG3_RATIO:
            s = next(values)
            mu = s["purity_2d"]
            # Same covariance, two purity routes: determinant vs the
            # product over symplectic occupations.
            mu_modes = 1.0 / ((2.0 * s["N_plus"] + 1.0) * (2.0 * s["N_minus"] + 1.0))
            worst_route = max(worst_route, _rel_err(mu_modes, mu))
            if i not in best_by_column or mu > best_by_column[i][1]:
                best_by_column[i] = (float(rm), mu)
            rows.append([format_float(v) for v in (ro, rm, mu, s["N_plus"], s["N_minus"])])

    # The ridge of the map must track the analytic optimum. Checked on
    # the strong-coupling half of the axis where the optimum formula
    # applies (grid resolution itself is ~9.9% per step, so compare
    # against the nearest achievable grid value).
    worst_opt = 0.0
    log_step = _FIG3_RATIO[1] / _FIG3_RATIO[0]
    for i, ro in enumerate(_FIG3_RATIO):
        if ro < 1.0:
            continue
        target = ro / math.sqrt(2.0)
        nearest = min(_FIG3_RATIO, key=lambda v: abs(math.log(v / target)))
        found = best_by_column[i][0]
        # distance in grid steps between found ridge and snapped optimum
        steps = abs(math.log(found / nearest) / math.log(log_step))
        worst_opt = max(worst_opt, steps)

    checks = (
        _gate("purity determinant route vs modal route", worst_route, _PURITY_ROUTE_RTOL),
        _gate("ridge within one grid step of analytic optimum", worst_opt, 1.0),
    )

    names = ["G_o_over_kappa", "G_m_over_kappa", "purity_2d", "N_plus", "N_minus"]
    units = ["dimensionless"] * 5
    csv_path = write_csv(out_dir / "fig3.csv", names, units, rows)
    plot = f"""# purity map of the rotating-wave model (kappa = {_FIG3_KAPPA:g}, gamma_tot/kappa = 1e-9, n_B*gamma_tot/kappa = 0.05)
set datafile separator comma
set logscale xy
set xlabel "G_o / kappa"
set ylabel "G_m / kappa"
set cblabel "purity"
set key top left
plot "fig3.csv" skip 2 using 1:2:3 with points pt 5 ps 1.2 palette notitle, \\
     [x=0.05:5] x/sqrt(2) with lines lw 2 lc rgb "white" title "G_m = G_o/sqrt(2)"
"""
    plot_path = _write_atomic(out_dir / "fig3.gp", [plot])
    return FigureOutput(csv_path, plot_path, checks)


# fig4: two-mode purity deviations vs drive ----------------------------

_FIG4_KAPPA = 0.2
_FIG4_G = np.linspace(0.01, 0.35, 69)


def _fig4(out_dir: Path) -> FigureOutput:
    records = [resonant_2d_design(omega=1.0, G_o=float(g), G_m=float(g) / math.sqrt(2.0),
                                  kappa=_FIG4_KAPPA) for g in _FIG4_G]
    rows = []
    worst_joint = 0.0
    worst_product = 0.0
    for g, cf, ly in zip(_FIG4_G, record_values("twoD", "closed_form", records),
                         record_values("twoD", "lyapunov", records)):
        mu, mu_prod = cf["purity_2d"], cf["purity_product"]
        worst_joint = max(worst_joint, _rel_err(ly["purity_2d"], mu))
        worst_product = max(worst_product, _rel_err(ly["purity_product"], mu_prod))
        rows.append([format_float(v) for v in (g, 1.0 - mu, 1.0 - mu_prod, mu, mu_prod)])

    checks = (
        _gate("joint purity closed form vs lyapunov", worst_joint, _EXACT_PAIR_RTOL),
        _gate("purity product closed form vs lyapunov", worst_product, _EXACT_PAIR_RTOL),
    )

    names = ["G_o", "one_minus_purity_2d", "one_minus_purity_product",
             "purity_2d", "purity_product"]
    units = ["omega_ref"] + ["dimensionless"] * 4
    csv_path = write_csv(out_dir / "fig4.csv", names, units, rows)
    plot = f"""# two-mode purity deviations vs drive (degenerate trap, delta = omega, kappa = {_FIG4_KAPPA}, G_m = G_o/sqrt(2))
set datafile separator comma
set xlabel "G_o / omega"
set ylabel "pure-state deviation"
set key top left
plot "fig4.csv" skip 2 using 1:2 with lines lw 2 title "1 - joint purity", \\
     "fig4.csv" skip 2 using 1:3 with lines lw 2 title "1 - product of reduced purities"
"""
    plot_path = _write_atomic(out_dir / "fig4.gp", [plot])
    return FigureOutput(csv_path, plot_path, checks)


_BUILDERS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def make_figure(fig_id: str, out_dir: str | Path) -> FigureOutput:
    """Build one figure's CSV and plot script under ``out_dir``.

    All paired cross-checks run before any file is written; on
    mismatch OracleMismatch propagates and the directory is untouched.
    """
    if fig_id not in _BUILDERS:
        raise ValueError(f"unknown figure {fig_id!r}; choose from {FIGURES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[fig_id](out)
