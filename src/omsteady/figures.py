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
from .models import SystemParams1D, resonant_2d_design
from .sweep import _csv_lines, _write_atomic, grid_points, write_csv
from .validation import _FIG3_KAPPA, CheckResult, _columns, fig3_params

__all__ = ["FIGURES", "FigureOutput", "fig3_params", "make_figure"]

FIGURES = ("fig2", "fig3", "fig4")

#: Relative tolerance for exact-vs-numeric paired columns.
_EXACT_PAIR_RTOL = 1e-8
#: Dual purity routes on the same covariance matrix.
_PURITY_ROUTE_RTOL = 1e-10


@dataclass(frozen=True)
class FigureOutput:
    """Paths of the emitted artifacts and the checks that gated them."""

    csv_path: Path
    plot_path: Path
    checks: tuple[CheckResult, ...]


def _gate(name: str, errors, tol: float) -> CheckResult:
    """The passed check of the largest of the errors against tol; raises if it fails."""
    worst = np.max(errors, initial=0.0)
    if not (worst <= tol):
        raise OracleMismatch(
            f"paired check {name!r} failed: worst error {worst:.3e} "
            f"exceeds tolerance {tol:.3e}; no output written"
        )
    return CheckResult(name, True, worst, tol)


# fig2: occupation vs drive, single mode, resonant detuning ------------

_FIG2_KAPPA = 0.2
# The interesting drive range starts where the coupling competes with
# the cavity linewidth and ends just below the stability boundary at
# 0.5025; the weak-drive limit enters as the constant reference column.
_FIG2_G = np.linspace(0.2, 0.49, 59)


def _rel_err(value, exact):
    return abs(value - exact) / exact


def _fig2(out_dir: Path) -> FigureOutput:
    records = [SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=_FIG2_KAPPA,
                              delta=1.0, G_o=float(g)) for g in _FIG2_G]
    cf, ly = (_columns("oneD", s, records) for s in ("closed_form", "lyapunov"))
    sc_n, sc_n_0 = np.array([(r.n_bar, r.n_bar_0) for r in map(strong_coupling, records)]).T
    bound = np.array([10.0 * ((p.kappa / g) ** 2 + g**2) for p, g in zip(records, _FIG2_G)])

    # The reference column must agree with the weak-coupling route in
    # its own limit (evaluated once; the column is drive-independent).
    p_weak = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=_FIG2_KAPPA,
                            delta=1.0, G_o=1e-4)
    (ref,) = _columns("oneD", "closed_form", [p_weak])["n_min_weak"]

    checks = (
        _gate("n_bar closed form vs lyapunov", _rel_err(ly["n_bar"], cf["n_bar"]),
              _EXACT_PAIR_RTOL),
        _gate("n_bar_0 closed form vs lyapunov", _rel_err(ly["n_bar_0"], cf["n_bar_0"]),
              _EXACT_PAIR_RTOL),
        _gate("normal-mode curve within regime bound", _rel_err(sc_n, cf["n_bar"]) / bound, 1.0),
        _gate("normal-mode bare curve within regime bound",
              _rel_err(sc_n_0, cf["n_bar_0"]) / bound, 1.0),
        _gate("weak limit reference column", _rel_err(weak_coupling(p_weak).n_bar, ref), 1e-4),
    )
    rows = _csv_lines(_FIG2_G, cf["n_bar"], cf["n_bar_0"], sc_n, sc_n_0, cf["n_min_weak"])

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
    plot_path = _write_atomic(out_dir / "fig2.gp", plot)
    return FigureOutput(csv_path, plot_path, checks)


# fig3: purity map of the rotating-wave model --------------------------

# The bath is validation.fig3_params. Axis ranges in units of kappa,
# logarithmic; chosen to straddle the analytic optimum line
# G_m = G_o/sqrt(2) on both sides.
_FIG3_RATIO = np.logspace(math.log10(0.05), math.log10(5.0), 50)


def _fig3(out_dir: Path) -> FigureOutput:
    points = grid_points([_FIG3_RATIO, _FIG3_RATIO])
    s = _columns("rwa", "lyapunov", [fig3_params(ro * _FIG3_KAPPA, rm * _FIG3_KAPPA)
                                     for ro, rm in points.tolist()])
    mu = s["purity_2d"]
    # Same covariance, two purity routes: determinant vs the product
    # over symplectic occupations.
    mu_modes = 1.0 / ((2.0 * s["N_plus"] + 1.0) * (2.0 * s["N_minus"] + 1.0))
    # G_m/kappa at the first best purity of each G_o column.
    ridge = _FIG3_RATIO[mu.reshape(len(_FIG3_RATIO), -1).argmax(axis=1)]

    # The ridge of the map must track the analytic optimum. Checked on
    # the strong-coupling half of the axis where the optimum formula
    # applies (grid resolution itself is ~9.9% per step, so compare
    # against the nearest achievable grid value).
    strong = _FIG3_RATIO >= 1.0
    target = _FIG3_RATIO[strong] / math.sqrt(2.0)
    nearest = _FIG3_RATIO[abs(np.log(_FIG3_RATIO / target[:, None])).argmin(axis=1)]
    # distance in grid steps between found ridge and snapped optimum
    steps = abs(np.log(ridge[strong] / nearest) / math.log(_FIG3_RATIO[1] / _FIG3_RATIO[0]))

    checks = (
        _gate("purity determinant route vs modal route", _rel_err(mu_modes, mu),
              _PURITY_ROUTE_RTOL),
        _gate("ridge within one grid step of analytic optimum", steps, 1.0),
    )
    rows = _csv_lines(*points.T, mu, s["N_plus"], s["N_minus"])

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
    plot_path = _write_atomic(out_dir / "fig3.gp", plot)
    return FigureOutput(csv_path, plot_path, checks)


# fig4: two-mode purity deviations vs drive ----------------------------

_FIG4_KAPPA = 0.2
_FIG4_G = np.linspace(0.01, 0.35, 69)


def _fig4(out_dir: Path) -> FigureOutput:
    records = [resonant_2d_design(omega=1.0, G_o=float(g), G_m=float(g) / math.sqrt(2.0),
                                  kappa=_FIG4_KAPPA) for g in _FIG4_G]
    cf, ly = (_columns("twoD", s, records) for s in ("closed_form", "lyapunov"))
    mu, mu_prod = cf["purity_2d"], cf["purity_product"]
    checks = (
        _gate("joint purity closed form vs lyapunov", _rel_err(ly["purity_2d"], mu),
              _EXACT_PAIR_RTOL),
        _gate("purity product closed form vs lyapunov", _rel_err(ly["purity_product"], mu_prod),
              _EXACT_PAIR_RTOL),
    )
    rows = _csv_lines(_FIG4_G, 1.0 - mu, 1.0 - mu_prod, mu, mu_prod)

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
    plot_path = _write_atomic(out_dir / "fig4.gp", plot)
    return FigureOutput(csv_path, plot_path, checks)


_BUILDERS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def make_figure(fig_id: str, out_dir: str | Path) -> FigureOutput:
    """Build one figure's CSV and plot script under ``out_dir``.

    All paired cross-checks run before any file is written; on
    mismatch OracleMismatch propagates and the directory is untouched.
    The first write makes the directory (see sweep._write_atomic).
    """
    if fig_id not in _BUILDERS:
        raise ValueError(f"unknown figure {fig_id!r}; choose from {FIGURES}")
    return _BUILDERS[fig_id](Path(out_dir))
