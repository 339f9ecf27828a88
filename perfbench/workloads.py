"""The benchmark's workloads: seeded inputs, one round, and the checks.

A round sends every sweep of a workload through the public path
``run_sweep`` -> ``SweepResult.csv_rows`` -> ``write_csv``. Only the
axis bounds depend on the seed; the program receives the generated
values and nothing else. The checks re-read the CSV files and compare
them with ``oracle`` (computations made apart from omsteady), with
cross-route results of the program, and with properties every valid
steady state has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from omsteady import sweep
from omsteady.closedform import backaction_1d
from omsteady.errors import OmsteadyError
from omsteady.models import SystemParams1D, SystemParamsRWA
from omsteady.spectral import integrate_moments_residue

NAMES = ("rwa_map", "spectral_ladder", "closed_form_scan")

# fig3 bath of the rotating-wave model: kappa, gamma_tot/kappa = 1e-9,
# n_B gamma_tot / kappa = 0.05.
_RWA_KAPPA = 1e-3
_RWA_GAMMA_TOT = 1e-9 * _RWA_KAPPA
_RWA_NB = 0.05 * _RWA_KAPPA / _RWA_GAMMA_TOT
_RWA_COUNT = 40
# Every 6th value on each axis: a fixed 7 x 7 subsample of the 40 x 40 map.
_RWA_SUBSAMPLE_STEP = 6

# Single mode for the spectral and closed-form routes (m = hbar = 1).
_KAPPA_1D = 0.2
_OMEGA_B = 1.0
_THERMAL_GAMMA_B = 1e-4
_THERMAL_NB = 5.0
_LADDER_COUNT = 8
_SCAN_COUNT = 100

#: Two purity routes on one covariance (determinant against symplectic
#: eigenvalues), as in the figure gates of omsteady.figures.
PURITY_ROUTE_RTOL = 1e-10
#: Lyapunov solve against the refined Bartels-Stewart oracle.
LYAPUNOV_RTOL = 1e-9
#: Spectral quadrature against the exact backaction closed form, the
#: tolerance of the program's own oracle-chain-1d check.
CLOSED_FORM_RTOL = 1e-6
#: Spectral quadrature against the residue route (validation gate).
RESIDUE_RTOL = 1e-8
#: Identities between columns of one row (a few roundings apart).
IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class Job:
    """One sweep of a workload and the CSV file it writes."""

    config: sweep.RunConfig
    spec: sweep.SweepSpec
    path: Path

    @property
    def size(self) -> int:
        return math.prod(a.count for a in self.spec.axes)


class Workload:
    """A named list of sweeps plus the checks of their CSV outputs."""

    def __init__(self, name: str, jobs: list[Job], checks):
        self.name = name
        self.jobs = jobs
        self._checks = checks

    def warm_up(self) -> None:
        """One evaluation through the sweep engine, outside any timing."""
        job = self.jobs[0]
        sweep.evaluate_point(job.config, {a.name: a.lo for a in job.spec.axes})

    @staticmethod
    def run_job(job: Job) -> int:
        """Evaluate, format and write one sweep; the number of points failed."""
        try:
            result = sweep.run_sweep(job.config, job.spec)
            names, units = result.header()
            sweep.write_csv(job.path, names, units, result.csv_rows())
        except OmsteadyError:
            return job.size
        return 0

    def clear_outputs(self) -> None:
        for job in self.jobs:
            job.path.unlink(missing_ok=True)

    def outputs(self) -> tuple[bytes | None, ...]:
        return tuple(job.path.read_bytes() if job.path.exists() else None
                     for job in self.jobs)

    def check(self) -> list[str]:
        """Every failed check of the CSV files as one line each.

        A sweep that failed in every round left no file; its points are
        counted as failed, and there is nothing to check.
        """
        failures: list[str] = []
        for job, check in zip(self.jobs, self._checks):
            if not job.path.exists():
                continue
            table = _read_table(job, failures)
            if table is not None:
                check(job, table, failures)
        return failures


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """The workload ``name`` with axis bounds drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "rwa_map":
        return _rwa_map(rng, out_dir)
    if name == "spectral_ladder":
        return _spectral_ladder(rng, out_dir)
    if name == "closed_form_scan":
        return _closed_form_scan(rng, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


# --- inputs -------------------------------------------------------------


def _rwa_params(G_o: float, G_m: float) -> SystemParamsRWA:
    return SystemParamsRWA(
        omega_b=1.0, omega_d=1.0,
        gamma_b=_RWA_GAMMA_TOT / 2.0, gamma_d=_RWA_GAMMA_TOT / 2.0,
        kappa=_RWA_KAPPA, delta=1.0, G_o=G_o, G_m=G_m,
        n_B_b=_RWA_NB, n_B_d=_RWA_NB,
    )


def _rwa_map(rng, out_dir: Path) -> Workload:
    # Both couplings from about 0.05 kappa to 5 kappa, straddling the
    # optimum line G_m = G_o / sqrt(2) as fig3 does.
    axes = tuple(
        sweep.Axis(
            name,
            _RWA_KAPPA * 0.05 * 10 ** rng.uniform(-0.05, 0.05),
            _RWA_KAPPA * 5.0 * 10 ** rng.uniform(-0.05, 0.05),
            _RWA_COUNT,
            "log",
        )
        for name in ("G_o", "G_m")
    )
    config = sweep.RunConfig("rwa", "lyapunov", _rwa_params(_RWA_KAPPA, _RWA_KAPPA))
    job = Job(config, sweep.SweepSpec(axes), out_dir / "rwa_map.csv")
    return Workload("rwa_map", [job], [_check_rwa])


def _stability_edge(kappa: float, delta: float, omega_b: float) -> float:
    """G_o at which omega_b^2 = 2 g_o^2."""
    return math.sqrt(omega_b * ((kappa / 2.0) ** 2 + delta**2) / (4.0 * delta))


def _thermal_temperature() -> float:
    """k_B T / hbar giving occupation _THERMAL_NB at omega_b."""
    return _OMEGA_B / math.log1p(1.0 / _THERMAL_NB)


def _spectral_ladder(rng, out_dir: Path) -> Workload:
    edge = _stability_edge(_KAPPA_1D, _OMEGA_B, _OMEGA_B)
    # The lower bound stays below 0.045: on the vacuum ladder
    # integrate_moments raises QuadratureFailure for about a third of the
    # G_o values in 0.0491-0.0500 (a fault of the program, not of the
    # inputs), and a point that fails on some seeds only cannot be timed.
    # The other ladder points lie above 0.08.
    axis = sweep.Axis(
        "G_o", rng.uniform(0.02, 0.045), edge * rng.uniform(0.93, 0.96), _LADDER_COUNT
    )
    jobs = []
    for label, gamma_b, temperature in (
        ("vacuum", 0.0, 0.0),
        ("thermal", _THERMAL_GAMMA_B, _thermal_temperature()),
    ):
        base = SystemParams1D(
            omega_b=_OMEGA_B, gamma_b=gamma_b, kappa=_KAPPA_1D, delta=_OMEGA_B,
            G_o=0.1, temperature=temperature,
        )
        config = sweep.RunConfig("oneD", "spectral", base)
        jobs.append(Job(config, sweep.SweepSpec((axis,)),
                        out_dir / f"spectral_ladder_{label}.csv"))
    return Workload("spectral_ladder", jobs, [_check_vacuum_ladder, _check_thermal_ladder])


def _closed_form_scan(rng, out_dir: Path) -> Workload:
    # The stability edge runs from G_o = 0.25 at delta = 0.2 to 0.87 at
    # delta = 3, so this grid has rows on both sides of it.
    axes = (
        sweep.Axis("G_o", rng.uniform(0.005, 0.015), rng.uniform(0.65, 0.75), _SCAN_COUNT),
        sweep.Axis("delta", rng.uniform(0.15, 0.25), rng.uniform(2.8, 3.2), _SCAN_COUNT),
    )
    base = SystemParams1D(omega_b=_OMEGA_B, gamma_b=0.0, kappa=_KAPPA_1D, delta=1.0, G_o=0.1)
    config = sweep.RunConfig("oneD", "closed_form", base)
    job = Job(config, sweep.SweepSpec(axes), out_dir / "closed_form_scan.csv")
    return Workload("closed_form_scan", [job], [_check_closed_form])


# --- reading the CSV back ---------------------------------------------------


def _read_table(job: Job, failures: list[str]) -> dict | None:
    """Columns of a written CSV as float arrays (NaN for empty cells).

    Checks the header against the run config, the row count and axis
    values against the grid, and that every numeric cell is the %.17g
    rendering of the double it parses to.
    """
    where = job.path.name
    lines = job.path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        failures.append(f"{where}: last line not terminated by LF")
        return None
    names, units = lines[0].split(","), lines[1].split(",")
    rows = [line.split(",") for line in lines[2:-1]]
    axis_names = [a.name for a in job.spec.axes]
    expect = axis_names + list(job.config.outputs) + ["stable", "warnings"]
    if names != expect or len(units) != len(names) or "unknown" in units:
        failures.append(f"{where}: header {names} / units {units} do not match {expect}")
        return None
    if len(rows) != job.size or any(len(r) != len(names) for r in rows):
        failures.append(f"{where}: {len(rows)} rows, expected {job.size} of {len(names)} cells")
        return None
    cols = list(zip(*rows))
    table: dict = {"warnings": list(cols[-1])}
    bad_cells = 0
    for name, cells in zip(names[:-1], cols[:-1]):
        values = np.array([float(c) if c else math.nan for c in cells])
        bad_cells += sum(1 for c, v in zip(cells, values) if c and f"{v:.17g}" != c)
        table[name] = values
    if bad_cells:
        failures.append(f"{where}: {bad_cells} cells do not round-trip through %.17g")
    grid = [_axis_values(a) for a in job.spec.axes]
    if len(grid) == 2:
        grid = [np.repeat(grid[0], len(grid[1])), np.tile(grid[1], len(grid[0]))]
    for name, values in zip(axis_names, grid):
        if not np.allclose(table[name], values, rtol=1e-15, atol=0.0):
            failures.append(f"{where}: axis column {name} is not the requested grid")
    return table


def _axis_values(axis: sweep.Axis) -> np.ndarray:
    if axis.scale == "log":
        return 10.0 ** np.linspace(math.log10(axis.lo), math.log10(axis.hi), axis.count)
    return np.linspace(axis.lo, axis.hi, axis.count)


def _worst_rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _expect(failures: list[str], where: str, what: str, worst: float, tol: float) -> None:
    if not worst <= tol:
        failures.append(f"{where}: {what} off by {worst:.3g} relative (tolerance {tol:g})")


def _require(failures: list[str], where: str, what: str, ok) -> None:
    if not bool(np.all(ok)):
        failures.append(f"{where}: {what} fails")


def _all_stable(job: Job, t: dict, failures: list[str]) -> None:
    _require(failures, job.path.name, "every row stable with no warning",
             [s == 1 for s in t["stable"]] + [w == "" for w in t["warnings"]])


# --- checks -----------------------------------------------------------------


def _check_rwa(job: Job, t: dict, failures: list[str]) -> None:
    where = job.path.name
    _all_stable(job, t, failures)
    mu, n_p, n_m = t["purity_2d"], t["N_plus"], t["N_minus"]
    _expect(failures, where, "purity_2d against 1/((2 N_plus + 1)(2 N_minus + 1))",
            _worst_rel(mu, 1.0 / ((2.0 * n_p + 1.0) * (2.0 * n_m + 1.0))), PURITY_ROUTE_RTOL)
    _require(failures, where, "0 < purity_2d <= 1", (mu > 0) & (mu <= 1))
    _require(failures, where, "0 < purity_product <= 1",
             (t["purity_product"] > 0) & (t["purity_product"] <= 1))
    _require(failures, where, "N_plus, N_minus, n_b, n_d >= 0",
             (n_p >= 0) & (n_m >= 0) & (t["n_b"] >= 0) & (t["n_d"] >= 0))
    count = job.spec.axes[1].count
    pick = [i * count + j for i in range(0, job.spec.axes[0].count, _RWA_SUBSAMPLE_STEP)
            for j in range(0, count, _RWA_SUBSAMPLE_STEP)]
    p = job.config.params
    ref = np.array([
        oracle.rwa_moments(
            t["G_o"][k], t["G_m"][k], kappa=p.kappa, delta=p.delta,
            omega_b=p.omega_b, omega_d=p.omega_d, gamma_b=p.gamma_b,
            gamma_d=p.gamma_d, n_B=p.n_B_b,
        )
        for k in pick
    ])
    for col, name in enumerate(("n_b", "n_d", "purity_2d")):
        _expect(failures, where, f"{name} against scipy's Lyapunov solve",
                _worst_rel(t[name][pick], ref[:, col]), LYAPUNOV_RTOL)


def _check_1d_identities(job: Job, t: dict, failures: list[str]) -> None:
    """Columns of one single-mode row that fix each other."""
    where = job.path.name
    xx, pp, w = t["xx"], t["pp"], job.config.params.omega_b
    _require(failures, where, "xp == 0", t["xp"] == 0.0)
    _expect(failures, where, "purity against 1/(2 sqrt(xx pp))",
            _worst_rel(t["purity"], 1.0 / (2.0 * np.sqrt(xx * pp))), IDENTITY_RTOL)
    _expect(failures, where, "n_bar against purity",
            _worst_rel(2.0 * t["n_bar"] + 1.0, 1.0 / t["purity"]), IDENTITY_RTOL)
    _expect(failures, where, "n_bar_0 against (xx omega_b + pp/omega_b)/2 - 1/2",
            _worst_rel(t["n_bar_0"] + 0.5, 0.5 * (xx * w + pp / w)), IDENTITY_RTOL)
    # The bare-basis occupation bounds the thermal one from above.
    _require(failures, where, "n_bar_0 >= n_bar", t["n_bar_0"] >= t["n_bar"])


def _check_vacuum_ladder(job: Job, t: dict, failures: list[str]) -> None:
    where = job.path.name
    _all_stable(job, t, failures)
    _check_1d_identities(job, t, failures)
    p = job.config.params
    exact = oracle.backaction_1d(t["G_o"], p.delta, p.kappa, p.omega_b)
    program = [backaction_1d(sweep.with_param(p, "G_o", g)) for g in t["G_o"]]
    residue = [integrate_moments_residue(sweep.with_param(p, "G_o", g)) for g in t["G_o"]]
    for name in ("xx", "pp"):
        _expect(failures, where, f"{name} against the backaction closed form",
                _worst_rel(t[name], exact[name]), CLOSED_FORM_RTOL)
        _expect(failures, where, f"{name} against omsteady's backaction_1d",
                _worst_rel(t[name], [getattr(r, name) for r in program]), CLOSED_FORM_RTOL)
        _expect(failures, where, f"{name} against the residue route",
                _worst_rel(t[name], [getattr(r, name) for r in residue]), RESIDUE_RTOL)


def _check_thermal_ladder(job: Job, t: dict, failures: list[str]) -> None:
    where = job.path.name
    _all_stable(job, t, failures)
    _check_1d_identities(job, t, failures)
    p = job.config.params
    T, w = p.temperature, p.omega_b
    force = p.gamma_b * w / math.tanh(w / (2.0 * T))
    args = (p.delta, p.kappa, w, p.gamma_b)
    white = np.array([oracle.markovian_1d(g, *args, force) for g in t["G_o"]])
    cavity_only = np.array([oracle.markovian_1d(g, *args, 0.0) for g in t["G_o"]])
    # The white bath samples the symmetrized spectrum w coth(w/2T) at
    # omega_b only. Over |w| <= 2 omega_b, which holds both dressed
    # resonances below the stability edge, that spectrum departs from
    # its value at omega_b by at most omega_b^2 / (4 T^2) relative
    # (8.3e-3 at n_B = 5). That bounds the gap in the bath's share.
    tol = w**2 / (4.0 * T**2)
    for col, name in enumerate(("xx", "pp")):
        bath = white[:, col] - cavity_only[:, col]
        worst = float(np.max(np.abs(t[name] - white[:, col]) / bath))
        _expect(failures, where, f"{name} against the Markovian Lyapunov route, "
                "relative to the bath's share", worst, tol)


def _check_closed_form(job: Job, t: dict, failures: list[str]) -> None:
    where = job.path.name
    p = job.config.params
    margin = oracle.stability_margin(t["G_o"], t["delta"], p.kappa, p.omega_b)
    stable = t["stable"] == 1
    _require(failures, where, "stable flag == (omega_b^2 - 2 g_o^2 > 0)", stable == (margin > 0))
    _require(failures, where, "rows on both sides of the stability edge",
             [stable.any(), (~stable).any()])
    outputs = job.config.outputs
    flagged = ~stable
    _require(failures, where, "flagged rows carry no values and an UnstableRegime note",
             [np.isnan(t[q][flagged]).all() for q in outputs]
             + [w.startswith("UnstableRegime") == bool(f) for w, f in zip(t["warnings"], flagged)])
    exact = oracle.backaction_1d(t["G_o"][stable], t["delta"][stable], p.kappa, p.omega_b)
    # Near the edge the moments go as 1/margin, which magnifies a
    # rounding in margin by omega_b^2 / margin.
    tol = IDENTITY_RTOL * (1.0 + p.omega_b**2 / margin[stable])
    for q in outputs:
        err = np.abs(t[q][stable] - exact[q]) / np.maximum(np.abs(exact[q]), 1e-300)
        _require(failures, where, f"{q} against the paper's closed form", err <= tol)
