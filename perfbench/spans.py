"""Spans around the calls into omsteady, recorded from outside the program.

Each public function is wrapped where its caller looks it up: the
sweep engine finds ``steady_covariance``, ``build_rwa`` and the other
solvers as names of ``omsteady.sweep``; ``steady_covariance`` finds
``stability`` in ``omsteady.langevin``; ``moment_integrals`` finds
``position_psd`` and ``response_poles`` in ``omsteady.spectral``; the
dataclass ``__init__`` finds ``__post_init__`` on the params class.
The wrappers are installed only for traced rounds and removed after,
so untraced rounds run the unmodified program.

One span per call holds its name, start, end, parent span and grid
point; spans stay in memory (compact arrays) until the run ends. A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from omsteady import gaussian, langevin, models, spectral, sweep

# (owner, attribute, span name); the span name says which layer owns
# the function, the owner says where the caller looks it up.
_SITES = (
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep.SweepResult, "csv_rows", "sweep.csv_rows"),
    (sweep, "write_csv", "sweep.write_csv"),
    (sweep, "evaluate_point", "sweep.evaluate_point"),
    (sweep, "evaluate_config", "sweep.evaluate_config"),
    (sweep, "with_param", "models.with_param"),
    (models.SystemParams1D, "__post_init__", "models.post_init"),
    (models.SystemParams2D, "__post_init__", "models.post_init"),
    (models.SystemParamsRWA, "__post_init__", "models.post_init"),
    (sweep, "build_1d", "langevin.build"),
    (sweep, "build_2d", "langevin.build"),
    (sweep, "build_rwa", "langevin.build"),
    (sweep, "steady_covariance", "langevin.steady_covariance"),
    (langevin, "stability", "langevin.stability"),
    (sweep, "occupation_and_purity_1d", "gaussian.purity"),
    (sweep, "purity_2d_general", "gaussian.purity"),
    (gaussian, "symplectic_eigenvalues", "gaussian.symplectic_eigenvalues"),
    (sweep, "backaction_1d", "closedform.backaction_1d"),
    (sweep, "bare_occupation", "closedform.bare_occupation"),
    (sweep, "integrate_moments", "spectral.integrate_moments"),
    (spectral, "moment_integrals", "spectral.moment_integrals"),
    (spectral, "position_psd", "spectral.position_psd"),
    (spectral, "response_poles", "spectral.response_poles"),
)

_POINT_SPAN = "sweep.evaluate_point"
# Work done by one call, as a count: frequencies for the spectral density.
_WORK = {"spectral.position_psd": lambda args: int(np.size(args[0]))}


class Tracer:
    """Span recorder that patches the sites above while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.point = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._points = 0
        self._current_point = -1
        self._patches = [
            (owner, attr, getattr(owner, attr), self._wrap(getattr(owner, attr), span))
            for owner, attr, span in _SITES
        ]

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        opens_point = span == _POINT_SPAN
        work = _WORK.get(span)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            if opens_point:
                tr._current_point = tr._points
                tr._points += 1
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.point.append(tr._current_point)
            tr.work.append(work(args) if work else 1)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
                if opens_point:
                    tr._current_point = -1

        return traced

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, work, summed duration and self time (s)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        self_time = dur - children
        work = np.frombuffer(self.work, dtype=np.int64)
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out[span] = {
                "calls": int(sel.sum()),
                "work": int(work[sel].sum()),
                "total": float(dur[sel].sum()),
                "self": float(self_time[sel].sum()),
            }
        return out

    def save(self, path: Path) -> None:
        """Write every span as parallel arrays (numpy .npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            point=np.frombuffer(self.point, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_metrics(t: dict[str, dict[str, float]], rows: int, files: int,
                  import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from span totals of traced rounds.

    ``rows`` is the number of CSV rows and ``files`` the number of CSV
    files the traced rounds wrote. A layer the workload never calls
    reads 0.
    """
    points = t[_POINT_SPAN]["calls"]

    def per_call(span: str, key: str = "total") -> float:
        calls = t[span]["calls"]
        return t[span][key] / calls if calls else 0.0

    def per_point(value: float) -> float:
        return value / points if points else 0.0

    us, ms = 1e6, 1e3
    psd = t["spectral.position_psd"]
    return {
        "setup.import_s": (import_s, "s"),
        "models.record_us": (per_call("models.with_param") * us, "us"),
        "langevin.build_us": (per_call("langevin.build") * us, "us"),
        "langevin.stability_us": (per_call("langevin.stability") * us, "us"),
        "langevin.solve_us": (per_call("langevin.steady_covariance", "self") * us, "us"),
        "gaussian.purity_us": (per_call("gaussian.purity", "self") * us, "us"),
        "gaussian.symplectic_us": (per_call("gaussian.symplectic_eigenvalues") * us, "us"),
        "closedform.backaction_us": (per_call("closedform.backaction_1d") * us, "us"),
        "closedform.bare_occupation_us": (per_call("closedform.bare_occupation") * us, "us"),
        "spectral.psd_calls_per_point": (per_point(psd["calls"]), "count"),
        "spectral.psd_freqs_per_point": (per_point(psd["work"]), "count"),
        "spectral.poles_calls_per_point": (
            per_point(t["spectral.response_poles"]["calls"]), "count"),
        "spectral.psd_ms": (per_point(psd["total"]) * ms, "ms"),
        "spectral.quadrature_ms": (per_point(t["spectral.moment_integrals"]["self"]) * ms, "ms"),
        "spectral.gate_us": (per_call("spectral.integrate_moments", "self") * us, "us"),
        "sweep.engine_us": (per_point(
            t["sweep.evaluate_point"]["self"] + t["sweep.evaluate_config"]["self"]) * us, "us"),
        "sweep.format_us": (t["sweep.csv_rows"]["total"] / rows * us if rows else 0.0, "us"),
        "sweep.write_ms": (t["sweep.write_csv"]["total"] / files * ms if files else 0.0, "ms"),
    }
