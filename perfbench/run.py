"""omsteady benchmark: evaluate, format and write sweeps for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rwa_map --seed 1 --seconds 30 --trace 0

Workloads: rwa_map, spectral_ladder, closed_form_scan (see README.md).
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics setup_s, points_per_s and peak_rss_mb;
with ``--trace 1`` it carries the per-layer metrics instead, and the
line before it states the tracing overhead.

The machine this runs on changes speed by 20-50% over tens of seconds
(other tenants), so setup_s and points_per_s are given at a fixed
machine speed: a reference slice of fixed work is timed before every
sweep and around every set-up probe, and each wall time is divided by
(mean slice time / REFERENCE_NOMINAL_S). The wall figures are printed
on the line before the JSON. The package is imported
from ``src/`` of the checkout this file sits in, never from anywhere
else. CSV files and the span trace go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread: the benchmark is one process on a small
# machine, and this must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("rwa_map", "spectral_ladder", "closed_form_scan")
#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: Median time of one reference slice on the machine the bounds were
#: set on (README.md); the scale the corrected figures are quoted in.
REFERENCE_NOMINAL_S = 0.040


def _reference_slice() -> float:
    """Seconds taken by a fixed piece of work that does not touch omsteady.

    Half is plain Python (dict stores, float arithmetic), half is small
    numpy operations called from a Python loop, the two kinds of work
    the workloads spend their time in.
    """
    import numpy as np  # already loaded by omsteady; not part of its import time

    grid = np.linspace(0.0, 1.0, 4)
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(100_000):
        table[i & 63] = acc
        acc += (i * 0.5) % 7.0
    for i in range(2_500):
        acc += float((np.abs(1.0 / (0.1 - 1j * (grid + i))) ** 2).sum())
    return perf_counter() - t0


def _import_omsteady() -> float:
    """Import omsteady from this checkout's src/ and return the seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import omsteady
    elapsed = perf_counter() - t0
    if Path(omsteady.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"omsteady was imported from {omsteady.__file__}, not {SRC}")
    return elapsed


def _measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(process start to ready, import) in seconds, from one fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe exited with {code}: {line!r}")
    return ready, float(line.split()[1])


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import, build the inputs, evaluate one point, print 'ready' and exit")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import_s = _import_omsteady()
    except ImportError as exc:
        print(f"perfbench: cannot import omsteady from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, OUT).warm_up()
        print(f"ready {import_s!r}", flush=True)
        return 0

    setups, setup_slices = [], [_reference_slice()]
    for _ in range(SETUP_REPEATS):
        setups.append(_measure_setup(args.workload, args.seed))
        setup_slices.append(_reference_slice())
    wl = workloads.build(args.workload, args.seed, OUT)
    wl.clear_outputs()
    wl.warm_up()
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()

    # Whole rounds (every sweep once) until the time is up, a reference
    # slice before each sweep. A traced run alternates plain and traced
    # rounds, so both rates come from the same stretch of machine time;
    # it needs at least one of each.
    busy = {False: 0.0, True: 0.0}
    points = {False: 0, True: 0}
    attempted = failed = rounds = 0
    slices = []
    first = None
    identical = True
    t_start = perf_counter()
    while perf_counter() - t_start < args.seconds or (tracer and rounds < 2):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for job in wl.jobs:
            slices.append(_reference_slice())
            t0 = perf_counter()
            bad = wl.run_job(job)
            busy[traced] += perf_counter() - t0
            points[traced] += job.size - bad
            attempted += job.size
            failed += bad
        if traced:
            tracer.uninstall()
        rounds += 1
        out = wl.outputs()
        if first is None:
            first = out
        identical &= out == first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = wl.check()
    if not identical:
        failures.append("CSV bytes differ between rounds of the same inputs")
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    rate = points[False] / busy[False]
    if tracer is None:
        # > 1 when the machine ran slower than nominal.
        slow = statistics.fmean(slices) / REFERENCE_NOMINAL_S
        slow_setup = statistics.fmean(setup_slices) / REFERENCE_NOMINAL_S
        setup_wall = statistics.median(s for s, _ in setups)
        print(f"wall: {rate:.6g} points/s, set-up {setup_wall:.4g} s; machine speed: "
              f"reference slice {slow:.3f} x nominal in the run, {slow_setup:.3f} x in set-up")
        metrics = {
            "setup_s": (setup_wall / slow_setup, "s"),
            "points_per_s": (rate * slow, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_rate = points[True] / busy[True]
        print(f"tracing overhead: {rate:.6g} points/s untraced, {traced_rate:.6g} traced "
              f"({100.0 * (rate / traced_rate - 1.0):.1f}% slower)")
        tracer.save(OUT / f"trace_{args.workload}.npz")
        files = (rounds // 2) * len(wl.jobs)
        metrics = layer_metrics(tracer.totals(), points[True], files,
                                statistics.median(i for _, i in setups))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
