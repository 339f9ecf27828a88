"""The package keeps every name the benchmark harness uses.

perfbench/ is imported from the checkout as it is: the span tracer looks
up each function it wraps, and each workload runs one round through the
same calls as perfbench/run.py, then checks its CSV files.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_tracer_finds_every_site(harness):
    spans, _ = harness
    tracer = spans.Tracer()
    originals = [getattr(owner, attr) for owner, attr, _ in spans._SITES]
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr, _), fn in zip(spans._SITES, originals))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in spans._SITES] == originals


def test_perfbench_trace_sites_resolve():
    # perfbench/spans.py wraps these names where omsteady looks them up
    path = PERFBENCH / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._SITES
    missing = [(owner.__name__, attr) for owner, attr, _ in spans._SITES
               if not callable(getattr(owner, attr, None))]
    assert missing == []


WORKLOADS = ("rwa_map", "spectral_ladder", "closed_form_scan")


def test_every_workload_is_run_here(harness):
    assert harness[1].NAMES == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_round_passes_its_checks(harness, name, tmp_path):
    _, workloads = harness
    wl = workloads.build(name, 1, tmp_path)
    wl.warm_up()
    assert [wl.run_job(job) for job in wl.jobs] == [0] * len(wl.jobs)
    assert wl.check() == []
