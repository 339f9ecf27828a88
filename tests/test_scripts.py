import importlib.util
from pathlib import Path

from omsteady.models import SystemParams1D
from omsteady.spectral import moment_integrals

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectral_diagnostics_prints_the_gated_sum_rule_deviation(capsys):
    couplings = (0.1, 0.4)
    assert load_script("spectral_diagnostics").main(
        ["--couplings", *map(str, couplings)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["sum", "rule"]
    assert len(lines) == 1 + len(couplings)
    for g_o, line in zip(couplings, lines[1:]):
        p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=g_o)
        comm = moment_integrals(p)["commutator"]
        deviation = abs(comm - p.hbar / 2.0) / (p.hbar / 2.0)
        assert line.split()[-1] == f"{deviation:.1e}"
        assert float(line.split()[-1]) < 1e-6


def test_perfbench_trace_sites_resolve():
    # perfbench/spans.py wraps these names where omsteady looks them up
    path = SCRIPTS.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._SITES
    missing = [(owner.__name__, attr) for owner, attr, _ in spans._SITES
               if not callable(getattr(owner, attr, None))]
    assert missing == []
