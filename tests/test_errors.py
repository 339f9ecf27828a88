"""The exit code of each error decides its outcome everywhere.

A sweep flags the point for codes 2 and 3 and aborts on code 4; the
CLI prints the prefix of the code and returns it.
"""

import numpy as np
import pytest

from omsteady import errors, sweep
from omsteady.cli import main
from omsteady.errors import OmsteadyError
from omsteady.models import SystemParams1D
from omsteady.sweep import RunConfig, evaluate_point

ERROR_TYPES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, OmsteadyError)),
    key=lambda c: c.__name__,
)
PREFIXES = {2: "config error", 3: "unstable or out of regime", 4: "oracle mismatch"}
ROUTE = ("oneD", "closed_form")


@pytest.fixture
def failing_route(monkeypatch):
    """Make the oneD closed-form evaluator give every record a given error type."""
    def install(exc_type):
        route = sweep._EVALUATORS[ROUTE]

        def fail(grid):
            # full-length columns, whose entries at a flagged item mean nothing
            return errors.Batch([exc_type("injected") for _ in range(len(grid))], [()] * len(grid),
                                {q: np.zeros(len(grid)) for q in route.quantities})
        monkeypatch.setitem(sweep._EVALUATORS, ROUTE, route._replace(evaluate=fail))
    return install


def test_every_error_has_a_documented_exit_code():
    for exc_type in ERROR_TYPES:
        assert exc_type.exit_code in (2, 3, 4), exc_type.__name__
        assert exc_type.__name__ in errors.__doc__


@pytest.mark.parametrize("exc_type", ERROR_TYPES, ids=lambda c: c.__name__)
def test_sweep_flags_codes_2_and_3_and_aborts_on_4(exc_type, failing_route):
    failing_route(exc_type)
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)
    config = RunConfig(model=ROUTE[0], solver=ROUTE[1], params=p)
    if exc_type.exit_code == 4:
        with pytest.raises(exc_type, match="injected"):
            evaluate_point(config, {"G_o": 0.2})
    else:
        columns, stable, warnings = evaluate_point(config, {"G_o": 0.2})
        assert stable.tolist() == [False]
        assert all(c.size == 0 for c in columns.values())
        assert warnings == [(f"{exc_type.__name__}: injected",)]


@pytest.mark.parametrize("exc_type", ERROR_TYPES, ids=lambda c: c.__name__)
def test_cli_returns_the_exit_code_with_its_prefix(exc_type, failing_route, capsys):
    failing_route(exc_type)
    assert main(["point", "--solver", "closed_form"]) == exc_type.exit_code
    assert capsys.readouterr().err == f"{PREFIXES[exc_type.exit_code]}: injected\n"


def test_config_syntax_error_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("G_o = 0.4\n", encoding="utf-8")  # no section header
    assert main(["point", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_stacked_lyapunov_sweep_aborts_on_a_failed_residual_gate(monkeypatch):
    # every residual gate fails: a SolveFailure, exit code 4, in a batch-form grid
    monkeypatch.setattr("omsteady.langevin.LYAPUNOV_RESIDUAL_RTOL", -1.0)
    p = SystemParams1D(omega_b=1.0, gamma_b=0.0, kappa=0.2, delta=1.0, G_o=0.1)
    spec = sweep.SweepSpec((sweep.Axis("G_o", 0.1, 0.7, 70),))
    with pytest.raises(errors.SolveFailure, match="Lyapunov residual"):
        sweep.run_sweep(RunConfig(model="oneD", solver="lyapunov", params=p), spec)
