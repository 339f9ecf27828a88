import pytest

from omsteady import sweep, validation


@pytest.fixture
def perturbed_diffusion(monkeypatch):
    """Scale the diffusion of every registry 1D Lyapunov build by 1 + 1e-6."""
    build = sweep.build_1d_batch

    def perturbed(grid):
        systems = build(grid)
        systems.columns["diffusion"] = systems.columns["diffusion"] * (1.0 + 1e-6)
        return systems

    monkeypatch.setattr(sweep, "build_1d_batch", perturbed)


@pytest.fixture
def grid_columns_calls(monkeypatch):
    """A function of a module that records each validation._grid_columns
    call the module makes, with the columns it returned, in a list it
    returns."""
    grid_columns = validation._grid_columns

    def record(module) -> list:
        calls = []

        def recorded(*args):
            calls.append((*args, grid_columns(*args)))
            return calls[-1][-1]

        monkeypatch.setattr(module, "_grid_columns", recorded)
        return calls

    return record
