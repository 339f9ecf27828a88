import pytest

from omsteady import sweep


@pytest.fixture
def perturbed_diffusion(monkeypatch):
    """Scale the diffusion of every registry 1D Lyapunov build by 1 + 1e-6."""
    build = sweep.build_1d_batch

    def perturbed(grid, noise):
        systems = build(grid, noise)
        systems.columns["diffusion"] = systems.columns["diffusion"] * (1.0 + 1e-6)
        return systems

    monkeypatch.setattr(sweep, "build_1d_batch", perturbed)
