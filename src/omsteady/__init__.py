"""Gaussian steady states of linearized cavity optomechanics.

Computes stationary covariance matrices of one- and two-dimensional
mechanical oscillators coupled to a driven cavity mode, and
characterizes them by quantum state purity, diagonal-basis thermal
occupation and conventional phonon number. Three mutually validating
solver routes are provided: dense Lyapunov solves of the white-noise
Langevin models, adaptive spectral integration with the exact colored
bath correlator, and closed-form expressions for the weak, strong and
backaction-dominated regimes.
"""

from .errors import (
    AssumptionViolated,
    CorrelatedBathUnsupported,
    DegenerateState,
    FixedPointDivergence,
    InvalidParams,
    InvalidRegime,
    OmsteadyError,
    QuadratureFailure,
    SolveFailure,
    UncertaintyViolation,
    UndampedDarkMode,
    UnstableRegime,
    UnstableSystem,
)
from .gaussian import (
    Cov1D,
    Cov2D,
    Decomposition1D,
    Summary2D,
    decompose_1d,
    occupation_and_purity_1d,
    purity_2d_general,
    purity_2d_reduced,
    symplectic_eigenvalues,
    wavefunction,
)
from .langevin import (
    CovarianceMatrix,
    LinearSystem,
    NoiseMode,
    build_1d,
    build_2d,
    build_rwa,
    stability,
    steady_covariance,
)
from .models import (
    BrightDark,
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    bright_dark,
    cooperativity,
    g_o_squared,
    planck,
    resonant_2d_design,
    temperature_for_occupation,
)
from .closedform import (
    Backaction1DResult,
    Backaction2DResult,
    StrongCouplingResult,
    WeakCouplingResult,
    backaction_1d,
    backaction_2d,
    bare_occupation,
    rwa_optimum,
    strong_coupling,
    weak_coupling,
)
from .spectral import (
    brownian_psd,
    cavity_self_energy,
    cavity_susceptibility,
    integrate_moments,
    integrate_moments_residue,
    mechanical_response,
    moment_integrals,
    position_psd,
    response_poles,
    spectral_stability,
)
from .sweep import (
    Axis,
    RunConfig,
    SweepResult,
    SweepSpec,
    available_quantities,
    format_float,
    run_sweep,
    sweep_to_csv,
    with_param,
    write_csv,
)
from .figures import FIGURES, FigureOutput, make_figure
from .validation import CHECK_NAMES, CheckResult, run_validation

__version__ = "0.1.0"
