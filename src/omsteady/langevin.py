"""Linear quantum Langevin models and their steady-state covariances.

Each model is rendered as a first-order linear stochastic system

    dz/dt = A z + noise,   <noise noise^T>_sym = D delta(t - t'),

whose stationary covariance V solves the Lyapunov condition
A V + V A^T + D = 0. Three builders are provided: the single
mechanical mode plus cavity (4x4), the two-mode trap in the
bright/dark basis plus cavity (6x6), and the resonant three-mode
model with counter-rotating terms dropped (6x6 quadratures of the
rotating-frame amplitudes; hbar is effectively 1 in that frame).

Quadrature convention: X = (a + a^dagger)/sqrt(2), P = i(a^dagger -
a)/sqrt(2), so a vacuum input of rate kappa produces diffusion
kappa/2 per cavity quadrature. This fixes every factor of two below.

The Lyapunov solve is a dense linear solve over the n(n+1)/2
independent entries of the symmetric unknown. Its operator is filled
from a cached index map, built once per dimension n. At these sizes
(n <= 6) that is faster and more predictable than iterative or
Schur-based methods, and it is exactly deterministic.

Solves are stacked: steady_covariance_batch takes B drift and
diffusion matrices and runs one stacked eigenvalue check, one fill of
the B operators and one stacked np.linalg.solve, then the residual
gate, and returns one outcome per item. numpy's linalg routines are
gufuncs that run the same LAPACK call on every matrix of a stack, so
a stacked result equals the item solved alone, bit for bit. The
scalar steady_covariance is a batch of one.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CorrelatedBathUnsupported, InvalidParams, OmsteadyError, SolveFailure,
                     UnstableSystem, flag_first)
from .gaussian import Cov1D, Cov2D
from .models import (
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    bright_dark,
    planck,
)

__all__ = [
    "NoiseMode",
    "LinearSystem",
    "CovarianceMatrix",
    "CovarianceBatch",
    "build_1d",
    "build_2d",
    "build_rwa",
    "stability",
    "steady_covariance",
    "steady_covariance_batch",
    "LYAPUNOV_RESIDUAL_RTOL",
]

LYAPUNOV_RESIDUAL_RTOL = 1e-10


class NoiseMode(enum.Enum):
    """Which noise sources enter the diffusion matrix.

    VacuumOnly keeps mechanical damping in the drift but drops the
    corresponding thermal noise from the diffusion (the backaction
    limit). MarkovianThermal adds white mechanical noise with the
    symmetrized strength evaluated at the mode frequency.
    """

    VacuumOnly = "vacuum"
    MarkovianThermal = "thermal"


@dataclass(frozen=True)
class LinearSystem:
    """Drift and diffusion matrices with variable-order metadata."""

    drift: np.ndarray
    diffusion: np.ndarray
    labels: tuple[str, ...]
    hbar: float = 1.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=float)
        d = np.asarray(self.diffusion, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n) or d.shape != (n, n):
            raise InvalidParams("drift and diffusion must be square and same size")
        if n != len(self.labels) or n % 2:
            raise InvalidParams("labels must match an even dimension")
        for name, mat in (("drift", a), ("diffusion", d)):
            if not np.isfinite(mat).all():
                raise InvalidParams(f"{name} matrix has a non-finite entry")
        if np.abs(d - d.T).max() > 1e-14 * max(np.abs(d).max(), 1.0):
            raise InvalidParams("diffusion matrix must be symmetric")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", 0.5 * (d + d.T))

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric steady-state second moments with labeling metadata."""

    matrix: np.ndarray
    labels: tuple[str, ...]
    hbar: float = 1.0

    def block(self, names: tuple[str, ...]) -> np.ndarray:
        idx = [self.labels.index(nm) for nm in names]
        return self.matrix[np.ix_(idx, idx)]

    def mechanical_1d(self) -> Cov1D:
        b = self.block(("x_b", "p_b"))
        return Cov1D(xx=float(b[0, 0]), pp=float(b[1, 1]), xp=float(b[0, 1]),
                     hbar=self.hbar)

    def mechanical_2d(self) -> Cov2D:
        names = ("x_b", "p_b", "x_d", "p_d")
        if "x_b" not in self.labels:
            names = ("X_b", "P_b", "X_d", "P_d")
        return Cov2D(matrix=self.block(names), hbar=self.hbar)


def build_1d(params: SystemParams1D, noise: NoiseMode) -> LinearSystem:
    """One mechanical mode and one cavity mode, ordering (x_b, p_b, X_c, P_c).

    The optomechanical force enters the momentum equation as
    -sqrt(2) hbar lambda_o X_c and reciprocally drives the cavity
    phase quadrature with -sqrt(2) lambda_o x_b.
    """
    if params.kappa <= 0 or params.omega_b <= 0:
        raise InvalidParams("build_1d needs kappa > 0 and omega_b > 0")
    m, hbar = params.mass, params.hbar
    lam = params.lambda_o
    A = np.array(
        [
            [0.0, 1.0 / m, 0.0, 0.0],
            [-m * params.omega_b**2, -params.gamma_b, -math.sqrt(2.0) * hbar * lam, 0.0],
            [0.0, 0.0, -params.kappa / 2.0, params.delta],
            [-math.sqrt(2.0) * lam, 0.0, -params.delta, -params.kappa / 2.0],
        ]
    )
    D = np.zeros((4, 4))
    D[2, 2] = D[3, 3] = params.kappa / 2.0
    if noise is NoiseMode.MarkovianThermal and params.gamma_b > 0:
        n_B = planck(params.omega_b, params.temperature)
        D[1, 1] = 2.0 * m * params.gamma_b * hbar * params.omega_b * (n_B + 0.5)
    return LinearSystem(
        drift=A,
        diffusion=D,
        labels=("x_b", "p_b", "X_c", "P_c"),
        hbar=hbar,
    )


def build_2d(params: SystemParams2D, noise: NoiseMode) -> LinearSystem:
    """Bright and dark mechanical modes plus cavity, 6x6.

    Ordering (x_b, p_b, x_d, p_d, X_c, P_c). The bright/dark rotation
    produces an elastic cross coupling m*omega_bar_m*delta_m and, for
    unequal axis damping, a dissipative one eta_m. Only the bright
    mode feels the cavity force.

    The Markovian thermal surrogate assumes the two rotated baths are
    uncorrelated, which holds when gamma_x = gamma_y. If the damping
    rates differ and the modes actually mix (eta_m != 0), the rotated
    baths are correlated and no white-noise surrogate is attempted.
    """
    bd = bright_dark(params)
    m, hbar = params.mass, params.hbar
    lam = params.lambda_o
    cross = m * bd.omega_bar_m * bd.delta_m
    A = np.zeros((6, 6))
    A[0, 1] = 1.0 / m
    A[1, 0] = -m * bd.omega_b**2
    A[1, 1] = -bd.gamma_b
    A[1, 2] = -cross
    A[1, 3] = -bd.eta_m
    A[1, 4] = -math.sqrt(2.0) * hbar * lam
    A[2, 3] = 1.0 / m
    A[3, 2] = -m * bd.omega_d**2
    A[3, 3] = -bd.gamma_d
    A[3, 0] = -cross
    A[3, 1] = -bd.eta_m
    A[4, 4] = -params.kappa / 2.0
    A[4, 5] = params.delta
    A[5, 0] = -math.sqrt(2.0) * lam
    A[5, 4] = -params.delta
    A[5, 5] = -params.kappa / 2.0
    D = np.zeros((6, 6))
    D[4, 4] = D[5, 5] = params.kappa / 2.0
    if noise is NoiseMode.MarkovianThermal:
        if params.gamma_x != params.gamma_y and bd.eta_m != 0.0:
            raise CorrelatedBathUnsupported(
                "unequal axis damping with mode mixing correlates the "
                "bright and dark baths; no white-noise surrogate exists"
            )
        for row, (w, g) in ((1, (bd.omega_b, bd.gamma_b)), (3, (bd.omega_d, bd.gamma_d))):
            if g > 0:
                n_B = planck(w, params.temperature)
                D[row, row] = 2.0 * m * g * hbar * w * (n_B + 0.5)
    return LinearSystem(
        drift=A,
        diffusion=D,
        labels=("x_b", "p_b", "x_d", "p_d", "X_c", "P_c"),
        hbar=hbar,
    )


def build_rwa(params: SystemParamsRWA) -> LinearSystem:
    """Resonantly coupled cavity, bright and dark modes without
    counter-rotating terms, 6x6 over (X_a, P_a, X_b, P_b, X_d, P_d).

    Quadratures here are of the mode amplitudes themselves (not mass-
    weighted positions), so hbar is 1 in this frame and a vacuum mode
    has variance 1/2 per quadrature. Thermal inputs of occupation n_B
    give diffusion gamma*(n_B + 1/2) per quadrature.
    """
    warn: list[str] = []
    wmin = min(params.omega_b, params.omega_d)
    if max(params.kappa, params.G_o, params.G_m) > 0.1 * wmin:
        warn.append(
            "rotating-wave build outside its regime: kappa, G_o, G_m "
            "should be well below the mode frequencies"
        )
    A = np.zeros((6, 6))

    def rotor(i: int, rate: float, freq: float) -> None:
        A[i, i] = A[i + 1, i + 1] = -rate
        A[i, i + 1] = freq
        A[i + 1, i] = -freq

    rotor(0, params.kappa / 2.0, params.delta)
    rotor(2, params.gamma_b / 2.0, params.omega_b)
    rotor(4, params.gamma_d / 2.0, params.omega_d)

    def beamsplit(i: int, j: int, g: float) -> None:
        # -i g exchange coupling between complex amplitudes i and j
        A[i, j + 1] += g
        A[i + 1, j] += -g
        A[j, i + 1] += g
        A[j + 1, i] += -g

    beamsplit(0, 2, params.G_o)
    beamsplit(2, 4, params.G_m)

    D = np.diag(
        [
            params.kappa / 2.0,
            params.kappa / 2.0,
            params.gamma_b * (params.n_B_b + 0.5),
            params.gamma_b * (params.n_B_b + 0.5),
            params.gamma_d * (params.n_B_d + 0.5),
            params.gamma_d * (params.n_B_d + 0.5),
        ]
    )
    return LinearSystem(
        drift=A,
        diffusion=D,
        labels=("X_a", "P_a", "X_b", "P_b", "X_d", "P_d"),
        hbar=1.0,
        warnings=tuple(warn),
    )


def _decaying(A: np.ndarray) -> np.ndarray:
    """Per stacked drift A[B, n, n]: True iff every eigenvalue decays."""
    ev = np.linalg.eigvals(A)
    rho = np.abs(ev).max(axis=-1, initial=0.0)
    return np.all(ev.real < -1e-12 * rho[..., None], axis=-1)


def stability(sys: LinearSystem) -> bool:
    """True iff every drift eigenvalue decays.

    The margin scales with the spectral radius (eps = 1e-12 * rho), so
    marginal rotations and zero matrices are classed unstable rather
    than flapping on rounding noise.
    """
    return bool(_decaying(sys.drift[None])[0])


@functools.cache
def _vech_map(n: int) -> tuple[np.ndarray, ...]:
    """Index map of the vech operator for dimension n, built once.

    Holds the upper-triangle rows and columns of the vech ordering and,
    for every drift term of every vech equation, the flat entry of M it
    lands on and the flat entry of A it reads. The arrays are shared by
    every call, so they are read-only.
    """
    iu, ju = np.triu_indices(n)
    nn = iu.size
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(nn)
    k = np.arange(n)
    row = np.arange(nn)[:, None] * nn
    i, j = iu[:, None], ju[:, None]
    # (A V)_ij = sum_k A_ik V_kj ; (V A^T)_ij = sum_k V_ik A_jk
    target = np.concatenate([(row + pos[k, j]).ravel(), (row + pos[i, k]).ravel()])
    source = np.concatenate([(i * n + k).ravel(), (j * n + k).ravel()])
    vmap = (iu, ju, target, source)
    for arr in vmap:
        arr.flags.writeable = False
    return vmap


@dataclass(frozen=True)
class CovarianceBatch:
    """Stacked steady states with one outcome per item.

    ``errors[k]`` is None when item k settled, and otherwise the
    UnstableSystem or SolveFailure that ``steady_covariance`` raises
    for it; ``matrix[k]`` is its covariance, or zeros when it was not
    solved. ``residual`` and ``scale`` are the residual gate's figures,
    max |A V + V A^T + D| and the scale its bound is stated against.
    """

    matrix: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    errors: tuple[OmsteadyError | None, ...]


def steady_covariance_batch(A: np.ndarray, D: np.ndarray) -> CovarianceBatch:
    """Stationary covariances V[k] solving A[k] V + V A[k]^T + D[k] = 0.

    One stacked stability check, one fill of every vech operator and
    one stacked dense solve over the n(n+1)/2 distinct entries of each
    V, then the residual gate. An item that fails a check gets the
    error of the first check it fails and does not affect the others.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    B, n = A.shape[0], A.shape[-1]
    iu, ju, target, source = _vech_map(n)
    nn = iu.size
    errors: list[OmsteadyError | None] = [None] * B
    stable = _decaying(A)
    flag_first(errors, ~stable,
               lambda k: UnstableSystem("drift matrix has a non-decaying eigenvalue"))
    # Each entry of M takes at most two terms, added onto +0.0, so the
    # sum does not depend on their order.
    M = np.zeros((B, nn * nn))
    np.add.at(M, (slice(None), target), A.reshape(B, n * n)[:, source])
    M = M.reshape(B, nn, nn)
    # An unstable item is not solved; the identity keeps it from making
    # the stack singular.
    M[~stable] = np.eye(nn)
    rhs = -D[:, iu, ju]
    try:
        v = np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # A stacked solve fails as a whole; solve each item alone.
        v = np.zeros((B, nn))
        for k in range(B):
            try:
                v[k] = np.linalg.solve(M[k:k + 1], rhs[k:k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                errors[k] = SolveFailure(f"Lyapunov linear system is singular: {exc}")
                errors[k].__cause__ = exc
    v[[e is not None for e in errors]] = 0.0
    V = np.empty((B, n, n))
    V[:, iu, ju] = V[:, ju, iu] = v
    resid = np.abs(A @ V + V @ A.swapaxes(-1, -2) + D).max(axis=(-2, -1))
    # Backward-error scale: when the covariance dwarfs the diffusion
    # (weakly damped hot modes), rounding in forming A V alone exceeds
    # any bound stated against |D| only.
    scale = np.fmax(np.abs(D).max(axis=(-2, -1)),
                    np.abs(A).max(axis=(-2, -1)) * np.abs(V).max(axis=(-2, -1)))
    flag_first(errors, ~np.isfinite(resid) | (resid > LYAPUNOV_RESIDUAL_RTOL * scale),
               lambda k: SolveFailure(f"Lyapunov residual {resid[k]:.3e} exceeds "
                                      f"{LYAPUNOV_RESIDUAL_RTOL:.1e} * {scale[k]:.3e}"))
    return CovarianceBatch(matrix=V, residual=resid, scale=scale, errors=tuple(errors))


def steady_covariance(sys: LinearSystem) -> CovarianceMatrix:
    """Stationary covariance V solving A V + V A^T + D = 0.

    A batch of one through steady_covariance_batch. Raises
    UnstableSystem when the drift is not strictly stable and
    SolveFailure if the linear system is singular or the residual
    check fails.
    """
    batch = steady_covariance_batch(sys.drift[None], sys.diffusion[None])
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return CovarianceMatrix(matrix=batch.matrix[0], labels=sys.labels, hbar=sys.hbar)
