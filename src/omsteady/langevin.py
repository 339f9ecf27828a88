"""Linear quantum Langevin models and their steady-state covariances.

Each model is rendered as a first-order linear stochastic system

    dz/dt = A z + noise,   <noise noise^T>_sym = D delta(t - t'),

whose stationary covariance V solves the Lyapunov condition
A V + V A^T + D = 0. Three builders are provided: the single
mechanical mode plus cavity (4x4), the two-mode trap in the
bright/dark basis plus cavity (6x6), and the resonant three-mode
model with counter-rotating terms dropped (6x6 quadratures of the
rotating-frame amplitudes; hbar is effectively 1 in that frame).
Each builder (build_1d_batch, build_2d_batch, build_rwa_batch) takes
a ParamsGrid, writes the drift and diffusion stacks A[B, n, n] and
D[B, n, n] by index and returns an errors.Batch: per item its error
and regime warnings, and the columns drift, diffusion and hbar. The
scalar build_1d, build_2d and build_rwa are grids of one, labeled by
the build's module constant.

Quadrature convention: X = (a + a^dagger)/sqrt(2), P = i(a^dagger -
a)/sqrt(2), so a vacuum input of rate kappa produces diffusion
kappa/2 per cavity quadrature. This fixes every factor of two below.

Each build carries the white thermal force of its damped modes, the
Markovian Langevin model of Genes et al. (PRA 77, 033804, 2008): a
mechanical mode of damping gamma > 0 gets the force diffusion of
_thermal_force, and an undamped one none. The quantum backaction limit
is gamma = 0, as in closedform.

The Lyapunov solve is a dense linear solve over the independent
entries of the symmetric unknown: its n(n+1)/2 upper-triangle entries
(the vech basis), or n^2/4 of them where the drift and the diffusion
are both phase-insensitive, every 2x2 block being [[r, i], [-i, r]].
The beam-splitter chain of the rotating-wave build is: A = Ar (x) I_2
+ Ai (x) J and D likewise, J = [[0, 1], [-1, 0]]. Such A and D commute
with one rotation of every mode's quadratures, so the unique V does
too, which makes it P (x) I_2 + Q (x) J with P symmetric and Q
antisymmetric: 9 unknowns instead of 21 at n = 6. This is the real
form of the moment equation for complex amplitudes (Genes, Vitali,
Tombesi, Gigan & Aspelmeyer, PRA 77, 033804, 2008). The reduced system
is exact, not an approximation: its solution solves the full equation,
and the two bases agree up to rounding. An item takes the reduced
basis when exact comparison of its blocks finds that structure, and
the vech basis otherwise; no option selects it. Every entry of either
operator is the sum of at most two signed drift entries, so the
operators of a stack are filled by two gathers from the flat drifts
and their negation, through index arrays built once per dimension n
and basis, and one add whose result does not depend on the order of
its terms. At these sizes (n <= 6) that is faster and more
predictable than iterative or Schur-based methods, and it is exactly
deterministic.

Solves are stacked: steady_covariance_batch takes B drift and
diffusion matrices, fills the operators of the items that reach the
solve and runs np.linalg.solve on them in blocks of _LU_BLOCK (64)
items of one basis, then runs the residual gate once over the stack.
It returns an errors.Batch whose columns are the covariances (matrix)
and the gate's figures (residual, backward_error, decay_bound). The
block keeps the operators (3.5 KB each in the vech basis at n = 6,
648 B in the reduced one) in cache however large the stack. numpy's linalg routines are gufuncs
that run the same LAPACK call on every matrix of a stack, so a
stacked result equals the item solved alone, bit for bit. The scalar
steady_covariance is a batch of one. Either operator's eigenvalues
are sums lambda_i + lambda_j of drift eigenvalues, so a singular one
means that the drift is not stable: such an item gets UnstableSystem.

Stability is certified from the solution where that is possible
(Lyapunov's theorem): where the diffusion is positive definite by
Gershgorin's discs and the solved covariance by its LDL^T pivots, the
residual of the solve bounds every drift eigenvalue away from the
imaginary axis. Only the items that bound does not certify go to the
stacked eigenvalue check, which decides them as it would alone. That
includes every item whose diffusion has a zero diagonal entry: the 1D
and 2D builds put no noise on the position rows, and a rotating-wave
build with zero damping none on that mode. The diffusion of every
damped rotating-wave build is diagonal and positive, so those solves
rarely need eigenvalues. The order of the checks does not depend on
the basis: the certificate, the eigenvalue check and the residual gate
all run on the full n x n V, which the reduced basis expands once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (Batch, CorrelatedBathUnsupported, InvalidParams, OmsteadyError,
                     SolveFailure, UnstableSystem, flag_first)
from .gaussian import Cov1D, Cov2D
from .models import (
    ParamsGrid,
    SystemParams1D,
    SystemParams2D,
    SystemParamsRWA,
    bright_dark,
    planck,
)

__all__ = [
    "LinearSystem",
    "CovarianceMatrix",
    "build_1d",
    "build_2d",
    "build_rwa",
    "build_1d_batch",
    "build_2d_batch",
    "build_rwa_batch",
    "stability",
    "steady_covariance",
    "steady_covariance_batch",
    "LYAPUNOV_RESIDUAL_RTOL",
    "STABILITY_CERTIFICATE_RTOL",
]

LYAPUNOV_RESIDUAL_RTOL = 1e-10

#: Items per stacked operator fill and LU solve. The 21x21 vech operators
#: of 64 6x6 drifts take 226 KB; at 256 (903 KB) they fall out of cache
#: and the fill costs about four times as much per item. The 9x9
#: operators of 64 phase-insensitive 6x6 drifts take 41 KB.
_LU_BLOCK = 64

#: Margin of the stability certificate: an item is certified stable when
#: the bound from its solved covariance puts every drift eigenvalue below
#: -STABILITY_CERTIFICATE_RTOL ||A||_inf. That is 1e4 times the margin of
#: the eigenvalue check, 1e-12 rho(A) <= 1e-12 ||A||_inf, so where the
#: certificate fires the two verdicts could differ only if eigvals moved
#: an eigenvalue by 1e-8 ||A|| through rounding, which takes an
#: eigenvalue conditioned near 1e8. The margin also dwarfs the
#: certificate's own rounding:
#: - a bound above it needs a Gershgorin margin of D above
#:   2e-8 ||A||_inf tr V >= 1e-8 tr D / sqrt(n); n times the rounding of
#:   the computed residual, (2n + 1) eps (2n max|A| max|V| + max|D|) per
#:   entry (Higham, ch. 3), is at most 1e-5 of that for n <= 6;
#: - under such a bound, the V of an unstable drift would have an
#:   eigenvalue below -1e-8 ||V||, while the rounding of the LDL^T pivots
#:   moves V by about n^2 eps ||V||.
STABILITY_CERTIFICATE_RTOL = 1e-8


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
        d = _checked_diffusion(a[None], d[None]).only()["diffusion"]
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


def _checked_diffusion(A: np.ndarray, D: np.ndarray) -> Batch:
    """LinearSystem's checks on stacked drift A[B, n, n] and diffusion D[B, n, n].

    Returns the Batch of the error of the first check each item fails
    and the column diffusion, the symmetrized 0.5 D + 0.5 D^T, which must
    stay finite too. An entry equal to its transpose is kept as it is, so
    a finite symmetric D is returned exactly and never overflows.
    """
    errors: list = [None] * len(A)
    _flag_non_finite(errors, "drift", np.isfinite(A).all(axis=(-2, -1)))
    _flag_non_finite(errors, "diffusion", np.isfinite(D).all(axis=(-2, -1)))
    with np.errstate(all="ignore"):
        asymmetry = np.abs(D - D.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
        scale = np.maximum(np.abs(D).max(axis=(-2, -1), initial=0.0), 1.0)
        flag_first(errors, asymmetry > 1e-14 * scale,
                   lambda k: InvalidParams("diffusion matrix must be symmetric"))
        D = np.where(D == D.swapaxes(-1, -2), D, 0.5 * D + 0.5 * D.swapaxes(-1, -2))
    _flag_non_finite(errors, "diffusion", np.isfinite(D).all(axis=(-2, -1)))
    return Batch(errors, [()] * len(A), {"diffusion": D})


def _flag_non_finite(errors: list, name: str, finite: np.ndarray) -> None:
    """Flag each item of a stack whose ``name`` matrix is not ``finite``."""
    flag_first(errors, ~finite, lambda k: InvalidParams(f"{name} matrix has a non-finite entry"))


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


def _thermal_force(mass, gamma, hbar, omega, temperature) -> np.ndarray:
    """2 m gamma hbar omega (n_B + 1/2) for each item with gamma > 0, else 0.

    The white-noise force of a damped mode at its frequency omega > 0,
    with n_B = planck(omega, temperature) over the columns.
    """
    return np.where(gamma > 0, 2.0 * mass * gamma * hbar * omega
                    * (planck(omega, temperature) + 0.5), 0.0)


_SQRT2 = math.sqrt(2.0)

#: The variables of each build, in the order of its rows.
_LABELS_1D = ("x_b", "p_b", "X_c", "P_c")
_LABELS_2D = ("x_b", "p_b", "x_d", "p_d", "X_c", "P_c")
_LABELS_RWA = ("X_a", "P_a", "X_b", "P_b", "X_d", "P_d")


def _system(batch: Batch, labels: tuple[str, ...]) -> LinearSystem:
    """The LinearSystem of a build's batch of one; raises its error."""
    return LinearSystem(labels=labels, warnings=batch.warnings[0], **batch.only())


def build_1d_batch(grid: ParamsGrid) -> Batch:
    """One mechanical mode and one cavity mode per item of a 1D grid,
    ordering (x_b, p_b, X_c, P_c).

    The optomechanical force enters the momentum equation as
    -sqrt(2) hbar lambda_o X_c and reciprocally drives the cavity
    phase quadrature with -sqrt(2) lambda_o x_b.
    """
    B, m, hbar, lam = len(grid), grid.mass, grid.hbar, grid.lambda_o
    A = np.zeros((B, 4, 4))
    D = np.zeros((B, 4, 4))
    with np.errstate(all="ignore"):
        A[:, 0, 1] = 1.0 / m
        A[:, 1, 0] = -m * (grid.omega_b * grid.omega_b)
        A[:, 1, 1] = -grid.gamma_b
        A[:, 1, 2] = -_SQRT2 * hbar * lam
        A[:, 2, 2] = A[:, 3, 3] = -grid.kappa / 2.0
        A[:, 2, 3] = grid.delta
        A[:, 3, 0] = -_SQRT2 * lam
        A[:, 3, 2] = -grid.delta
        D[:, 2, 2] = D[:, 3, 3] = grid.kappa / 2.0
        D[:, 1, 1] = _thermal_force(m, grid.gamma_b, hbar, grid.omega_b, grid.temperature)
    return Batch([None] * B, [()] * B, {"drift": A, "hbar": hbar}).then(_checked_diffusion(A, D))


def build_1d(params: SystemParams1D) -> LinearSystem:
    """build_1d_batch of one record, as a LinearSystem."""
    return _system(build_1d_batch(ParamsGrid.from_records([params])), _LABELS_1D)


def build_2d_batch(grid: ParamsGrid) -> Batch:
    """Bright and dark mechanical modes plus cavity per item of a 2D grid, 6x6.

    Ordering (x_b, p_b, x_d, p_d, X_c, P_c). The bright/dark rotation
    produces an elastic cross coupling m*omega_bar_m*delta_m and, for
    unequal axis damping, a dissipative one eta_m. Only the bright
    mode feels the cavity force.

    The thermal force of each rotated mode assumes the two rotated
    baths are uncorrelated, which holds when gamma_x = gamma_y. If the
    damping rates differ and the modes actually mix (eta_m != 0), the
    rotated baths are correlated: no white-noise surrogate is attempted
    and the item gets CorrelatedBathUnsupported.
    """
    B, m, hbar, lam = len(grid), grid.mass, grid.hbar, grid.lambda_o
    errors: list = [None] * B
    A = np.zeros((B, 6, 6))
    D = np.zeros((B, 6, 6))
    with np.errstate(all="ignore"):
        bd = bright_dark(grid)
        cross = m * bd.omega_bar_m * bd.delta_m
        A[:, 0, 1] = 1.0 / m
        A[:, 1, 0] = -m * (bd.omega_b * bd.omega_b)
        A[:, 1, 1] = -bd.gamma_b
        A[:, 1, 2] = -cross
        A[:, 1, 3] = -bd.eta_m
        A[:, 1, 4] = -_SQRT2 * hbar * lam
        A[:, 2, 3] = 1.0 / m
        A[:, 3, 2] = -m * (bd.omega_d * bd.omega_d)
        A[:, 3, 3] = -bd.gamma_d
        A[:, 3, 0] = -cross
        A[:, 3, 1] = -bd.eta_m
        A[:, 4, 4] = -grid.kappa / 2.0
        A[:, 4, 5] = grid.delta
        A[:, 5, 0] = -_SQRT2 * lam
        A[:, 5, 4] = -grid.delta
        A[:, 5, 5] = -grid.kappa / 2.0
        D[:, 4, 4] = D[:, 5, 5] = grid.kappa / 2.0
        flag_first(errors, (grid.gamma_x != grid.gamma_y) & (bd.eta_m != 0.0),
                   lambda k: CorrelatedBathUnsupported(
                       "unequal axis damping with mode mixing correlates the "
                       "bright and dark baths; no white-noise surrogate exists"))
        for row, w, g in ((1, bd.omega_b, bd.gamma_b), (3, bd.omega_d, bd.gamma_d)):
            D[:, row, row] = _thermal_force(m, g, hbar, w, grid.temperature)
    return Batch(errors, [()] * B, {"drift": A, "hbar": hbar}).then(_checked_diffusion(A, D))


def build_2d(params: SystemParams2D) -> LinearSystem:
    """build_2d_batch of one record, as a LinearSystem."""
    return _system(build_2d_batch(ParamsGrid.from_records([params])), _LABELS_2D)


_RWA_REGIME = ("rotating-wave build outside its regime: kappa, G_o, G_m "
               "should be well below the mode frequencies",)


def build_rwa_batch(grid: ParamsGrid) -> Batch:
    """Resonantly coupled cavity, bright and dark modes without
    counter-rotating terms, per item of a rotating-wave grid, 6x6 over
    (X_a, P_a, X_b, P_b, X_d, P_d).

    Quadratures here are of the mode amplitudes themselves (not mass-
    weighted positions), so hbar is 1 in this frame and a vacuum mode
    has variance 1/2 per quadrature. Thermal inputs of occupation n_B
    give diffusion gamma*(n_B + 1/2) per quadrature. An item whose
    kappa, G_o or G_m is not well below its mode frequencies carries a
    regime warning.
    """
    B = len(grid)
    A = np.zeros((B, 6, 6))
    D = np.zeros((B, 6, 6))
    with np.errstate(all="ignore"):
        outside = (np.maximum(np.maximum(grid.kappa, grid.G_o), grid.G_m)
                   > 0.1 * np.minimum(grid.omega_b, grid.omega_d))
        for i, rate, freq in ((0, grid.kappa / 2.0, grid.delta),
                              (2, grid.gamma_b / 2.0, grid.omega_b),
                              (4, grid.gamma_d / 2.0, grid.omega_d)):
            A[:, i, i] = A[:, i + 1, i + 1] = -rate
            A[:, i, i + 1] = freq
            A[:, i + 1, i] = -freq
        # -i g exchange coupling between complex amplitudes i and j
        for i, j, g in ((0, 2, grid.G_o), (2, 4, grid.G_m)):
            A[:, i, j + 1] += g
            A[:, i + 1, j] += -g
            A[:, j, i + 1] += g
            A[:, j + 1, i] += -g
        for i, d in ((0, grid.kappa / 2.0), (2, grid.gamma_b * (grid.n_B_b + 0.5)),
                     (4, grid.gamma_d * (grid.n_B_d + 0.5))):
            D[:, i, i] = D[:, i + 1, i + 1] = d
    warnings = [_RWA_REGIME if w else () for w in outside.tolist()]
    return Batch([None] * B, warnings, {"drift": A, "hbar": np.ones(B)}).then(
        _checked_diffusion(A, D))


def build_rwa(params: SystemParamsRWA) -> LinearSystem:
    """build_rwa_batch of one record, as a LinearSystem."""
    return _system(build_rwa_batch(ParamsGrid.from_records([params])), _LABELS_RWA)


def _decaying(A: np.ndarray) -> np.ndarray:
    """Per stacked drift A[B, n, n]: True iff every eigenvalue decays."""
    ev = np.linalg.eigvals(A)
    rho = np.abs(ev).max(axis=-1, initial=0.0)
    return np.all(ev.real < -1e-12 * rho[..., None], axis=-1)


def stability(sys: LinearSystem) -> bool:
    """True iff every drift eigenvalue decays, by the eigenvalue check.

    The margin scales with the spectral radius (eps = 1e-12 * rho), so
    marginal rotations and zero matrices are classed unstable rather
    than flapping on rounding noise. steady_covariance reaches the same
    verdict, but asks this check only where its solution does not
    certify stability.
    """
    return bool(_decaying(sys.drift[None])[0])


def _phase_insensitive(X: np.ndarray) -> np.ndarray:
    """Per stacked X[B, n, n]: True iff X = Xr (x) I_2 + Xi (x) J exactly, J = [[0, 1], [-1, 0]].

    That is, every 2x2 block of X is [[r, i], [-i, r]], compared
    exactly; an odd n has no such blocks.
    """
    if X.shape[-1] % 2:
        return np.zeros(X.shape[0], dtype=bool)
    return ((X[:, 0::2, 0::2] == X[:, 1::2, 1::2]).all(axis=(-2, -1))
            & (X[:, 0::2, 1::2] == -X[:, 1::2, 0::2]).all(axis=(-2, -1)))


@functools.cache
def _solve_map(n: int, phase_insensitive: bool) -> tuple[np.ndarray, ...]:
    """Index maps of the Lyapunov solve for dimension n over its m unknowns, built once.

    V is written as sum_u x_u E_u over basis matrices E_u with entries
    +-1, and M x = -D[rows] keeps m equations of A V + V A^T + D = 0.
    The vech basis has one symmetric E_u per upper-triangle entry of V,
    and its equations are the upper-triangle entries. The phase-insensitive
    basis spans V = P (x) I_2 + Q (x) J with P symmetric (its upper
    triangle, n/2 (n/2 + 1)/2 unknowns) and Q antisymmetric (its strict
    upper triangle, n/2 (n/2 - 1)/2 unknowns). The I_2 and J parts of
    the equation, which are symmetric and antisymmetric in the same
    way, are read at the even-even entries (2i, 2j), i <= j, and the
    even-odd entries (2i, 2j + 1), i < j.

    Returns ``rows``, the flat indices of those equations in D;
    ``first`` and ``second``, gather indices of the flat operator M into
    the flat drift, its negation and one zero (index 2 n n): every entry
    of M is the sum of at most two drift terms of sign +-1, with the
    zero standing in for a missing term; and ``expand``, gather indices
    of the flat V into x, -x and one zero (index 2 m). The arrays are
    shared by every call, so they are read-only.
    """
    if phase_insensitive:
        ps, qs = (list(zip(*np.triu_indices(n // 2, k))) for k in (0, 1))
        # E_u of P_ij = P_ji, and of Q_ij = -Q_ji, i < j; a dict keeps a
        # diagonal P_ii's entries once
        basis = [{(2 * i, 2 * j): 1, (2 * i + 1, 2 * j + 1): 1, (2 * j, 2 * i): 1,
                  (2 * j + 1, 2 * i + 1): 1} for i, j in ps]
        basis += [{(2 * i, 2 * j + 1): 1, (2 * i + 1, 2 * j): -1, (2 * j, 2 * i + 1): -1,
                   (2 * j + 1, 2 * i): 1} for i, j in qs]
        eqs = [(2 * i, 2 * j) for i, j in ps] + [(2 * i, 2 * j + 1) for i, j in qs]
    else:
        eqs = list(zip(*np.triu_indices(n)))
        basis = [{(i, j): 1, (j, i): 1} for i, j in eqs]
    m, pad = len(eqs), 2 * n * n
    first, second = np.full(m * m, pad), np.full(m * m, pad)
    expand = np.full(n * n, 2 * m)
    for u, E in enumerate(basis):
        for (k, l), s in E.items():
            expand[k * n + l] = u if s > 0 else m + u
        for r, (a, b) in enumerate(eqs):
            # (A E)_ab = sum_k A_ak E_kb ; (E A^T)_ab = sum_l E_al A_bl
            terms = ([(a * n + k, s) for (k, l), s in E.items() if l == b]
                     + [(b * n + l, s) for (k, l), s in E.items() if k == a])
            t = r * m + u
            for src, s in terms:
                (first if first[t] == pad else second)[t] = src if s > 0 else n * n + src
    smap = (np.array([a * n + b for a, b in eqs]), first, second, expand)
    for arr in smap:
        arr.flags.writeable = False
    return smap


def _operator(A: np.ndarray, phase_insensitive: bool) -> np.ndarray:
    """The operators M[B, m, m] of _solve_map(n, phase_insensitive) for stacked drifts A[B, n, n].

    Each entry of M is (+0.0 + a1) + a2 for its signed drift terms a1,
    a2 (the padded zero where it has fewer), so -0.0 terms leave +0.0
    and the sum does not depend on the order of the terms. Negation is
    exact, so for a phase-insensitive drift each term equals the entry
    of its real or imaginary block, up to the sign of a zero.
    """
    B, n = A.shape[0], A.shape[-1]
    rows, first, second, _ = _solve_map(n, phase_insensitive)
    flat = np.zeros((B, 2 * n * n + 1))
    flat[:, :n * n] = A.reshape(B, n * n)
    np.negative(flat[:, :n * n], out=flat[:, n * n:-1])
    # Summed in place: for a chunk of 64 6x6 drifts that takes a third of
    # the time of two new arrays. Drift entries near the float limit
    # overflow here; the solve or the residual gate flags such an item.
    M = flat[:, first]
    with np.errstate(over="ignore", invalid="ignore"):
        M += 0.0
        M += flat[:, second]
    return M.reshape(B, rows.size, rows.size)


def _positive_definite(V: np.ndarray) -> np.ndarray:
    """Per stacked symmetric V[B, n, n]: True iff every LDL^T pivot is positive.

    Eliminating one column at a time leaves the Schur complement of
    the columns eliminated so far, whose first diagonal entry is the
    next pivot, in the lower right block; the diagonal ends up holding
    the pivots.
    """
    S = V.copy()
    # The numbers of an item after a pivot that is not positive mean nothing.
    with np.errstate(all="ignore"):
        for j in range(V.shape[-1] - 1):
            S[:, j + 1:, j + 1:] -= (S[:, j + 1:, j, None] / S[:, j, j, None, None]
                                     * S[:, None, j, j + 1:])
        return (S.diagonal(axis1=-2, axis2=-1) > 0.0).all(axis=-1)


def _decay_bound(A, D, V, residual) -> np.ndarray:
    """Certified lower bounds on -max Re lambda of stacked drifts, from their solves.

    For a left eigenvector w of A (w^H A = lambda w^H) and the residual
    R = A V + V A^T + D of a computed V, 2 Re lambda w^H V w =
    -w^H (D - R) w. So where V is positive definite, -Re lambda >=
    (lambda_min(D) - ||R||_2) / (2 lambda_max(V)), with lambda_min(D) >=
    min_i (D_ii - sum_{j != i} |D_ij|) by Gershgorin's discs, ||R||_2 <=
    n ``residual`` (max |R|) and lambda_max(V) <= tr V. Returns that bound
    where it exceeds STABILITY_CERTIFICATE_RTOL ||A||_inf (which is at
    least rho(A)) and V is positive definite, and nan elsewhere.
    """
    n = V.shape[-1]
    with np.errstate(all="ignore"):
        gershgorin = (2.0 * D.diagonal(axis1=-2, axis2=-1) - np.abs(D).sum(axis=-1)).min(axis=-1)
        bound = (gershgorin - n * residual) / (2.0 * np.trace(V, axis1=-2, axis2=-1))
        norm_a = np.abs(A).sum(axis=-1).max(axis=-1)
        certified = (bound > STABILITY_CERTIFICATE_RTOL * norm_a) & _positive_definite(V)
    return np.where(certified, bound, np.nan)


def _decide(stable: np.ndarray, A: np.ndarray, which: np.ndarray) -> None:
    """Give the items ``which`` of the stack the eigenvalue check's verdict."""
    if which.all():
        stable[:] = _decaying(A)
    elif which.any():
        stable[which] = _decaying(A[which])


def steady_covariance_batch(A: np.ndarray, D: np.ndarray) -> Batch:
    """Stationary covariances V[k] solving A[k] V + V A[k]^T + D[k] = 0.

    Returns a Batch with, per item, the InvalidParams, UnstableSystem
    or SolveFailure that steady_covariance raises for it, and the
    columns:
    - matrix, its covariance, or zeros when a check before the
      residual gate flagged it;
    - residual, max |A V + V A^T + D| of that matrix;
    - backward_error, the residual over its scale,
      max(max |D|, max |A| max |V|), which the residual gate holds to
      LYAPUNOV_RESIDUAL_RTOL;
    - decay_bound, the certified lower bound on -max Re lambda of the
      drift where the solution certified stability, and nan where the
      eigenvalue check decided.

    The operators over the distinct entries of each V are filled and
    solved in blocks of _LU_BLOCK items, and only for the items that
    reach the solve: in the phase-insensitive basis for the items whose
    drift and diffusion both have that structure exactly, and in the
    vech basis for the others (_solve_map). The diffusion is taken as
    symmetric, as the build_*_batch functions give it. Then the
    residual gate runs over the whole stack. Stability is certified
    from the solution where it can be (_decay_bound); the other items
    get the stacked eigenvalue check.
    Where a diagonal entry of the diffusion is not positive, no
    certificate can fire, so the check runs before the solve and an
    unstable item is not solved; for the solved items the certificate
    does not reach, it runs after the solve.
    An item that fails a check gets the error of the first check it
    fails and does not affect the others: a non-finite drift or
    diffusion (InvalidParams, never solved), an unstable drift, a
    singular operator (UnstableSystem too), then the residual gate.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    B, n = A.shape[0], A.shape[-1]
    errors: list[OmsteadyError | None] = [None] * B
    d, a = np.abs(D).max(axis=(-2, -1)), np.abs(A).max(axis=(-2, -1))
    # max |.| is not finite exactly where an entry is not
    stable = np.isfinite(a) & np.isfinite(d)
    if not stable.all():
        _flag_non_finite(errors, "drift", np.isfinite(a))
        _flag_non_finite(errors, "diffusion", np.isfinite(d))
    # A diffusion with a diagonal entry that is not positive is not
    # positive definite, so no certificate can fire: the eigenvalue check
    # comes first there, and an unstable item is not solved.
    certifiable = stable & (D.diagonal(axis1=-2, axis2=-1) > 0.0).all(axis=-1)
    _decide(stable, A, stable & ~certifiable)
    solved, singular = stable.copy(), {}
    V = np.zeros((B, n, n))
    reduced = _phase_insensitive(A) & _phase_insensitive(D)
    for structure in (False, True):
        todo = np.flatnonzero(stable & (reduced == structure))
        if not todo.size:
            continue
        rows, _, _, expand = _solve_map(n, structure)
        x = np.zeros((B, rows.size))
        rhs = -D.reshape(B, n * n)[:, rows, None]
        for start in range(0, todo.size, _LU_BLOCK):
            idx = todo[start:start + _LU_BLOCK]
            # No name holds a block's operators: they are freed as the solve
            # returns, and the next block's reuse that memory. Made while the
            # last block's were still alive, they took fresh pages, about 40
            # page faults per block.
            try:
                x[idx] = np.linalg.solve(_operator(A[idx], structure), rhs[idx])[..., 0]
            except np.linalg.LinAlgError:
                # A stacked solve fails as a whole; solve each item alone.
                for k in idx.tolist():
                    try:
                        x[k] = np.linalg.solve(_operator(A[k:k + 1], structure),
                                               rhs[k:k + 1])[0, :, 0]
                    except np.linalg.LinAlgError as exc:
                        singular[k] = UnstableSystem(
                            f"Lyapunov linear system is singular: {exc}")
                        singular[k].__cause__ = exc
                        solved[k] = False
        x = x[todo]
        V[todo] = np.concatenate([x, -x, np.zeros((todo.size, 1))], axis=1)[:, expand].reshape(
            todo.size, n, n)
    with np.errstate(all="ignore"):
        resid = np.abs(A @ V + V @ A.swapaxes(-1, -2) + D).max(axis=(-2, -1))
    decay_bound = np.full(B, np.nan)
    if certifiable.any():
        reached = certifiable & solved
        decay_bound[reached] = _decay_bound(A, D, V, resid)[reached]
        _decide(stable, A, certifiable & np.isnan(decay_bound))
        # An item found unstable after its solve reports V = 0, whose
        # residual is max |D|.
        late = solved & ~stable
        V[late], resid[late] = 0.0, d[late]
    flag_first(errors, ~stable,
               lambda k: UnstableSystem("drift matrix has a non-decaying eigenvalue"))
    for k, exc in singular.items():
        errors[k] = errors[k] or exc
    # Backward-error scale: when the covariance dwarfs the diffusion
    # (weakly damped hot modes), rounding in forming A V alone exceeds
    # any bound stated against |D| only. The product max|A| max|V| can
    # overflow where neither factor does (1/m in A, hbar/(2 m omega) in V
    # at a tiny mass), so the residual is divided by one, then the other.
    vmax = np.abs(V).max(axis=(-2, -1))
    # A zero factor makes its quotient inf, or nan at a zero residual;
    # fmin then takes the other quotient.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        err = np.fmin(resid / d, resid / a / vmax)
    flag_first(errors, ~np.isfinite(resid) | (err > LYAPUNOV_RESIDUAL_RTOL),
               lambda k: SolveFailure(f"Lyapunov residual {resid[k]:.3e} is {err[k]:.3e} of "
                                      f"its scale, above {LYAPUNOV_RESIDUAL_RTOL:.1e}"))
    return Batch(errors, [()] * B, {"matrix": V, "residual": resid, "backward_error": err,
                                   "decay_bound": decay_bound})


def steady_covariance(sys: LinearSystem) -> CovarianceMatrix:
    """Stationary covariance V solving A V + V A^T + D = 0.

    A batch of one through steady_covariance_batch. Raises
    UnstableSystem when the drift is not strictly stable (or the linear
    system is singular, which only such a drift makes it) and
    SolveFailure if the residual check fails.
    """
    V = steady_covariance_batch(sys.drift[None], sys.diffusion[None]).only()["matrix"]
    return CovarianceMatrix(matrix=V, labels=sys.labels, hbar=sys.hbar)
