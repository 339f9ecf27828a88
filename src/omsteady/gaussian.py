"""Characterization of Gaussian states from covariance data.

Pure functions only: nothing here knows about cavities or baths. A
state enters as second moments of position and momentum fluctuations
and leaves as purity, thermal occupation, squeezing decomposition
parameters, or position wavefunctions of the diagonalizing basis.

Conventions
-----------
The 1D covariance is (xx, pp, xp) with xp the symmetrized cross moment
<{dx, dp}>/2. The 2D covariance is a 4x4 symmetric matrix over the
ordering (x1, p1, x2, p2). hbar rides along as metadata so callers can
stay in SI or in a dimensionless frame; all internal checks compare
against hbar/2 in whatever frame was supplied.

A covariance below the Heisenberg bound by more than a relative
1e-9 is rejected with UncertaintyViolation. Violations inside that
tolerance are treated as solver rounding noise and clamped onto the
bound, so downstream occupations come out as exact zeros instead of
tiny complex numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    Batch,
    DegenerateState,
    InvalidParams,
    UncertaintyViolation,
    flag_first,
)
from .models import _TINY_HBAR, _check

__all__ = [
    "Cov1D",
    "Cov2D",
    "Decomposition1D",
    "Summary2D",
    "occupation_and_purity_1d",
    "occupation_and_purity_1d_batch",
    "decompose_1d",
    "wavefunction",
    "purity_2d_general",
    "summary_2d_batch",
    "purity_2d_reduced",
    "symplectic_eigenvalues",
]

#: Relative slack on the Heisenberg bound before inputs are rejected.
UNCERTAINTY_RTOL = 1e-9

@dataclass(frozen=True)
class Cov1D:
    """Second moments of a single mode: xx, pp and symmetrized xp."""

    xx: float
    pp: float
    xp: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise UncertaintyViolation("hbar must be positive")
        _check(self, (_TINY_HBAR,))
        if self.xx < 0 or self.pp < 0:
            raise UncertaintyViolation("diagonal variances must be nonnegative")

    @property
    def det(self) -> float:
        return self.xx * self.pp - self.xp**2


@dataclass(frozen=True)
class Cov2D:
    """4x4 covariance over (x1, p1, x2, p2) with unit metadata."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise DegenerateState("Cov2D expects a 4x4 matrix")
        if not np.isfinite(m).all():
            raise DegenerateState("covariance matrix has a non-finite entry")
        scale = np.abs(m).max() or 1.0
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise DegenerateState("covariance matrix must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))
        if self.hbar <= 0:
            raise UncertaintyViolation("hbar must be positive")
        _check(self, (_TINY_HBAR,))


@dataclass(frozen=True)
class Decomposition1D:
    """Thermal-oscillator decomposition of a 1D Gaussian state.

    The state is a thermal mixture (occupation ``n_bar``) of the
    eigenstates of a generalized oscillator whose complex mass times
    frequency parameter is ``M_Omega``. ``theta`` measures the
    position-momentum correlation, and the effective zero-point
    amplitudes satisfy x_zpf * p_zpf * cos(theta) = hbar/2.
    """

    n_bar: float
    purity: float
    theta: float
    x_zpf: float
    p_zpf: float
    M_Omega: complex
    lambda_re: float


@dataclass(frozen=True)
class Summary2D:
    """Two-mode purity and modal occupations.

    ``N_plus``/``N_minus`` are the thermal occupations attached to the
    two symplectic eigenvalues; ``purity_product_1d`` is the product
    of the two reduced single-mode purities, which differs from
    ``purity_2d`` exactly when the modes are correlated.
    """

    purity_2d: float
    N_plus: float
    N_minus: float
    purity_product_1d: float


def _clamped_det_ratio(det: np.ndarray, hbar: np.ndarray, errors: list) -> np.ndarray:
    """det / (hbar/2)^2 per item with sub-bound rounding noise clamped to 1.

    An item below the bound by more than the tolerance gets an
    UncertaintyViolation in ``errors``.
    """
    half = hbar / 2.0
    bound = half * half
    ratio = det / bound
    flag_first(errors, ratio < 1.0 - UNCERTAINTY_RTOL, lambda k: UncertaintyViolation(
        f"covariance determinant {det[k]:.6g} below (hbar/2)^2 = {bound[k]:.6g}"))
    return np.where(ratio < 1.0, 1.0, ratio)


def _one(x) -> np.ndarray:
    return np.array([x], dtype=float)


def occupation_and_purity_1d_batch(xx, pp, xp, hbar) -> Batch:
    """Stacked occupation_and_purity_1d over arrays of second moments.

    Returns a Batch with the columns n_bar and purity and, per item,
    the error the scalar call raises for it (None when the item settles).
    """
    xx, pp, xp, hbar = (np.asarray(a, dtype=float) for a in (xx, pp, xp, hbar))
    errors: list = [None] * len(xx)
    two_n_plus_1 = np.sqrt(_clamped_det_ratio(xx * pp - xp * xp, hbar, errors))
    return Batch(errors, [()] * len(xx),
                 {"n_bar": 0.5 * (two_n_plus_1 - 1.0), "purity": 1.0 / two_n_plus_1})


def occupation_and_purity_1d(cov: Cov1D) -> tuple[float, float]:
    """Thermal occupation and purity of a single-mode Gaussian state.

    2*n_bar + 1 = sqrt(4*xx*pp - (2*xp)^2) / hbar, purity = 1/(2*n_bar+1).
    A batch of one through occupation_and_purity_1d_batch.
    """
    one = occupation_and_purity_1d_batch(*(_one(v) for v in (cov.xx, cov.pp, cov.xp, cov.hbar)))
    return tuple(one.only().values())


def decompose_1d(cov: Cov1D) -> Decomposition1D:
    """Split a 1D Gaussian state into occupation and oscillator shape.

    Any valid covariance is the thermal state, at occupation n_bar, of
    a generalized harmonic oscillator. This returns that occupation
    together with the oscillator parameters: correlation angle theta,
    effective zero point amplitudes, and the complex parameter
    M_Omega = exp(-i*theta) * p_zpf / x_zpf whose real part sets the
    Gaussian width of the eigenfunctions (lambda_re = Re(M_Omega)/hbar).

    The theta branch is arcsin into [-pi/2, pi/2], which keeps
    Re(M_Omega) > 0 and the eigenfunctions normalizable.
    """
    if cov.xx == 0.0 or cov.pp == 0.0:
        raise DegenerateState("decompose_1d needs nonzero xx and pp")
    errors: list = [None]
    ratio = _clamped_det_ratio(_one(cov.det), _one(cov.hbar), errors)
    two_n_plus_1 = math.sqrt(Batch(errors, [()], {"ratio": ratio}).only()["ratio"])
    n_bar = 0.5 * (two_n_plus_1 - 1.0)
    root_det = two_n_plus_1 * cov.hbar / 2.0  # sqrt(xx*pp - xp^2), clamped
    sin_theta = cov.xp / math.sqrt(cov.xx * cov.pp)
    sin_theta = max(-1.0, min(1.0, sin_theta))
    theta = math.asin(sin_theta)
    x_zpf = math.sqrt(cov.hbar * cov.xx / (2.0 * root_det))
    p_zpf = math.sqrt(cov.hbar * cov.pp / (2.0 * root_det))
    M_Omega = complex(math.cos(theta), -math.sin(theta)) * (p_zpf / x_zpf)
    return Decomposition1D(
        n_bar=n_bar,
        purity=1.0 / two_n_plus_1,
        theta=theta,
        x_zpf=x_zpf,
        p_zpf=p_zpf,
        M_Omega=M_Omega,
        lambda_re=M_Omega.real / cov.hbar,
    )


def _hermite(n: int, y: complex) -> complex:
    # Stable three-term recurrence; closed forms overflow past n ~ 20.
    if n == 0:
        return 1.0 + 0.0j
    h_prev, h = 1.0 + 0.0j, 2.0 * y
    for k in range(1, n):
        h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
    return h


def wavefunction(n: int, dec: Decomposition1D, x0: float, x) -> complex:
    """Position eigenfunction psi_n of the decomposed oscillator.

    psi_n(x) = (lambda/pi)^(1/4) / sqrt(2^n n!) *
               exp(-M_Omega (x-x0)^2 / 2 hbar) * H_n(sqrt(lambda) (x-x0))

    with lambda = Re(M_Omega)/hbar. For complex M_Omega these are not
    the textbook Hermite functions but remain orthonormal. Accepts a
    scalar or an array for ``x``.
    """
    if n < 0 or n != int(n):
        raise AssumptionViolated("n must be a nonnegative integer")
    if dec.lambda_re <= 0:
        raise AssumptionViolated("wavefunction requires Re(M_Omega) > 0")
    hbar = dec.M_Omega.real / dec.lambda_re
    lam = dec.lambda_re
    norm = (lam / math.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    dx = np.asarray(x, dtype=float) - x0
    envelope = np.exp(-dec.M_Omega * dx**2 / (2.0 * hbar))
    y = math.sqrt(lam) * dx
    if np.ndim(y) == 0:
        return complex(norm * envelope * _hermite(n, complex(y)))
    herm = np.array([_hermite(n, complex(v)) for v in y.ravel()])
    return norm * envelope * herm.reshape(np.shape(y))


def _symplectic_batch(W: np.ndarray) -> Batch:
    """The columns nu_hi, nu_lo of stacked 4x4 covariances W[B, 4, 4], by
    column arithmetic.

    Each item is scaled by an exact power of two near its largest
    variance and factored V = L diag(d) L^T column by column; an item
    with a pivot that is not positive is not positive definite and gets
    a DegenerateState. With G = L diag(d)^(1/2), Omega V is similar to
    the antisymmetric K = G^T Omega G, whose eigenvalues are +-i nu.
    K splits into its self-dual and anti-self-dual parts, the vectors
    a = (k01 + k23, k02 - k13, k03 + k12) and
    b = (k01 - k23, k02 + k13, k03 - k12), and nu_hi, nu_lo =
    (|a| +- |b|) / 2.
    """
    _, e = np.frexp(W.diagonal(axis1=1, axis2=2).max(axis=1))
    V = np.ldexp(W, -e[:, None, None])
    errors: list = [None] * len(W)
    d, L = [], {}
    # The numbers of an item that is not positive definite mean nothing.
    with np.errstate(all="ignore"):
        for j in range(4):
            d.append(V[:, j, j] - sum(L[j, k] * L[j, k] * d[k] for k in range(j)))
            for i in range(j + 1, 4):
                L[i, j] = (V[:, i, j] - sum(L[i, k] * L[j, k] * d[k] for k in range(j))) / d[j]
        flag_first(errors, ~((d[0] > 0) & (d[1] > 0) & (d[2] > 0) & (d[3] > 0)),
                   lambda k: DegenerateState("covariance matrix is not positive definite"))
        # k_ij = sqrt(d_i d_j) (L^T Omega L)_ij over the ordering (x1, p1, x2, p2)
        k01 = np.sqrt(d[0] * d[1]) * (1.0 + L[2, 0] * L[3, 1] - L[3, 0] * L[2, 1])
        k02 = np.sqrt(d[0] * d[2]) * (L[2, 0] * L[3, 2] - L[3, 0])
        k03 = np.sqrt(d[0] * d[3]) * L[2, 0]
        k12 = np.sqrt(d[1] * d[2]) * (L[2, 1] * L[3, 2] - L[3, 1])
        k13 = np.sqrt(d[1] * d[3]) * L[2, 1]
        k23 = np.sqrt(d[2] * d[3])
        norm_a, norm_b = (np.sqrt(x * x + y * y + z * z) for x, y, z in (
            (k01 + k23, k02 - k13, k03 + k12), (k01 - k23, k02 + k13, k03 - k12)))
        return Batch(errors, [()] * len(W), {"nu_hi": np.ldexp(0.5 * (norm_a + norm_b), e),
                                             "nu_lo": np.ldexp(0.5 * (norm_a - norm_b), e)})


def symplectic_eigenvalues(cov: Cov2D) -> tuple[float, float]:
    """The two symplectic eigenvalues of a 4x4 covariance matrix, descending.

    The moduli nu of the eigenvalues +-i nu of Omega V (Williamson's
    theorem), found without an eigensolver: from the LDL^T factor of V,
    the antisymmetric matrix similar to Omega V splits into two
    3-vectors whose norms are nu_hi + nu_lo and nu_hi - nu_lo. Raises
    DegenerateState when V is not positive definite. A batch of one
    through _symplectic_batch.
    """
    return tuple(_symplectic_batch(cov.matrix[None]).only().values())


def _clamped_modal_occupation(nu: np.ndarray, hbar: np.ndarray, errors: list) -> np.ndarray:
    half = hbar / 2.0
    flag_first(errors, nu < half * (1.0 - UNCERTAINTY_RTOL), lambda k: UncertaintyViolation(
        f"symplectic eigenvalue {nu[k]:.6g} below hbar/2 = {half[k]:.6g}"))
    return np.where(nu < half, half, nu) / hbar - 0.5


def _log_det_ratio(W: np.ndarray, hbar: np.ndarray) -> np.ndarray:
    """log(det W / (hbar/2)^4) per item; nan where det W is not positive."""
    sign, logdet = np.linalg.slogdet(W)
    return np.where(sign > 0, logdet, np.nan) - 4.0 * np.log(hbar / 2.0)


def summary_2d_batch(W, hbar) -> Batch:
    """Stacked purity_2d_general over covariances W[B, 4, 4] with hbar[B].

    Returns a Batch with a column per field of Summary2D and, per item,
    the error the scalar call raises for it (None when the item
    settles). Where det V
    over (hbar/2)^4 is not a finite float, purity_2d comes from the
    log-determinant; an item whose purity_2d or product of reduced
    purities is still not a positive float is flagged.
    """
    W = np.ascontiguousarray(W, dtype=float)
    hbar = np.asarray(hbar, dtype=float)
    errors, _, nu = _symplectic_batch(W)
    N_plus = _clamped_modal_occupation(nu["nu_hi"], hbar, errors)
    N_minus = _clamped_modal_occupation(nu["nu_lo"], hbar, errors)
    with np.errstate(over="ignore", invalid="ignore"):
        half_squared = hbar / 2.0 * (hbar / 2.0)
        bound = half_squared * half_squared
        det_ratio = np.linalg.det(W) / bound
        # Where the bound overflows the ratio is one of two numbers past
        # the float range, so it comes from the log-determinant.
        huge = np.flatnonzero(np.isinf(bound))
        if huge.size:
            det_ratio[huge] = np.exp(_log_det_ratio(W[huge], hbar[huge]))
        flag_first(errors, det_ratio < 1.0 - 4.0 * UNCERTAINTY_RTOL,
                   lambda k: UncertaintyViolation(
                       f"4x4 covariance determinant ratio {det_ratio[k]:.6g} below 1"))
        purity_2d = 1.0 / np.sqrt(np.where(det_ratio < 1.0, 1.0, det_ratio))
        # A determinant past the float range makes the ratio inf or nan;
        # there the purity comes from the log-determinant instead.
        over = np.flatnonzero(~np.isfinite(det_ratio))
        if over.size:
            log_ratio = _log_det_ratio(W[over], hbar[over])
            purity_2d[over] = np.exp(-0.5 * np.maximum(log_ratio, 0.0))
        prod = np.ones(len(W))
        for b in (W[:, :2, :2], W[:, 2:, 2:]):
            det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
            prod = prod / np.sqrt(_clamped_det_ratio(det, hbar, errors))
    # The item is flagged after the checks it passes.
    flag_first(errors, ~((purity_2d > 0.0) & (prod > 0.0)), lambda k: InvalidParams(
        "covariance determinant overflows at this record's scales"))
    return Batch(errors, [()] * len(W), {"purity_2d": purity_2d, "N_plus": N_plus,
                                         "N_minus": N_minus, "purity_product_1d": prod})


def purity_2d_general(cov: Cov2D) -> Summary2D:
    """Purity and modal occupations of a two-mode Gaussian state.

    purity_2d = (hbar/2)^2 / sqrt(det V). The modal occupations come
    from the symplectic eigenvalues, N = nu/hbar - 1/2, and satisfy
    purity_2d = 1/((2 N_plus + 1)(2 N_minus + 1)). The product of the
    two reduced single-mode purities is computed from the diagonal
    2x2 blocks for comparison. A batch of one through summary_2d_batch.
    """
    return Summary2D(**summary_2d_batch(cov.matrix[None], _one(cov.hbar)).only())


def purity_2d_reduced(cov: Cov2D) -> float:
    """Two-mode purity from observable moment combinations.

    Shortcut valid when each mode carries no internal x-p correlation
    (<{x_i, p_i}> = 0) and the cross correlations are antisymmetric
    (<x2 p1> = -<x1 p2>). Under those conditions

        purity = (hbar/2)^2 / sqrt(A_xx A_pp - A_xp B_xp + B_xp^2)

    where A_xx, A_pp, A_xp aggregate the position, momentum and mixed
    second moments and B_xp = <x1 p2>^2. Raises AssumptionViolated if
    the structural conditions fail; use purity_2d_general then.
    """
    m = cov.matrix
    xx1, pp1 = m[0, 0], m[1, 1]
    xx2, pp2 = m[2, 2], m[3, 3]
    x1x2, p1p2 = m[0, 2], m[1, 3]
    x1p1, x2p2 = m[0, 1], m[2, 3]
    x1p2, x2p1 = m[0, 3], m[1, 2]

    scale = max(abs(xx1) * abs(pp1), abs(xx2) * abs(pp2), (cov.hbar / 2.0) ** 2)
    tol = 1e-8 * math.sqrt(scale)
    if abs(x1p1) > tol or abs(x2p2) > tol:
        raise AssumptionViolated("reduced purity formula needs <{x_i,p_i}> = 0")
    if abs(x2p1 + x1p2) > tol:
        raise AssumptionViolated("reduced purity formula needs <x2 p1> = -<x1 p2>")

    A_xx = xx1 * xx2 - x1x2**2
    A_pp = pp1 * pp2 - p1p2**2
    A_xp = xx1 * pp2 + xx2 * pp1 - 2.0 * x1x2 * p1p2
    B_xp = x1p2**2
    det = A_xx * A_pp - A_xp * B_xp + B_xp**2
    if det <= 0:
        raise UncertaintyViolation("reduced determinant combination not positive")
    return (cov.hbar / 2.0) ** 2 / math.sqrt(det)
