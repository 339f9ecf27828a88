"""Frequency-domain solution of the single-mode model with colored noise.

The Lyapunov route (module :mod:`omsteady.langevin`) needs a white
approximation for the mechanical bath; this module keeps the exact
colored Brownian correlator and integrates the position spectral
density instead. Fourier convention: f[w] = int dt e^{i w t} f(t), so
equal-time variances are integrals of the spectrum over dw/2pi.

For a strictly Ohmic bath the momentum variance integral has a
logarithmic ultraviolet divergence whenever gamma_b > 0; physically
the bath has a cutoff well above any system resonance. We integrate
over a window extending ten times past the outermost response pole,
which plays the role of that cutoff. In the backaction limit
(gamma_b = 0) the integrand is rational, no cutoff is needed, and the
infinite tails are included, which is what makes the cross-check
against the Lyapunov solver meaningful at 1e-6 and below.

The integrals come from one adaptive panel rule, the globally adaptive
bisection strategy of QUADPACK (Piessens et al., 1983) run on one table
that holds the panels of every record of a ParamsGrid, read from its
columns. The window starts out split at a geometric ladder of
breakpoints, ratio 3, around every response pole, built for the whole
grid as arrays; each infinite tail is one more panel in t on (0, 1]
with omega = +-w_max / t. Every panel carries QUADPACK's nested
Gauss-Kronrod pair, 10 Gauss nodes inside 21 Kronrod nodes; the
21-node sum is its value and the difference of the two sums its error
estimate. A round evaluates the spectrum once, in real arithmetic and
as one array, at the nodes of the new panels of every record still
open, forms the xx, pp and commutator integrands S, m^2 w^2 S and
m w S from that one evaluation, and bisects at once every panel whose
error exceeds its equal share of its record's tolerance. A record
whose rule runs out of rounds or panels gets a QuadratureFailure
instead of a value. The *_batch functions return an errors.Batch, and
the scalar functions are grids of one.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import (AssumptionViolated, Batch, InvalidParams, QuadratureFailure,
                     UnstableSystem, flag_first)
from .gaussian import Cov1D
from .models import ParamsGrid, SystemParams1D

__all__ = [
    "cavity_susceptibility",
    "cavity_self_energy",
    "mechanical_response",
    "response_poles",
    "spectral_stability",
    "brownian_psd",
    "position_psd",
    "integrate_moments",
    "moment_integrals",
    "moment_integrals_batch",
    "integrate_moments_batch",
    "integrate_moments_residue",
]

#: Below |omega| < this fraction of the thermal frequency scale the
#: Brownian correlator switches to its series form around omega = 0.
_COTH_SERIES_THRESHOLD = 1e-6

#: QUADPACK's qk21 rule on [-1, 1]: the Kronrod abscissae from 1 down
#: to 0 (every second one, _XGK[1::2], is a node of the 10-point
#: Gauss-Legendre rule), their Kronrod weights, and the Gauss weights
#: of _XGK[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525728560,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
#: A panel's 21 nodes, the ten Gauss nodes first, with their K21 and
#: G10 weights.
_GK_NODES = np.concatenate((-_XGK[1::2], _XGK[1::2], -_XGK[:-1:2], _XGK[::2]))
_K21_WEIGHTS = np.concatenate((_WGK[1::2], _WGK[1::2], _WGK[:-1:2], _WGK[::2]))
_G10_WEIGHTS = np.concatenate((_WG, _WG))
_G10 = len(_G10_WEIGHTS)
#: Ratio of the geometric ladder of initial breakpoints around each pole.
_LADDER_RATIO = 3.0
#: Bisection rounds after the first evaluation before the rule gives up.
_MAX_ROUNDS = 60
#: Largest number of panels an item's rule may hold (bounds its
#: memory); an item whose initial partition or bisection needs more fails.
_MAX_PANELS = 20_000
#: A panel's error is never taken below this multiple of int |f| over
#: it (the roundoff floor of QUADPACK's rules); a panel at that floor
#: is not bisected, since halving it cannot lower the floor.
_ROUNDOFF = 50.0 * np.finfo(float).eps


def cavity_susceptibility(omega, kappa: float, delta: float):
    """Bare cavity response 1/(kappa/2 - i(omega - delta))."""
    if (np.asarray(kappa) <= 0).any():
        raise InvalidParams("cavity_susceptibility needs kappa > 0")
    return 1.0 / (kappa / 2.0 - 1j * (np.asarray(omega, dtype=float) - delta))


def cavity_self_energy(omega, params: SystemParams1D):
    """chi_c(omega) - chi_c*(-omega), the cavity-induced self energy factor."""
    chi = cavity_susceptibility(omega, params.kappa, params.delta)
    chi_neg = cavity_susceptibility(-np.asarray(omega, dtype=float), params.kappa, params.delta)
    return chi - np.conj(chi_neg)


def mechanical_response(omega, params: SystemParams1D):
    """Dressed mechanical response R_b(omega).

    1/R_b = -i m omega gamma_b + m(omega_b^2 - omega^2)
            - i hbar lambda_o^2 [chi_c(omega) - chi_c*(-omega)].
    """
    m, wb, lam = params.mass, params.omega_b, params.lambda_o
    w = np.asarray(omega, dtype=float)
    inv = (
        -1j * m * w * params.gamma_b
        + m * (wb * wb - w**2)
        - 1j * params.hbar * (lam * lam) * cavity_self_energy(w, params)
    )
    return 1.0 / inv


def _response_poly_coeffs(params) -> np.ndarray:
    """Coefficients (descending) of the quartic P(omega) = q(omega)/R_b(omega).

    q(omega) = (kappa/2 - i omega)^2 + delta^2 clears the self-energy
    denominator, leaving a polynomial whose roots are the poles of the
    dressed response. Takes a 1D record, which gives shape (5,), or a
    grid, which gives (B, 5); squares are products, so both agree. A
    coefficient past the float range is inf or nan, as for a record.
    """
    m, g, k, delta, lam = params.mass, params.gamma_b, params.kappa, params.delta, params.lambda_o
    with np.errstate(over="ignore", invalid="ignore"):
        c = k / 2.0 * (k / 2.0) + delta * delta
        wb2 = params.omega_b * params.omega_b
        return np.stack([m, 1j * m * (k + g), -m * (c + g * k + wb2), -1j * m * (g * c + k * wb2),
                         m * wb2 * c - 2.0 * params.hbar * (lam * lam) * delta], axis=-1)


_NON_FINITE_COEFFICIENT = ("response polynomial has a non-finite coefficient "
                           "relative to its leading one")
_UNSTABLE = "response poles not confined to the lower half plane"


def response_poles(params: SystemParams1D) -> np.ndarray:
    """The four poles of R_b(omega), via companion-matrix roots.

    A grid of one through _poles_batch. Raises InvalidParams, before
    LAPACK sees the companion matrix, when a coefficient over the
    leading one is not finite: extreme records (a subnormal mass, say)
    overflow it. The poles of an unstable record are returned too.
    """
    return _poles_batch(_response_poly_coeffs(params)[None]).only()["poles"]


def spectral_stability(params: SystemParams1D) -> bool:
    """True iff every response pole lies in the lower half plane."""
    return bool(np.all(response_poles(params).imag < 0))


def brownian_psd(omega, gamma: float, temperature: float, m: float,
                 hbar: float = 1.0) -> np.ndarray:
    """Colored Brownian force spectrum hbar m gamma omega [coth(omega/2T) + 1].

    ``temperature`` is k_B*T/hbar in frequency units. At T = 0 this is
    2 hbar m gamma omega for omega > 0 and zero for omega < 0 (the
    bath can absorb but not emit). Near omega = 0 the coth is replaced
    by its Laurent series, giving the analytic limit 2 m gamma k_B T.
    Array arguments broadcast against omega; the T = 0 form is per node.
    """
    if (np.asarray(gamma) < 0).any():
        raise InvalidParams("gamma must be nonnegative")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    cold = np.asarray(temperature) <= 0
    out = np.where(w > 0, 2.0 * hbar * m * gamma * w, 0.0) if cold.any() else None
    if not cold.all():
        # cold nodes divide by a placeholder; the last where gives them out
        with np.errstate(over="ignore"):  # y = inf at a tiny T, where coth is 1
            y = w / (2.0 * np.where(cold, 1.0, temperature))
        small = np.abs(y) < _COTH_SERIES_THRESHOLD
        ys = np.where(small, 1.0, y)  # placeholder to avoid 0/0 warnings
        warm = hbar * m * gamma * w * (1.0 / np.tanh(ys) + 1.0)
        # omega*coth(omega/2T) -> 2T (1 + y^2/3 + ...) as omega -> 0,
        # formed from y only where it is used
        y = np.where(small, y, 0.0)
        series = hbar * m * gamma * (2.0 * temperature * (1.0 + y**2 / 3.0) + w)
        warm = np.where(small, series, warm)
        out = warm if out is None else np.where(cold, out, warm)
    return float(out[0]) if scalar else out


def position_psd(omega, params: SystemParams1D, check_stability: bool = True):
    """Position spectral density S_xx(omega) of the mechanical mode.

    S_xx = |R_b|^2 [S_N + kappa hbar^2 lambda_o^2 |chi_c|^2], the sum
    of the colored Brownian force noise and the cavity backaction
    (radiation pressure shot noise) filtered by the dressed response.
    It is evaluated as a real rational function: with a = kappa/2,
    D-+ = a^2 + (omega -+ delta)^2 and g = hbar lambda_o^2 / (D- D+),

        Re(1/R_b) = m (omega_b^2 - omega^2) + 2 delta g (omega^2 - delta^2 - a^2),
        Im(1/R_b) = -(m gamma_b omega + 4 a delta g omega),
        S_xx = (S_N + kappa hbar^2 lambda_o^2 / D-) / (Re^2 + Im^2),

    so the self-energy difference 1/D- - 1/D+ = 4 omega delta / (D- D+)
    is formed without cancellation. With check_stability False, params
    may hold arrays broadcast per node.
    """
    if check_stability and not spectral_stability(params):
        raise UnstableSystem(_UNSTABLE)
    w = np.asarray(omega, dtype=float)
    m, wb, delta = params.mass, params.omega_b, params.delta
    a = params.kappa / 2.0
    w2, a2 = w * w, a * a
    d_minus = a2 + (w - delta) * (w - delta)
    d_plus = a2 + (w + delta) * (w + delta)
    hbar_lam2 = params.hbar * (params.lambda_o * params.lambda_o)
    g = hbar_lam2 / (d_minus * d_plus)
    re = m * (wb * wb - w2) + 2.0 * delta * g * (w2 - (delta * delta + a2))
    im = (m * params.gamma_b + 4.0 * a * delta * g) * w
    s_brown = brownian_psd(w, params.gamma_b, params.temperature, m, params.hbar)
    return (s_brown + params.kappa * params.hbar * hbar_lam2 / d_minus) / (re * re + im * im)


def _initial_panels(poles: np.ndarray, w_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial panels (lo, hi, side, anchor) of the items with poles[B, 4]
    and window edges w_max[B], one per row, and the item of each row.

    An item's rows are its lower tail, then panels in omega (side 0)
    from -w_max to w_max, then its upper tail; a tail panel is in t on
    (0, 1] with omega = side * w_max / t. The window is split at each
    pole's center and at a geometric ladder center +- scale around it,
    scale running from the pole's width |Im p| up by _LADDER_RATIO
    while it is below w_max (a zero width gives no ladder); breakpoints
    not strictly inside the window are dropped. Weakly damped poles
    produce near-singular peaks many orders of magnitude narrower than
    the window, and the ladder hands the adaptive rule an initial
    partition that already resolves the peak scale.
    """
    center, width = poles.real[..., None], np.abs(poles.imag)
    edge = w_max[:, None, None]
    # enough rungs that the last one passes the window edge, or overflows
    with np.errstate(divide="ignore"):
        span = np.log(np.minimum(w_max, np.finfo(float).max))[:, None] - np.log(width)
    rungs = int(np.ceil(np.max(span[width > 0], initial=0.0) / np.log(_LADDER_RATIO))) + 2
    factors = np.full(poles.shape + (rungs,), _LADDER_RATIO)
    factors[..., 0] = width
    with np.errstate(over="ignore"):
        scale = np.cumprod(factors, axis=-1)  # the floats of repeated scale *= ratio
    rung = (0.0 < scale) & (scale < edge)
    points = np.concatenate((center, center - scale, center + scale), axis=-1)
    inside = np.concatenate((np.ones_like(center, dtype=bool), rung, rung), axis=-1)
    points = np.where(inside & (np.abs(points) < edge), points, np.inf)
    points = points.reshape(len(poles), poles.shape[1] * (2 * rungs + 1))
    # per item its distinct breakpoints in order, padded with inf
    points.sort(axis=1)
    points[:, 1:][points[:, 1:] == points[:, :-1]] = np.inf
    points.sort(axis=1)
    count = np.count_nonzero(points < np.inf, axis=1)
    n = int(count.max(initial=0))
    items = np.arange(len(poles))
    edges = np.concatenate((-w_max[:, None], points[:, :n], np.full((len(poles), 1), np.inf)),
                           axis=1)
    edges[items, count + 1] = w_max
    rows = np.zeros((len(poles), n + 3, 4))
    rows[:, 1:-1, 0], rows[:, 1:-1, 1] = edges[:, :-1], edges[:, 1:]
    rows[:, 0, 1:3], rows[:, 0, 3] = (1.0, -1.0), w_max
    rows[items, count + 2] = rows[:, 0]
    rows[items, count + 2, 2] = 1.0
    keep = np.arange(n + 3) <= (count + 2)[:, None]
    return rows[keep], np.repeat(items, count + 3)


_EXHAUSTED = (f"adaptive panel rule did not converge within {_MAX_ROUNDS} rounds "
              f"and {_MAX_PANELS} panels")


def _panel_sums(columns: dict, pp_tails: np.ndarray, panels: np.ndarray, rec: np.ndarray):
    """Rule sums of the xx, pp and commutator integrands on each panel.

    One array call of position_psd at the nodes of every panel, with the
    columns of each panel's item (rec indexes them). Returns the K21
    values stacked on their error estimates (the larger of |K21 - G10|
    and the roundoff floor), shape (6, panels), and whether each
    estimate is above that floor, shape (3, panels). pp is zero on the
    tail panels of an item without pp_tails.
    """
    lo, hi, side, anchor = (panels[:, k, None] for k in range(4))
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * _GK_NODES
    tail = side != 0.0
    t = np.where(tail, x, 1.0)
    omega = np.where(tail, side * anchor / t, x)
    node = SimpleNamespace(**{name: col[rec, None] for name, col in columns.items()})
    # At extreme scales (mass=1e-300) the node values overflow, or
    # |1/R_b|^2 underflows to 0; the item's total is then not finite,
    # which its gate flags.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = position_psd(omega, node, check_stability=False)
        s *= np.where(tail, anchor / (t * t), 1.0) * half
        m_omega = node.mass * omega
        pp = m_omega**2 * s
        if not pp_tails.all():
            pp[tail[:, 0] & ~pp_tails[rec]] = 0.0
        f = np.stack((s, pp, m_omega * s))
        # einsum, unlike a BLAS matrix-vector product, sums a panel's
        # nodes the same way wherever the panel sits in the table
        value = np.einsum("kpn,n->kp", f, _K21_WEIGHTS)
        raw = np.abs(value - np.einsum("kpn,n->kp", f[..., :_G10], _G10_WEIGHTS))
        floor = _ROUNDOFF * np.einsum("kpn,n->kp", np.abs(f), _K21_WEIGHTS)
    return np.concatenate((value, np.maximum(raw, floor))), raw > floor


def _poles_batch(coeffs: np.ndarray) -> Batch:
    """The column poles[B, 4] of the roots np.roots finds for the quartics coeffs[B, 5].

    One stacked eigvals of companion matrices built as np.roots builds
    them. An item with a non-finite coefficient over its leading one gets
    response_poles' InvalidParams, and its poles mean nothing.
    """
    errors: list = [None] * len(coeffs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = -coeffs[:, 1:] / coeffs[:, :1]
    finite = np.isfinite(top).all(axis=1)
    flag_first(errors, ~finite, lambda k: InvalidParams(_NON_FINITE_COEFFICIENT))
    companion = np.tile(np.eye(4, k=-1, dtype=complex), (len(coeffs), 1, 1))
    companion[:, 0] = np.where(finite[:, None], top, 0.0)
    return Batch(errors, [()] * len(coeffs), {"poles": np.linalg.eigvals(companion)})


def moment_integrals_batch(grid: ParamsGrid, rel_tol: float = 1e-10) -> Batch:
    """moment_integrals of every record of a 1D grid.

    Returns a Batch with moment_integrals' quantities as its columns
    and, per item, the error moment_integrals raises for it (None where
    it settles). The items share the rounds of one panel table (see the
    module docstring) and nothing else: the rule, its limits and the
    gate apply to each item alone, so its result is the same in any
    grid. rel_tol must be positive.
    """
    if not rel_tol > 0:
        raise InvalidParams(f"rel_tol must be positive, got {rel_tol!r}")
    coeffs = _response_poly_coeffs(grid)
    roots = _poles_batch(coeffs)
    errors, poles = roots.errors, roots.columns["poles"]
    # A zero constant coefficient is trimmed by np.roots into a root at 0.
    flag_first(errors, (coeffs[:, -1] == 0) | ~(poles.imag < 0).all(axis=1),
               lambda k: UnstableSystem(_UNSTABLE))
    idx = np.flatnonzero([e is None for e in errors])
    w_max = 10.0 * np.maximum(np.abs(poles[idx]).max(axis=1), grid.omega_b[idx])
    panels, rec = _initial_panels(poles[idx], w_max)
    columns = {name: col[idx] for name, col in grid.columns.items()}
    # The xx and commutator integrands decay at least as 1/w^2 and get
    # their infinite tails. The pp integrand is only 1/w for an Ohmic
    # bath (gamma_b > 0); there the 10x-pole window is the physical
    # cutoff and tails are deliberately omitted.
    pp_tails = columns["gamma_b"] == 0.0
    sums, refinable = _panel_sums(columns, pp_tails, panels, rec)
    n = len(idx)
    rows = n * np.arange(6)[:, None]
    # per item its totals and error estimates once its rule settles
    totals = np.full((6, len(grid)), np.nan)
    settled = np.zeros(len(grid), dtype=bool)
    for _ in range(_MAX_ROUNDS):
        # An item's sums run through its panels in table order, the same in
        # any grid: initial panels, then per round kept, left and right halves.
        count = np.bincount(rec, minlength=n)
        total = np.bincount((rec + rows).ravel(), sums.ravel(), 6 * n).reshape(6, n)
        tol = rel_tol * np.abs(total[:3])
        # bisect each panel whose error in an integral not yet within
        # rel_tol exceeds that tolerance over its item's panel count
        share = np.where(total[3:] > tol, tol / np.maximum(count, 1), np.inf)
        split = (refinable & (sums[3:] > share[:, rec])).any(axis=0)
        n_split = np.bincount(rec[split], minlength=n)
        done = (count > 0) & (count <= _MAX_PANELS) & (n_split == 0)
        totals[:, idx[done]] = total[:, done]
        settled[idx[done]] = True
        alive = ((n_split > 0) & (count + n_split <= _MAX_PANELS))[rec]
        if not alive.any():
            break
        split &= alive
        keep = alive & ~split
        parents = panels[split]
        mid = 0.5 * (parents[:, 0] + parents[:, 1])
        children = np.concatenate((parents, parents))
        children[: len(parents), 1] = mid
        children[len(parents):, 0] = mid
        c_rec = np.concatenate((rec[split], rec[split]))
        c_sums, c_refinable = _panel_sums(columns, pp_tails, children, c_rec)
        rec, panels = np.concatenate((rec[keep], c_rec)), np.concatenate((panels[keep], children))
        sums = np.concatenate((sums[:, keep], c_sums), axis=1)
        refinable = np.concatenate((refinable[:, keep], c_refinable), axis=1)
    # an item that ran out of rounds or panels never settled
    flag_first(errors, ~settled, lambda k: QuadratureFailure(_EXHAUSTED))
    out = {}
    scaled = totals / (2.0 * math.pi)
    for name, value, err in zip(("xx", "pp", "commutator"), scaled[:3], scaled[3:]):
        flag_first(errors, ~np.isfinite(value), lambda k: InvalidParams(
            f"spectral {name} integral is not finite at this record's scales"))
        if name != "commutator":
            tol = 10.0 * rel_tol * np.abs(value)
            flag_first(errors, err > tol, lambda k: QuadratureFailure(
                f"{name} integral error estimate {err[k]:.3e} exceeds tolerance {tol[k]:.3e}"))
        out[name], out["err_" + name] = value, err
    return Batch(errors, [()] * len(grid), out)


def moment_integrals(params: SystemParams1D, rel_tol: float = 1e-10) -> dict:
    """Raw spectral integrals with error estimates.

    Returns a dict with keys xx, pp, commutator and their quadrature
    error estimates (err_xx, err_pp, err_commutator). The commutator entry
    is m * int dw/2pi w S_xx, which must equal hbar/2 for a stationary
    state; integrate_moments uses it as a consistency gate. The rule
    refines until each error estimate is within rel_tol of its
    integral; xx and pp fail unless within 10 rel_tol. A non-finite
    integral or rel_tol <= 0 is InvalidParams. A grid of one through
    moment_integrals_batch.
    """
    return moment_integrals_batch(ParamsGrid.from_records([params]), rel_tol).only()


#: Relative mismatch allowed between m*int w S_xx dw/2pi and hbar/2.
_COMMUTATOR_RTOL = 1e-6
#: Accuracy the residue route must be able to promise (the tolerance
#: of the residue-vs-quadrature check).
_RESIDUE_RTOL = 1e-8


def integrate_moments_batch(grid: ParamsGrid, rel_tol: float = 1e-10) -> Batch:
    """A Batch with the columns xx, pp and xp of integrate_moments' Cov1D
    for every record of a 1D grid, beside moment_integrals' err_xx,
    err_pp and commutator, and per item the error it raises (None where
    it settles) before that Cov1D checks the variances.

    The symmetrized cross moment of a stationary process vanishes; rather
    than assuming that, this checks the commutator sum rule m * int dw/2pi
    w S_xx = hbar/2 (the antisymmetric part of the same cross spectrum).
    """
    errors, warnings, vals = moment_integrals_batch(grid, rel_tol)
    comm, target = vals["commutator"], grid.hbar / 2.0
    flag_first(errors, np.abs(comm - target) > _COMMUTATOR_RTOL * target,
               lambda k: QuadratureFailure("stationarity cross-check failed: m*int w S_xx "
                                           f"dw/2pi = {comm[k]:.12g}, expected {target[k]:.12g}"))
    del vals["err_commutator"]
    return Batch(errors, warnings, {**vals, "xp": np.zeros(len(grid))})


def integrate_moments(params: SystemParams1D, rel_tol: float = 1e-10) -> Cov1D:
    """Steady-state (xx, pp): a grid of one through integrate_moments_batch."""
    values = integrate_moments_batch(ParamsGrid.from_records([params]), rel_tol).only()
    return Cov1D(values["xx"], values["pp"], values["xp"], hbar=params.hbar)


def integrate_moments_residue(params: SystemParams1D) -> Cov1D:
    """Closed-contour evaluation of the gamma_b = 0 moments.

    With no mechanical damping the spectrum is rational,

        S_xx(w) = kappa hbar^2 lambda_o^2 [(kappa/2)^2 + (w+delta)^2]
                  / (P(w) conj(P)(w)),

    and the variance integrals follow from the residues at the roots
    of conj(P) in the upper half plane. Serves as an independent
    cross-check on the adaptive quadrature (no shared code path).

    The residue sum assumes simple roots. Near an exceptional point
    (for kappa = 0.2, delta = omega_b = 1 at G_o = kappa/4) two roots
    meet, and the sum loses about eps/gap^2 relative, gap being the
    distance of the nearest pair of roots over the largest root
    (measured: 0.09 to 0.26 eps/gap^2 on both sides of G_o = 0.05).
    Where that bound exceeds _RESIDUE_RTOL this raises
    AssumptionViolated instead of returning the number.
    """
    if params.gamma_b != 0.0:
        raise InvalidParams("residue route requires gamma_b = 0")
    if not spectral_stability(params):
        raise UnstableSystem(_UNSTABLE)
    p_coeffs = _response_poly_coeffs(params)
    pbar_coeffs = np.conj(p_coeffs)
    pbar_roots = np.roots(pbar_coeffs)  # upper-half-plane mirror of the poles
    pairs = np.abs(pbar_roots[:, None] - pbar_roots[None, :])
    gap = float(pairs[np.triu_indices(len(pbar_roots), 1)].min() / np.abs(pbar_roots).max())
    if np.finfo(float).eps > _RESIDUE_RTOL * gap**2:
        raise AssumptionViolated(
            f"residue route needs simple roots; the nearest pair is {gap:.3e} apart "
            f"relative to the largest root, so it would lose eps/gap^2 > {_RESIDUE_RTOL:g}"
        )
    if (pbar_roots.imag <= 0).any():
        raise UnstableSystem("conjugate-polynomial root not in upper half plane")
    r, m = pbar_roots, params.mass
    pref = params.kappa * params.hbar**2 * params.lambda_o**2
    numerator = pref * ((params.kappa / 2.0) ** 2 + (r + params.delta) ** 2)
    denominator = np.polyval(p_coeffs, r) * np.polyval(np.polyder(pbar_coeffs), r)
    # each weight's residues summed in root order
    xx, pp = (float((1j * sum(numerator * m**k * r**k / denominator)).real) for k in (0, 2))
    return Cov1D(xx=xx, pp=pp, xp=0.0, hbar=params.hbar)
