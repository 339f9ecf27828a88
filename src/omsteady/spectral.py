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
that holds the panels of a whole list of records. The window starts out
split at a geometric ladder of breakpoints around every response pole;
each infinite tail is one more panel in t on (0, 1] with omega =
+-w_max / t. Every panel carries a Gauss-Legendre pair with n and 2n
nodes; the 2n-node sum is its value and the difference of the two sums
its error estimate. A round evaluates the spectrum once, as one array,
at the nodes of the new panels of every record still open, forms the
xx, pp and commutator integrands S, m^2 w^2 S and m w S from that one
evaluation, and bisects at once every panel whose error exceeds its
equal share of its record's tolerance. A record whose rule runs out of
rounds or panels gets a QuadratureFailure instead of a value.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (AssumptionViolated, InvalidParams, OmsteadyError, QuadratureFailure,
                     UnstableSystem)
from .gaussian import Cov1D
from .models import SystemParams1D

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
    "stationary_moments",
    "integrate_moments_residue",
]

#: Below |omega| < this fraction of the thermal frequency scale the
#: Brownian correlator switches to its series form around omega = 0.
_COTH_SERIES_THRESHOLD = 1e-6

#: Nodes and weights of each panel's Gauss-Legendre pair on [-1, 1]:
#: the n-node rule first, then the 2n-node rule.
_GL_N = 10
_GL_NODES_N, _GL_WEIGHTS_N = leggauss(_GL_N)
_GL_NODES_2N, _GL_WEIGHTS_2N = leggauss(2 * _GL_N)
_GL_NODES = np.concatenate((_GL_NODES_N, _GL_NODES_2N))
#: Bisection rounds after the first evaluation before the rule gives up.
_MAX_ROUNDS = 60
#: Largest number of panels the rule may hold (bounds its memory).
_MAX_PANELS = 20_000
#: A panel's error is never taken below this multiple of int |f| over
#: it (the roundoff floor of QUADPACK's rules); a panel at that floor
#: is not bisected, since halving it cannot lower the floor.
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _any(flags) -> bool:  # one flag or an array of them
    return bool(flags.any()) if isinstance(flags, np.ndarray) else bool(flags)


def cavity_susceptibility(omega, kappa: float, delta: float):
    """Bare cavity response 1/(kappa/2 - i(omega - delta))."""
    if _any(kappa <= 0):
        raise InvalidParams("cavity_susceptibility needs kappa > 0")
    return 1.0 / (kappa / 2.0 - 1j * (np.asarray(omega, dtype=float) - delta))


def cavity_self_energy(omega, params: SystemParams1D, chi=None):
    """chi_c(omega) - chi_c*(-omega), the cavity-induced self energy factor."""
    chi = cavity_susceptibility(omega, params.kappa, params.delta) if chi is None else chi
    chi_neg = cavity_susceptibility(-np.asarray(omega, dtype=float), params.kappa, params.delta)
    return chi - np.conj(chi_neg)


def mechanical_response(omega, params: SystemParams1D, chi=None):
    """Dressed mechanical response R_b(omega).

    1/R_b = -i m omega gamma_b + m(omega_b^2 - omega^2)
            - i hbar lambda_o^2 [chi_c(omega) - chi_c*(-omega)].
    """
    m, wb, lam = params.mass, params.omega_b, params.lambda_o
    w = np.asarray(omega, dtype=float)
    inv = (
        -1j * m * w * params.gamma_b
        + m * (wb * wb - w**2)
        - 1j * params.hbar * (lam * lam) * cavity_self_energy(w, params, chi)
    )
    return 1.0 / inv


def _response_poly_coeffs(params: SystemParams1D) -> np.ndarray:
    """Coefficients (descending) of the quartic P(omega) = q(omega)/R_b(omega).

    q(omega) = (kappa/2 - i omega)^2 + delta^2 clears the self-energy
    denominator, leaving a polynomial whose roots are the poles of the
    dressed response.
    """
    m, g, k = params.mass, params.gamma_b, params.kappa
    c = (k / 2.0) ** 2 + params.delta**2
    wb2 = params.omega_b**2
    return np.array(
        [
            m,
            1j * m * (k + g),
            -m * (c + g * k + wb2),
            -1j * m * (g * c + k * wb2),
            m * wb2 * c - 2.0 * params.hbar * params.lambda_o**2 * params.delta,
        ],
        dtype=complex,
    )


def response_poles(params: SystemParams1D) -> np.ndarray:
    """The four poles of R_b(omega), via companion-matrix roots.

    Raises InvalidParams, before LAPACK sees the companion matrix, when
    a coefficient over the leading one is not finite: extreme records
    (a subnormal mass, say) overflow it.
    """
    coeffs = _response_poly_coeffs(params)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        monic = coeffs / coeffs[0]
    if not np.isfinite(monic).all():
        raise InvalidParams("response polynomial has a non-finite coefficient "
                            "relative to its leading one")
    return np.roots(coeffs)


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
    if _any(gamma < 0):
        raise InvalidParams("gamma must be nonnegative")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    cold = np.asarray(temperature) <= 0
    out = np.where(w > 0, 2.0 * hbar * m * gamma * w, 0.0) if _any(cold) else None
    if _any(~cold):
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
    With check_stability False, params may hold arrays broadcast per node.
    """
    if check_stability and not spectral_stability(params):
        raise UnstableSystem("response poles not confined to the lower half plane")
    chi = cavity_susceptibility(omega, params.kappa, params.delta)
    r = mechanical_response(omega, params, chi)
    s_brown = brownian_psd(omega, params.gamma_b, params.temperature,
                           params.mass, params.hbar)
    hbar, lam = params.hbar, params.lambda_o  # squared as products: floats and arrays agree
    s_ba = params.kappa * (hbar * hbar) * (lam * lam) * np.abs(chi) ** 2
    return np.abs(r) ** 2 * (s_brown + s_ba)


def _integration_window(poles: np.ndarray, omega_b: float) -> tuple[float, list[float]]:
    """Window edge and quadrature breakpoints from the response poles.

    Weakly damped poles produce near-singular peaks many orders of
    magnitude narrower than the window; a geometric ladder of
    breakpoints around each pole center hands the adaptive rule an
    initial partition that already resolves the peak scale.
    """
    biggest = float(np.abs(poles).max())
    w_max = 10.0 * max(biggest, omega_b)
    points: set[float] = set()
    for p in poles:
        center, width = float(p.real), abs(float(p.imag))
        points.add(center)
        scale = width
        while 0.0 < scale < w_max:
            for candidate in (center - scale, center + scale):
                if abs(candidate) < w_max:
                    points.add(candidate)
            scale *= 30.0
    return w_max, sorted(points)


def _panels(w_max: float, points) -> np.ndarray:
    """Initial panels (lo, hi, side, anchor), one per row.

    The lower tail first, then panels in omega (side 0) from -w_max to
    w_max split at ``points`` (all strictly inside), then the upper
    tail. A tail panel is in t on (0, 1] with omega = side * w_max / t.
    """
    edges = [-w_max, *points, w_max]
    rows = [(0.0, 1.0, -1.0, w_max)]
    rows += [(a, b, 0.0, 0.0) for a, b in zip(edges[:-1], edges[1:])]
    rows.append((0.0, 1.0, 1.0, w_max))
    return np.array(rows, dtype=float)


#: Record fields position_psd reads, carried per node by the panel table.
_PSD_FIELDS = ("mass", "gamma_b", "omega_b", "kappa", "delta", "lambda_o", "temperature", "hbar")
_EXHAUSTED = (f"adaptive panel rule did not converge within {_MAX_ROUNDS} rounds "
              f"and {_MAX_PANELS} panels")


def _panel_sums(fields, pp_tails: np.ndarray, panels: np.ndarray, rec: np.ndarray):
    """Rule sums of the xx, pp and commutator integrands on each panel.

    One array call of position_psd at the nodes of every panel, with the
    fields of each panel's record (rec indexes them) or one record's floats.
    Returns the 2n-node values stacked on their error estimates (the larger
    of the difference of the two rules and the roundoff floor), shape (6,
    panels), and whether each estimate is above that floor, shape (3,
    panels). pp is zero on the tail panels of a record without pp_tails.
    """
    lo, hi, side, anchor = (panels[:, k, None] for k in range(4))
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * _GL_NODES
    tail = side != 0.0
    t = np.where(tail, x, 1.0)
    omega = np.where(tail, side * anchor / t, x)
    node = (SimpleNamespace(**{name: col[rec, None] for name, col in fields.items()})
            if isinstance(fields, dict) else fields)
    # At extreme scales (mass=1e-300) the node values overflow; the
    # record's total is then not finite, which _gate flags.
    with np.errstate(over="ignore", invalid="ignore"):
        s = position_psd(omega, node, check_stability=False)
        s *= np.where(tail, anchor / (t * t), 1.0) * half
        m_omega = node.mass * omega
        pp = m_omega**2 * s
        if not pp_tails.all():
            pp[tail[:, 0] & ~pp_tails[rec]] = 0.0
        f = np.stack((s, pp, m_omega * s))
        # einsum, unlike a BLAS matrix-vector product, sums a panel's
        # nodes the same way wherever the panel sits in the table
        value = np.einsum("kpn,n->kp", f[..., _GL_N:], _GL_WEIGHTS_2N)
        raw = np.abs(value - np.einsum("kpn,n->kp", f[..., :_GL_N], _GL_WEIGHTS_N))
        floor = _ROUNDOFF * np.einsum("kpn,n->kp", np.abs(f[..., _GL_N:]), _GL_WEIGHTS_2N)
    return np.concatenate((value, np.maximum(raw, floor))), raw > floor


def _poles_batch(records) -> list:
    """Per record its response poles, or the InvalidParams or UnstableSystem they give.

    One stacked eigvals of companion matrices built as np.roots builds
    them; a record with a non-finite coefficient over the leading one
    or a zero constant one (np.roots trims it) goes through response_poles.
    """
    coeffs = np.array([_response_poly_coeffs(p) for p in records]).reshape(-1, 5)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = -coeffs[:, 1:] / coeffs[:, :1]
    stacked = np.isfinite(top).all(axis=1) & (coeffs[:, -1] != 0)
    companion = np.tile(np.eye(4, k=-1, dtype=complex), (stacked.sum(), 1, 1))
    companion[:, 0] = top[stacked]
    roots = iter(np.linalg.eigvals(companion))
    out = []
    for p, s in zip(records, stacked):
        try:
            poles = next(roots) if s else response_poles(p)
            if not (poles.imag < 0).all():
                raise UnstableSystem("response poles not confined to the lower half plane")
        except (InvalidParams, UnstableSystem) as exc:
            poles = exc.with_traceback(None)
        out.append(poles)
    return out


def _gate(totals, errs, rel_tol: float):
    """moment_integrals' dict from a record's totals, or the error its gate gives."""
    out: dict[str, float] = {}
    for name, total, tot_err in zip(("xx", "pp", "commutator"), totals, errs):
        value, err_val = float(total) / (2.0 * math.pi), float(tot_err) / (2.0 * math.pi)
        tol = 10.0 * rel_tol * abs(value)
        if not math.isfinite(value):
            return InvalidParams(f"spectral {name} integral is not finite at this record's scales")
        if err_val > tol and name != "commutator":
            return QuadratureFailure(f"{name} integral error estimate {err_val:.3e} "
                                     f"exceeds tolerance {tol:.3e}")
        out[name], out["err_" + name] = value, err_val
    return out


def moment_integrals_batch(records, rel_tol: float = 1e-10) -> list:
    """moment_integrals of each record: its dict, or the OmsteadyError it raises.

    The records share the rounds of one panel table (see the module docstring)
    and nothing else: the rule, its limits and the gate apply to each record
    alone, so its result is the same in any list. rel_tol must be positive.
    """
    if not rel_tol > 0:
        raise InvalidParams(f"rel_tol must be positive, got {rel_tol!r}")
    out = _poles_batch(records)
    idx = [k for k, o in enumerate(out) if not isinstance(o, OmsteadyError)]
    tables = [_panels(*_integration_window(out[k], records[k].omega_b)) for k in idx]
    rec = np.repeat(np.arange(len(idx)), [len(t) for t in tables])
    panels = np.concatenate(tables) if tables else np.empty((0, 4))
    fields = {name: np.array([getattr(records[k], name) for k in idx], dtype=float)
              for name in _PSD_FIELDS}
    # The xx and commutator integrands decay at least as 1/w^2 and get
    # their infinite tails. The pp integrand is only 1/w for an Ohmic
    # bath (gamma_b > 0); there the 10x-pole window is the physical
    # cutoff and tails are deliberately omitted.
    pp_tails = fields["gamma_b"] == 0.0
    if len(idx) == 1:  # floats round as the arrays do, at less cost per call
        fields = SimpleNamespace(**{name: float(col[0]) for name, col in fields.items()})
    sums, refinable = _panel_sums(fields, pp_tails, panels, rec)
    n = len(idx)
    rows = n * np.arange(6)[:, None]
    for _ in range(_MAX_ROUNDS):
        # A record's sums run through its panels in table order, the same in
        # any list: initial panels, then per round kept, left and right halves.
        count = np.bincount(rec, minlength=n)
        total, total_err = np.bincount((rec + rows).ravel(), sums.ravel(),
                                       6 * n).reshape(2, 3, n)
        tol = rel_tol * np.abs(total)
        # bisect each panel whose error in an integral not yet within
        # rel_tol exceeds that tolerance over its record's panel count
        share = np.where(total_err > tol, tol / np.maximum(count, 1), np.inf)
        split = (refinable & (sums[3:] > share[:, rec])).any(axis=0)
        n_split = np.bincount(rec[split], minlength=n)
        grows = []
        for k, (c, s) in enumerate(zip(count.tolist(), n_split.tolist())):
            if c and not s:
                out[idx[k]] = _gate(total[:, k], total_err[:, k], rel_tol)
            elif s and c + s > _MAX_PANELS:
                out[idx[k]] = QuadratureFailure(_EXHAUSTED)
            grows.append(s > 0 and c + s <= _MAX_PANELS)
        alive = np.array(grows, dtype=bool)[rec]
        if not alive.any():
            return out
        split &= alive
        keep = alive & ~split
        parents = panels[split]
        mid = 0.5 * (parents[:, 0] + parents[:, 1])
        children = np.concatenate((parents, parents))
        children[: len(parents), 1] = mid
        children[len(parents):, 0] = mid
        c_rec = np.concatenate((rec[split], rec[split]))
        c_sums, c_refinable = _panel_sums(fields, pp_tails, children, c_rec)
        rec, panels = np.concatenate((rec[keep], c_rec)), np.concatenate((panels[keep], children))
        sums = np.concatenate((sums[:, keep], c_sums), axis=1)
        refinable = np.concatenate((refinable[:, keep], c_refinable), axis=1)
    for k in np.unique(rec):
        out[idx[k]] = QuadratureFailure(_EXHAUSTED)
    return out


def moment_integrals(params: SystemParams1D, rel_tol: float = 1e-10) -> dict:
    """Raw spectral integrals with error estimates.

    Returns a dict with keys xx, pp, commutator and their quadrature
    error estimates (err_xx, err_pp, err_commutator). The commutator entry
    is m * int dw/2pi w S_xx, which must equal hbar/2 for a stationary
    state; integrate_moments uses it as a consistency gate. The rule
    refines until each error estimate is within rel_tol of its
    integral; xx and pp fail unless within 10 rel_tol. A non-finite
    integral or rel_tol <= 0 is InvalidParams. moment_integrals_batch
    of a list of one.
    """
    (out,) = moment_integrals_batch([params], rel_tol)
    if isinstance(out, OmsteadyError):
        raise out
    return out


#: Relative mismatch allowed between m*int w S_xx dw/2pi and hbar/2.
_COMMUTATOR_RTOL = 1e-6
#: Accuracy the residue route must be able to promise (the tolerance
#: of the residue-vs-quadrature check).
_RESIDUE_RTOL = 1e-8


def stationary_moments(params: SystemParams1D, vals: dict) -> Cov1D:
    """The Cov1D of moment_integrals' values once they pass the sum rule.

    The symmetrized cross moment of a stationary process vanishes; rather
    than assuming that, this checks the commutator sum rule m * int dw/2pi
    w S_xx = hbar/2 (the antisymmetric part of the same cross spectrum).
    """
    comm_target = params.hbar / 2.0
    if abs(vals["commutator"] - comm_target) > _COMMUTATOR_RTOL * comm_target:
        raise QuadratureFailure(
            "stationarity cross-check failed: m*int w S_xx dw/2pi = "
            f"{vals['commutator']:.12g}, expected {comm_target:.12g}"
        )
    return Cov1D(xx=vals["xx"], pp=vals["pp"], xp=0.0, hbar=params.hbar)


def integrate_moments(params: SystemParams1D, rel_tol: float = 1e-10) -> Cov1D:
    """Steady-state (xx, pp): moment_integrals, then stationary_moments."""
    return stationary_moments(params, moment_integrals(params, rel_tol))


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
        raise UnstableSystem("response poles not confined to the lower half plane")
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
    dpbar = np.polyder(pbar_coeffs)
    k2 = (params.kappa / 2.0) ** 2
    pref = params.kappa * params.hbar**2 * params.lambda_o**2
    m = params.mass

    def numerator(w, weight_power):
        return pref * (k2 + (w + params.delta) ** 2) * m**weight_power * w**weight_power

    out = {}
    for name, power in (("xx", 0), ("pp", 2)):
        total = 0.0 + 0.0j
        for r in pbar_roots:
            if r.imag <= 0:
                raise UnstableSystem("conjugate-polynomial root not in upper half plane")
            total += numerator(r, power) / (np.polyval(p_coeffs, r) * np.polyval(dpbar, r))
        out[name] = float((1j * total).real)
    return Cov1D(xx=out["xx"], pp=out["pp"], xp=0.0, hbar=params.hbar)
