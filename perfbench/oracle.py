"""Reference computations made apart from omsteady.

Everything here is written from the physics in plain numpy, plus
scipy's Bartels-Stewart Lyapunov solver; nothing imports omsteady.
Units are the package's dimensionless frame with m = hbar = 1.

Quadratures are X = (a + a^dag)/sqrt(2), P = i(a^dag - a)/sqrt(2), so
a mode damped at energy rate g with bath occupation n receives
diffusion g (n + 1/2) per quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_continuous_lyapunov


def lyapunov(A, D):
    """V with A V + V A^T + D = 0: Bartels-Stewart plus two refinement steps.

    On the rotating-wave chain (rates from 1e-3 down to 5e-13) a bare
    Bartels-Stewart solve is off by up to 1e-8 relative in the purity;
    re-solving for the correction driven by the residual brings it to
    rounding level.
    """
    V = solve_continuous_lyapunov(A, -D)
    for _ in range(2):
        V = V + solve_continuous_lyapunov(A, -(A @ V + V @ A.T + D))
    return V


def stability_margin(G_o, delta, kappa, omega_b):
    """omega_b^2 - 2 g_o^2, with g_o^2 = 2 G_o^2 delta omega_b / ((kappa/2)^2 + delta^2).

    The backaction steady state exists iff this is positive (delta > 0).
    """
    K = (kappa / 2.0) ** 2 + delta**2
    return omega_b**2 - 4.0 * G_o**2 * delta * omega_b / K


def backaction_1d(G_o, delta, kappa, omega_b):
    """Exact vacuum-noise steady state of one mode, elementwise over arrays.

    xx and pp are the paper's closed forms; the occupations, purity and
    the oscillator shape follow from them through Gaussian-state
    identities (2n + 1 = 2 sqrt(xx pp), M_Omega = sqrt(pp/xx)) rather
    than through the paper's own expressions for those quantities.
    """
    K = (kappa / 2.0) ** 2 + delta**2
    margin = stability_margin(G_o, delta, kappa, omega_b)
    xx = (1.0 + K / margin) / (4.0 * delta)
    pp = (K + omega_b**2) / (4.0 * delta)
    two_n_plus_1 = 2.0 * np.sqrt(xx * pp)
    return {
        "xx": xx,
        "pp": pp,
        "xp": np.zeros_like(xx),
        "n_bar": 0.5 * (two_n_plus_1 - 1.0),
        "purity": 1.0 / two_n_plus_1,
        "n_bar_0": 0.5 * (xx * omega_b + pp / omega_b) - 0.5,
        "M_Omega": np.sqrt(pp / xx),
        "n_min_weak": ((kappa / 2.0) ** 2 + (delta - omega_b) ** 2) / (4.0 * omega_b * delta),
    }


def markovian_1d(G_o, delta, kappa, omega_b, gamma_b, force):
    """(xx, pp) of one mode plus cavity with a white force noise ``force``.

    Linearized equations, ordering (x, p, X_c, P_c), coupling
    lambda = G_o sqrt(2 omega_b):

        dx/dt   = p
        dp/dt   = -omega_b^2 x - gamma_b p - sqrt(2) lambda X_c + xi
        dX_c/dt = -kappa/2 X_c + delta P_c + noise
        dP_c/dt = -kappa/2 P_c - delta X_c - sqrt(2) lambda x + noise

    with <xi xi> = force delta(t - t'). The Markovian thermal bath has
    force = gamma_b omega_b coth(omega_b / 2T), the symmetrized
    Brownian spectrum at omega_b; force = 0 keeps only the cavity.
    """
    lam = G_o * math.sqrt(2.0 * omega_b)
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-omega_b**2, -gamma_b, -math.sqrt(2.0) * lam, 0.0],
        [0.0, 0.0, -kappa / 2.0, delta],
        [-math.sqrt(2.0) * lam, 0.0, -delta, -kappa / 2.0],
    ])
    D = np.diag([0.0, force, kappa / 2.0, kappa / 2.0])
    V = lyapunov(A, D)
    return float(V[0, 0]), float(V[1, 1])


def rwa_moments(G_o, G_m, *, kappa, delta, omega_b, omega_d, gamma_b, gamma_d, n_B):
    """n_b, n_d and the two-mode purity of the rotating-wave chain a-b-d.

    The amplitudes obey da/dt = M a + noise with
    M = -diag(kappa, gamma_b, gamma_d)/2 - i H and the exchange
    Hamiltonian H = [[delta, G_o, 0], [G_o, omega_b, G_m], [0, G_m, omega_d]].
    With a = (X + iP)/sqrt(2) the quadrature drift is
    [[-Gamma/2, H], [-H, -Gamma/2]] over (X_a, X_b, X_d, P_a, P_b, P_d).
    The purity of the reduced (b, d) state is (1/2)^2 / sqrt(det V_bd).
    """
    H = np.array([[delta, G_o, 0.0], [G_o, omega_b, G_m], [0.0, G_m, omega_d]])
    rates = np.array([kappa, gamma_b, gamma_d])
    half = np.diag(rates / 2.0)
    A = np.block([[-half, H], [-H, -half]])
    noise = rates * (np.array([0.0, n_B, n_B]) + 0.5)
    D = np.diag(np.concatenate([noise, noise]))
    V = lyapunov(A, D)
    n_b = 0.5 * (V[1, 1] + V[4, 4] - 1.0)
    n_d = 0.5 * (V[2, 2] + V[5, 5] - 1.0)
    mech = [1, 4, 2, 5]  # X_b, P_b, X_d, P_d
    purity = 0.25 / math.sqrt(np.linalg.det(V[np.ix_(mech, mech)]))
    return n_b, n_d, purity
