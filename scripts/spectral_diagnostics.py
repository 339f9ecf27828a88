"""Cross-check the spectral route against the other two solvers.

For a ladder of drive strengths this prints the steady occupation from
(a) the Lyapunov solve, (b) adaptive quadrature of the noise spectra
and (c) the closed form, together with the quadrature's error estimate for
xx and the relative deviation |m int w S_xx dw/2pi - hbar/2| / (hbar/2)
from the stationarity sum rule, which integrate_moments gates at 1e-6.
Disagreement localizes a bug to one route; matching numbers certify
all three.

    python3 scripts/spectral_diagnostics.py --kappa 0.2 --gamma 0
"""

import argparse
import sys

from omsteady import (
    Cov1D,
    NoiseMode,
    SystemParams1D,
    backaction_1d,
    build_1d,
    moment_integrals,
    occupation_and_purity_1d,
    steady_covariance,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kappa", type=float, default=0.2)
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=0.0)
    ap.add_argument("--temperature", type=float, default=0.0)
    ap.add_argument("--couplings", type=float, nargs="+",
                    default=[0.05, 0.2, 0.4, 0.49])
    args = ap.parse_args(argv)

    print(f"{'G_o':>6} {'n (lyapunov)':>14} {'n (spectral)':>14} "
          f"{'n (closed)':>12} {'err_xx':>9} {'sum rule':>9}")
    for g_o in args.couplings:
        p = SystemParams1D(
            omega_b=1.0, gamma_b=args.gamma, kappa=args.kappa,
            delta=args.delta, G_o=g_o, temperature=args.temperature)
        noise = (NoiseMode.VacuumOnly if args.gamma == 0.0
                 else NoiseMode.MarkovianThermal)
        cov_ly = steady_covariance(build_1d(p, noise)).mechanical_1d()
        n_ly, _ = occupation_and_purity_1d(cov_ly)

        result = moment_integrals(p)
        cov_sp = Cov1D(result["xx"], result["pp"], 0.0, hbar=p.hbar)
        n_sp, _ = occupation_and_purity_1d(cov_sp)

        sum_rule = abs(result["commutator"] - p.hbar / 2.0) / (p.hbar / 2.0)
        closed = "-"
        if args.gamma == 0.0 and args.temperature == 0.0:
            closed = f"{backaction_1d(p).n_bar:12.8f}"
        print(f"{g_o:6.3f} {n_ly:14.10f} {n_sp:14.10f} {closed:>12} "
              f"{result['err_xx']:9.1e} {sum_rule:9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
