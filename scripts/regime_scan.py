"""Scan contraction weights for a pair-interaction model and print the
feasible window.

Evaluates the closed-form constants on a grid of weight pairs, reports the
pair with the best proven relaxation rate, and backs the winner up with a
sampled spot check of the defining inequality.
"""

import argparse

import numpy as np

from coupledbd.conditions import SpotCheckSettings, check_regime, scan_feasible
from coupledbd.geometry import Torus
from coupledbd.models import GlauberGlauber
from coupledbd.potentials import Potential


def build_model(args):
    pot = Potential.step(args.height, args.cutoff)
    return GlauberGlauber(z_minus=args.z_minus, psi=pot,
                          z_plus=args.z_plus, phi_minus=pot, phi_plus=pot)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--z-minus", type=float, default=0.3)
    ap.add_argument("--z-plus", type=float, default=0.3)
    ap.add_argument("--height", type=float, default=0.5)
    ap.add_argument("--cutoff", type=float, default=1.0)
    ap.add_argument("--dim", type=int, default=1)
    ap.add_argument("--side", type=float, default=10.0)
    ap.add_argument("--spot-samples", type=int, default=3000)
    args = ap.parse_args()

    m = build_model(args)
    scan = scan_feasible(m, args.dim)
    print(f"evaluated {scan.evaluated} weight pairs, "
          f"{scan.feasible_count} feasible")
    if scan.best is None:
        print("no feasible pair on the default grid")
        return 1

    best = scan.best
    print(f"best: c_minus={best['c_minus']:.3f} c_plus={best['c_plus']:.3f} "
          f"rate bound {best['lambda0']:.4f}")

    # a slice of the scan around the winner, for orientation
    rows = [r for r in scan.rows
            if r["c_plus"] == best["c_plus"] and r["feasible"]]
    print("\nfeasible rows at the winning c_plus:")
    print(f"{'c_minus':>9} {'a_env':>8} {'a_sys':>8} {'a_avg':>8} {'rate':>7}")
    for r in rows:
        print(f"{r['c_minus']:9.3f} {r['a_env']:8.4f} {r['a_sys']:8.4f} "
              f"{r['a_avg']:8.4f} {r['lambda0']:7.4f}")

    torus = Torus(args.dim, args.side)
    rep = check_regime(m, best["c_minus"], best["c_plus"], torus=torus,
                       spot=SpotCheckSettings(samples=args.spot_samples))
    print()
    for line in rep.summary_lines():
        print(line)
    n_bad = sum(r.ok_inequality is False for r in rep.spot.rows)
    print(f"spot check: {len(rep.spot.rows)} sampled masses, "
          f"{n_bad} above their bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
