#!/usr/bin/env python3
"""Window-convergence scan for the free-wavepacket localization entropy.

Sweeps the position window N_x and momentum window N_p and reports the
cell entropy S(p) of the first measurement together with the captured
mass.  For sigma = 1 the entropy is 1.3851620 at (N_x, N_p) = (8, 512) but
keeps creeping up as the momentum window widens (1.3858038 at (8, 2048),
1.3859871 at (14, 8192)): the |n| tails decay only like 1/n^2 and carry
entropy long after they stop carrying visible mass.
Useful for choosing windows before running the slower second-marginal
experiments.

Run:  python3 scripts/window_convergence.py --sigma 1.0
"""

from __future__ import annotations

import argparse

from seqmeas.wavepacket import first_marginal


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma", type=float, default=1.0, help="packet width")
    ap.add_argument("--n-x", type=int, nargs="*", default=[3, 4, 6, 8, 10],
                    help="position half-windows to scan")
    ap.add_argument("--n-p", type=int, nargs="*",
                    default=[14, 64, 128, 256, 512, 1024, 2048],
                    help="momentum half-windows to scan")
    args = ap.parse_args()

    print(f"sigma = {args.sigma}")
    print(f"{'N_x':>5} {'N_p':>6} {'S(p)':>20} {'mass deficit':>14}")
    for n_x in args.n_x:
        for n_p in args.n_p:
            table = first_marginal(args.sigma, n_x, n_p)
            print(f"{n_x:>5} {n_p:>6} {table.entropy():>20.15f} "
                  f"{table.mass_deficit:>14.3e}")
        print()


if __name__ == "__main__":
    main()
