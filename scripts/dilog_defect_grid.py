#!/usr/bin/env python3
"""Map the numerical quality of the noncompact dilogarithm over a grid.

For each omega the script reports the worst shift-equation, unitarity and
power-identity defects over a geometric x grid, then the worst functional
equation defect per kernel identity.  Useful when changing contour
parameters: rerun with --panel-nodes / --arc-nodes and compare columns;
their defaults are DilogParams's, so a bare run maps the shipped rule.
"""

import argparse

import numpy as np

from qbax.qdilog import (
    FEQ_IDS,
    DilogParams,
    check_feq,
    check_shift,
    check_ssw,
    check_unitarity,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omegas", default="0.3,0.5,0.7,0.9")
    ap.add_argument("--x-decades", type=float, default=2.0,
                    help="x ranges over 10^[-d, d] (default d=2)")
    ap.add_argument("--x-count", type=int, default=9)
    ap.add_argument("--panel-nodes", type=int, default=DilogParams.panel_nodes)
    ap.add_argument("--arc-nodes", type=int, default=DilogParams.arc_nodes)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    omegas = [float(t) for t in args.omegas.split(",") if t]
    xs = np.logspace(-args.x_decades, args.x_decades, args.x_count)
    rng = np.random.default_rng(args.seed)

    print(f"{'omega':>6}  {'shift':>10}  {'unitarity':>10}  {'power':>10}")
    for omega in omegas:
        p = DilogParams(omega, panel_nodes=args.panel_nodes,
                        arc_nodes=args.arc_nodes)
        shift = max(check_shift(omega, x, p) for x in xs)
        unit = max(check_unitarity(omega, x, p) for x in xs)
        power = max(check_ssw(omega, w, t, p)
                    for w in (0.4, 1.7) for t in (0.25, 0.75))
        print(f"{omega:>6.2f}  {shift:>10.2e}  {unit:>10.2e}  {power:>10.2e}")

    print("\nfunctional equations (worst over random lam, w draws):")
    for feq_id in FEQ_IDS:
        worst = 0.0
        for omega in omegas:
            p = DilogParams(omega, panel_nodes=args.panel_nodes,
                            arc_nodes=args.arc_nodes)
            for _ in range(10):
                lam = 10.0 ** rng.uniform(-0.6, 0.6)
                w = 10.0 ** rng.uniform(-1.0, 1.0)
                worst = max(worst, check_feq(feq_id, omega, lam, w, p))
        print(f"  {feq_id:8s} {worst:.2e}")


if __name__ == "__main__":
    main()
