#!/usr/bin/env python3
"""Map the numerical quality of the noncompact dilogarithm over a grid.

For each omega the script reports the worst shift-equation, unitarity and
power-identity defects over a geometric x grid, then the worst functional
equation defect per kernel identity.  Useful when changing the quadrature:
rerun with --steps and compare columns; its default is DilogParams's, so a
bare run maps the shipped rule.  Exit status 1 when any defect exceeds TOL
(or is not a number), 2 on bad input.
"""

import argparse
import sys

import numpy as np

from qbax.cli import comma_list, int_at_least, positive
from qbax.qdilog import (
    FEQ_IDS,
    DilogDomainError,
    DilogParams,
    QuadratureError,
    check_feq,
    check_shift,
    check_ssw,
    check_unitarity,
)

# the registry's pinned tolerance for qdilog-shift, qdilog-unitarity,
# qdilog-power-identity and the qdilog-feq-* checks
TOL = 1e-8


def _omega(text: str) -> float:
    """An argparse type: a float strictly inside (0, 1), as DilogParams needs."""
    try:
        omega = float(text)
    except ValueError:
        omega = None
    if omega is None or not 0.0 < omega < 1.0:  # nan fails too
        raise argparse.ArgumentTypeError(f"must be a float in (0, 1): {text}")
    return omega


def _grid(args: argparse.Namespace) -> list[str]:
    """Print the grid; return the labels of the rows with a defect over TOL
    (or not a number)."""
    xs = np.logspace(-args.x_decades, args.x_decades, args.x_count)
    rng = np.random.default_rng(args.seed)
    failed = []

    print(f"{'omega':>6}  {'shift':>10}  {'unitarity':>10}  {'power':>10}")
    for omega in args.omegas:
        p = DilogParams(omega, steps=args.steps)
        shift = check_shift(omega, xs, p).max()
        unit = check_unitarity(omega, xs, p).max()
        power = check_ssw(omega, [0.4, 0.4, 1.7, 1.7], [0.25, 0.75] * 2,
                          p).max()
        print(f"{omega:>6.2f}  {shift:>10.2e}  {unit:>10.2e}  {power:>10.2e}")
        if not all(v <= TOL for v in (shift, unit, power)):   # nan fails too
            failed.append(f"omega={omega:g}")

    print("\nfunctional equations (worst over random lam, w draws):")
    for feq_id in FEQ_IDS:
        worst = []
        for omega in args.omegas:
            p = DilogParams(omega, steps=args.steps)
            lam, w = np.array([(10.0 ** rng.uniform(-0.6, 0.6),
                                10.0 ** rng.uniform(-1.0, 1.0))
                               for _ in range(10)]).T
            worst.append(check_feq(feq_id, omega, lam, w, p).max())
        print(f"  {feq_id:8s} {np.max(worst):.2e}")
        if not all(v <= TOL for v in worst):
            failed.append(feq_id)
    return failed


def main() -> None:
    # bad input is a usage error (exit status 2), not a traceback
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omegas", type=comma_list(_omega),
                    default="0.3,0.5,0.7,0.9",
                    help="comma-separated omegas in (0, 1)")
    ap.add_argument("--x-decades", type=positive, default=2.0,
                    help="x ranges over 10^[-d, d] (default d=2)")
    ap.add_argument("--x-count", type=int_at_least(1), default=9)
    ap.add_argument("--steps", type=positive, default=DilogParams.steps,
                    help="the trapezoid step is 2 pi d / STEPS for a strip "
                         f"of half-width d (default {DilogParams.steps})")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        failed = _grid(args)
    except (DilogDomainError, QuadratureError) as exc:
        # e.g. --steps below 4, or a rule too coarse for its certificate:
        # the certified evaluation refuses, and the message says where
        ap.error(str(exc))
    if failed:
        print(f"error: a defect exceeds {TOL:g} at {', '.join(failed)}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
