#!/usr/bin/env python3
"""Sweep lattice -> continuum convergence over every model and field preset.

Prints one (kappa, error, order) table per combination plus a closing
summary of fitted orders.  Everything here is also covered by the
classical-continuum-* checks; this script exists to eyeball the tables at
finer ladders than the suite runs, e.g.

    python3 scripts/continuum_sweep.py --n0 16 --levels 6 --beta 0.8

Exit status 1 when any fitted order is below 1 (or not a number) or any
ladder is not monotone, as the checks require; 2 on bad input.
"""

import argparse
import math
import sys

from qbax.classical import CONTINUUM_MODELS, FIELD_PRESETS, continuum_check
from qbax.cli import _int_at_least, _positive


def main() -> None:
    # the same argument checks as `qbax classical continuum`: bad input is a
    # usage error (exit status 2), not a traceback
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=_positive, default=1.0)
    ap.add_argument("--length", type=_positive, default=1.0)
    ap.add_argument("--n0", type=_int_at_least(2), default=16)
    ap.add_argument("--levels", type=_int_at_least(2), default=5)
    args = ap.parse_args()

    fitted = {}
    for model in sorted(CONTINUUM_MODELS):
        for preset in sorted(FIELD_PRESETS):
            try:
                rep = continuum_check(
                    model, beta=args.beta, length=args.length,
                    n0=args.n0, levels=args.levels,
                    fields=FIELD_PRESETS[preset](args.length))
            except ValueError as exc:  # e.g. a level over MAX_LEVEL_SITES
                ap.error(f"bad --n0/--levels ladder: {exc}")
            print(f"\n{model} / {preset} fields   "
                  f"(constant {rep.constant:.6f})")
            print(f"  {'kappa':>12}  {'error':>12}  {'order':>6}")
            for k, e, o in rep.rows():
                otext = "-" if math.isnan(o) else f"{o:.3f}"
                print(f"  {k:>12.6e}  {e:>12.4e}  {otext:>6}")
            fitted[(model, preset)] = (rep.order, rep.monotone)

    print("\nfitted orders (slope of log error vs log kappa):")
    failed = []
    for (model, preset), (order, monotone) in sorted(fitted.items()):
        flag = "" if monotone else "   [NOT MONOTONE]"
        print(f"  {model:28s} {preset:8s} {order:6.3f}{flag}")
        if not (order >= 1.0 and monotone):   # nan fails too
            failed.append(f"{model}/{preset}")
    if failed:
        print(f"error: order below 1 or not monotone: {', '.join(failed)}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
