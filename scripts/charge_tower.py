#!/usr/bin/env python3
"""Numeric tower for the self-trapping chain at odd roots of unity.

For each clock size N and chain length the script reports the transfer
commutator norm and the DFT fit of the Laurent coefficients against the
charges Q and Q H.  Dimensions grow as N^sites, so keep sites small.  Exit
status 1 when any value exceeds TOL (or is not a number), 2 on bad input.
"""

import argparse
import sys

from qbax.catalog import Aq
from qbax.cli import comma_list, int_at_least
from qbax.cyclicrep import (
    qdst_charge_fit,
    qosc_rep,
    root_of_unity,
    spectral_points,
    transfer_commutator_num,
)
from qbax.lmatrices import L_qdst

# the charge fit builds dense N^sites x N^sites complex arrays
MAX_DIM = 1000
# the registry's pinned tolerance for rep-transfer-commute and
# rep-qdst-charges
TOL = 1e-10


def _clock_size(text: str) -> int:
    """An argparse type: an odd integer >= 3 (root_of_unity needs one)."""
    N = int_at_least(3)(text)
    if N % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be odd: {text}")
    return N


def main() -> None:
    # bad input is a usage error (exit status 2), not a traceback
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clock-sizes", type=comma_list(_clock_size),
                    default="3,5,7,9",
                    help="comma-separated odd clock sizes N >= 3")
    ap.add_argument("--sites", type=comma_list(int_at_least(2)),
                    default="2,3",
                    help="comma-separated chain lengths >= 2; the dimension "
                         f"N**sites must stay at most {MAX_DIM}")
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    Ns, site_list = args.clock_sizes, args.sites
    if max(Ns) ** max(site_list) > MAX_DIM:
        ap.error(f"N**sites = {max(Ns)}**{max(site_list)} exceeds {MAX_DIM}")
    x, y = spectral_points(args.seed, 2)

    header = (f"{'N':>3} {'sites':>5} {'dim':>6}  {'[T(x),T(y)]':>12}  "
              f"{'lam^-n vs Q':>12}  {'lam^(2-n) vs QH':>16}")
    print(header)
    failed = False
    for N in Ns:
        rep = qosc_rep(N)
        q_val = root_of_unity(N)
        for n_sites in site_list:
            comm = transfer_commutator_num(L_qdst, Aq, rep, n_sites,
                                           x, y, q_val)
            fit = qdst_charge_fit(Aq, rep, n_sites, q_val)
            print(f"{N:>3} {n_sites:>5} {N**n_sites:>6}  {comm:>12.2e}  "
                  f"{fit['lam^-n vs Q']:>12.2e}  "
                  f"{fit['lam^(2-n) vs QH']:>16.2e}")
            # a NaN fails too
            failed |= not all(v <= TOL for v in (comm, *fit.values()))
    if failed:
        print(f"error: a value exceeds {TOL:g}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
