"""Command-line entry points.

Verbs:

  verify     run the full registry (or an id-glob subset via --filter,
             e.g. --filter 'qdilog-*' for one strand)
  continuum  print lattice-to-continuum (kappa, error, order) tables, one
             per model and field preset unless --model/--field select
  report     list every registered check id and claim without running

Exit status is 0 when nothing failed, 1 when a check or a continuum table
failed, and 2 on bad input; seeded runs with the same flags print
byte-identical JSON.

`main` pins BLAS to one thread before numpy loads, unless the thread
variables are set: on the checks' small matrices more threads cost more.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import textwrap


def _positive(text: str) -> float:
    """A finite, positive float (a nan --tol would fail every check)."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text}")
    return value


def _int_at_least(low: int):
    """An argparse type: an integer of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}: {text}")
        return value
    return parse


def _comma_list(item):
    """An argparse type: a non-empty comma-separated list, each entry parsed
    by the argparse type `item`."""
    def parse(text: str) -> list:
        values = [item(t) for t in text.split(",") if t]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values
    return parse


def _cmd_verify(args: argparse.Namespace) -> int:
    from .registry import run_suite
    report = run_suite(pattern=args.filter, seed=args.seed, tol=args.tol)
    if args.format == "json":
        print(report.to_json(timing=args.timing))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_continuum(args: argparse.Namespace) -> int:
    from .classical import (CONTINUUM_MODELS, FIELD_PRESETS,
                            ContinuumRangeError, continuum_check)
    site_counts = None
    if args.kappa_list:
        try:
            kappas = _comma_list(_positive)(args.kappa_list)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: bad --kappa-list {args.kappa_list!r}: {exc}",
                  file=sys.stderr)
            return 2
        # length/kappa may overflow to inf, which continuum_check rejects
        site_counts = [round(n) if math.isfinite(n) else n
                       for n in (args.length / k for k in kappas)]
        if len(site_counts) < 2 or any(n < 2 for n in site_counts):
            print("error: --kappa-list needs at least two spacings, each "
                  "fitting at least two sites into the box", file=sys.stderr)
            return 2
    # neither flag: every model x field; --model alone keeps the default field
    models = [args.model] if args.model else sorted(CONTINUUM_MODELS)
    fields = ([args.field] if args.field else
              ["default"] if args.model else sorted(FIELD_PRESETS))
    tables = []
    for model in models:
        for field in fields:
            try:
                rep = continuum_check(
                    model, beta=args.beta, length=args.length, n0=args.n0,
                    levels=args.levels, site_counts=site_counts,
                    fields=FIELD_PRESETS[field](args.length))
            except ContinuumRangeError as exc:
                print(f"error: bad --beta/--length: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"error: bad --n0/--levels/--kappa-list ladder: {exc}",
                      file=sys.stderr)
                return 2
            tables.append((field, rep))
    if args.format == "json":
        print(json.dumps([{
            "model": rep.model, "beta": args.beta, "length": args.length,
            "field": field,
            "rows": [{"kappa": k, "error": e,
                      "order": None if math.isnan(o) else o}
                     for k, e, o in rep.rows()],
            "order": rep.order, "constant": rep.constant,
            "monotone": rep.monotone,
        } for field, rep in tables], indent=2))
    else:
        for i, (field, rep) in enumerate(tables):
            if i:
                print()
            print(f"model {rep.model}  (beta {args.beta:g}, "
                  f"length {args.length:g}, field {field})")
            print(f"  {'kappa':>12}  {'error':>12}  {'order':>6}")
            for k, e, o in rep.rows():
                otext = "-" if math.isnan(o) else f"{o:.2f}"
                print(f"  {k:>12.6e}  {e:>12.4e}  {otext:>6}")
            print(f"slope {rep.order:.2f}  constant {rep.constant:.8f}  "
                  f"monotone {rep.monotone}")
    failed = [f"{rep.model}/{field}" for field, rep in tables
              if not rep.passed]
    if failed:
        print(f"error: order below 1 or not monotone: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .registry import build_checks
    checks = build_checks()
    if args.format == "json":
        print(json.dumps([{"id": c.check_id, "claim": c.claim}
                          for c in checks], indent=2))
    else:
        print(f"{len(checks)} registered checks")
        for c in checks:
            print()
            print(c.check_id)
            print(textwrap.fill(c.claim, width=74, initial_indent="    ",
                                subsequent_indent="    "))
    return 0


def _parser() -> argparse.ArgumentParser:
    from .classical import CONTINUUM_MODELS, FIELD_PRESETS
    parser = argparse.ArgumentParser(
        prog="qbax",
        description="exact symbolic and numerical checks for GL_q(2)-type "
                    "lattice models")
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser(
        "verify", help="run the full check registry")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0,
                          help="base seed for all sampled checks (default 0)")
    p_verify.add_argument("--tol", type=_positive, default=None,
                          help="override every numeric tolerance "
                               "(default: per-check pinned values)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text",
                          help="report format (default text)")
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall times in JSON output "
                               "(text output always shows them)")
    p_verify.add_argument("--filter", default=None,
                          help="comma-separated id globs, e.g. 'rll-*,qdet-*'")
    p_verify.set_defaults(handler=_cmd_verify)

    p_cont = sub.add_parser(
        "continuum", help="print (kappa, error, order) convergence tables; "
                          "exit 1 if one has order below 1 or is not monotone")
    p_cont.add_argument("--model", choices=sorted(CONTINUUM_MODELS),
                        help="one model (default: every model)")
    p_cont.add_argument("--field", choices=sorted(FIELD_PRESETS),
                        help="one test-field preset (default: 'default' with "
                             "--model, else every preset)")
    p_cont.add_argument("--beta", type=_positive, default=1.0)
    p_cont.add_argument("--length", type=_positive, default=1.0)
    p_cont.add_argument("--n0", type=_int_at_least(2), default=16,
                        help="coarsest site count of the halving ladder")
    p_cont.add_argument("--levels", type=_int_at_least(2), default=4,
                        help="number of ladder levels, at least 2 (default 4)")
    p_cont.add_argument("--kappa-list", default=None,
                        help="explicit comma-separated spacings (each is "
                             "rounded to a whole number of sites); "
                             "overrides --n0/--levels")
    p_cont.add_argument("--format", choices=("text", "json"),
                        default="text")
    p_cont.set_defaults(handler=_cmd_continuum)

    p_report = sub.add_parser(
        "report", help="list every registered check without running")
    p_report.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
