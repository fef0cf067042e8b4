"""Command-line entry points.

Verbs:

  verify     run the full registry (or an id-glob subset via --filter)
  qdilog     run only the quantum-dilogarithm checks
  rep        run only the representation checks
  classical  run only the classical checks; the `continuum` sub-verb
             emits a (kappa, error, order) convergence table instead
  report     list every registered check id and claim without running

Exit status is 0 when nothing failed and 1 otherwise; seeded runs with
the same flags print byte-identical JSON.

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


def _run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="base seed for all sampled checks (default 0)")
    parser.add_argument("--tol", type=_positive, default=None,
                        help="override every numeric tolerance "
                             "(default: per-check pinned values)")
    parser.add_argument("--max-sites", type=_int_at_least(1), default=3,
                        help="chain-length bound for the numeric rep-* "
                             "transfer checks, which use at most 3 sites "
                             "(default 3); the exact transfer-commute-* "
                             "checks always use 2 and 3 sites")
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes (default 1; results are "
                             "merged in registry order either way)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--timing", action="store_true",
                        help="include wall times in JSON output "
                             "(text output always shows them)")


def _emit_suite(args: argparse.Namespace, pattern: str | None) -> int:
    from .registry import run_suite
    report = run_suite(pattern=pattern, seed=args.seed, tol=args.tol,
                       max_sites=args.max_sites, jobs=args.jobs)
    if args.format == "json":
        print(report.to_json(timing=args.timing))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    return _emit_suite(args, args.filter)


def _cmd_group(args: argparse.Namespace) -> int:
    return _emit_suite(args, args.group_pattern)


def _cmd_classical(args: argparse.Namespace) -> int:
    if getattr(args, "classical_cmd", None) == "continuum":
        return _cmd_continuum(args)
    return _emit_suite(args, "classical-*")


def _cmd_continuum(args: argparse.Namespace) -> int:
    from .classical import FIELD_PRESETS, continuum_check
    site_counts = None
    if args.kappa_list:
        try:
            kappas = [float(t) for t in args.kappa_list.split(",") if t]
        except ValueError:
            kappas = []
        if not kappas or not all(k > 0 for k in kappas):  # nan fails too
            print(f"bad --kappa-list {args.kappa_list!r}: expected "
                  "comma-separated positive floats", file=sys.stderr)
            return 2
        # length/kappa may overflow to inf, which continuum_check rejects
        site_counts = [round(n) if math.isfinite(n) else n
                       for n in (args.length / k for k in kappas)]
        if len(site_counts) < 2 or any(n < 2 for n in site_counts):
            print("--kappa-list needs at least two spacings, each fitting at "
                  "least two sites into the box", file=sys.stderr)
            return 2
    fields = FIELD_PRESETS[args.field](args.length)
    try:
        rep = continuum_check(args.model, beta=args.beta, length=args.length,
                              n0=args.n0, levels=args.levels, fields=fields,
                              site_counts=site_counts)
    except ValueError as exc:
        print(f"bad --n0/--levels/--kappa-list ladder: {exc}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        rows = [{"kappa": k, "error": e,
                 "order": None if math.isnan(o) else o}
                for k, e, o in rep.rows()]
        print(json.dumps({
            "model": rep.model, "beta": args.beta, "length": args.length,
            "field": args.field, "rows": rows, "order": rep.order,
            "constant": rep.constant, "monotone": rep.monotone,
        }, indent=2))
    else:
        print(f"model {rep.model}  (beta {args.beta:g}, "
              f"length {args.length:g}, field {args.field})")
        print(f"  {'kappa':>12}  {'error':>12}  {'order':>6}")
        for k, e, o in rep.rows():
            otext = "-" if math.isnan(o) else f"{o:.2f}"
            print(f"  {k:>12.6e}  {e:>12.4e}  {otext:>6}")
        print(f"slope {rep.order:.2f}  constant {rep.constant:.8f}  "
              f"monotone {rep.monotone}")
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
    _run_flags(p_verify)
    p_verify.add_argument("--filter", default=None,
                          help="comma-separated id globs, e.g. 'rll-*,qdet-*'")
    p_verify.set_defaults(handler=_cmd_verify)

    for name, pattern, blurb in (
            ("qdilog", "qdilog-*", "run the quantum-dilogarithm checks"),
            ("rep", "rep-*", "run the representation checks")):
        p = sub.add_parser(name, help=blurb)
        _run_flags(p)
        p.set_defaults(handler=_cmd_group, group_pattern=pattern)

    p_classical = sub.add_parser(
        "classical", help="run the classical checks, or emit a continuum "
                          "convergence table")
    _run_flags(p_classical)
    p_classical.set_defaults(handler=_cmd_classical)
    csub = p_classical.add_subparsers(dest="classical_cmd")
    p_cont = csub.add_parser(
        "continuum", help="emit a (kappa, error, order) table for one model")
    p_cont.add_argument("--model", required=True,
                        choices=sorted(CONTINUUM_MODELS))
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
    p_cont.add_argument("--field", choices=sorted(FIELD_PRESETS),
                        default="default", help="test-field preset")
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
