"""Per-layer metrics: which qbax names are wrapped, and how the spans and
counters they collect become the numbers BENCHMARK.json lists.

The layers are the package's modules.  Each metric names the end-to-end
metric and workload it should move:

  <module>.import_s, registry.build_s         setup_s, every workload
  registry.group_s.*, registry.overhead_s     wall_s on verify
  coeff.*, ncpoly.*, lmatrices.*              wall_s on exact-chain
  qdilog.*                                    wall_s on numeric-points (on
                                              verify only via group_s.qdilog)
  cyclicrep.transfer_commutator_s.*,
  monodromy/numeric_opmatrix/charge_fit       wall_s on verify
  cyclicrep.rll_residual_*, transfer2_us.p50  wall_s on numeric-points
  classical.*                                 wall_s on numeric-points

A metric whose layer a workload does not call reads 0 with 0 samples.  A
metric whose wrapped name no longer resolves, or whose calls can no longer
be labelled from their arguments, reads None, with the reason.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from fractions import Fraction

# Import order for the per-module increments: each module's own imports
# are already loaded when it is timed.  cli only formats reports.
LAYERS = ("coeff", "ncpoly", "algtext", "catalog", "lmatrices", "identities",
          "qdilog", "cyclicrep", "classical", "registry")

TRANSFER_LABELS = ("qdst.n3", "qdst.n4", "qdst.n5", "ext-hat.n3",
                   "ext-hat.n4", "osc-hat.n3", "osc-hat.n4")
REP_SIZES = (3, 5, 7)


def _rep_size_and_sites(args) -> tuple[int, int]:
    return next(iter(args["rep"].values())).shape[0], args["n_sites"]


# name -> (label function of the bound arguments, size function of the result)
SPANS = {
    "ncpoly.NCPoly.__mul__": (None, lambda p: p.n_terms()),
    "lmatrices.transfer_commutation_defect": (None, None),
    "qdilog.s_omega_log": (None, None),
    "cyclicrep.transfer_commutator_num": (_rep_size_and_sites, None),
    "cyclicrep.monodromy_num": (None, None),
    "cyclicrep.numeric_opmatrix": (None, None),
    "cyclicrep.qdst_charge_fit": (None, None),
    "cyclicrep.rll_residual_num": (None, None),
    "classical.continuum_check": (None, None),
    "classical.zc_residual": (None, None),
}
# name -> whether to count calls that repeat an earlier argument
COUNTERS = {
    "coeff.Coefficient.__mul__": False,
    "coeff.Coefficient.__add__": False,
    "ncpoly.Presentation.reduce_local": True,
}


# --------------------------------------------------------------------------
# measurements made outside any workload
# --------------------------------------------------------------------------

def import_all(seed: int) -> float:
    """Set-up as a user pays it: import every qbax module, build the
    registry.  Returns seconds."""
    t0 = time.perf_counter()
    package = importlib.import_module("qbax")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"qbax.{info.name}")
    importlib.import_module("qbax.registry").build_checks(seed=seed)
    return time.perf_counter() - t0


def import_increments(seed: int) -> tuple[dict, dict]:
    """Seconds to import each layer in LAYERS order, then build_checks.
    Must run in an interpreter that has not imported qbax."""
    values, reasons = {}, {}
    for name in LAYERS:
        t0 = time.perf_counter()
        try:
            importlib.import_module(f"qbax.{name}")
        except ImportError as exc:
            values[f"{name}.import_s"] = None
            reasons[f"{name}.import_s"] = f"qbax.{name} cannot be imported: {exc}"
            continue
        values[f"{name}.import_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    importlib.import_module("qbax.registry").build_checks(seed=seed)
    values["registry.build_s"] = time.perf_counter() - t0
    return values, reasons


def coeff_mul_ns(repeats: int = 5) -> dict:
    """ns per Coefficient product with pinned operands: a 9-term Laurent
    polynomial times the unit, a monomial, and itself.  Median of repeats
    of about 10 ms each on the parent commit."""
    from qbax.coeff import QLM, Coefficient

    dense = Coefficient(QLM, {(i, j, 0): Fraction(i + 2, j + 3)
                              for i in (-1, 0, 1) for j in (-1, 0, 1)})
    operands = {  # name -> (operand, products per repeat)
        "unit": (Coefficient.one(QLM), 200),
        "monomial": (Coefficient.monomial(QLM, Fraction(3, 2), q=1, lam=-1),
                     200),
        "dense": (dense, 20),
    }
    out = {}
    for name, (other, number) in operands.items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(number):
                dense * other
            samples.append((time.perf_counter_ns() - t0) / number)
        out[f"coeff.mul_ns.{name}"] = sorted(samples)[repeats // 2]
    return out


# --------------------------------------------------------------------------
# spans and counters -> metrics
# --------------------------------------------------------------------------

def percentile(values, p: float):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1)))]


def traced_metrics(tracer) -> tuple[dict, dict, dict]:
    """(values, samples, reasons) for every metric the wrappers feed."""
    counts = tracer.final_counts()
    values, samples, reasons = {}, {}, {}
    unlabeled = {n for (n, label, _p) in tracer.durations if label == "?"}

    def put(metric, target, value, n):
        if target in tracer.unresolved:
            values[metric], samples[metric] = None, 0
            reasons[metric] = tracer.unresolved[target]
        elif target in unlabeled:
            values[metric], samples[metric] = None, 0
            reasons[metric] = f"{target} calls no longer bind the arguments " \
                              "their label is read from"
        else:
            values[metric], samples[metric] = value, n

    def span_sum_s(metric, target, where=lambda label, phase: True):
        durs = tracer.spans(target, where)
        put(metric, target, sum(durs) / 1e9, len(durs))

    def span_pct_us(metric, target, p, where=lambda label, phase: True):
        durs = tracer.spans(target, where)
        put(metric, target, percentile(durs, p) / 1e3 if durs else 0.0,
            len(durs))

    def calls(metric, target):
        n = len(tracer.spans(target))
        put(metric, target, n, n)

    def self_s(metric, target):
        put(metric, target, tracer.self_total_ns(target) / 1e9,
            len(tracer.spans(target)))

    for op in ("mul", "add"):
        target = f"coeff.Coefficient.__{op}__"
        n = counts.get(target, 0)
        put(f"coeff.{op}_calls", target, n, n)

    target = "ncpoly.NCPoly.__mul__"
    calls("ncpoly.mul_calls", target)
    self_s("ncpoly.mul_self_s", target)
    put("ncpoly.terms_out", target, tracer.size_total(target),
        len(tracer.spans(target)))
    target = "ncpoly.Presentation.reduce_local"
    for phase in ("transfer", "random"):
        n, repeated = tracer.repeats.get((target, phase), (0, 0))
        put(f"ncpoly.reduce_calls.{phase}", target, n, n)
        put(f"ncpoly.reduce_repeat_ratio.{phase}", target,
            repeated / n if n else 0.0, n)

    target = "lmatrices.transfer_commutation_defect"
    for label in TRANSFER_LABELS:
        span_sum_s(f"lmatrices.transfer_defect_s.{label}", target,
                   lambda lab, phase, want=label: (lab == want
                                                   and phase == "transfer"))

    target = "qdilog.s_omega_log"
    calls("qdilog.s_omega_log_calls", target)
    span_pct_us("qdilog.s_omega_log_us.p50", target, 50)
    span_pct_us("qdilog.s_omega_log_us.p99", target, 99)
    put("qdilog.quadrature_errors", target,
        tracer.error_count(target, "QuadratureError"),
        len(tracer.spans(target)))

    target = "cyclicrep.transfer_commutator_num"
    for N in REP_SIZES:
        span_sum_s(f"cyclicrep.transfer_commutator_s.N{N}", target,
                   lambda lab, phase, N=N: isinstance(lab, tuple)
                   and lab[0] == N and lab[1] >= 3)
    span_pct_us("cyclicrep.transfer2_us.p50", target, 50,
                lambda lab, phase: isinstance(lab, tuple) and lab[1] == 2)
    self_s("cyclicrep.monodromy_self_s", "cyclicrep.monodromy_num")
    calls("cyclicrep.numeric_opmatrix_calls", "cyclicrep.numeric_opmatrix")
    self_s("cyclicrep.numeric_opmatrix_self_s", "cyclicrep.numeric_opmatrix")
    span_sum_s("cyclicrep.charge_fit_s", "cyclicrep.qdst_charge_fit")
    target = "cyclicrep.rll_residual_num"
    calls("cyclicrep.rll_residual_calls", target)
    span_pct_us("cyclicrep.rll_residual_us.p50", target, 50)
    span_pct_us("cyclicrep.rll_residual_us.p99", target, 99)

    span_pct_us("classical.continuum_us.p50", "classical.continuum_check", 50)
    span_sum_s("classical.zc_residual_s", "classical.zc_residual")
    return values, samples, reasons
