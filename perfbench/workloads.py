"""The benchmark's workloads, the checks on their outputs, and their work
fingerprints.

Each workload body takes the workload seed, a ``Tally`` that every checked
operation goes through, and a ``Probe`` it marks its phases and tags on.  It
returns a ``summarize`` callable, run after the timed region, that gives
``(fingerprint, extras)``: the fingerprint is a dict of work counts that
must not depend on the seed (``EXPECTED`` pins it, so a change that does
less work cannot pass as a faster one); extras are per-layer numbers the
program reports itself (the registry's per-check seconds, output sizes).

Why these three workloads:

  verify          ``registry.run_suite`` over the whole registry, the CLI
                  user's command and the tier-1 fixture.  About 90% of it is
                  the 3-site numeric transfer in ``cyclicrep`` at N=7, so it
                  shows representation-layer work and hides exact-layer work.
  exact-chain     exact symbolic work only: the identity checks, transfer
                  commutation at 3-5 sites, and seeded random products.  This
                  is where ``coeff``/``ncpoly`` changes show; it bypasses
                  ``cyclicrep`` and ``qdilog``.  It uses ``ncpoly`` two ways:
                  structured transfer products, whose one-site words all
                  repeat earlier ones (reduce memo hit rate 1.0 on the
                  parent commit), and random words (hit rate 0.97).
  numeric-points  many small independent numeric calls (dilogarithm points,
                  exchange residuals, 2-site transfers, continuum ladders).
                  Bound by per-call overhead, so it guards the small calls
                  when the big transfer is rewritten, and it is the only
                  workload where ``qdilog`` is a visible share.

``negative-control`` is not a benchmark workload: it feeds a mismatched
(R, L) pairing through the same checks, so its operations must fail.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

# Pinned tolerances, copied from the registry checks each call mirrors
# (qdilog-* use 1e-8, rep-rll and rep-transfer-commute 1e-10).
TOL_QDILOG = 1e-8
TOL_REP = 1e-10

# exact-chain: (pairing, L-operator builder, algebra, sites).  Cost grows
# about 6x per site; 5-site qdst is the largest exact case in use.
TRANSFER_CASES = (
    ("qdst", "L_qdst", "Aq", 3),
    ("qdst", "L_qdst", "Aq", 4),
    ("qdst", "L_qdst", "Aq", 5),
    ("ext-hat", "L_ext_hat", "GLq2Ext", 3),
    ("ext-hat", "L_ext_hat", "GLq2Ext", 4),
    ("osc-hat", "L_osc_hat", "Aq", 3),
    ("osc-hat", "L_osc_hat", "Aq", 4),
)
RANDOM_ALGEBRAS = ("Aq", "GLq2Ext", "Wq", "GLq2")
RANDOM_TRIPLES = 150          # per algebra; many small products even out
                              # the seed-to-seed cost of random words

# numeric-points sample counts
DILOG_POINTS = 40             # per omega, for each dilogarithm law
RLL_POINTS = 16               # per (pairing, N)
TRANSFER2_POINTS = 12         # per (pairing, N)
CONTINUUM_REPEATS = 4         # per model
TRANSFER2_PAIRINGS = ("ext-hat", "osc-hat", "qdst")  # as in rep-transfer-commute


class Tally:
    """Counts checked operations; an operation that raises has failed.

    Once ``start()`` is called it also keeps a lap clock: each recorded
    outcome closes a lap (wall and process CPU seconds since the previous
    one), so the laps tile the body and the body's work between two
    outcomes lands in the later one.  ``lap()`` closes the tail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.laps_wall: list[float] = []
        self.laps_cpu: list[float] = []
        self._mark = None

    def start(self) -> None:
        self._mark = (time.perf_counter(), time.process_time())

    def lap(self) -> None:
        if self._mark is None:
            return
        wall, cpu = time.perf_counter(), time.process_time()
        self.laps_wall.append(wall - self._mark[0])
        self.laps_cpu.append(cpu - self._mark[1])
        self._mark = (wall, cpu)

    def record(self, name: str, ok: bool) -> bool:
        self.lap()
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(name)
        return ok

    def call(self, name: str, fn) -> bool:
        """Run fn(); it passes when it returns True without raising."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a crashed operation is a failed one
            self.record(f"{name}: {type(exc).__name__}: {exc}", False)
            return False
        return self.record(name, ok)

    def within(self, name: str, fn, tol: float) -> bool:
        """Run fn() for a residual; it passes when finite and <= tol."""
        return self.call(name, lambda: _at_most(fn(), tol))

    def exact_zero(self, name: str, fn) -> bool:
        """Run fn() for an exact defect; it passes when is_zero()."""
        return self.call(name, lambda: fn().is_zero())


def _at_most(value: float, tol: float) -> bool:
    return math.isfinite(value) and value <= tol


def _unit_circle(rng, count: int):
    return [complex(math.cos(t), math.sin(t))
            for t in (2.0 * math.pi * rng.random() for _ in range(count))]


def _rep_factories():
    """Cyclic representation per algebra name, as the registry maps them."""
    from qbax import cyclicrep
    from qbax.catalog import Aq, GLq2, GLq2Ext, Wq
    return {Wq.name: cyclicrep.weyl_rep, Aq.name: cyclicrep.qosc_rep,
            GLq2Ext.name: cyclicrep.glq2ext_rep,
            GLq2.name: cyclicrep.glq2ext_rep}


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

GROUPS = ("identities", "qdilog", "rep", "classical")


def _group(check_id: str, identity_ids) -> str:
    if check_id in identity_ids:
        return "identities"
    return check_id.split("-", 1)[0]


def run_verify(seed: int, tally: Tally, probe):
    from qbax import registry
    from qbax.identities import IDENTITIES

    wanted = [c.check_id for c in registry.build_checks(seed=seed)]
    with probe.in_phase("suite"):
        t0 = time.perf_counter()
        report = registry.run_suite(seed=seed, jobs=1)
        suite_s = time.perf_counter() - t0
    got = [r.check_id for r in report.results]
    group_s = dict.fromkeys(GROUPS, 0.0)
    group_n = dict.fromkeys(GROUPS, 0)
    for r in report.results:
        tally.record(r.check_id, r.status == "pass")
        g = _group(r.check_id, IDENTITIES)
        group_s[g] = group_s.get(g, 0.0) + r.seconds
        group_n[g] = group_n.get(g, 0) + 1
    extras = {f"registry.group_s.{g}": s for g, s in group_s.items()}
    extras["registry.overhead_s"] = suite_s - sum(r.seconds
                                                  for r in report.results)
    fingerprint = {
        "checks": len(got),
        "ids_sha256": hashlib.sha256("\n".join(got).encode()).hexdigest()[:16],
        "in_build_checks_order": got == wanted,
        "groups": group_n,
    }
    return lambda: (fingerprint, extras)


# --------------------------------------------------------------------------
# exact-chain
# --------------------------------------------------------------------------

def run_exact_chain(seed: int, tally: Tally, probe):
    from qbax import catalog, lmatrices
    from qbax.identities import IDENTITIES
    from qbax.ncpoly import random_poly

    with probe.in_phase("identities"):
        for check_id, ident in IDENTITIES.items():
            tally.call(check_id, lambda f=ident.fn: f()[0])

    with probe.in_phase("transfer"):
        for pairing, builder, alg_name, sites in TRANSFER_CASES:
            label = f"{pairing}.n{sites}"
            L = getattr(lmatrices, builder)
            alg = getattr(catalog, alg_name)
            with probe.tagged(label):
                tally.exact_zero(
                    f"[T(lam), T(mu)] {label}",
                    lambda: lmatrices.transfer_commutation_defect(L, alg, sites))

    rng = random.Random(seed)
    products = 0
    with probe.in_phase("random"):
        for alg_name in RANDOM_ALGEBRAS:
            alg = getattr(catalog, alg_name)
            for i in range(RANDOM_TRIPLES):
                p, q, r = (random_poly(alg, rng, n_terms=3, max_len=3,
                                       n_sites=3) for _ in range(3))
                tally.call(f"associativity {alg_name} #{i}",
                           lambda: (p * q) * r == p * (q * r))
                products += 4

    def summarize():
        terms = {}
        for pairing, builder, alg_name, sites in TRANSFER_CASES:
            T = lmatrices.transfer(getattr(lmatrices, builder),
                                   getattr(catalog, alg_name), sites)
            terms[f"{pairing}.n{sites}"] = T.n_terms()
        fingerprint = {
            "identities": len(IDENTITIES),
            "transfer_terms": terms,
            "random_products": products,
        }
        return fingerprint, {f"lmatrices.transfer_terms.{k}": v
                             for k, v in terms.items()}
    return summarize


# --------------------------------------------------------------------------
# numeric-points
# --------------------------------------------------------------------------

def run_numeric_points(seed: int, tally: Tally, probe):
    import numpy as np

    from qbax import classical, cyclicrep, qdilog, registry
    from qbax.lmatrices import PAIRINGS

    rng = np.random.default_rng(seed)
    calls: dict[str, int] = {}

    def count(kind: str) -> str:
        calls[kind] = calls.get(kind, 0) + 1
        return f"{kind} #{calls[kind]}"

    # Sampling ranges are the registry's: x over X_GRID's span, and the
    # qdilog-power-identity / qdilog-feq-* draws.
    lo, hi = math.log10(min(registry.X_GRID)), math.log10(max(registry.X_GRID))
    with probe.in_phase("qdilog"):
        for om in registry.OMEGAS:
            p = qdilog.DilogParams(om)
            for _ in range(DILOG_POINTS):
                x = 10.0 ** rng.uniform(lo, hi)
                tally.within(count("shift"),
                             lambda: qdilog.check_shift(om, x, p), TOL_QDILOG)
                tally.within(count("unitarity"),
                             lambda: qdilog.check_unitarity(om, x, p),
                             TOL_QDILOG)
                w, t = 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.05, 0.95)
                tally.within(count("ssw"),
                             lambda: qdilog.check_ssw(om, w, t, p), TOL_QDILOG)
                for feq_id in qdilog.FEQ_IDS:
                    lam = 10.0 ** rng.uniform(-0.6, 0.6)
                    w = 10.0 ** rng.uniform(-1.0, 1.0)
                    tally.within(
                        count(f"feq-{feq_id}"),
                        lambda: qdilog.check_feq(feq_id, om, lam, w, p),
                        TOL_QDILOG)

    factories = _rep_factories()
    with probe.in_phase("rep"):
        for N in registry.REP_SIZES:
            q = cyclicrep.root_of_unity(N)
            reps = {name: make(N) for name, make in factories.items()}
            for name, R, L, alg in PAIRINGS:
                rep = reps[alg.name]
                for _ in range(RLL_POINTS):
                    x, y = _unit_circle(rng, 2)
                    tally.within(
                        count("rll"),
                        lambda: cyclicrep.rll_residual_num(R, L, alg, rep,
                                                           x, y, q),
                        TOL_REP)
            for name, R, L, alg in PAIRINGS:
                if name not in TRANSFER2_PAIRINGS:
                    continue
                rep = reps[alg.name]
                for _ in range(TRANSFER2_POINTS):
                    x, y = _unit_circle(rng, 2)
                    tally.within(
                        count("transfer2"),
                        lambda: cyclicrep.transfer_commutator_num(
                            L, alg, rep, 2, x, y, q),
                        TOL_REP)

    def continuum_ok(model):
        rep = classical.continuum_check(model)
        return rep.order >= 1.0 and rep.monotone

    def zero_curvature_ok(preset):
        raw, reduced = classical.zc_residual(preset)
        raw_terms = sum(len(e.terms) for row in raw for e in row)
        reduced_terms = sum(len(e.terms) for row in reduced for e in row)
        return raw_terms > 0 and reduced_terms == 0

    with probe.in_phase("classical"):
        for model in classical.CONTINUUM_MODELS:
            for _ in range(CONTINUUM_REPEATS):
                tally.call(count("continuum"), lambda: continuum_ok(model))
        for preset in sorted(classical.ZC_PRESETS):
            tally.call(count("zero-curvature"),
                       lambda: zero_curvature_ok(preset))
    return lambda: ({"calls": calls}, {})


# --------------------------------------------------------------------------
# negative control
# --------------------------------------------------------------------------

def run_negative_control(seed: int, tally: Tally, probe):
    """L_weyl closes with R_sym, not R_hat: both checks below must fail."""
    from qbax import cyclicrep, lmatrices
    from qbax.catalog import Wq

    rng = random.Random(seed)
    N = 5
    q = cyclicrep.root_of_unity(N)
    x, y = _unit_circle(rng, 2)
    with probe.in_phase("control"):
        tally.exact_zero("exact rll defect (R_hat, L_weyl, Wq)",
                         lambda: lmatrices.rll_defect(
                             lmatrices.R_hat, lmatrices.L_weyl, Wq))
        tally.within("numeric rll residual (R_hat, L_weyl, Wq)",
                     lambda: cyclicrep.rll_residual_num(
                         lmatrices.R_hat, lmatrices.L_weyl, Wq,
                         cyclicrep.weyl_rep(N), x, y, q),
                     TOL_REP)
    return lambda: ({"control_ops": 2}, {})


WORKLOADS = {
    "verify": run_verify,
    "exact-chain": run_exact_chain,
    "numeric-points": run_numeric_points,
    "negative-control": run_negative_control,
}

# Seed-independent work fingerprints of the parent program; a run whose
# fingerprint differs is not correct.
EXPECTED: dict[str, dict] = {
    "verify": {
        "checks": 110,
        "ids_sha256": "28b67b9e36652adf",  # the 110 ids in build_checks order
        "in_build_checks_order": True,
        "groups": {"identities": 86, "qdilog": 10, "rep": 4, "classical": 10},
    },
    "exact-chain": {
        "identities": 86,
        "transfer_terms": {"qdst.n3": 17, "qdst.n4": 46, "qdst.n5": 122,
                           "ext-hat.n3": 18, "ext-hat.n4": 47,
                           "osc-hat.n3": 17, "osc-hat.n4": 46},
        "random_products": 4 * RANDOM_TRIPLES * len(RANDOM_ALGEBRAS),
    },
    "numeric-points": {
        "calls": {
            # 4 omegas; 3 root-of-unity sizes; 11 (R, L) pairings
            **{kind: 4 * DILOG_POINTS
               for kind in ("shift", "unitarity", "ssw", "feq-rw", "feq-rw3",
                            "feq-rbd3pp")},
            "rll": 3 * 11 * RLL_POINTS,
            "transfer2": 3 * len(TRANSFER2_PAIRINGS) * TRANSFER2_POINTS,
            "continuum": 3 * CONTINUUM_REPEATS,
            "zero-curvature": 3,
        },
    },
    "negative-control": {"control_ops": 2},
}
