"""Flat registry of every check this package makes, plus a suite runner.

The registry concatenates, in a fixed order:

  * the exact symbolic identity checks (identities.IDENTITIES),
  * numeric quantum-dilogarithm checks (quadrature grids and seeded
    functional-equation samples),
  * root-of-unity representation checks (relation residuals, exchange
    residuals, transfer commutators, charge fits),
  * classical checks (zero curvature, continuum orders, dualities).

Every check is one ``Check`` record (defined in identities and re-exported
here): an id, a claim, a kind and a callable returning (ok, summary).  The
kinds are exact-zero, structural, expected-failure and numeric; reports do
not show them.  Numeric checks are made through one registrar: a check body
only returns its (defect, label) pairs, and the registrar picks the
tolerance (pinned per check unless tol overrides it), finds the worst pair
(a defect that is not finite is the worst and fails) and writes the
summary.

The runner times each check, collects CheckResult rows, and assembles a
SuiteReport that is deterministic for a fixed seed: each check draws from
one stdlib random.Random seeded by (seed, crc32(check_id)), whatever the
numpy release; the JSON form omits wall times unless asked.
"""

from __future__ import annotations

import cmath
import fnmatch
import json
import math
import random
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .identities import IDENTITIES, Check
from .catalog import Aq, GLq2, GLq2Ext, Wq
from .lmatrices import PAIRINGS
from .qdilog import (
    DilogParams,
    FEQ_IDS,
    check_feq,
    check_product_consistency,
    check_self_dual,
    check_shift,
    check_ssw,
    check_unitarity,
    kernel_ratio_rv5_rv3,
    s_omega,
)
from .cyclicrep import (
    glq2ext_rep,
    qosc_rep,
    qdst_charge_fit,
    rep_residuals,
    rll_residual_num,
    root_of_unity,
    spectral_points,
    transfer_commutator_num,
    weyl_rep,
)
from .classical import (
    CONTINUUM_MODELS,
    FieldConfig,
    ZC_PRESETS,
    continuum_check,
    h_volterra,
    liouville_bracket_terms,
    r_prime_self_dual,
    toda_total,
    zc_residual,
)

__all__ = [
    "Check",
    "CheckResult",
    "SuiteReport",
    "build_checks",
    "run_check",
    "run_suite",
    "OMEGAS",
    "X_GRID",
    "REP_SIZES",
]


# --------------------------------------------------------------------------
# check/record types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    status: str          # "pass" | "fail"
    summary: str
    seconds: float


def run_check(check: Check) -> CheckResult:
    t0 = time.perf_counter()
    try:
        ok, summary = check.fn()
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is a failed check
        status, summary = "fail", f"error: {type(exc).__name__}: {exc}"
    return CheckResult(check.check_id, check.claim, status, summary,
                       time.perf_counter() - t0)


@dataclass(frozen=True)
class SuiteReport:
    version: str
    seed: int
    tol: float | None
    pattern: str | None
    results: tuple[CheckResult, ...]
    warnings: tuple[str, ...] = ()

    @property
    def counts(self) -> dict[str, int]:
        return {s: sum(r.status == s for r in self.results)
                for s in ("pass", "fail")}

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def to_text(self) -> str:
        width = max((len(r.check_id) for r in self.results), default=0)
        lines = [f"check suite v{self.version}  "
                 f"(seed {self.seed}, {len(self.results)} checks)"]
        for r in self.results:
            lines.append(f"[{r.status.upper()}] {r.check_id:<{width}}  "
                         f"{r.summary}  ({r.seconds:.2f}s)")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        c = self.counts
        lines.append(f"{len(self.results)} checks: {c['pass']} passed, "
                     f"{c['fail']} failed")
        return "\n".join(lines)

    def to_json(self, timing: bool = False) -> str:
        rows = []
        for r in self.results:
            row = {"id": r.check_id, "claim": r.claim, "status": r.status,
                   "summary": r.summary}
            if timing:
                row["seconds"] = round(r.seconds, 4)
            rows.append(row)
        payload = {
            "version": self.version,
            "seed": self.seed,
            "tol": self.tol,
            "filter": self.pattern,
            "counts": self.counts,
            "warnings": list(self.warnings),
            "checks": rows,
        }
        return json.dumps(payload, indent=2)


# --------------------------------------------------------------------------
# shared parameter sets and small helpers
# --------------------------------------------------------------------------

OMEGAS = (0.3, 0.5, 0.7, 0.9)
X_GRID = tuple(10.0 ** e for e in
               (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0))
REP_SIZES = (3, 5, 7)

# representation factory by presented-algebra name; the plain quantum-matrix
# algebra is represented through the same oscillator collapse as its
# extension (the extra generator is simply unused)
_REP_FACTORIES = {
    Wq.name: weyl_rep,
    Aq.name: qosc_rep,
    GLq2Ext.name: glq2ext_rep,
    GLq2.name: glq2ext_rep,
}


def _rng(seed: int, check_id: str) -> random.Random:
    """A check's draws: uniform, e^(2 pi i random()) and _normals."""
    return random.Random(seed << 32 | zlib.crc32(check_id.encode()))


def _normals(rng: random.Random, n: int) -> np.ndarray:
    """n standard normals, Box-Muller: draws u, v give r cos 2 pi v and
    r sin 2 pi v, r = sqrt(-2 log(1 - u))."""
    uv = [(rng.random(), 2 * math.pi * rng.random()) for _ in range((n + 1) // 2)]
    return np.array([math.sqrt(-2.0 * math.log(1.0 - u)) * f(t)
                     for u, t in uv for f in (math.cos, math.sin)][:n])


def _registrar(checks: list[Check], tol: float | None):
    """Decorator factory for numeric checks: @numeric(check_id, claim, pinned).

    The decorated body returns (defect, label) pairs.  The registered check
    compares the worst defect with tol, or with the pinned tolerance when
    tol is None.  A defect that is not finite (nan, inf) is the worst one
    and fails the check.
    """
    def numeric(check_id: str, claim: str, pinned: float):
        limit = pinned if tol is None else tol

        def deco(pairs_fn: Callable[[], Iterable[tuple[float, str]]]):
            def fn():
                pairs = list(pairs_fn())
                worst, where = max(
                    pairs, key=lambda p: (not math.isfinite(p[0]), p[0]))
                ok = math.isfinite(worst) and worst <= limit
                return ok, (
                    f"max defect {worst:.3e} at {where} "
                    f"over {len(pairs)} evaluations (tol {limit:g})")
            checks.append(Check(check_id, claim, "numeric", fn))
            return pairs_fn
        return deco
    return numeric


# --------------------------------------------------------------------------
# quantum-dilogarithm checks
# --------------------------------------------------------------------------

def _qdilog_checks(seed: int, tol: float | None) -> list[Check]:
    checks: list[Check] = []
    numeric = _registrar(checks, tol)

    # each check makes one call per omega, over all of its points
    def grid_check(check_id: str, claim: str, pinned: float, name: str,
                   values: tuple, check_fn, omegas=OMEGAS):
        numeric(check_id, claim, pinned)(lambda: [
            (defect, f"omega={om:g}, {name}={v:g}") for om in omegas
            for v, defect in zip(values, check_fn(om, values))])

    grid_check(
        "qdilog-shift",
        "S(x/q) = (1 + x) S(q x) on a log grid of positive x for "
        "omega in {0.3, 0.5, 0.7, 0.9}", 1e-8, "x", X_GRID, check_shift)
    grid_check(
        "qdilog-unitarity",
        "|S(x)| = 1 and S(x) S(1/x) = exp(i pi (omega^2 + omega^-2) / 12 "
        "+ i log^2 x / (4 pi omega^2)) on the same omega/x grid", 1e-8,
        "x", X_GRID, check_unitarity)

    def sampled_check(check_id: str, claim: str, names, draw, check_fn):
        def pairs():   # 25 draws per omega, in the rng's order
            rng = _rng(seed, check_id)
            for om in OMEGAS:
                args = [draw(rng) for _ in range(25)]
                defects = check_fn(om, *np.array(args).T)
                for defect, arg in zip(defects, args):
                    yield defect, f"omega={om:g}, " + ", ".join(
                        f"{name}={v:.4g}" for name, v in zip(names, arg))
        numeric(check_id, claim, 1e-8)(pairs)

    sampled_check(
        "qdilog-power-identity",
        "w^t equals the four-factor S ratio in both displayed forms "
        "(100 seeded samples)", ("w", "t"),
        lambda rng: (10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.05, 0.95)),
        check_ssw)

    feq_claims = {
        "rw": "R0(w) (lam + w/q) = (1 + lam w/q) R0(w/q^2) for the "
              "two-factor exchange kernel (100 seeded samples)",
        "rw3": "R2(w) (q lam/w + 1/lam) = (q/(lam w) + lam) R2(w/q^2) for "
               "the doubled-shift kernel (100 seeded samples)",
        "rbd3pp": "G(f) (lam + 1/(q f)) = (1/lam + 1/(q f)) G(q^2 f) for "
                  "the boundary kernel (100 seeded samples)",
    }
    for feq_id in FEQ_IDS:
        sampled_check(
            f"qdilog-feq-{feq_id}", feq_claims[feq_id], ("lam", "w"),
            lambda rng: (10.0 ** rng.uniform(-0.6, 0.6),
                         10.0 ** rng.uniform(-1.0, 1.0)),
            lambda om, lam, w, _id=feq_id: check_feq(_id, om, lam, w))

    @numeric(
        "qdilog-kernel-ratio",
        "the two kernels solving the same exchange equation differ by the "
        "w-independent factor exp(i log^2(lam) / (4 pi omega^2))", 1e-7)
    def _():
        for om in OMEGAS:
            table = kernel_ratio_rv5_rv3(om, [[0.45], [2.2]],
                                         [0.2, 0.6, 1.0, 1.9, 5.5])
            for lam, ratios in zip((0.45, 2.2), table.tolist()):
                closed = cmath.exp(1j * math.log(lam) ** 2
                                   / (4.0 * math.pi * om * om))
                mean = sum(ratios) / len(ratios)
                label = f"omega={om:g}, lam={lam:g}"
                yield (max(abs(r - mean) for r in ratios) / abs(mean),
                       label + " (spread)")
                yield abs(mean - closed) / abs(closed), label + " (closed form)"

    grid_check(
        "qdilog-self-dual",
        "S_omega(x^omega) = S_(1/omega)(x^(1/omega)) across independently "
        "chosen contour configurations", 1e-8, "s", (-0.2, 0.1, 0.3),
        check_self_dual)
    grid_check(
        "qdilog-product-form",
        "the contour integral matches the ratio of two compact products at "
        "complex omega where both converge", 1e-13, "x", (0.3, 1.7),
        check_product_consistency, (0.6 + 0.15j, 0.45 + 0.2j))

    @numeric(
        "qdilog-fixed-point",
        "S(1) = exp(i pi (omega^2 + omega^-2) / 24)", 1e-13)
    def _():
        for om in OMEGAS:
            expected = cmath.exp(1j * math.pi * (om * om + om ** -2) / 24.0)
            got = s_omega(1.0, DilogParams(om))
            yield abs(got - expected) / abs(expected), f"omega={om:g}"

    return checks


# --------------------------------------------------------------------------
# representation checks
# --------------------------------------------------------------------------

def _rep_checks(seed: int, tol: float | None) -> list[Check]:
    checks: list[Check] = []
    numeric = _registrar(checks, tol)

    @numeric(
        "rep-relations",
        "every defining relation and unit pair of the presented algebras "
        "holds in the cyclic representations for N in {3, 5, 7}", 1e-12)
    def _():
        for N in REP_SIZES:
            q = root_of_unity(N)
            for alg in (Wq, Aq, GLq2Ext, GLq2):
                rep = _REP_FACTORIES[alg.name](N)
                for key, res in rep_residuals(alg, rep, q).items():
                    yield res, f"{alg.name} N={N} [{key}]"

    @numeric(
        "rep-rll",
        "the numeric exchange residual R12 L13 L23 - L23 L13 R12 vanishes "
        "for all eleven kernel/operator pairings at seeded spectral points, "
        "N in {3, 5, 7}", 1e-10)
    def _():
        rng = _rng(seed, "rep-rll")
        for N in REP_SIZES:
            q = root_of_unity(N)
            reps = {name: fac(N) for name, fac in _REP_FACTORIES.items()}
            pts = spectral_points(rng, 20)
            for name, R_builder, L_builder, alg in PAIRINGS:
                res = rll_residual_num(R_builder, L_builder, alg,
                                       reps[alg.name], pts[::2], pts[1::2], q)
                for i, r in enumerate(res):
                    yield r, f"{name} N={N} pair {i}"

    @numeric(
        "rep-transfer-commute",
        "transfer matrices at distinct spectral points commute on a 3-site "
        "chain for the hatted extended, hatted oscillator, and "
        "self-trapping operators", 1e-10)
    def _():
        wanted = ("ext-hat", "osc-hat", "qdst")
        rows = [(n, Rb, Lb, alg) for n, Rb, Lb, alg in PAIRINGS
                if n in wanted]
        rng = _rng(seed, "rep-transfer-commute")
        for N in REP_SIZES:
            q = root_of_unity(N)
            pts = spectral_points(rng, 4)
            for name, _R, L_builder, alg in rows:
                rep = _REP_FACTORIES[alg.name](N)
                res = transfer_commutator_num(L_builder, alg, rep, 3,
                                              pts[0], pts[1], q)
                yield res, f"{name} N={N}"
                if N == 3:
                    res = transfer_commutator_num(L_builder, alg, rep, 3,
                                                  pts[2], pts[3], q)
                    yield res, f"{name} N={N} (second pair)"

    @numeric(
        "rep-qdst-charges",
        "Fourier-extracted Laurent coefficients of the self-trapping "
        "transfer matrix equal the conserved charges Q and Q H", 1e-10)
    def _():
        for N, n_sites in [(N, 2) for N in REP_SIZES] + [(3, 3)]:
            q = root_of_unity(N)
            rep = qosc_rep(N)
            for key, res in qdst_charge_fit(Aq, rep, n_sites, q).items():
                yield res, f"N={N} sites={n_sites} [{key}]"

    return checks


# --------------------------------------------------------------------------
# classical checks
# --------------------------------------------------------------------------

_ZC_EOM = {
    "liouville": "d+d-Phi = (8/beta) e^(-beta Phi)",
    "free-volterra": "d+d-Phi = 0",
    "free-liouville": "d+d-Phi = 0",
}


def _classical_checks(seed: int, tol: float | None) -> list[Check]:
    checks: list[Check] = []
    numeric = _registrar(checks, tol)

    for preset in sorted(ZC_PRESETS):
        def zc_fn(_p=preset):
            raw, reduced = zc_residual(_p)
            raw_terms = sum(len(e.terms) for row in raw for e in row)
            reduced_terms = sum(len(e.terms) for row in reduced for e in row)
            if raw_terms == 0:
                return False, "raw residual is identically zero (the check " \
                              "would be vacuous)"
            ok = reduced_terms == 0
            return ok, (f"raw residual has {raw_terms} terms; "
                        f"{reduced_terms} survive the equation of motion")
        checks.append(Check(
            f"classical-zero-curvature-{preset}",
            "the light-cone residual d-U+ + d+U- - 2[U+, U-] vanishes "
            f"identically modulo {_ZC_EOM[preset]}",
            "exact-zero", zc_fn))

    for model in CONTINUUM_MODELS:
        def cont_fn(_m=model):
            rep = continuum_check(_m)
            orders = ", ".join(f"{o:.2f}" for o in rep.orders)
            return rep.passed, (
                f"slope {rep.order:.2f} (levels: {orders}), "
                f"constant {rep.constant:.6f}, monotone={rep.monotone}")
        checks.append(Check(
            f"classical-continuum-{model}",
            f"lattice sums of the {model} per-link density converge to the "
            "continuum integral with order >= 1 under spacing halvings",
            "numeric", cont_fn))

    def configs(check_id: str) -> list[FieldConfig]:
        rng = _rng(seed, check_id)   # five trials of 32 sites, phi then pi
        return [FieldConfig(phi=_normals(rng, 32), pi=_normals(rng, 32),
                            kappa=1.0 / 32, beta=1.3) for _ in range(5)]

    @numeric(
        "classical-volterra-duality",
        "the dual Volterra density equals the primal density of the "
        "field-reflected configuration", 1e-12)
    def _():
        for trial, cfg in enumerate(configs("classical-volterra-duality")):
            flipped = FieldConfig(phi=-cfg.phi, pi=cfg.pi, kappa=cfg.kappa,
                                  beta=cfg.beta)
            d = float(np.max(np.abs(
                h_volterra(cfg, dual=True, r_prime=r_prime_self_dual)
                - h_volterra(flipped, r_prime=r_prime_self_dual))))
            yield d, f"trial {trial}"

    @numeric(
        "classical-volterra-self-dual",
        "with the self-dual r' the primal and dual Volterra densities "
        "coincide", 1e-12)
    def _():
        for trial, cfg in enumerate(configs("classical-volterra-self-dual")):
            d = float(np.max(np.abs(
                h_volterra(cfg, r_prime=r_prime_self_dual)
                - h_volterra(cfg, dual=True, r_prime=r_prime_self_dual))))
            yield d, f"trial {trial}"

    @numeric(
        "classical-toda-telescoping",
        "the relativistic-Toda per-link density telescopes to zero on "
        "periodic chains", 1e-12)
    def _():
        return [(abs(toda_total(cfg)), f"trial {t}") for t, cfg
                in enumerate(configs("classical-toda-telescoping"))]

    @numeric(
        "classical-liouville-zero-point",
        "at zero fields the Liouville bracket collapses to "
        "(1 + kappa^2/2)^2, i.e. gamma H = 2 log(3/2) at unit spacing", 1e-12)
    def _():
        for kappa in (0.25, 0.5, 1.0, 2.0):
            cfg = FieldConfig(phi=np.zeros(4), pi=np.zeros(4), kappa=kappa,
                              beta=1.7)
            A, B, C2, C4 = liouville_bracket_terms(cfg)
            arg = A + B + kappa**2 * C2 + kappa**4 * C4
            expected = (1.0 + kappa**2 / 2.0) ** 2
            yield float(np.max(np.abs(arg - expected))), f"kappa={kappa:g}"

    return checks


# --------------------------------------------------------------------------
# assembly and running
# --------------------------------------------------------------------------

def build_checks(seed: int = 0, tol: float | None = None) -> list[Check]:
    """The full ordered registry for one configuration.

    tol=None keeps each numeric check's pinned tolerance; a float replaces
    all of them uniformly.  Symbolic identity checks are exact and ignore
    tol.  A tol that is not finite and positive raises ValueError: nan or a
    nonpositive value would fail every numeric check.  A seed that is not an
    int (bool included) raises TypeError and a negative one ValueError: no
    seeded check can use either.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    checks = list(IDENTITIES.values())
    checks += _qdilog_checks(seed, tol)
    checks += _rep_checks(seed, tol)
    checks += _classical_checks(seed, tol)
    ids = [c.check_id for c in checks]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate check ids in the registry")
    return checks


def _select(checks: Sequence[Check], pattern: str | None
            ) -> tuple[list[Check], list[str]]:
    if pattern is None:
        return list(checks), []
    globs = [g.strip() for g in pattern.split(",") if g.strip()]
    if not globs:
        return [], [f"filter {pattern!r} matched no check ids"]
    selected = [c for c in checks
                if any(fnmatch.fnmatchcase(c.check_id, g) for g in globs)]
    return selected, [f"filter glob {g!r} matched no check ids" for g in globs
                      if not any(fnmatch.fnmatchcase(c.check_id, g)
                                 for c in selected)]


def run_suite(pattern: str | None = None, seed: int = 0,
              tol: float | None = None, jobs: int = 1) -> SuiteReport:
    """Run the (optionally filtered) registry, in order, and collect a report.

    pattern is a comma-separated list of id globs, each stripped of
    surrounding whitespace; a glob that matches nothing yields a warning
    rather than an error.  jobs stays only for the benchmark harness, which
    passes jobs=1, until its next edit drops that argument; any other value
    raises ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (checks run in order), got {jobs!r}")
    checks = build_checks(seed=seed, tol=tol)
    selected, warnings = _select(checks, pattern)
    return SuiteReport(version=__version__, seed=seed, tol=tol,
                       pattern=pattern,
                       results=tuple(run_check(c) for c in selected),
                       warnings=tuple(warnings))
