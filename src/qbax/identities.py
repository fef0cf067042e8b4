"""Registry of named exact identities over the algebra catalog, and the one
record type, ``Check``, that describes every check this package makes.

A ``Check`` pairs an id and a claim with a zero-argument callable returning
``(ok, summary)``, and states its kind:

- ``exact-zero``: an algebraic identity whose defect must vanish exactly;
- ``structural``: a derived structural fact (map coverage, confluence of
  the catalog presentations, counit existence with specific values);
- ``expected-failure``: a negative control — the check passes iff the
  construction *breaks* in the predicted place (fault-injected rewrite
  systems, coproducts that provably admit no counit);
- ``numeric``: a floating-point check against a tolerance; only the
  registry module makes these.

Everything registered here is exact (Laurent polynomials over Q), so "ok"
means the stated identity holds *identically* in q and the spectral
parameters, not up to numerical tolerance.  Families that state one fact
about different data are written as a loop over a table of rows.

The registry is the single source the CLI and the acceptance tests run;
new identities should be added here rather than as loose test functions so
they show up in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algtext import load_algebras
from .catalog import (
    Aq,
    GLq2,
    GLq2Ext,
    GLq2ExtP,
    GLq2ExtPP,
    MAPS,
    Wq,
    casimir_osc,
    casimir_weyl,
    centrality_defects,
    counit_analysis,
    eta_dprime,
    eta_prime,
    quantum_determinant,
)
from .coeff import Coefficient
from .lmatrices import (
    OpMatrix,
    PAIRINGS,
    QDET_CONVENTIONS,
    L_ext,
    L_ext_hat,
    L_ext_minus,
    L_ext_plus,
    L_osc_hat,
    L_qdst,
    L_quantum_matrix,
    L_weyl2_hat,
    R_hat,
    R_minus,
    R_plus,
    R_sym,
    aux_twist,
    embed,
    perm_P,
    qdet,
    qdet_scan,
    qdst_charges,
    r_twist,
    rll_defect,
    slot_prediction_defects,
    slot_quotient_defects,
    subst_i_lam,
    transfer,
    transfer_commutation_defect,
    ybe_defect,
)
from .ncpoly import NCPoly, check_confluence

__all__ = ["Check", "KINDS", "IDENTITIES", "identity_ids"]

KINDS = ("exact-zero", "structural", "expected-failure", "numeric")


@dataclass(frozen=True)
class Check:
    check_id: str
    claim: str
    kind: str  # one of KINDS
    fn: Callable[[], tuple[bool, str]]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown check kind {self.kind!r}")


IDENTITIES: dict[str, Check] = {}


def identity_ids(kind: str | None = None) -> list[str]:
    if kind is None:
        return list(IDENTITIES)
    return [k for k, v in IDENTITIES.items() if v.kind == kind]


def _identity(check_id: str, claim: str, kind: str = "exact-zero"):
    def deco(fn):
        if check_id in IDENTITIES:
            raise ValueError(f"duplicate identity id {check_id!r}")
        IDENTITIES[check_id] = Check(check_id, claim, kind, fn)
        return fn

    return deco


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

def _zero_poly(p: NCPoly, label: str = "defect") -> tuple[bool, str]:
    if p.is_zero():
        return True, f"{label} exactly zero"
    return False, f"{label} has {p.n_terms()} surviving terms: {p}"


def _zero_mat(M: OpMatrix, label: str = "defect") -> tuple[bool, str]:
    nz = M.nonzero_entries()
    if not nz:
        return True, f"{label}: all {M.n}x{M.n} entries exactly zero"
    i, j, p = nz[0]
    return False, f"{label}: {len(nz)} nonzero entries, first at ({i},{j}): {p}"


def _all(parts: list[tuple[bool, str]]) -> tuple[bool, str]:
    bad = [s for ok, s in parts if not ok]
    if bad:
        return False, "; ".join(bad)
    return True, "; ".join(s for _, s in parts)


def _shift(p: NCPoly, by: int) -> NCPoly:
    return p.shift_sites(lambda s: s + by)


def _tensor_square(M: OpMatrix) -> OpMatrix:
    """(M x. M)_{ij} = sum_k M_ik (x) M_kj with legs at sites 0 and 1."""
    return M @ M.map_entries(lambda p: _shift(p, 1))


def _group_like_defect(M: OpMatrix, cop) -> OpMatrix:
    """cop applied entrywise minus the tensor-square matrix product."""
    return M.map_entries(lambda p: cop(p)) - _tensor_square(M)


def _qcomm(x: NCPoly, y: NCPoly, qpow: int) -> NCPoly:
    """x y - q^qpow y x."""
    return x * y - x.alg.param("q", qpow) * (y * x)


# --------------------------------------------------------------------------
# confluence of the catalog presentations, plus fault-injected controls
# --------------------------------------------------------------------------

for _label, _alg in (
    ("quantum-matrix", GLq2),
    ("ext", GLq2Ext),
    ("ext-primed", GLq2ExtP),
    ("ext-dprimed", GLq2ExtPP),
    ("osc", Aq),
    ("weyl", Wq),
):
    def _conf(alg=_alg):
        res = check_confluence(alg)
        if res.passed:
            return True, f"all {res.n_pairs} critical pairs resolve"
        return False, res.first_failure()

    _identity(
        f"confluence-{_label}",
        f"every length-3 overlap of the {_alg.name} rewrite rules resolves "
        "to a common normal form",
        kind="structural",
    )(_conf)


# Negative controls: a perturbed coefficient and a dropped rule must each be
# caught by the confluence check at the predicted critical pair.  These guard
# against the checker silently accepting anything.
_FAULT_TEXT = """
algebra WqSkew
gens u ut v vinv
unit v vinv
rule ut.u -> u.ut
rule v.u -> q^-2 u.v
rule vinv.u -> q u.vinv
rule v.ut -> q ut.v
rule vinv.ut -> q^-1 ut.vinv

algebra AqDropped
gens e k kinv f
unit k kinv
rule k.e -> q^-1 e.k
rule f.e -> e.f - (q - q^-1) k.k
rule f.k -> q^-1 k.f
rule f.kinv -> q kinv.f
"""


@_identity(
    "confluence-fault-skew-weyl",
    "perturbing one Weyl exchange coefficient (q^-1 -> q^-2) is caught at "
    "exactly the two critical pairs whose resolution passes through v.u",
    kind="expected-failure",
)
def _conf_fault_weyl():
    alg = load_algebras(_FAULT_TEXT)["WqSkew"]
    res = check_confluence(alg)
    if res.passed:
        return False, "perturbed system was not flagged"
    words = sorted(w for w, _, _ in res.failures)
    if words != ["v.vinv.u", "vinv.v.u"]:
        return False, f"flagged pairs {words}, expected the two v.u overlaps"
    return True, f"flagged at v.vinv.u and vinv.v.u ({res.n_pairs} pairs scanned)"


@_identity(
    "confluence-fault-dropped-inverse",
    "dropping the kinv.e exchange rule is caught at the kinv.k.e critical pair",
    kind="expected-failure",
)
def _conf_fault_osc():
    alg = load_algebras(_FAULT_TEXT)["AqDropped"]
    res = check_confluence(alg)
    if res.passed:
        return False, "truncated system was not flagged"
    words = [w for w, _, _ in res.failures]
    if words != ["kinv.k.e"]:
        return False, f"flagged pairs {words}, expected exactly ['kinv.k.e']"
    return True, f"flagged at kinv.k.e as predicted ({res.n_pairs} pairs scanned)"


# --------------------------------------------------------------------------
# the catalog maps are homomorphisms; coproducts are coassociative and
# star-compatible
# --------------------------------------------------------------------------

@_identity(
    "map-homomorphisms",
    "every catalog map sends every (covered) defining relation to zero",
    kind="structural",
)
def _map_homs():
    n_checked = n_skipped = 0
    bad = []
    for name, m in MAPS.items():
        failures, skipped = m.hom_defects()
        n_checked += len(m.source.rules) - len(skipped)
        n_skipped += len(skipped)
        if failures:
            bad.append(f"{name}: {failures}")
    if bad:
        return False, "; ".join(bad)
    return True, (
        f"{len(MAPS)} maps, {n_checked} relations mapped to zero, "
        f"{n_skipped} skipped by partial maps"
    )


_COPRODUCTS = ("Delta", "delta", "deltaA", "deltaW", "DeltaWpoly", "DeltaExt")

for _name in _COPRODUCTS:
    def _coa(name=_name):
        failures, skipped = MAPS[name].coassoc_defects()
        if failures:
            return False, f"coassociativity fails on {failures}"
        cov = ",".join(MAPS[name].covered_gens())
        note = f" (skipped {skipped})" if skipped else ""
        return True, f"(m x id)m == (id x m)m on {cov}{note}"

    _identity(
        f"coassoc-{_name}",
        f"the coproduct {_name} is coassociative on its covered generators",
    )(_coa)


@_identity(
    "star-compat-coproducts",
    "every catalog coproduct commutes with the star structure on its "
    "covered generators",
)
def _star_coproducts():
    bad = []
    for name in _COPRODUCTS:
        failures = MAPS[name].star_hom_defects()
        if failures:
            bad.append(f"{name}: {failures}")
    if bad:
        return False, "; ".join(bad)
    return True, f"m(x*) == m(x)* for {', '.join(_COPRODUCTS)}"


# --------------------------------------------------------------------------
# central elements
# --------------------------------------------------------------------------

for _label, _alg in (
    ("quantum-matrix", GLq2),
    ("ext", GLq2Ext),
    ("ext-primed", GLq2ExtP),
    ("ext-dprimed", GLq2ExtPP),
):
    def _central_qdet(alg=_alg):
        bad = centrality_defects(quantum_determinant(alg))
        if bad:
            return False, f"nonzero commutators with {sorted(bad)}"
        return True, f"commutes with all {len(alg.gens)} generators"

    _identity(
        f"central-qdet-{_label}",
        f"a.d - q b.c is central in {_alg.name}",
    )(_central_qdet)


for _id, _claim, _element in (
    ("central-eta-prime", "th.b is central in the extended algebra",
     lambda: eta_prime(GLq2Ext)),
    ("central-eta-dprime", "th.c is central in the extended algebra",
     lambda: eta_dprime(GLq2Ext)),
    ("central-osc-casimir", "e.f - q k.k is central in the oscillator algebra",
     casimir_osc),
    ("central-weyl-casimir", "u.ut is central in the Weyl-pair algebra",
     casimir_weyl),
):
    def _central(element=_element):
        bad = centrality_defects(element())
        return (not bad, "commutes with all generators" if not bad
                else f"nonzero commutators with {sorted(bad)}")

    _identity(_id, _claim)(_central)


for _label, _quotient, _alg, _unit, _other, _names in (
    ("prime", "primed", GLq2ExtP, eta_prime, eta_dprime, ("th.b", "th.c")),
    ("dprime", "doubly primed", GLq2ExtPP, eta_dprime, eta_prime,
     ("th.c", "th.b")),
):
    def _eta_unit(alg=_alg, unit=_unit, other=_other, names=_names):
        is_one = unit(alg) == alg.one()
        rest = other(alg)
        return (
            is_one and rest != alg.one(),
            f"{names[0]} == 1: {is_one}; {names[1]} stays {rest}",
        )

    _identity(
        f"eta-{_label}-unit",
        f"{_names[0]} reduces to 1 in the {_quotient} quotient (and "
        f"{_names[1]} does not)",
    )(_eta_unit)


@_identity(
    "qdet-da-combination",
    "q d.a - q^-1 a.d == (q - q^-1)(a.d - q b.c) in the quantum matrix algebra",
)
def _qdet_da():
    alg = GLq2
    a, d = alg.gen("a"), alg.gen("d")
    lhs = alg.param("q") * (d * a) - alg.param("q", -1) * (a * d)
    rhs = (alg.param("q") - alg.param("q", -1)) * quantum_determinant(alg)
    return _zero_poly(lhs - rhs)


# --------------------------------------------------------------------------
# coproducts versus distinguished elements
# --------------------------------------------------------------------------

@_identity(
    "qdet-group-like",
    "the matrix coproduct sends the quantum determinant to qdet (x) qdet",
)
def _qdet_group_like():
    Dq = quantum_determinant(GLq2)
    lhs = MAPS["Delta"](Dq)
    rhs = Dq * _shift(Dq, 1)
    return _zero_poly(lhs - rhs)


@_identity(
    "qdet-product-form",
    "Delta(a)Delta(d) == q Delta(b)Delta(c) + qdet (x) qdet",
)
def _qdet_product_form():
    D = MAPS["Delta"]
    alg = GLq2
    Dq = quantum_determinant(alg)
    lhs = D(alg.gen("a")) * D(alg.gen("d"))
    rhs = alg.param("q") * (D(alg.gen("b")) * D(alg.gen("c"))) + Dq * _shift(Dq, 1)
    return _zero_poly(lhs - rhs)


for _label, _eta, _word in (("prime", eta_prime, "th.b"),
                            ("dprime", eta_dprime, "th.c")):
    def _eta_group_like(eta=_eta):
        x = eta(GLq2Ext)
        return _zero_poly(MAPS["delta"](x) - x * _shift(x, 1))

    _identity(
        f"eta-{_label}-group-like",
        f"the factorized coproduct sends {_word} to ({_word}) (x) ({_word})",
    )(_eta_group_like)


@_identity(
    "matrix-coproduct-on-L",
    "applying the matrix coproduct entrywise to the spectral quantum-matrix "
    "L equals its tensor-square matrix product (the lam dressing cancels "
    "along every path)",
)
def _matrix_coproduct_on_L():
    L = L_quantum_matrix(GLq2)
    return _zero_mat(_group_like_defect(L, MAPS["Delta"]))


for _sign, _factor, _Lb in (
    ("plus", "upper factor [[th,0],[a,b]]", L_ext_plus),
    ("minus", "lower factor [[c,d],[0,0]]", L_ext_minus),
):
    def _delta_factor(Lb=_Lb):
        return _zero_mat(_group_like_defect(Lb(GLq2Ext), MAPS["delta"]))

    _identity(
        f"factorized-coproduct-on-g{_sign}",
        f"the {_factor} is group-like under the factorized coproduct",
    )(_delta_factor)


# each collapse row: the factor, its quotient, the collapse map, the target
# algebra, the predicted image (generator names, "" for zero) and the
# target's coproduct
for _id, _claim, _Lb, _src, _collapse, _tgt, _want, _cop in (
    ("collapse-gplus-osc",
     "the oscillator collapse sends the upper factor to [[kinv,0],[e,k]], "
     "which is group-like under the oscillator coproduct",
     L_ext_plus, GLq2ExtP, "Q", Aq, (("kinv", ""), ("e", "k")), "deltaA"),
    ("collapse-gminus-osc",
     "the oscillator collapse sends the lower factor to [[k,f],[0,0]], "
     "which is group-like under the oscillator coproduct",
     L_ext_minus, GLq2ExtP, "Q", Aq, (("k", "f"), ("", "")), "deltaA"),
    ("collapse-gplus-weyl",
     "the Weyl collapse of the doubly primed quotient sends the upper factor "
     "to [[vinv,0],[u,0]], group-like under the Weyl coproduct",
     L_ext_plus, GLq2ExtPP, "Qpp", Wq, (("vinv", ""), ("u", "")), "deltaW"),
    ("collapse-gminus-weyl",
     "the Weyl collapse of the doubly primed quotient sends the lower factor "
     "to [[v,ut],[0,0]], group-like under the Weyl coproduct",
     L_ext_minus, GLq2ExtPP, "Qpp", Wq, (("v", "ut"), ("", "")), "deltaW"),
):
    def _collapse_factor(Lb=_Lb, src=_src, collapse=_collapse, tgt=_tgt,
                         want=_want, cop=_cop):
        img = Lb(src).map_entries_to(tgt, MAPS[collapse])
        want = OpMatrix(tgt, [[tgt.gen(g) if g else tgt.zero() for g in row]
                              for row in want])
        return _all([
            _zero_mat(img - want, "image"),
            _zero_mat(_group_like_defect(img, MAPS[cop]), "group-like"),
        ])

    _identity(_id, _claim)(_collapse_factor)


@_identity(
    "coproduct-transport-osc",
    "collapsing both legs of the matrix coproduct through the primed "
    "quotient reproduces the transported coproduct on the oscillator pair",
)
def _coproduct_transport():
    emb, Qm, DA, D = MAPS["embedP"], MAPS["Q"], MAPS["DeltaA"], MAPS["Delta"]
    parts = []
    for g in GLq2.gens:
        x = GLq2.gen(g)
        got = Qm(emb(D(x)))
        parts.append(_zero_poly(got - DA(x), f"defect on {g}"))
    return _all(parts)


@_identity(
    "collapse-compat-weyl",
    "the two Weyl collapses agree through the b <-> c identification of the "
    "primed quotients",
)
def _collapse_compat():
    iota, Qpp, Qp = MAPS["iotaPtoPP"], MAPS["Qpp"], MAPS["Qp"]
    parts = []
    for g in GLq2ExtP.gens:
        x = GLq2ExtP.gen(g)
        parts.append(_zero_poly(Qpp(iota(x)) - Qp(x), f"defect on {g}"))
    return _all(parts)


@_identity(
    "iota-roundtrip",
    "the b <-> c identification of the primed quotients is an involution",
)
def _iota_roundtrip():
    fwd, back = MAPS["iotaPtoPP"], MAPS["iotaPPtoP"]
    parts = []
    for g in GLq2ExtP.gens:
        x = GLq2ExtP.gen(g)
        parts.append(_zero_poly(back(fwd(x)) - x, f"P roundtrip on {g}"))
    for g in GLq2ExtPP.gens:
        x = GLq2ExtPP.gen(g)
        parts.append(_zero_poly(fwd(back(x)) - x, f"PP roundtrip on {g}"))
    return _all(parts)


@_identity(
    "casimir-intertwiner-weyl",
    "(u.v) (x) (u.vinv) commutes with the image of the matrix-type Weyl "
    "coproduct on every covered generator",
)
def _casimir_intertwiner_weyl():
    W = Wq.gen("u", 0) * Wq.gen("v", 0) * Wq.gen("u", 1) * Wq.gen("vinv", 1)
    D = MAPS["DeltaWpoly"]
    parts = []
    for g in D.covered_gens():
        img = D(Wq.gen(g))
        parts.append(_zero_poly(W * img - img * W, f"[W, image of {g}]"))
    return _all(parts)


@_identity(
    "coproduct-commutant-ad",
    "b (x) th commutes with the partial matrix coproduct of a and of d on "
    "the extended algebra",
)
def _coproduct_commutant_ad():
    X = GLq2Ext.gen("b", 0) * GLq2Ext.gen("th", 1)
    D = MAPS["DeltaExt"]
    parts = []
    for g in ("a", "d"):
        img = D(GLq2Ext.gen(g))
        parts.append(_zero_poly(img * X - X * img, f"[Delta({g}), b(x)th]"))
    return _all(parts)


@_identity(
    "coproduct-qcommutant-bc",
    "b (x) th q-commutes with the partial matrix coproduct of b (factor q) "
    "and of c (factor q^-1)",
)
def _coproduct_qcommutant_bc():
    X = GLq2Ext.gen("b", 0) * GLq2Ext.gen("th", 1)
    D = MAPS["DeltaExt"]
    q, qi = GLq2Ext.param("q"), GLq2Ext.param("q", -1)
    db, dc = D(GLq2Ext.gen("b")), D(GLq2Ext.gen("c"))
    return _all([
        _zero_poly(db * X - q * (X * db), "Delta(b) X - q X Delta(b)"),
        _zero_poly(dc * X - qi * (X * dc), "Delta(c) X - q^-1 X Delta(c)"),
    ])


@_identity(
    "qcommutation-db-theta-d",
    "in the primed quotient, d (x) b and th (x) d q^2-commute, and "
    "(th.a) (x) (th.d) and th (x) d q^-2-commute",
)
def _qcomm_db_theta_d():
    alg = GLq2ExtP
    db = alg.gen("d", 0) * alg.gen("b", 1)
    td = alg.gen("th", 0) * alg.gen("d", 1)
    r = alg.word(("th", "a"), 0) * alg.word(("th", "d"), 1)
    return _all([
        _zero_poly(_qcomm(db, td, 2), "(d x b)(th x d) - q^2 (th x d)(d x b)"),
        _zero_poly(_qcomm(r, td, -2), "r (th x d) - q^-2 (th x d) r"),
    ])


@_identity(
    "commutator-db-r",
    "in the primed quotient, [(d (x) b), (th.a) (x) (th.d)] == "
    "(q - q^-1) (th.qdet) (x) d",
)
def _commutator_db_r():
    alg = GLq2ExtP
    db = alg.gen("d", 0) * alg.gen("b", 1)
    r = alg.word(("th", "a"), 0) * alg.word(("th", "d"), 1)
    lhs = db * r - r * db
    rhs = (alg.param("q") - alg.param("q", -1)) * (
        alg.gen("th", 0) * quantum_determinant(alg, 0) * alg.gen("d", 1)
    )
    return _zero_poly(lhs - rhs)


for _label, _collapse, _casimir, _claim in (
    ("osc", "Q", casimir_osc,
     "the oscillator collapse sends the quantum determinant to the "
     "oscillator Casimir e.f - q k.k"),
    ("weyl", "Qp", casimir_weyl,
     "the Weyl collapse sends the quantum determinant to the Weyl Casimir "
     "u.ut"),
):
    def _collapse_qdet(collapse=_collapse, casimir=_casimir):
        got = MAPS[collapse](quantum_determinant(GLq2ExtP))
        return _zero_poly(got - casimir())

    _identity(f"collapse-qdet-{_label}", _claim)(_collapse_qdet)


# --------------------------------------------------------------------------
# counit analysis
# --------------------------------------------------------------------------

@_identity(
    "counit-matrix-coproduct",
    "the matrix coproduct admits the counit (a,b,c,d) -> (1,0,0,1), and no "
    "other assignment",
    kind="structural",
)
def _counit_matrix():
    rep = counit_analysis(MAPS["Delta"])
    one, zero = Coefficient.one(GLq2.vars), Coefficient.zero(GLq2.vars)
    want = {"a": one, "b": zero, "c": zero, "d": one}
    if not rep.exists:
        return False, f"unexpected contradictions: {rep.contradictions}"
    if rep.values != want:
        return False, f"solved values {rep.values} != identity matrix pattern"
    return True, "eps forced to (1,0,0,1); all axioms and relations satisfied"


for _label, _cop, _gen, _claim in (
    ("factorized", "delta", "d", "the factorized coproduct on the extended "
     "algebra admits no counit (the d image c (x) d cannot restore d)"),
    ("osc", "deltaA", "f", "the factorized oscillator coproduct admits no "
     "counit (the f image k (x) f cannot restore f)"),
):
    def _counit_none(cop=_cop, gen=_gen):
        rep = counit_analysis(MAPS[cop])
        if rep.exists:
            return False, "a counit was found where none should exist"
        hit = [s for s in rep.contradictions
               if f"word {gen}: got 0, need 1" in s]
        if not hit:
            return False, f"wrong contradiction site: {rep.contradictions}"
        return True, f"no counit; forced contradiction: {hit[0]}"

    _identity(f"counit-{_label}-none", _claim,
              kind="expected-failure")(_counit_none)


@_identity(
    "counit-weyl-none",
    "the factorized Weyl coproduct admits no counit (both u and ut fail)",
    kind="expected-failure",
)
def _counit_weyl():
    rep = counit_analysis(MAPS["deltaW"])
    if rep.exists:
        return False, "a counit was found where none should exist"
    sites = [s for s in rep.contradictions
             if "word u: got 0, need 1" in s or "word ut: got 0, need 1" in s]
    if len(sites) != 2:
        return False, f"wrong contradiction sites: {rep.contradictions}"
    return True, "no counit; both diagonal images fail as predicted"


# --------------------------------------------------------------------------
# R-matrix structure
# --------------------------------------------------------------------------

@_identity("hecke-difference", "R+ - R- == (q - q^-1) P")
def _hecke_difference():
    w = GLq2.param("q") - GLq2.param("q", -1)
    return _zero_mat(R_plus(GLq2) - R_minus(GLq2) - perm_P(GLq2).scale_poly(w))


@_identity("hecke-inverse", "P R+ P R- == 1 (the two constant R's are inverse up to flip)")
def _hecke_inverse():
    P = perm_P(GLq2)
    got = P @ R_plus(GLq2) @ P @ R_minus(GLq2)
    return _zero_mat(got - OpMatrix.identity(GLq2, 4))


@_identity("rsym-permutation-symmetric", "P R_sym(lam) P == R_sym(lam)")
def _rsym_perm():
    P = perm_P(GLq2)
    R = R_sym(GLq2)
    return _zero_mat(P @ R @ P - R)


@_identity(
    "rsym-inversion",
    "R_sym(lam^-1) at q^-1 equals -R_sym(lam) at q (simultaneous inversion "
    "flips the overall sign)",
)
def _rsym_inversion():
    R = R_sym(GLq2)
    flipped = R.map_entries(
        lambda p: p.map_coeff(lambda c: c.conj_param("q").conj_param("lam"))
    )
    return _zero_mat(flipped + R)


@_identity("rhat-to-rsym-twist", "the diagonal spectral twist carries R_hat onto R_sym")
def _rhat_to_rsym():
    return _zero_mat(r_twist(R_hat(GLq2)) - R_sym(GLq2))


@_identity("ybe-rsym", "R_sym satisfies the Yang-Baxter equation on C^2 x C^2 x C^2")
def _ybe_rsym():
    return _zero_mat(ybe_defect(R_sym))


@_identity("ybe-rhat", "R_hat satisfies the Yang-Baxter equation on C^2 x C^2 x C^2")
def _ybe_rhat():
    return _zero_mat(ybe_defect(R_hat))


for _sign, _Rb in (("plus", R_plus), ("minus", R_minus)):
    def _frt(Rb=_Rb):
        T = OpMatrix(GLq2, [
            [GLq2.gen("a"), GLq2.gen("b")],
            [GLq2.gen("c"), GLq2.gen("d")],
        ])
        R12 = embed(Rb(GLq2), (0, 1), 2)
        T1 = embed(T, (0,), 2)
        T2 = embed(T, (1,), 2)
        return _zero_mat((R12 @ T1 @ T2) - (T2 @ T1 @ R12))

    _identity(
        f"frt-constant-{_sign}",
        f"the constant exchange law R{_sign[0]} T1 T2 == T2 T1 R{_sign[0]} "
        "reproduces the quantum-matrix relations",
    )(_frt)


# --------------------------------------------------------------------------
# spectral exchange relations (RLL)
# --------------------------------------------------------------------------

for _name, _Rb, _Lb, _alg in PAIRINGS:
    def _rll(Rb=_Rb, Lb=_Lb, alg=_alg):
        return _zero_mat(rll_defect(Rb, Lb, alg))

    _identity(
        f"rll-{_name}",
        f"R12(lam) L13(lam mu) L23(mu) == L23(mu) L13(lam mu) R12(lam) for "
        f"the {_name} operator with {_Rb.__name__}",
    )(_rll)


@_identity(
    "slot-free-decomposition",
    "over the free algebra, the hatted exchange residual decomposes exactly "
    "into the seven predicted constant blocks (all other spectral slots vanish)",
)
def _slot_free():
    defects = slot_prediction_defects()
    bad = [k for k, M in defects.items() if not M.is_zero()]
    if bad:
        return False, f"slots {bad} differ from prediction"
    return True, f"{len(defects)} (lam,mu) slots match the block prediction"


@_identity(
    "slot-quotient-vanishing",
    "each predicted constant block vanishes once the extended-algebra "
    "relations are imposed",
)
def _slot_quotient():
    defects = slot_quotient_defects()
    bad = [k for k, M in defects.items() if not M.is_zero()]
    if bad:
        return False, f"blocks {bad} survive in the quotient"
    return True, f"all {len(defects)} blocks vanish in the quotient"


# --------------------------------------------------------------------------
# quantum determinants of the spectral operators
# --------------------------------------------------------------------------

@_identity(
    "qdet-quantum-matrix-spectral-free",
    "both ordered determinants of the spectral quantum-matrix L are "
    "lam-free and equal the quantum determinant",
)
def _qdet_qm():
    L = L_quantum_matrix(GLq2)
    Dq = quantum_determinant(GLq2)
    return _all([
        _zero_poly(qdet(L, "AD-qBC") - Dq, "AD-qBC"),
        _zero_poly(qdet(L, "DA-q^-1CB") - Dq, "DA-q^-1CB"),
    ])


@_identity(
    "qdet-ext-spectral",
    "for the extended spectral L, the DA-q^-1CB determinant equals "
    "qdet - q^-1 lam^2 (th.b), and is the only convention that does",
)
def _qdet_ext():
    L = L_ext(GLq2Ext)
    want = quantum_determinant(GLq2Ext) - (
        GLq2Ext.param("q", -1) * GLq2Ext.param("lam", 2) * eta_prime(GLq2Ext)
    )
    scan = qdet_scan(L)
    ok, msg = _zero_poly(scan["DA-q^-1CB"] - want, "DA-q^-1CB")
    others = [c for c in QDET_CONVENTIONS if c != "DA-q^-1CB" and scan[c] == want]
    if others:
        return False, f"conventions {others} unexpectedly match too"
    return ok, msg + "; other three conventions differ"


@_identity(
    "qdet-ext-hat-spectral",
    "for the hatted extended L, DA-q^-1CB == -q^-1 (qdet - q lam^2 th.b) "
    "and AD-qBC == -q (qdet - q^-1 lam^2 th.b)",
)
def _qdet_ext_hat():
    L = L_ext_hat(GLq2Ext)
    alg = GLq2Ext
    Dq, eta = quantum_determinant(alg), eta_prime(alg)
    lam2 = alg.param("lam", 2)
    want_da = -alg.param("q", -1) * (Dq - alg.param("q") * lam2 * eta)
    want_ad = -alg.param("q") * (Dq - alg.param("q", -1) * lam2 * eta)
    return _all([
        _zero_poly(qdet(L, "DA-q^-1CB") - want_da, "DA-q^-1CB"),
        _zero_poly(qdet(L, "AD-qBC") - want_ad, "AD-qBC"),
    ])


@_identity(
    "qdet-no-hat-sign-match",
    "no pair of ordering conventions makes the hatted determinant a plain "
    "sign flip of the unhatted one",
    kind="expected-failure",
)
def _qdet_no_sign_match():
    scan = qdet_scan(L_ext(GLq2Ext))
    scan_hat = qdet_scan(L_ext_hat(GLq2Ext))
    matches = [
        (c1, c2)
        for c1 in QDET_CONVENTIONS
        for c2 in QDET_CONVENTIONS
        if (scan_hat[c1] + scan[c2]).is_zero()
    ]
    if matches:
        return False, f"unexpected sign matches: {matches}"
    return True, "all 16 convention pairs fail, as they should"


# --------------------------------------------------------------------------
# relations between the L operators
# --------------------------------------------------------------------------

@_identity(
    "qdst-is-twisted-osc-hat",
    "the discrete self-trapping L is the auxiliary diagonal twist of the "
    "hatted oscillator L",
)
def _qdst_twist():
    return _zero_mat(aux_twist(L_osc_hat(Aq)) - L_qdst(Aq))


@_identity(
    "qdst-is-rescaled-osc-hat",
    "rescaling e, f by lam^-/ lam+ entrywise also carries the hatted "
    "oscillator L onto the discrete self-trapping L",
)
def _qdst_rescale():
    m = MAPS["scaleEF"]
    got = L_osc_hat(Aq).map_entries(lambda p: m(p))
    return _zero_mat(got - L_qdst(Aq))


@_identity(
    "toda-imaginary-twist",
    "rotating lam -> i lam (with one compensating power of i) and then "
    "applying the auxiliary twist turns the hatted lower-triangular Weyl L "
    "into the relativistic Toda form [[lam vinv - lam^-1 v, -ut],[u, 0]]",
)
def _toda_twist():
    rotated = L_weyl2_hat(Wq).map_entries(lambda p: subst_i_lam(p, -1))
    got = aux_twist(rotated)
    lam, lam_inv = Wq.param("lam"), Wq.param("lam", -1)
    want = OpMatrix(Wq, [
        [lam * Wq.gen("vinv") - lam_inv * Wq.gen("v"), -Wq.gen("ut")],
        [Wq.gen("u"), Wq.zero()],
    ])
    return _zero_mat(got - want)


# --------------------------------------------------------------------------
# transfer matrices
# --------------------------------------------------------------------------

@_identity(
    "transfer-spectral-free-quantum-matrix",
    "the quantum-matrix transfer matrix carries no spectral parameter at "
    "1, 2 and 3 sites (the lam dressing cancels along closed paths)",
)
def _transfer_lam_free():
    parts = []
    for n in (1, 2, 3):
        T = transfer(L_quantum_matrix, GLq2, n)
        degs = T.param_degrees("lam")
        parts.append((degs == {0}, f"N={n}: lam degrees {sorted(degs)}"))
    return _all(parts)


for _label, _Lb, _alg, _chain in (
    ("ext-hat", L_ext_hat, GLq2Ext, "hatted extended"),
    ("qdst", L_qdst, Aq, "discrete self-trapping"),
):
    def _transfer_commute(Lb=_Lb, alg=_alg):
        return _all([
            _zero_poly(transfer_commutation_defect(Lb, alg, n), f"N={n}")
            for n in (2, 3)])

    _identity(
        f"transfer-commute-{_label}",
        f"[T(lam), T(mu)] == 0 for the {_chain} chain at 2 and 3 sites",
    )(_transfer_commute)


@_identity(
    "qdst-transfer-expansion",
    "expanding the self-trapping transfer matrix about lam = 0, the lam^-N "
    "coefficient is Q and the lam^(2-N) coefficient is Q H, at 2 and 3 "
    "sites; at 2 sites the whole matrix is lam^2 (kinv.kinv + Q) + Q H + "
    "lam^-2 Q",
)
def _qdst_expansion():
    parts = []
    for n in (2, 3):
        T = transfer(L_qdst, Aq, n)
        Q, H = qdst_charges(Aq, n)
        parts.append(_zero_poly(
            T.coefficient_of("lam", -n) - Q, f"N={n}: lam^{-n} vs Q"))
        parts.append(_zero_poly(
            T.coefficient_of("lam", 2 - n) - Q * H, f"N={n}: lam^{2-n} vs QH"))
    T2 = transfer(L_qdst, Aq, 2)
    Q2, H2 = qdst_charges(Aq, 2)
    kinv2 = Aq.gen("kinv", 0) * Aq.gen("kinv", 1)
    full = (
        Aq.param("lam", 2) * (kinv2 + Q2)
        + Q2 * H2
        + Aq.param("lam", -2) * Q2
    )
    parts.append(_zero_poly(T2 - full, "N=2 closed form"))
    return _all(parts)


@_identity(
    "qdst-charges-commute",
    "the self-trapping charges Q and H commute with each other and with "
    "T(lam) at 2 and 3 sites",
)
def _qdst_charges_commute():
    parts = []
    for n in (2, 3):
        T = transfer(L_qdst, Aq, n)
        Q, H = qdst_charges(Aq, n)
        parts.append(_zero_poly(Q * H - H * Q, f"N={n}: [Q,H]"))
        parts.append(_zero_poly(T * Q - Q * T, f"N={n}: [T,Q]"))
        parts.append(_zero_poly(T * H - H * T, f"N={n}: [T,H]"))
    return _all(parts)
