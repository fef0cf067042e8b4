"""The catalog: presentations, generator maps and operator matrices as data.

Everything here is declarative text parsed by `algtext` at import time; the
checks in `identities` treat these objects as the single source of truth.
Generator naming: `th` is the extra (inverse-type) generator of the extended
quantum-matrix algebras, `ut` the second commuting diagonal generator of the
Weyl-pair algebra, `kinv`/`vinv` are literal inverses enforced by unit pairs.

Generator order in a `gens` line *is* the normal-form order.  Note the primed
quotients order `th` right after its unit partner: with the inherited order
a b c th d the word b.c.th would be normal yet equal to c, so the rewriting
system would not be confluent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algtext import load_algebras, load_maps, load_operators
from .coeff import Coefficient
from .ncpoly import GenMap, NCPoly, Presentation

__all__ = [
    "ALGEBRAS",
    "MAPS",
    "OPERATORS",
    "PAIRINGS",
    "GLq2",
    "GLq2Ext",
    "GLq2ExtP",
    "GLq2ExtPP",
    "Aq",
    "Wq",
    "quantum_determinant",
    "eta_prime",
    "eta_dprime",
    "casimir_osc",
    "casimir_weyl",
    "centrality_defects",
    "CounitReport",
    "counit_analysis",
]


ALGEBRA_TEXT = """
# Quantum 2x2 matrix algebra at equal deformation roots.
algebra GLq2
gens a b c d
rule b.a -> q^-1 a.b
rule c.a -> q^-1 a.c
rule c.b -> b.c
rule d.a -> a.d - (q - q^-1) b.c
rule d.b -> q^-1 b.d
rule d.c -> q^-1 c.d

# Extension by a generator th that q-commutes with a and d and commutes
# with b and c.
algebra GLq2Ext
gens a b c th d
rule b.a -> q^-1 a.b
rule c.a -> q^-1 a.c
rule c.b -> b.c
rule d.a -> a.d - (q - q^-1) b.c
rule d.b -> q^-1 b.d
rule d.c -> q^-1 c.d
rule th.a -> q a.th
rule th.b -> b.th
rule th.c -> c.th
rule d.th -> q th.d

# Quotient of GLq2Ext by th.b = b.th = 1 (th inverse to b).
algebra GLq2ExtP
gens a b th c d
unit b th
rule b.a -> q^-1 a.b
rule c.a -> q^-1 a.c
rule c.b -> b.c
rule d.a -> a.d - (q - q^-1) b.c
rule d.b -> q^-1 b.d
rule d.c -> q^-1 c.d
rule th.a -> q a.th
rule c.th -> th.c
rule d.th -> q th.d

# Quotient of GLq2Ext by th.c = c.th = 1 (th inverse to c).
algebra GLq2ExtPP
gens a c th b d
unit c th
rule b.a -> q^-1 a.b
rule c.a -> q^-1 a.c
rule b.c -> c.b
rule d.a -> a.d - (q - q^-1) c.b
rule d.b -> q^-1 b.d
rule d.c -> q^-1 c.d
rule th.a -> q a.th
rule b.th -> th.b
rule d.th -> q th.d

# q-oscillator-type algebra with invertible diagonal generator k.
algebra Aq
gens e k kinv f
unit k kinv
rule k.e -> q^-1 e.k
rule kinv.e -> q e.kinv
rule f.e -> e.f - (q - q^-1) k.k
rule f.k -> q^-1 k.f
rule f.kinv -> q kinv.f

# Weyl-pair algebra: u, ut commute; v q-commutes oppositely with each.
algebra Wq
gens u ut v vinv
unit v vinv
rule ut.u -> u.ut
rule v.u -> q^-1 u.v
rule vinv.u -> q u.vinv
rule v.ut -> q ut.v
rule vinv.ut -> q^-1 ut.vinv
"""


MAP_TEXT = """
# Matrix coproduct on the quantum matrix algebra.
map Delta GLq2 -> GLq2 x GLq2
a -> a(x)a + b(x)c
b -> a(x)b + b(x)d
c -> c(x)a + d(x)c
d -> c(x)b + d(x)d

# Factorized coproduct on the extended algebra (group-like b, c, th).
map delta GLq2Ext -> GLq2Ext x GLq2Ext
a -> a(x)th + b(x)a
b -> b(x)b
c -> c(x)c
th -> th(x)th
d -> c(x)d

# Matrix coproduct viewed inside the extended algebra; th has no matrix-type
# image, so the map is partial (rules touching th are skipped by checks).
map DeltaExt GLq2Ext -> GLq2Ext x GLq2Ext
a -> a(x)a + b(x)c
b -> a(x)b + b(x)d
c -> c(x)a + d(x)c
d -> c(x)b + d(x)d

# Factorized coproduct on the oscillator algebra.
map deltaA Aq -> Aq x Aq
e -> e(x)kinv + k(x)e
f -> k(x)f
k -> k(x)k
kinv -> kinv(x)kinv

# Matrix coproduct transported to the oscillator algebra.
map DeltaA GLq2 -> Aq x Aq
a -> e(x)e + k(x)k
b -> e(x)k + k(x)f
c -> k(x)e + f(x)k
d -> k(x)k + f(x)f

# Factorized coproduct on the Weyl-pair algebra.
map deltaW Wq -> Wq x Wq
u -> u(x)vinv
ut -> v(x)ut
v -> v(x)v
vinv -> vinv(x)vinv

# Matrix-type coproduct on the Weyl-pair algebra; vinv has no polynomial
# image, so the map is partial.
map DeltaWpoly Wq -> Wq x Wq
u -> u(x)u
ut -> ut(x)ut
v -> u(x)v + v(x)ut

# Rescaling automorphism of the oscillator algebra (the relations are
# homogeneous in the f-degree minus e-degree, so any lam-weight on e, f
# with opposite exponents is a homomorphism).
map scaleEF Aq -> Aq
e -> lam^-1 e
f -> lam f
k -> k
kinv -> kinv

# Inclusion of the quantum matrix algebra into the primed quotient.
map embedP GLq2 -> GLq2ExtP
a -> a
b -> b
c -> c
d -> d

# Collapse of the primed quotient onto the oscillator algebra.
map Q GLq2ExtP -> Aq
a -> e
b -> k
c -> k
th -> kinv
d -> f

# Collapse of the primed quotient onto the Weyl-pair algebra (kills c).
map Qp GLq2ExtP -> Wq
a -> u
b -> v
c -> 0
th -> vinv
d -> ut

# Collapse of the doubly primed quotient onto the Weyl-pair algebra (kills b).
map Qpp GLq2ExtPP -> Wq
a -> u
b -> 0
c -> v
th -> vinv
d -> ut

# The b <-> c swap identifying the two primed quotients.
map iotaPtoPP GLq2ExtP -> GLq2ExtPP
a -> a
b -> c
c -> b
th -> th
d -> d

map iotaPPtoP GLq2ExtPP -> GLq2ExtP
a -> a
b -> c
c -> b
th -> th
d -> d
"""


OPERATOR_TEXT = """
# R-matrices on C^2 x C^2, rows and columns ordered 00, 01, 10, 11; their
# entries are scalars, so any algebra can host them.  R_plus puts q on matched
# pairs and q - q^-1 at (10, 01): the chirality under which the quantum-matrix
# relations are exactly R+ T1 T2 = T2 T1 R+ (the transposed one fails it).
operator R_plus GLq2
q, 0, 0, 0
0, 1, 0, 0
0, q - q^-1, 1, 0
0, 0, 0, q

operator R_minus GLq2
q^-1, 0, 0, 0
0, 1, q^-1 - q, 0
0, 0, 1, 0
0, 0, 0, q^-1

operator perm_P GLq2
1, 0, 0, 0
0, 0, 1, 0
0, 1, 0, 0
0, 0, 0, 1

# R_hat(lam) = lam R_plus - lam^-1 R_minus, and its diagonal-twist companion
# R_sym(lam), whose entries are differences w(x) = x - x^-1.
operator R_hat GLq2
q lam - q^-1 lam^-1, 0, 0, 0
0, lam - lam^-1, (q - q^-1) lam^-1, 0
0, (q - q^-1) lam, lam - lam^-1, 0
0, 0, 0, q lam - q^-1 lam^-1

operator R_sym GLq2
q lam - q^-1 lam^-1, 0, 0, 0
0, lam - lam^-1, q - q^-1, 0
0, q - q^-1, lam - lam^-1, 0
0, 0, 0, q lam - q^-1 lam^-1

# L-operators on C^2.  The constant quantum matrix of the FRT construction,
# then its spectral dressing (off-diagonals gain lam^+-1) and the row-swapped
# companion with all entries carrying spectral weight.
operator T_quantum_matrix GLq2
a, b
c, d
operator L_quantum_matrix GLq2
a, lam b
lam^-1 c, d
operator L_quantum_matrix_hat GLq2
lam^-1 c, lam^-1 d
lam a, lam b

# Extended-algebra L: the lower-left entry mixes th and c.  The hatted one
# is lam L_ext_plus + lam^-1 L_ext_minus (lower-triangular and upper-row).
operator L_ext GLq2Ext
a, lam b
lam th + lam^-1 c, d
operator L_ext_hat GLq2Ext
lam th + lam^-1 c, lam^-1 d
lam a, lam b
operator L_ext_plus GLq2Ext
th, 0
a, b
operator L_ext_minus GLq2Ext
c, d
0, 0

# Oscillator-algebra L with both k and kinv in the lower-left entry.  The
# discrete self-trapping L_qdst is the aux twist of L_osc_hat, conjugation by
# X(lam) = diag(lam^1/2, lam^-1/2), which carries every exchange relation from
# R_hat to R_sym: X1(lam mu) X2(mu) R_hat(lam) X1^-1 X2^-1 == R_sym(lam).  So
# L_qdst pairs with R_sym though L_osc_hat pairs with R_hat.
operator L_osc Aq
e, lam k
lam kinv + lam^-1 k, f
operator L_osc_hat Aq
lam kinv + lam^-1 k, lam^-1 f
lam e, lam k
operator L_qdst Aq
lam kinv + lam^-1 k, f
e, lam k

# Weyl-pair L (image of L_ext under the collapse killing c) and its row swap;
# L_weyl2 comes from the collapse killing b (lower-triangular); L_toda is the
# relativistic Toda form reached from L_weyl2_hat by lam -> i lam.
operator L_weyl Wq
u, lam v
lam vinv, ut
operator L_weyl_flip Wq
lam vinv, ut
u, lam v
operator L_weyl2 Wq
u, 0
lam vinv + lam^-1 v, ut
operator L_weyl2_hat Wq
lam vinv + lam^-1 v, lam^-1 ut
lam u, 0
operator L_toda Wq
lam vinv - lam^-1 v, -ut
u, 0

# The exchange relations that close exactly: pairing <name> <R> <L> <algebra>.
# The first nine are the primary set; the last two are byproduct pairings of
# the row-swapped/hatted Weyl operators.
pairing quantum-matrix R_sym L_quantum_matrix GLq2
pairing quantum-matrix-hat R_hat L_quantum_matrix_hat GLq2
pairing ext R_sym L_ext GLq2Ext
pairing ext-hat R_hat L_ext_hat GLq2Ext
pairing osc R_sym L_osc Aq
pairing osc-hat R_hat L_osc_hat Aq
pairing qdst R_sym L_qdst Aq
pairing weyl R_sym L_weyl Wq
pairing weyl2 R_sym L_weyl2 Wq
pairing weyl-flip R_sym L_weyl_flip Wq
pairing weyl2-hat R_hat L_weyl2_hat Wq
"""


ALGEBRAS: dict[str, Presentation] = load_algebras(ALGEBRA_TEXT)
MAPS: dict[str, GenMap] = load_maps(MAP_TEXT, ALGEBRAS)
OPERATORS, PAIRINGS = load_operators(OPERATOR_TEXT, ALGEBRAS)

GLq2 = ALGEBRAS["GLq2"]
GLq2Ext = ALGEBRAS["GLq2Ext"]
GLq2ExtP = ALGEBRAS["GLq2ExtP"]
GLq2ExtPP = ALGEBRAS["GLq2ExtPP"]
Aq = ALGEBRAS["Aq"]
Wq = ALGEBRAS["Wq"]


# --------------------------------------------------------------------------
# distinguished central elements
# --------------------------------------------------------------------------

def quantum_determinant(alg: Presentation) -> NCPoly:
    """a.d - q b.c at site 0 — central in GLq2 and all its extensions here."""
    q = alg.param("q")
    return alg.gen("a", 0) * alg.gen("d", 0) - q * alg.gen("b", 0) * alg.gen("c", 0)


def eta_prime(alg: Presentation) -> NCPoly:
    """th.b at site 0 — central in GLq2Ext, equal to 1 in the primed quotient."""
    return alg.gen("th", 0) * alg.gen("b", 0)


def eta_dprime(alg: Presentation) -> NCPoly:
    """th.c at site 0 — central in GLq2Ext, 1 in the doubly primed quotient."""
    return alg.gen("th", 0) * alg.gen("c", 0)


def casimir_osc() -> NCPoly:
    """e.f - q k.k at site 0 — central in the oscillator algebra Aq."""
    q = Aq.param("q")
    return Aq.gen("e", 0) * Aq.gen("f", 0) - q * Aq.gen("k", 0) * Aq.gen("k", 0)


def casimir_weyl() -> NCPoly:
    """u.ut at site 0 — central in the Weyl-pair algebra Wq."""
    return Wq.gen("u", 0) * Wq.gen("ut", 0)


def centrality_defects(p: NCPoly) -> dict[str, NCPoly]:
    """Commutators of p with every generator at site 0; empty iff central."""
    out = {}
    for g in p.alg.gens:
        d = p.commutator(p.alg.gen(g, 0))
        if not d.is_zero():
            out[g] = d
    return out


# --------------------------------------------------------------------------
# counit analysis
# --------------------------------------------------------------------------

@dataclass
class CounitReport:
    """Outcome of solving (eps x id) m = id = (id x eps) m for scalar eps.

    `values` holds the forced eps(generator) assignments; `contradictions`
    lists word-level equations that cannot hold for any assignment, including
    relation checks on the solved values.  A coproduct admits a counit on its
    covered generators iff `exists` is True.
    """

    map_name: str
    values: dict[str, Coefficient] = field(default_factory=dict)
    constraints: list[str] = field(default_factory=list)
    contradictions: list[str] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    skipped_relations: list[str] = field(default_factory=list)

    @property
    def exists(self) -> bool:
        return not self.contradictions and not self.unresolved


def counit_analysis(m: GenMap) -> CounitReport:
    """Propagate the counit axioms word by word and report the outcome.

    Both axioms are linear in the unknowns eps(g) once split by the surviving
    word: for each generator image sum_t c_t (u_t x v_t), the surviving-leg
    word w collects the equation  sum_{t: keep_t = w} c_t * prod eps(absorbed
    letters) = [w == (g,)].  Equations with a single unknown are solved and
    substituted until a fixed point; whatever remains is either satisfied, a
    contradiction, or reported as unresolved.
    """
    if m.arity != 2 or m.source is not m.target:
        raise ValueError("counit analysis needs an arity-2 endomap")
    alg = m.source
    one = Coefficient.one(alg.vars)
    zero = Coefficient.zero(alg.vars)

    def wname(w):
        return ".".join(alg.gens[g] for g in w) if w else "1"

    equations = []  # (label, word, [(coeff, absorbed letters)], target)
    for gi, img in sorted(m.images.items()):
        for absorb_leg, side in ((0, "(eps x id)"), (1, "(id x eps)")):
            comp: dict[tuple, list] = {}
            for w, c in img.terms.items():
                keep = tuple(g for (s, g) in w if s != absorb_leg)
                absorbed = tuple(g for (s, g) in w if s == absorb_leg)
                comp.setdefault(keep, []).append((c, absorbed))
            for wkey in sorted(set(comp) | {(gi,)}):
                target = one if wkey == (gi,) else zero
                label = f"{side} {m.name}({alg.gens[gi]})"
                equations.append((label, wkey, comp.get(wkey, []), target))

    known: dict[int, Coefficient] = {}
    constraints: list[str] = []

    def split(terms):
        known_sum, pending = zero, []
        for c, absorbed in terms:
            nc, remaining = c, []
            for g in absorbed:
                if g in known:
                    nc = nc * known[g]
                else:
                    remaining.append(g)
            if remaining:
                pending.append((nc, remaining))
            else:
                known_sum = known_sum + nc
        return known_sum, pending

    progress = True
    while progress:
        progress = False
        for label, wkey, terms, target in equations:
            known_sum, pending = split(terms)
            if len(pending) == 1 and len(pending[0][1]) == 1:
                c, (g,) = pending[0]
                if c.is_monomial():
                    known[g] = (target - known_sum) * c.monomial_inverse()
                    constraints.append(f"{label}: eps({alg.gens[g]}) = {known[g]}")
                    progress = True

    report = CounitReport(m.name, {alg.gens[g]: v for g, v in sorted(known.items())}, constraints)
    for label, wkey, terms, target in equations:
        known_sum, pending = split(terms)
        if pending:
            report.unresolved.append(f"{label}: word {wname(wkey)} undetermined")
        elif known_sum != target:
            report.contradictions.append(
                f"{label}: word {wname(wkey)}: got {known_sum}, need {target}"
            )

    # eps must also be an algebra map: test solved values against relations.
    for (g1, g2), rhs in sorted(alg.rules.items()):
        involved = {g1, g2} | {g for w in rhs for g in w}
        if not involved <= known.keys():
            report.skipped_relations.append(alg._lw((g1, g2)))
            continue
        lhs_val = known[g1] * known[g2]
        rhs_val = zero
        for w, c in rhs.items():
            t = c
            for g in w:
                t = t * known[g]
            rhs_val = rhs_val + t
        if lhs_val != rhs_val:
            report.contradictions.append(
                f"eps breaks relation {alg._lw((g1, g2))}: {lhs_val} != {rhs_val}"
            )
    return report
