"""R-matrices, L-matrices, exchange relations, and transfer matrices.

The R- and L-matrices are catalog text (`catalog.OPERATOR_TEXT`), bound here
to their own names; op(alg=None, site=0) is the OpMatrix of NCPoly entries
over `alg` at quantum site `site`.  The auxiliary space is C^2 (or tensor
powers of it, via `embed`).  The exchange-relation check is

    R12(lam) . L13(lam*mu) . L23(mu)  ==  L23(mu) . L13(lam*mu) . R12(lam)

where the subscripts are auxiliary legs, both L factors share quantum site 0,
and the spectral arguments are produced from a single-parameter L(lam) by the
exact substitutions lam -> lam*mu and lam -> mu on coefficients.

Two R-matrix normalizations appear: the Laurent combination
R_hat(lam) = lam R_plus - lam^-1 R_minus, and its diagonal-twist companion
R_sym(lam) whose entries are differences w(x) = x - x^-1.  Each L-operator
pairs with the normalization under which its exchange relation closes; the
catalog's PAIRINGS lines record the pairings that hold.

The periodic homogeneous chain is invariant under the cyclic site shift
t -> t + 1 mod n: the trace is cyclic and letters on different sites commute.
So [T(lam), T(mu)] is taken over one word per shift orbit (`cyclic_commutator`).

Each exchange residual is built once per process, over the free copy, in a
bounded memo that the exact `rll-*` checks (which reduce it to normal form),
cyclicrep's compiled `rep-rll` programs and the slot decomposition share;
`slot_grid` is memoized too.  Both hand out fresh OpMatrix wrappers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .catalog import GLq2Ext, OPERATORS, PAIRINGS
from .coeff import Coefficient
from .ncpoly import NCPoly, OpMatrix, Presentation, _SITE, _accumulate

__all__ = [
    "OpMatrix",
    "embed",
    "weight_twist",
    "aux_twist",
    "r_twist",
    "R_plus",
    "R_minus",
    "perm_P",
    "R_hat",
    "R_sym",
    "L_quantum_matrix",
    "L_quantum_matrix_hat",
    "L_ext",
    "L_ext_hat",
    "L_ext_plus",
    "L_ext_minus",
    "L_osc",
    "L_osc_hat",
    "L_qdst",
    "L_weyl",
    "L_weyl_flip",
    "L_weyl2",
    "L_weyl2_hat",
    "T_quantum_matrix",
    "L_toda",
    "PAIRINGS",
    "rll_defect",
    "ybe_defect",
    "qdet",
    "qdet_scan",
    "QDET_CONVENTIONS",
    "monodromy",
    "transfer",
    "cyclic_commutator",
    "transfer_mode_commutators",
    "transfer_commutation_defect",
    "qdst_charges",
    "subst_i_lam",
    "slot_grid",
    "slot_prediction_defects",
    "slot_quotient_defects",
]


def embed(M: OpMatrix, legs: tuple[int, ...], n_legs: int) -> OpMatrix:
    """Place M (2x2 or 4x4) on the given auxiliary legs of a 2^n_legs space."""
    if M.n != 2 ** len(legs):
        raise ValueError("matrix size does not match number of legs")
    out = OpMatrix.zeros(M.alg, 2**n_legs)
    bits = [[(I >> (n_legs - 1 - k)) & 1 for k in range(n_legs)] for I in range(2**n_legs)]
    for I, ibits in enumerate(bits):
        for J, jbits in enumerate(bits):
            if all(ibits[k] == jbits[k] for k in range(n_legs) if k not in legs):
                row = col = 0
                for k in legs:
                    row, col = (row << 1) | ibits[k], (col << 1) | jbits[k]
                out.rows[I][J] = M.rows[row][col]
    return out


# --------------------------------------------------------------------------
# diagonal (weight) twists
# --------------------------------------------------------------------------

def weight_twist(M: OpMatrix, weights: Sequence[int], param: str = "lam") -> OpMatrix:
    """Entry (i, j) times param^((weights[j]-weights[i])/2); must be integral."""
    out = OpMatrix.zeros(M.alg, M.n)
    for i in range(M.n):
        for j in range(M.n):
            p = M.rows[i][j]
            if p.is_zero():
                continue
            d = weights[j] - weights[i]
            if d % 2:
                raise ValueError(f"half-integer twist power at entry ({i},{j})")
            out.rows[i][j] = p * M.alg.param(param, d // 2) if d else p
    return out


def aux_twist(L: OpMatrix, param: str = "lam") -> OpMatrix:
    """2x2 spin twist: upper-right gains param, lower-left loses it."""
    return weight_twist(L, (-1, 1), param)


def r_twist(R: OpMatrix, param: str = "lam") -> OpMatrix:
    """4x4 twist moving spectral weight off the middle-block off-diagonals."""
    return weight_twist(R, (0, -1, 1, 0), param)


# The catalog's operators under their own names, in OPERATOR_TEXT order.
(R_plus, R_minus, perm_P, R_hat, R_sym, T_quantum_matrix, L_quantum_matrix,
 L_quantum_matrix_hat, L_ext, L_ext_hat, L_ext_plus, L_ext_minus, L_osc,
 L_osc_hat, L_qdst, L_weyl, L_weyl_flip, L_weyl2, L_weyl2_hat,
 L_toda) = OPERATORS.values()


# --------------------------------------------------------------------------
# exchange relations
# --------------------------------------------------------------------------

def rll_defect(R_builder, L_builder, alg: Presentation) -> OpMatrix:
    """R12(lam) L13(lam mu) L23(mu) - L23(mu) L13(lam mu) R12(lam); zero iff the
    exchange relation holds identically in lam, mu; over an algebra with
    (confluent) rules, the normal form of the free copy's residual."""
    if alg.rules:
        return rll_defect(R_builder, L_builder, alg.free_copy()).map_entries_to(
            alg, lambda p: NCPoly(alg, p.terms))
    return OpMatrix(alg, _free_rll(R_builder, L_builder, alg).rows)


@lru_cache(maxsize=32)
def _free_rll(R_builder, L_builder, free: Presentation) -> OpMatrix:
    R12 = embed(R_builder(free), (0, 1), 2)
    L = L_builder(free, site=0)
    L13 = embed(L.spread_param("lam", ("lam", "mu")), (0,), 2)
    L23 = embed(L.spread_param("lam", ("mu",)), (1,), 2)
    return (R12 @ L13 @ L23) - (L23 @ L13 @ R12)


def ybe_defect(R_builder, alg: Presentation | None = None) -> OpMatrix:
    """R12(lam) R13(lam mu) R23(mu) - R23(mu) R13(lam mu) R12(lam) on C^8."""
    R = R_builder(alg)
    R12 = embed(R, (0, 1), 3)
    R13 = embed(R.spread_param("lam", ("lam", "mu")), (0, 2), 3)
    R23 = embed(R.spread_param("lam", ("mu",)), (1, 2), 3)
    return (R12 @ R13 @ R23) - (R23 @ R13 @ R12)


# --------------------------------------------------------------------------
# quantum determinants
# --------------------------------------------------------------------------

QDET_CONVENTIONS = ("AD-qBC", "AD-q^-1BC", "DA-qCB", "DA-q^-1CB")


def qdet(L: OpMatrix, convention: str) -> NCPoly:
    if convention not in QDET_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    (A, B), (C, D) = L.rows
    first, second = (A * D, B * C) if convention.startswith("AD") else (D * A, C * B)
    return first - L.alg.param("q", -1 if "q^-1" in convention else 1) * second


def qdet_scan(L: OpMatrix) -> dict[str, NCPoly]:
    return {conv: qdet(L, conv) for conv in QDET_CONVENTIONS}


# --------------------------------------------------------------------------
# transfer matrices
# --------------------------------------------------------------------------

def monodromy(L_builder, alg: Presentation, n_sites: int) -> OpMatrix:
    """Ordered product L(site n-1) ... L(site 0) over the auxiliary space."""
    M = L_builder(alg, site=n_sites - 1)
    for s in range(n_sites - 2, -1, -1):
        M = M @ L_builder(alg, site=s)
    return M


def transfer(L_builder, alg: Presentation, n_sites: int) -> NCPoly:
    return monodromy(L_builder, alg, n_sites).trace()


def _shift(word, s: int, n: int):
    """word with site t moved to (t + s) mod n, kept site-sorted (stably)."""
    return tuple(sorted([((t + s) % n, g) for t, g in word], key=_SITE))


def _orbits(x: NCPoly, n_sites: int) -> dict[int, dict]:
    """x's terms on one word per orbit of the site shift, by orbit size;
    ValueError if x is not invariant under the shift."""
    left, groups = dict(x.terms), {}
    while left:
        w, c = left.popitem()
        m = 1
        while (v := _shift(w, m, n_sites)) != w:
            if left.pop(v, None) != c:
                raise ValueError(f"not invariant under the cyclic shift: {v} lacks {c}")
            m += 1
        groups.setdefault(m, {})[w] = c
    return groups


def _orbit_commutator(groups: dict[int, dict], p: NCPoly, q: NCPoly,
                      n_sites: int) -> NCPoly:
    out: dict = {}
    for m, reps in groups.items():
        for w, c in NCPoly(p.alg, reps, normalized=True).commutator(q).terms.items():
            for s in range(m):
                _accumulate(out, _shift(w, s, n_sites), c)
    return NCPoly(p.alg, out, normalized=True)


def cyclic_commutator(p: NCPoly, q: NCPoly, n_sites: int) -> NCPoly:
    """p q - q p for p, q invariant under the site shift t -> t + 1 mod
    n_sites (else ValueError): per orbit size m, [r, q] for the sum r of p's
    terms on one word per orbit, added with its shifts by 1, ..., m - 1."""
    _orbits(q, n_sites)
    return _orbit_commutator(_orbits(p, n_sites), p, q, n_sites)


def transfer_mode_commutators(L_builder, alg: Presentation,
                              n_sites: int) -> dict[tuple[int, int], NCPoly]:
    """The nonzero [T_j, T_k], j < k, of the Laurent modes of the transfer
    matrix T(lam) = sum_j lam^j T_j; each T_j has coefficients in q alone
    and is shift invariant like T, so [T_j, T_k] is a `cyclic_commutator`
    (each mode is grouped into orbits once)."""
    T = transfer(L_builder, alg, n_sites)
    modes = {j: T.coefficient_of("lam", j) for j in sorted(T.param_degrees("lam"))}
    orbits = {j: _orbits(T_j, n_sites) for j, T_j in modes.items()}
    out = {}
    for j, k in combinations(modes, 2):
        c = _orbit_commutator(orbits[j], modes[j], modes[k], n_sites)
        if not c.is_zero():
            out[(j, k)] = c
    return out


def transfer_commutation_defect(L_builder, alg: Presentation, n_sites: int) -> NCPoly:
    """[T(lam), T(mu)] with both transfer matrices on the same sites.

    It is sum_{j,k} lam^j mu^k [T_j, T_k]; the diagonal vanishes and [T_k, T_j]
    = -[T_j, T_k], so only pairs j < k are taken, one shift orbit at a time.
    """
    out = alg.zero()
    for (j, k), c in transfer_mode_commutators(L_builder, alg, n_sites).items():
        out = out + c * (Coefficient.monomial(alg.vars, 1, lam=j, mu=k)
                         - Coefficient.monomial(alg.vars, 1, lam=k, mu=j))
    return out


def qdst_charges(alg: Presentation, n_sites: int) -> tuple[NCPoly, NCPoly]:
    """(Q, H): product of k's, and the hopping charge whose product with Q is
    the lam^0 part of the two-site qdst transfer matrix."""
    Q = alg.one()
    for s in range(n_sites):
        Q = Q * alg.gen("k", s)
    H = alg.zero()
    for s in range(n_sites):
        t = (s + 1) % n_sites
        H = H + alg.gen("kinv", s) * alg.gen("kinv", s)
        H = H + alg.gen("kinv", s) * alg.gen("e", s) * alg.gen("kinv", t) * alg.gen("f", t)
    return Q, H


# --------------------------------------------------------------------------
# imaginary spectral point lam -> i lam (exact, via parity)
# --------------------------------------------------------------------------

def subst_i_lam(p: NCPoly, extra_i_power: int = 0) -> NCPoly:
    """Substitute lam -> i*lam and multiply by i^extra_i_power, exactly.

    Each term of lam-degree n picks up i^(n + extra_i_power); the result stays
    in the rational ring only if that power is even for every term, otherwise
    ValueError.  Used for evaluating hatted operators at rotated spectral
    points without leaving exact arithmetic.
    """
    alg = p.alg
    li = alg.vars.index("lam")
    out: dict = {}
    for word, coeff in p.terms.items():
        terms = coeff.terms
        for expo in terms:
            if (expo[li] + extra_i_power) % 2:
                raise ValueError(
                    f"lam -> i lam leaves an imaginary unit (lam-degree {expo[li]}, "
                    f"extra power {extra_i_power})"
                )
        out[word] = Coefficient(alg.vars, {e: -v if (e[li] + extra_i_power) // 2 % 2 else v
                                           for e, v in terms.items()})
    return NCPoly(alg, out, normalized=True)


# --------------------------------------------------------------------------
# constant-block decomposition of the hatted exchange relation
# --------------------------------------------------------------------------

def slot_grid(free: Presentation) -> dict[tuple[int, int], OpMatrix]:
    """Predicted (lam^a, mu^b) coefficient blocks of the free ext-hat residual.

    Expanding R_hat = lam R+ - lam^-1 R- and L_ext_hat = lam (+) + lam^-1 (-)
    (with arguments lam*mu and mu) sorts the residual into seven constant
    blocks; each block must vanish once the algebra relations are imposed.
    """
    return {key: OpMatrix(free, M.rows) for key, M in _slot_grid(free).items()}


@lru_cache(maxsize=32)
def _slot_grid(free: Presentation) -> dict[tuple[int, int], OpMatrix]:
    Rp = embed(R_plus(free), (0, 1), 2)
    Rm = embed(R_minus(free), (0, 1), 2)
    p13 = embed(L_ext_plus(free), (0,), 2)
    m13 = embed(L_ext_minus(free), (0,), 2)
    p23 = embed(L_ext_plus(free), (1,), 2)
    m23 = embed(L_ext_minus(free), (1,), 2)

    def c1(R, g13, g23):
        return (R @ g13 @ g23) - (g23 @ g13 @ R)

    return {
        (2, 2): c1(Rp, p13, p23),
        (0, 2): -c1(Rm, p13, p23),
        (0, -2): c1(Rp, m13, m23),
        (-2, -2): -c1(Rm, m13, m23),
        (2, 0): (Rp @ p13 @ m23) - (m23 @ p13 @ Rp),
        (-2, 0): -((Rm @ m13 @ p23) - (p23 @ m13 @ Rm)),
        (0, 0): (Rp @ m13 @ p23) - (Rm @ p13 @ m23) - (p23 @ m13 @ Rp) + (m23 @ p13 @ Rm),
    }


def slot_prediction_defects() -> dict[tuple[int, int], OpMatrix]:
    """Free-algebra identity: residual coefficients == predicted blocks.

    Also covers completeness — degrees outside the grid are extracted too and
    must match the (zero) prediction.
    """
    res = rll_defect(R_hat, L_ext_hat, GLq2Ext.free_copy())
    free = res.alg
    grid = slot_grid(free)
    degrees = {
        (a, b)
        for a in res.param_degrees("lam") | {0, 2, -2}
        for b in res.param_degrees("mu") | {0, 2, -2}
    }
    out = {}
    for a, b in sorted(degrees):
        got = res.coefficient_of("lam", a).coefficient_of("mu", b)
        want = grid.get((a, b), OpMatrix.zeros(free, 4))
        out[(a, b)] = got - want
    return out


def slot_quotient_defects() -> dict[tuple[int, int], OpMatrix]:
    """Each predicted block, mapped into the actual algebra, must vanish."""
    grid = slot_grid(GLq2Ext.free_copy())
    out = {}
    for key, block in grid.items():
        out[key] = block.map_entries_to(
            GLq2Ext, lambda p: NCPoly(GLq2Ext, p.terms)
        )
    return out
