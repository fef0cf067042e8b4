"""Cyclic finite-dimensional representations at q a root of unity.

At q = exp(2 pi i m / N) with gcd(m, N) = 1 and odd N, the Weyl pair and
the q-oscillator algebra admit N-dimensional representations built from
the clock matrix K = diag(q^j) and the cyclic shift V (V e_j = e_{j+1}):

  * Weyl pair:      u = K,  v = V,  u~ = z u^-1     (central u u~ = z)
  * q-oscillator:   k = K,  e = V^-1,  f = B V with B = diag(c + q^(2j-1))
                    (central e f - q k^2 = c)

The oscillator weights B_j are fixed by the exchange relation
f e = e f - (q - q^-1) k k: writing e|j> = |j-1> and f|j> = B_{j+1}|j+1>,
the diagonal of e f - f e is B_{j+1} - B_j which must equal
(q - q^-1) q^(2j), giving B_j = c + q^(2j-1) up to the constant c.  For
odd N the exponents 2j-1 sweep all residues mod N, so the representation
degenerates (f loses invertibility) exactly when c = -q^r for some r;
such c are rejected.

The extended quantum-matrix algebra is represented by pulling back along
the collapse homomorphism onto the oscillator: a = e, b = c = k,
th = k^-1, d = f.  Both eta invariants th.b and th.c then become the
identity matrix.

Everything else is generic numeric evaluation: exact polynomials are
compiled once into representation-free index arrays and evaluated as a
Khatri-Rao product times one GEMM (Van Loan, "The ubiquitous Kronecker
product", J. Comput. Appl. Math. 123, 2000); on top of that, relation
residuals, the exact 4N x 4N exchange residual R12 L13 L23 - L23 L13 R12,
transfer commutators, and a Fourier fit against the conserved charges.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ncpoly import NCPoly, Presentation
from .lmatrices import (OpMatrix, L_qdst, monodromy, qdst_charges, rll_defect,
                        transfer)

__all__ = [
    "root_of_unity",
    "clock",
    "shift",
    "weyl_rep",
    "qosc_rep",
    "glq2ext_rep",
    "rep_residuals",
    "numeric_poly",
    "numeric_opmatrix",
    "rll_residual_num",
    "monodromy_num",
    "transfer_num",
    "transfer_commutator_num",
    "qdst_charge_fit",
    "spectral_points",
]


def root_of_unity(N: int, m: int = 1) -> complex:
    """q = exp(2 pi i m / N); N must be odd >= 3 and coprime to m."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    if math.gcd(m, N) != 1:
        raise ValueError(f"m = {m} is not coprime to N = {N}")
    return cmath.exp(2j * math.pi * m / N)


def clock(N: int, q: complex) -> np.ndarray:
    return np.diag(q ** np.arange(N)).astype(complex)


def shift(N: int) -> np.ndarray:
    """V e_j = e_{j+1 mod N}: ones on the subdiagonal (and corner)."""
    V = np.zeros((N, N), dtype=complex)
    for j in range(N):
        V[(j + 1) % N, j] = 1.0
    return V


def weyl_rep(N: int, m: int = 1, z: complex = 1.0) -> dict[str, np.ndarray]:
    """Clock-and-shift Weyl pair with central value u u~ = z."""
    if z == 0:
        raise ValueError("z must be nonzero (u~ = z u^-1 would vanish)")
    q = root_of_unity(N, m)
    u = clock(N, q)
    v = shift(N)
    return {
        "u": u,
        "ut": z * np.linalg.inv(u),
        "v": v,
        "vinv": np.linalg.inv(v),
    }


def qosc_rep(N: int, m: int = 1, c: complex = 2.0 + 0.5j) -> dict[str, np.ndarray]:
    """Cyclic q-oscillator representation with central value e f - q k^2 = c."""
    q = root_of_unity(N, m)
    weights = np.array([c + q ** (2 * j - 1) for j in range(N)], dtype=complex)
    if np.min(np.abs(weights)) < 1e-9:
        raise ValueError(
            f"degenerate central value c = {c}: a raising weight c + q^(2j-1) "
            "vanishes and f is no longer invertible")
    k = clock(N, q)
    V = shift(N)
    return {
        "k": k,
        "kinv": np.linalg.inv(k),
        "e": np.linalg.inv(V),
        "f": np.diag(weights) @ V,
    }


def glq2ext_rep(N: int, m: int = 1, c: complex = 2.0 + 0.5j) -> dict[str, np.ndarray]:
    """Extended quantum-matrix generators through the oscillator collapse."""
    osc = qosc_rep(N, m, c)
    return {
        "a": osc["e"],
        "b": osc["k"],
        "c": osc["k"],
        "th": osc["kinv"],
        "d": osc["f"],
    }


# --------------------------------------------------------------------------
# generic numeric evaluation
# --------------------------------------------------------------------------

class _Program(NamedTuple):
    """Exact polynomials compiled to arrays that no representation enters."""
    alg: Presentation
    gens: tuple[str, ...]   # generators that occur, then the identity
    local: np.ndarray       # (U, width) distinct one-site words, padded
    sites: np.ndarray       # (W, n_sites) row of `local` per word and site
    bounds: np.ndarray      # words of entry k are bounds[k]:bounds[k + 1]
    term_word: np.ndarray   # (T,) word of each coefficient term
    term_val: np.ndarray    # (T,) its rational value
    powers: tuple           # (variable, exponents, index per term)


def _compile(alg: Presentation, polys: list[NCPoly], n_sites: int) -> _Program:
    slots: dict[int, int] = {}
    local: dict[tuple[int, ...], int] = {(): 0}
    sites, bounds, term_word, term_val, expos = [], [0], [], [], []
    for p in polys:
        for word, coeff in p.terms.items():
            per_site: list[list[int]] = [[] for _ in range(n_sites)]
            for site, gi in word:
                if not 0 <= site < n_sites:
                    raise ValueError(
                        f"site {site} is outside range({n_sites})")
                per_site[site].append(slots.setdefault(gi, len(slots)))
            sites.append([local.setdefault(tuple(w), len(local))
                          for w in per_site])
            term_word += [len(sites) - 1] * len(coeff.terms)
            term_val += map(complex, coeff.terms.values())
            expos += coeff.terms
        bounds.append(len(sites))
    width = max(map(len, local))
    pad = [w + (len(slots),) * (width - len(w)) for w in local]
    expo = np.array(expos, dtype=int).reshape(len(expos), len(alg.vars))
    return _Program(
        alg, tuple(alg.gens[gi] for gi in slots),
        np.array(pad, dtype=np.intp).reshape(len(pad), width),
        np.array(sites, dtype=np.intp).reshape(-1, n_sites), np.array(bounds),
        np.array(term_word, dtype=np.intp), np.array(term_val, dtype=complex),
        tuple((v, *np.unique(expo[:, j], return_inverse=True))
              for j, v in enumerate(alg.vars) if expo[:, j].any()))


def _contract(prog: _Program, rep: dict[str, np.ndarray],
              values: dict[str, complex]) -> np.ndarray:
    """The compiled entries on (C^N)^(tensor n_sites), shape (K, D, D).

    A weighted sum of Kronecker products is the Khatri-Rao product over
    head sites 0..a-1, a = ceil(n/2), transposed, times the coefficient-
    weighted one over the tail sites, realigned into Kronecker order.
    Words go in chunks of N^(2(n - a)), so a head chunk is at most D x D.
    """
    shapes = sorted({np.shape(m) for m in rep.values()})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError("rep matrices must all be square and of one size, "
                         f"got shapes {shapes}")
    missing = [g for g in prog.gens if g not in rep]
    if missing:
        raise KeyError(f"rep has no matrix for generator {missing[0]!r} "
                       f"of {prog.alg.name}")
    missing = [v for v, _, _ in prog.powers if v not in values]
    if missing:
        raise KeyError(f"no numeric value for {missing}")
    term = prog.term_val.copy()
    for v, expo, index in prog.powers:
        term *= np.array([values[v] ** int(e) for e in expo])[index]
    (N, _), (W, n), K = shapes[0], prog.sites.shape, len(prog.bounds) - 1
    coeff = (np.bincount(prog.term_word, term.real, W)
             + 1j * np.bincount(prog.term_word, term.imag, W))
    mats = np.stack([rep[g] for g in prog.gens] + [np.eye(N)]).astype(complex)
    P = np.broadcast_to(np.eye(N, dtype=complex), (len(prog.local), N, N))
    for col in prog.local.T:   # every distinct one-site product, once
        P = P @ mats[col]
    if n == 1:   # the weighted sum is a (K, W) coefficient matrix product
        select = np.zeros((K, W), dtype=complex)
        entry = np.repeat(np.arange(K), np.diff(prog.bounds))
        select[entry, np.arange(W)] = coeff
        return (select @ P[prog.sites[:, 0]].reshape(W, N * N)
                ).reshape(K, N, N)
    a = n - n // 2
    M1, M2, out = N**a, N ** (n - a), None
    for k in range(K):
        acc = np.zeros((M1 * M1, M2 * M2), dtype=complex)
        for lo in range(prog.bounds[k], prog.bounds[k + 1], M2 * M2):
            w = slice(lo, min(lo + M2 * M2, prog.bounds[k + 1]))
            tail = _khatri_rao(P[prog.sites[w, a:]]) * coeff[w, None]
            acc += _khatri_rao(P[prog.sites[w, :a]]).T @ tail
        if out is None:   # allocated late: one D x D fewer at the peak
            out = np.empty((K, M1, M2, M1, M2), dtype=complex)
        out[k] = acc.reshape(M1, M1, M2, M2).transpose(0, 2, 1, 3)
    return out.reshape(K, N**n, N**n)


def _khatri_rao(f: np.ndarray) -> np.ndarray:
    """Per word, the flat Kronecker product of its factors, site 0 leftmost."""
    out = f[:, 0]
    for s in range(1, f.shape[1]):
        out = (out[:, :, None, :, None] * f[:, s, None, :, None, :]
               ).reshape(len(f), out.shape[1] * f.shape[2], -1)
    return out.reshape(len(f), -1)


def numeric_poly(p: NCPoly, rep: dict[str, np.ndarray], n_sites: int,
                 values: dict[str, complex]) -> np.ndarray:
    """Evaluate an operator polynomial on (C^N)^(tensor n_sites).

    Words are products of per-site operators from `rep` (keyed by generator
    name; the same matrices are used at every site); coefficients are
    evaluated at `values`.  Letters on different sites commute, so a word is
    the Kronecker product (site 0 leftmost) of its per-site products, with the
    identity on untouched sites.  A site outside range(n_sites) is an error.
    """
    return _contract(_compile(p.alg, [p], n_sites), rep, values)[0]


def numeric_opmatrix(M: OpMatrix, rep: dict[str, np.ndarray], n_sites: int,
                     values: dict[str, complex]) -> np.ndarray:
    """Blockwise numeric form, shape (M.n, M.n, D, D), in one contraction."""
    out = _contract(_compile(M.alg, [p for row in M.rows for p in row],
                             n_sites), rep, values)
    return out.reshape(M.n, M.n, *out.shape[1:])


def rep_residuals(alg: Presentation, rep: dict[str, np.ndarray],
                  q_val: complex) -> dict[str, float]:
    """Max-norm residual of every defining relation (and unit pair) of alg.

    Keys are human-readable: "f.e" for the rule rewriting the word f e, and
    "k.kinv=1" / "kinv.k=1" for unit pairs.
    """
    mats = {name: rep[name] for name in alg.gens}
    values = {"q": q_val, "lam": 1.0, "mu": 1.0}
    out: dict[str, float] = {}
    for (g1, g2), rhs in alg.rules.items():
        lhs_num = mats[alg.gens[g1]] @ mats[alg.gens[g2]]
        rhs_num = np.zeros_like(lhs_num)
        for word, coeff in rhs.items():
            m = np.eye(lhs_num.shape[0], dtype=complex)
            for gi in word:
                m = m @ mats[alg.gens[gi]]
            rhs_num += complex(coeff.evaluate(values)) * m
        out[f"{alg.gens[g1]}.{alg.gens[g2]}"] = float(
            np.max(np.abs(lhs_num - rhs_num)))
    eye = np.eye(next(iter(mats.values())).shape[0], dtype=complex)
    for i, j in alg.unit_pairs:
        gi, gj = alg.gens[i], alg.gens[j]
        out[f"{gi}.{gj}=1"] = float(np.max(np.abs(mats[gi] @ mats[gj] - eye)))
        out[f"{gj}.{gi}=1"] = float(np.max(np.abs(mats[gj] @ mats[gi] - eye)))
    return out


# --------------------------------------------------------------------------
# exchange relation, monodromy, transfer
# --------------------------------------------------------------------------

def _values(q_val: complex, lam: complex) -> dict[str, complex]:
    return {"q": q_val, "lam": lam, "mu": 1.0}


@lru_cache(maxsize=32)
def _rll_program(R_builder, L_builder, alg: Presentation) -> _Program:
    return _compile(alg, [p for row in rll_defect(
        R_builder, L_builder, alg.free_copy()).rows for p in row], 1)


def rll_residual_num(R_builder, L_builder, alg: Presentation,
                     rep: dict[str, np.ndarray], x: complex, y: complex,
                     q_val: complex) -> float:
    """Frobenius norm of R12(x/y) L13(x) L23(y) - L23(y) L13(x) R12(x/y).

    Evaluates the exact exchange residual `rll_defect` over alg.free_copy()
    (built and compiled once per (R, L, alg)) at lam = x/y, mu = y: a
    4N x 4N problem of two auxiliary legs and one quantum leg.
    """
    values = {"q": q_val, "lam": x / y, "mu": y}
    return float(np.linalg.norm(
        _contract(_rll_program(R_builder, L_builder, alg), rep, values)))


@lru_cache(maxsize=32)
def _transfer_program(L_builder, alg: Presentation, n_sites: int) -> _Program:
    return _compile(alg, [transfer(L_builder, alg.free_copy(), n_sites)],
                    n_sites)


def _transfers(L_builder, alg: Presentation, rep: dict[str, np.ndarray],
               n_sites: int, q_val: complex, lams) -> list[np.ndarray]:
    """T(lam) at each of lams, from one exact transfer built over
    alg.free_copy(), so the numbers never depend on the rewrite rules."""
    prog = _transfer_program(L_builder, alg, n_sites)
    return [_contract(prog, rep, _values(q_val, lam))[0] for lam in lams]


def monodromy_num(L_builder, alg: Presentation, rep: dict[str, np.ndarray],
                  n_sites: int, lam: complex, q_val: complex) -> np.ndarray:
    """Ordered product L(site n-1) ... L(site 0), shape (2, 2, D, D)."""
    return numeric_opmatrix(monodromy(L_builder, alg.free_copy(), n_sites),
                            rep, n_sites, _values(q_val, lam))


def transfer_num(L_builder, alg: Presentation, rep: dict[str, np.ndarray],
                 n_sites: int, lam: complex, q_val: complex) -> np.ndarray:
    """T(lam), the trace of the monodromy, as a D x D matrix."""
    return _transfers(L_builder, alg, rep, n_sites, q_val, [lam])[0]


def transfer_commutator_num(L_builder, alg: Presentation,
                            rep: dict[str, np.ndarray], n_sites: int,
                            x: complex, y: complex, q_val: complex) -> float:
    """|| [T(x), T(y)] ||_F / (||T(x)||_F ||T(y)||_F)."""
    Tx, Ty = _transfers(L_builder, alg, rep, n_sites, q_val, (x, y))
    num = np.linalg.norm(Tx @ Ty - Ty @ Tx)
    return float(num / (np.linalg.norm(Tx) * np.linalg.norm(Ty)))


def qdst_charge_fit(alg: Presentation, rep: dict[str, np.ndarray],
                    n_sites: int, q_val: complex) -> dict[str, float]:
    """Laurent-coefficient fit of the self-trapping transfer matrix.

    T(lam) is a Laurent polynomial of degree at most n_sites in lam; sampling
    it on 2 n_sites + 1 roots of unity and taking the discrete Fourier
    transform recovers the matrix coefficients exactly.  The lam^(-n) one
    must equal the numeric charge Q and the lam^(2-n) one Q H.
    """
    n = n_sites
    M = 2 * n + 1
    sums = {-n: 0j, 2 - n: 0j}   # d -> M times the lam^d coefficient
    for j in range(M):
        T = transfer_num(L_qdst, alg, rep, n,
                         cmath.exp(2j * math.pi * j / M), q_val)
        for d in sums:
            sums[d] += T * cmath.exp(-2j * math.pi * j * d / M)
        del T   # one sample alive while the next one is built
    Q, H = qdst_charges(alg, n)
    vals = _values(q_val, 1.0)
    fit = {}
    for key, d, charge in (("lam^-n vs Q", -n, Q),
                           ("lam^(2-n) vs QH", 2 - n, Q * H)):
        coeff = sums.pop(d)
        coeff /= M
        fit[key] = float(np.linalg.norm(
            coeff - numeric_poly(charge, rep, n, vals)))
    return fit


def spectral_points(seed: int, count: int) -> np.ndarray:
    """Seeded sample of evaluation points uniform on the unit circle."""
    rng = np.random.default_rng(seed)
    return np.exp(2j * math.pi * rng.random(count))
