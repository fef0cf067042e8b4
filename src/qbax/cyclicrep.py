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

Everything else is generic numeric evaluation: relation residuals, and
compiled exact polynomials.  Each generator matrix has one nonzero per row
(Weyl's clock-and-shift form), so each word is a weighted column map of
(C^N)^(tensor n), cached per representation in layers of equal maps.  On
them rest the exact 4N x 4N exchange residual R12 L13 L23 - L23 L13 R12,
transfer commutators taken layer by layer, and a Fourier charge fit.
"""

from __future__ import annotations

import cmath
import math
import random
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

_CACHED_REPS = 8   # representations whose maps a compiled program keeps


class _Program(NamedTuple):
    """Exact polynomials compiled to arrays that no representation enters,
    plus what each of the last few representations makes of them."""
    alg: Presentation
    gens: tuple[str, ...]   # generators that occur, then the identity
    n_sites: int
    letters: np.ndarray     # (W, width) gens index * n_sites + site, padded
    bounds: np.ndarray      # words of entry k are bounds[k]:bounds[k + 1]
    term_word: np.ndarray   # (T,) word of each coefficient term
    term_val: np.ndarray    # (T,) its rational value
    powers: tuple           # (variable, exponents, index per term)
    maps: dict              # rep content -> _Maps, least recently used first


class _Maps(NamedTuple):
    """Row r of a word in layer g has its one nonzero in column cols[g, r]."""
    weight: np.ndarray    # (W, D) each word's nonzero in each row
    flat: np.ndarray      # (2 W D,) float index of its parts in (K, D, D)
    member: np.ndarray    # (G, W) 1 where a word is in a layer
    cols: np.ndarray      # (G, D)


def _compile(alg: Presentation, polys: list[NCPoly], n_sites: int) -> _Program:
    slots: dict[int, int] = {}
    words, bounds, term_word, term_val, expos = [], [0], [], [], []
    for p in polys:
        for word, coeff in p.terms.items():
            bad = [site for site, _ in word if not 0 <= site < n_sites]
            if bad:
                raise ValueError(f"site {bad[0]} is outside range({n_sites})")
            words.append([slots.setdefault(gi, len(slots)) * n_sites + site
                          for site, gi in word])
            terms = coeff.terms
            term_word += [len(words) - 1] * len(terms)
            term_val += map(complex, terms.values())
            expos += terms
        bounds.append(len(words))
    width = max(map(len, words), default=0)
    pad = [w + [len(slots) * n_sites] * (width - len(w)) for w in words]
    expo = np.array(expos, dtype=int).reshape(len(expos), len(alg.vars))
    return _Program(
        alg, tuple(alg.gens[gi] for gi in slots), n_sites,
        np.array(pad, dtype=np.intp).reshape(len(pad), width),
        np.array(bounds), np.array(term_word, dtype=np.intp),
        np.array(term_val, dtype=complex),
        tuple((v, *np.unique(expo[:, j], return_inverse=True))
              for j, v in enumerate(alg.vars) if expo[:, j].any()), {})


def _evaluate(prog: _Program, rep: dict[str, np.ndarray],
              values: dict) -> tuple[_Maps, np.ndarray]:
    """`prog`'s words in `rep` as column maps, with a weight per row, and their
    coefficients (*P, W) at the points P `values` broadcast to.  The maps of
    the last _CACHED_REPS reps are kept, keyed by the content of the matrices
    used: an array changed in place is a new rep, equal arrays the same."""
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
    shape = np.broadcast(*values.values()).shape
    term = prog.term_val * np.ones((*shape, 1))   # every point, from the start
    for v, expo, index in prog.powers:   # each distinct power once
        term = term * np.power.outer(np.asarray(values[v], dtype=complex),
                                     expo).take(index, -1)
    W, P = len(prog.letters), math.prod(shape)
    at = prog.term_word if P == 1 else (
        W * np.arange(P)[:, None] + prog.term_word).ravel()
    coeffs = (np.bincount(at, term.real.ravel(), P * W)
              + 1j * np.bincount(at, term.imag.ravel(), P * W))
    N = shapes[0][0]   # matrices N x N: N, dtypes and bytes fix them
    mats = [np.asarray(rep[g]) for g in prog.gens]
    key = (N, *[(m.dtype, m.tobytes()) for m in mats])
    maps = prog.maps.pop(key, None)
    if maps is None:
        mat = np.array(mats + [np.eye(N)])   # the identity pads words
        gcol = (mat != 0).argmax(axis=2)
        gval = np.take_along_axis(mat, gcol[..., None], 2)[..., 0]
        many = np.count_nonzero(mat, axis=(1, 2)) > np.count_nonzero(gval, 1)
        if many.any():   # a row with two nonzeros keeps only one in gval
            raise ValueError(f"generator {prog.gens[many.argmax()]!r} has a "
                             "row with more than one nonzero")
        n, D = prog.n_sites, N**prog.n_sites
        place = N ** np.arange(n - 1, -1, -1)[:, None]
        digit = np.arange(D) // place % N   # (n, D) per site and row
        # a letter's map moves one base-N digit, site 0 leading: (gens, n, D)
        lcol = (np.arange(D) + (gcol[:, digit] - digit) * place).reshape(-1)
        lval = gval[:, digit].reshape(-1)
        col = np.broadcast_to(np.arange(D), (W, D))
        val = np.ones(col.shape, dtype=complex)
        for at in (prog.letters * D).T:
            at = at[:, None] + col
            val = val * lval[at]
            col = lcol[at]
        seen: dict[bytes, int] = {}   # a map -> its layer, by first use
        layer = [seen.setdefault(c.tobytes(), len(seen)) for c in col]
        cols = np.empty((len(seen), D), dtype=np.intp)
        cols[layer] = col
        entry = np.repeat(np.arange(len(prog.bounds) - 1),
                          np.diff(prog.bounds))[:, None]
        flat = (entry * D + np.arange(D)) * D + col
        maps = _Maps(val, (2 * flat[..., None] + (0, 1)).reshape(-1),
                     (np.arange(len(cols))[:, None] == layer).astype(float),
                     cols)
        for a in maps:
            a.flags.writeable = False   # every later caller shares them
    prog.maps[key] = maps
    for old in list(prog.maps)[:-_CACHED_REPS]:
        prog.maps.pop(old, None)
    return maps, coeffs.reshape(*shape, W)


def _contract(prog: _Program, rep: dict[str, np.ndarray],
              values: dict) -> np.ndarray:
    """The compiled entries on (C^N)^(tensor n_sites) at each point, shape
    (*P, K, D, D): one bincount of the words' weighted nonzeros into the
    result's float view."""
    maps, coeff = _evaluate(prog, rep, values)
    (_, D), K = maps.weight.shape, len(prog.bounds) - 1
    size, P = 2 * K * D * D, math.prod(coeff.shape[:-1])
    val = (coeff[..., None] * maps.weight).view(float).reshape(-1)
    at = maps.flat if P == 1 else (
        size * np.arange(P)[:, None] + maps.flat).ravel()
    out = np.bincount(at, val, P * size).view(complex)
    return out.reshape(*coeff.shape[:-1], K, D, D)


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
                     rep: dict[str, np.ndarray], x, y, q_val: complex):
    """Frobenius norm of R12(x/y) L13(x) L23(y) - L23(y) L13(x) R12(x/y).

    Evaluates the exact exchange residual `rll_defect` over alg.free_copy()
    (built and compiled once per (R, L, alg)) at lam = x/y, mu = y: a
    4N x 4N problem of two auxiliary legs and one quantum leg.  Arrays x
    and y give an array of norms, one per point, from one evaluation.
    """
    lam = np.divide(x, y)
    out = _contract(_rll_program(R_builder, L_builder, alg), rep,
                    {"q": q_val, "lam": lam, "mu": y}).view(float)
    norm = np.sqrt((out * out).reshape(*lam.shape, -1).sum(-1))
    return norm if norm.ndim else float(norm)


@lru_cache(maxsize=32)
def _transfer_program(L_builder, alg: Presentation, n_sites: int) -> _Program:
    return _compile(alg, [transfer(L_builder, alg.free_copy(), n_sites)],
                    n_sites)


def monodromy_num(L_builder, alg: Presentation, rep: dict[str, np.ndarray],
                  n_sites: int, lam: complex, q_val: complex) -> np.ndarray:
    """Ordered product L(site n-1) ... L(site 0), shape (2, 2, D, D)."""
    return numeric_opmatrix(monodromy(L_builder, alg.free_copy(), n_sites),
                            rep, n_sites, _values(q_val, lam))


def transfer_num(L_builder, alg: Presentation, rep: dict[str, np.ndarray],
                 n_sites: int, lam: complex, q_val: complex) -> np.ndarray:
    """T(lam), the trace of the monodromy, as a D x D matrix."""
    return _contract(_transfer_program(L_builder, alg, n_sites), rep,
                     _values(q_val, lam))[0]


def _norm2(index, val) -> float:
    """Squared Frobenius norm of the matrix with val summed at flat index."""
    re, im = (np.bincount(index.ravel(), v.ravel()) for v in (val.real, val.imag))
    return float(re @ re + im @ im)


def transfer_commutator_num(L_builder, alg: Presentation,
                            rep: dict[str, np.ndarray], n_sites: int,
                            x: complex, y: complex, q_val: complex) -> float:
    """|| [T(x), T(y)] ||_F / (||T(x)||_F ||T(y)||_F), without D x D products.

    T(x) = sum_g diag(x_g) S_g over the transfer's layers, S_g the 0/1 matrix
    of map cols[g].  As S_g diag(w) = diag(w[cols[g]]) S_g, the commutator is
    sum_{g,h} diag(x_g y_h[cols[g]] - y_g x_h[cols[g]]) S_g S_h: G^2 D entries,
    scattered with T(x) and T(y) in blocks of rows, at most 2^13 entries and
    2^13 dense elements each (flat indices from the block's first row, so
    one block at small D); the squared norms add up."""
    prog = _transfer_program(L_builder, alg, n_sites)
    maps, coeffs = _evaluate(prog, rep, _values(q_val, np.array([x, y])))
    vx, vy = (maps.member @ (c[:, None] * maps.weight) for c in coeffs)
    G, D = (cols := maps.cols).shape
    step, comm, nx, ny = max(1, 2**13 // max(D, G * G)), 0.0, 0.0, 0.0
    for r in range(0, D, step):
        at, xr, yr = cols[:, r:r + step], vx[:, r:r + step], vy[:, r:r + step]
        rows = D * np.arange(at.shape[1])
        val = vy.take(at, axis=1) * xr - vx.take(at, axis=1) * yr
        comm += _norm2(cols.take(at, axis=1) + rows, val)
        nx += _norm2(at + rows, xr)
        ny += _norm2(at + rows, yr)
    return math.sqrt(comm / nx / ny)


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


def spectral_points(seed: int | random.Random, count: int) -> np.ndarray:
    """count points e^(2 pi i random()) on the unit circle, in order from
    random.Random(seed), or from seed when it is one."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return np.array([cmath.exp(2j * math.pi * rng.random()) for _ in range(count)])
