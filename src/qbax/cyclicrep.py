"""Cyclic finite-dimensional representations at q a root of unity.

At q = exp(2 pi i / N) with odd N, the Weyl pair and the q-oscillator
algebra admit N-dimensional representations built from the clock matrix
K = diag(q^j) and the cyclic shift V (V e_j = e_{j+1}):

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

The extended quantum-matrix algebra's matrices are read from the catalog's
collapse map Q: the `pullback` of the oscillator (a = e, b = c = k,
th = k^-1, d = f), so both eta invariants th.b and th.c are the identity;
along Qp and Qpp the primed quotients are represented the same way.

Everything else is evaluation of compiled exact polynomials: map images,
rule residuals x.y - rhs (`rep_residuals`, keyed by rule word), and the
exchange and transfer checks.  Each generator matrix has one nonzero per
row (Weyl's clock-and-shift form), so each word is a weighted column map of
(C^N)^(tensor n), cached per representation in layers of equal maps.  Each
coefficient term compiles to its power of q and its monomial in the other
variables; per value of q a program keeps one (monomials x words) table
with q folded in, so a spectral point costs the powers of lam and mu and
one product with the table.  On them rest the exact 4N x 4N exchange
residual R12 L13 L23 - L23 L13 R12, transfer commutators taken layer by
layer, and a charge fit from the transfer's word coefficients.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .catalog import MAPS
from .coeff import Coefficient
from .ncpoly import GenMap, NCPoly, Presentation
from .lmatrices import (OpMatrix, L_qdst, monodromy, qdst_charges, rll_defect,
                        transfer)

__all__ = [
    "root_of_unity",
    "clock",
    "shift",
    "weyl_rep",
    "qosc_rep",
    "glq2ext_rep",
    "pullback",
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


def root_of_unity(N: int) -> complex:
    """q = exp(2 pi i / N); N must be odd >= 3."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    return cmath.exp(2j * math.pi / N)


def clock(N: int, q: complex) -> np.ndarray:
    return np.diag(q ** np.arange(N)).astype(complex)


def shift(N: int) -> np.ndarray:
    """V e_j = e_{j+1 mod N}: ones on the subdiagonal (and corner)."""
    return np.roll(np.eye(N, dtype=complex), 1, axis=0)


def weyl_rep(N: int, z: complex = 1.0) -> dict[str, np.ndarray]:
    """Clock-and-shift Weyl pair with central value u u~ = z."""
    if z == 0:
        raise ValueError("z must be nonzero (u~ = z u^-1 would vanish)")
    q = root_of_unity(N)
    u = clock(N, q)
    v = shift(N)
    return {
        "u": u,
        "ut": z * np.linalg.inv(u),
        "v": v,
        "vinv": np.linalg.inv(v),
    }


def qosc_rep(N: int, c: complex = 2.0 + 0.5j) -> dict[str, np.ndarray]:
    """Cyclic q-oscillator representation with central value e f - q k^2 = c."""
    q = root_of_unity(N)
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


def glq2ext_rep(N: int, c: complex = 2.0 + 0.5j) -> dict[str, np.ndarray]:
    """Extended quantum-matrix generators through the oscillator collapse."""
    return pullback(MAPS["Q"], qosc_rep(N, c))


# --------------------------------------------------------------------------
# generic numeric evaluation
# --------------------------------------------------------------------------

_CACHED_REPS = 8   # representations whose maps a compiled program keeps


class _Program(NamedTuple):
    """Exact polynomials compiled to arrays that no representation enters,
    plus what each of the last few q values and representations make of
    them."""
    alg: Presentation
    gens: tuple[str, ...]   # generators that occur, then the identity
    n_sites: int
    letters: np.ndarray     # (W, width) gens index * n_sites + site, padded
    bounds: np.ndarray      # words of entry k are bounds[k]:bounds[k + 1]
    needs: tuple[str, ...]  # the variables that occur, q last
    monos: tuple            # (variable but q, (M,) its exponents) that occur
    terms: tuple            # (2 T,) float index in (M, W), (T,) value, q power
    shape: tuple            # (M, W) of a q table
    tables: dict            # q -> (M, W) coefficients, least recent first
    maps: dict              # rep content -> _Maps, least recently used first


class _Maps(NamedTuple):
    """Row r of a word in layer g has its one nonzero in column cols[g, r]."""
    weight: np.ndarray    # (W, D) each word's nonzero in each row
    flat: np.ndarray      # (2 W D,) float index of its parts in (K, D, D)
    member: np.ndarray    # (G, W) 1 where a word is in a layer
    cols: np.ndarray      # (G, D)


def _compile(alg: Presentation, polys: list[NCPoly], n_sites: int) -> _Program:
    """Each coefficient term becomes its monomial without q, its word, its
    rational value and its power of q."""
    slots: dict[int, int] = {}
    monos: dict[tuple, int] = {}   # exponents but q's -> monomial index
    j = alg.vars.index("q") if "q" in alg.vars else len(alg.vars)
    words, bounds, terms = [], [0], []
    for p in polys:
        for word, coeff in p.terms.items():
            bad = [site for site, _ in word if not 0 <= site < n_sites]
            if bad:
                raise ValueError(f"site {bad[0]} is outside range({n_sites})")
            words.append([slots.setdefault(gi, len(slots)) * n_sites + site
                          for site, gi in word])
            terms += [(monos.setdefault(e[:j] + e[j + 1:], len(monos)),
                       len(words) - 1, complex(v), sum(e[j:j + 1]))
                      for e, v in coeff.terms.items()]
        bounds.append(len(words))
    width = max(map(len, words), default=0)
    pad = [w + [len(slots) * n_sites] * (width - len(w)) for w in words]
    mono, word, val, q_pow = list(zip(*terms)) or [()] * 4
    at = np.array(mono, dtype=np.intp) * len(words) + np.array(word, np.intp)
    others = alg.vars[:j] + alg.vars[j + 1:]
    expo = np.array(list(monos), dtype=int).reshape(len(monos), len(others))
    occur = tuple((v, expo[:, i]) for i, v in enumerate(others)
                  if expo[:, i].any())
    return _Program(
        alg, tuple(alg.gens[gi] for gi in slots), n_sites,
        np.array(pad, dtype=np.intp).reshape(len(pad), width),
        np.array(bounds), tuple(v for v, _ in occur) + ("q",) * any(q_pow),
        occur, ((2 * at[:, None] + (0, 1)).ravel(), np.array(val, dtype=complex),
                np.array(q_pow, dtype=int)), (len(monos), len(words)), {}, {})


def _cached(cache: dict, key, build):
    """cache[key], built on a miss; the _CACHED_REPS most recent keys stay."""
    value = cache.pop(key, None)
    cache[key] = value = build() if value is None else value
    if len(cache) > _CACHED_REPS:
        del cache[next(iter(cache))]
    return value


def _maps(prog: _Program, mats: list[np.ndarray], N: int) -> _Maps:
    """`prog`'s words in the generator matrices `mats` as column maps."""
    mat = np.array(mats + [np.eye(N)])   # the identity pads words
    nonzero = mat != 0
    many = nonzero.sum(2).max(1) > 1
    if many.any():
        raise ValueError(f"generator {prog.gens[many.argmax()]!r} has a "
                         "row with more than one nonzero")
    gcol, gval = nonzero.argmax(2), mat.sum(2)   # each row's one nonzero
    n, D, W = prog.n_sites, N**prog.n_sites, len(prog.letters)
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
    entry = np.repeat(np.arange(len(prog.bounds) - 1), np.diff(prog.bounds))
    flat = (entry[:, None] * D + np.arange(D)) * D + col
    maps = _Maps(val, (2 * flat[..., None] + (0, 1)).reshape(-1),
                 (np.arange(len(cols))[:, None] == layer).astype(float), cols)
    for a in maps:
        a.flags.writeable = False   # every later caller shares them
    return maps


def _evaluate(prog: _Program, rep: dict[str, np.ndarray],
              values: dict) -> tuple[_Maps, np.ndarray]:
    """`prog`'s words in `rep` as column maps, with a weight per row, and their
    coefficients (*P, W) at the points P the values of the variables it uses
    broadcast to (q one number for all).  The maps of the last _CACHED_REPS
    reps are kept, keyed by the content of the matrices used: an array
    changed in place is a new rep, equal arrays the same; so are the tables
    of the last q values."""
    shapes = sorted({m.shape for m in map(np.asarray, rep.values())})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError("rep matrices must all be square and of one size, "
                         f"got shapes {shapes}")
    missing = [g for g in prog.gens if g not in rep]
    if missing:
        raise KeyError(f"rep has no matrix for generator {missing[0]!r} "
                       f"of {prog.alg.name}")
    missing = [v for v in prog.needs if v not in values]
    if missing:
        raise KeyError(f"no numeric value for {missing}")
    q = complex(values["q"]) if "q" in prog.needs else 1.0
    at, val, q_pow = prog.terms
    table = _cached(prog.tables, q, lambda: np.bincount(   # (M, W) at this q
        at, (val * q ** q_pow).view(float), 2 * math.prod(prog.shape)).view(
            complex).reshape(prog.shape))
    mono = 1.0   # (*P, M) each point's monomials, if a variable occurs
    for v, expo in prog.monos:
        mono = mono * np.power.outer(np.asarray(values[v], dtype=complex), expo)
    N = shapes[0][0]   # matrices N x N: N, dtypes and bytes fix them
    mats = [np.asarray(rep[g]) for g in prog.gens]
    maps = _cached(prog.maps, (N, *[(m.dtype, m.tobytes()) for m in mats]),
                   lambda: _maps(prog, mats, N))
    return maps, mono @ table if prog.monos else table.sum(0)


def _contract(prog: _Program, rep: dict[str, np.ndarray],
              values: dict) -> np.ndarray:
    """The compiled entries on (C^N)^(tensor n_sites) at each point, shape
    (*P, K, D, D)."""
    return _scatter(prog, *_evaluate(prog, rep, values))


def _scatter(prog: _Program, maps: _Maps, coeff: np.ndarray) -> np.ndarray:
    """The entries whose words have coefficients `coeff` (*P, W), shape
    (*P, K, D, D): one bincount of the words' weighted nonzeros into the
    result's float view."""
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


@lru_cache(maxsize=32)
def _image_program(m: GenMap) -> _Program:
    return _compile(m.target, list(m.images.values()), 1)


def pullback(m: GenMap, rep: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """m's source represented through m: each covered generator's matrix is
    its image evaluated in `rep`, of m's target, at one site.  A two-leg map
    or an image with a variable in a coefficient is refused."""
    return dict(zip([m.source.gens[i] for i in m.images],
                    _contract(_image_program(m), rep, {})))


@lru_cache(maxsize=32)
def _rule_program(alg: Presentation) -> _Program:
    free, one = alg.free_copy(), Coefficient.one(alg.vars)
    return _compile(free, [NCPoly(free, {((0, x), (0, y)): one} | {
        tuple((0, g) for g in w): -c for w, c in rhs.items()},
        normalized=True) for (x, y), rhs in alg.rules.items()], 1)


def rep_residuals(alg: Presentation, rep: dict[str, np.ndarray],
                  q_val: complex) -> dict[str, float]:
    """Max-norm residual x.y - rhs of every rule of alg, a unit pair's
    x.y -> 1 and y.x -> 1 included, keyed by rule word ("f.e")."""
    out = _contract(_rule_program(alg), rep, {"q": q_val})
    return {f"{alg.gens[x]}.{alg.gens[y]}": float(r) for (x, y), r
            in zip(alg.rules, np.abs(out).max((1, 2)))}


# --------------------------------------------------------------------------
# exchange relation, monodromy, transfer
# --------------------------------------------------------------------------

def _values(q_val: complex, lam, mu=1.0) -> dict[str, complex]:
    """The variables at a spectral point: q and the point, numbers or arrays,
    must be finite and nonzero."""
    for z in (q_val, lam, mu):
        for v in [z] if isinstance(z, (int, float, complex)) else (
                np.ravel(z).tolist()):
            if not (cmath.isfinite(v) and v != 0):
                raise ValueError("spectral points and q must be finite and "
                                 f"nonzero, got {v!r}")
    return {"q": q_val, "lam": lam, "mu": mu}


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
    vals = _values(q_val, x, y)   # x is checked as lam, then replaced
    vals["lam"] = lam = np.divide(x, y)
    out = _contract(_rll_program(R_builder, L_builder, alg), rep, vals)
    if not lam.ndim:
        return math.sqrt(np.vdot(out, out).real)
    out = out.view(float)
    return np.sqrt((out * out).reshape(*lam.shape, -1).sum(-1))


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
    vx, vy = ((maps.member @ (c[:, None] * maps.weight).view(float)).view(
        complex) for c in coeffs)   # a real product: member is 0 or 1
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

    T(lam) and each of its word coefficients are Laurent polynomials of
    degree at most n_sites in lam: sampled on 2 n_sites + 1 roots of unity,
    the coefficients' discrete Fourier transform recovers them exactly.  Only
    the lam^(-n) and lam^(2-n) rows become matrices, to equal Q and Q H.
    """
    n, M = n_sites, 2 * n_sites + 1
    j, prog = np.arange(M), _transfer_program(L_qdst, alg, n)
    maps, coeff = _evaluate(prog, rep, _values(
        q_val, np.exp(2j * math.pi * j / M)))   # (M, W)
    rows = np.exp(-2j * math.pi * np.outer([-n, 2 - n], j) / M) @ coeff / M
    charges = _contract(_charge_program(alg, n), rep, _values(q_val, 1.0))
    return {key: float(np.linalg.norm(_scatter(prog, maps, row)[0] - charge))
            for key, row, charge in zip(("lam^-n vs Q", "lam^(2-n) vs QH"),
                                        rows, charges)}


@lru_cache(maxsize=32)
def _charge_program(alg: Presentation, n_sites: int) -> _Program:
    Q, H = qdst_charges(alg, n_sites)
    return _compile(alg, [Q, Q * H], n_sites)


def spectral_points(seed: int | random.Random, count: int) -> np.ndarray:
    """count points e^(2 pi i random()) on the unit circle, in order from
    random.Random(seed), or from seed when it is one."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return np.array([cmath.exp(2j * math.pi * rng.random()) for _ in range(count)])
