import cmath
import math
import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qbax import cyclicrep
from qbax.catalog import Aq, GLq2, GLq2Ext, Wq
from qbax.coeff import Coefficient
from qbax.cyclicrep import (
    _CACHED_REPS,
    _compile,
    _contract,
    _evaluate,
    _rll_program,
    _transfer_program,
    glq2ext_rep,
    monodromy_num,
    numeric_opmatrix,
    numeric_poly,
    qdst_charge_fit,
    qosc_rep,
    rep_residuals,
    rll_residual_num,
    root_of_unity,
    shift,
    spectral_points,
    transfer_commutator_num,
    transfer_num,
    weyl_rep,
)
from qbax.lmatrices import (PAIRINGS, L_ext_hat, L_qdst, L_weyl, R_hat, R_sym,
                            monodromy, rll_defect, transfer)
from qbax.ncpoly import OpMatrix, Operator, random_poly
from qbax.registry import _REP_FACTORIES


def test_root_of_unity_validation():
    assert abs(root_of_unity(5) ** 5 - 1) < 1e-14
    with pytest.raises(ValueError):
        root_of_unity(4)  # even
    with pytest.raises(ValueError):
        root_of_unity(1)


def test_rep_constructors_reject_degenerate_input():
    with pytest.raises(ValueError):
        weyl_rep(5, z=0.0)
    q = root_of_unity(5)
    with pytest.raises(ValueError):
        qosc_rep(5, c=-q)  # a raising weight c + q^(2j-1) vanishes


def test_shift_matrix_is_cyclic():
    V = shift(4)
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.allclose(V @ e0, [0, 1, 0, 0])
    assert np.allclose(np.linalg.matrix_power(V, 4), np.eye(4))


@pytest.mark.parametrize("N", [3, 5])
def test_relation_residuals(N):
    q = root_of_unity(N)
    for alg, rep in ((Wq, weyl_rep(N)), (Aq, qosc_rep(N)),
                     (GLq2Ext, glq2ext_rep(N))):
        res = rep_residuals(alg, rep, q)
        worst = max(res.values())
        assert worst < 1e-12, f"{alg.name}: {res}"


def test_glq2ext_eta_invariants_are_identity():
    rep = glq2ext_rep(5)
    assert np.allclose(rep["th"] @ rep["b"], np.eye(5))
    assert np.allclose(rep["th"] @ rep["c"], np.eye(5))


def test_numeric_poly_against_explicit_kron():
    N = 3
    q = root_of_unity(N)
    rep = weyl_rep(N)
    p = Wq.gen("u", 0) * Wq.gen("v", 1) * Wq.param("lam", 2)
    got = numeric_poly(p, rep, 2, {"q": q, "lam": 2.0, "mu": 1.0})
    want = 4.0 * np.kron(rep["u"], rep["v"])
    assert np.max(np.abs(got - want)) < 1e-13
    # letters on one site multiply in word order (u v != v u here)
    p = Wq.gen("u", 0) * Wq.gen("v", 0) * Wq.gen("v", 1)
    got = numeric_poly(p, rep, 2, {"q": q, "lam": 1.0, "mu": 1.0})
    want = np.kron(rep["u"] @ rep["v"], rep["v"])
    assert np.max(np.abs(got - want)) < 1e-13


def _numeric_poly_by_terms(p, rep, n_sites, values):
    """Reference evaluator: one Kronecker product of per-site factors per
    term, each weighted by its evaluated coefficient.  Also returns the sum
    of the terms' max-norms, the scale of any summation order's rounding."""
    N = next(iter(rep.values())).shape[0]
    eye = np.eye(N, dtype=complex)
    out = np.zeros((N**n_sites, N**n_sites), dtype=complex)
    scale = 0.0
    for word, coeff in p.terms.items():
        factors = [eye] * n_sites
        for site, gi in word:
            factors[site] = factors[site] @ rep[p.alg.gens[gi]]
        term = complex(coeff.evaluate(values)) * reduce(np.kron, factors)
        out += term
        scale += np.max(np.abs(term))
    return out, scale


def _oracle_defect(got, p, rep, n_sites, values):
    """max |got - oracle| relative to the oracle's term scale."""
    want, scale = _numeric_poly_by_terms(p, rep, n_sites, values)
    assert scale > 0
    return np.max(np.abs(got - want)) / scale


def _oracle_vals(N, lam=0.7 - 0.2j, mu=0.4 + 0.9j):
    return {"q": root_of_unity(N), "lam": lam, "mu": mu}


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
@pytest.mark.parametrize("alg", [Wq, Aq, GLq2Ext, GLq2], ids=lambda a: a.name)
def test_contraction_matches_the_per_term_oracle_on_random_input(alg, n_sites,
                                                                 N):
    rep = _REP_FACTORIES[alg.name](N)
    vals = _oracle_vals(N)
    rng = random.Random(f"contract-{alg.name}-{n_sites}-{N}")
    polys = [random_poly(alg, rng, n_terms=12, max_len=4, n_sites=n_sites)
             for _ in range(4)]
    if N == 3 and n_sites > 1:   # more words than one chunk of N^2
        assert max(len(p.terms) for p in polys) > N * N
    for p in polys:
        got = numeric_poly(p, rep, n_sites, vals)
        assert _oracle_defect(got, p, rep, n_sites, vals) <= 1e-12
    M = OpMatrix(alg, [polys[:2], polys[2:]])
    got = numeric_opmatrix(M, rep, n_sites, vals)
    for i in range(2):
        for j in range(2):
            assert _oracle_defect(got[i, j], M[i][j], rep, n_sites,
                                  vals) <= 1e-12, (i, j)


@pytest.mark.parametrize("N", [3, 5])
def test_contraction_matches_the_oracle_on_the_free_rll_residuals(N):
    # each pairing's own residual (cancels to rounding) and the one with
    # the other kernel (mostly O(1)), all 16 entries in one contraction
    vals = _oracle_vals(N)
    for name, R, L, alg in PAIRINGS:
        rep = _REP_FACTORIES[alg.name](N)
        for kernel in dict.fromkeys((R, R_sym, R_hat)):
            res = rll_defect(kernel, L, alg.free_copy())
            got = numeric_opmatrix(res, rep, 1, vals)
            assert got.shape == (4, 4, N, N)
            for i, j, p in res.nonzero_entries():
                assert _oracle_defect(got[i, j], p, rep, 1,
                                      vals) <= 1e-12, (name, i, j)
            for i in range(4):
                for j in range(4):
                    assert res[i][j].terms or not got[i, j].any()


@pytest.mark.parametrize("name", ["ext-hat", "osc-hat", "qdst"])
def test_contraction_matches_the_oracle_on_three_site_transfers(name):
    N, n = 3, 3
    _, _, L, alg = next(p for p in PAIRINGS if p[0] == name)
    rep = _REP_FACTORIES[alg.name](N)
    vals = _oracle_vals(N)
    T = transfer(L, alg.free_copy(), n)
    got = numeric_poly(T, rep, n, vals)
    assert _oracle_defect(got, T, rep, n, vals) <= 1e-12
    # all four monodromy entries in one contraction (K > 1 at 3 sites)
    M = monodromy(L, alg.free_copy(), n)
    got = numeric_opmatrix(M, rep, n, vals)
    for i, j, p in M.nonzero_entries():
        assert _oracle_defect(got[i, j], p, rep, n, vals) <= 1e-12, (i, j)


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_contraction_of_zero_and_constant(n_sites):
    N = 3
    rep = weyl_rep(N)
    vals = _oracle_vals(N)
    zero = numeric_poly(Wq.zero(), rep, n_sites, vals)
    assert zero.shape == (N**n_sites, N**n_sites) and not zero.any()
    const = Wq.param("lam", 2, scale=3)
    got = numeric_poly(const, rep, n_sites, vals)
    assert _oracle_defect(got, const, rep, n_sites, vals) <= 1e-12
    assert np.allclose(got, 3 * vals["lam"] ** 2 * np.eye(N**n_sites))
    M = numeric_opmatrix(OpMatrix.identity(Wq, 2), rep, n_sites, vals)
    assert np.array_equal(M[0, 0], np.eye(N**n_sites)) and not M[0, 1].any()


def test_numeric_poly_rejects_sites_outside_the_chain():
    rep = weyl_rep(3)
    vals = {"q": root_of_unity(3), "lam": 1.0, "mu": 1.0}
    for site in (2, -1):
        with pytest.raises(ValueError, match="outside range"):
            numeric_poly(Wq.gen("u", 0) * Wq.gen("v", site), rep, 2, vals)
        # raised while compiling, before the representation is looked at
        with pytest.raises(ValueError, match=r"site .* is outside range\(2\)"):
            numeric_poly(Wq.gen("v", site), {}, 2, vals)


def test_missing_generator_names_the_generator_and_the_algebra():
    rep = {k: v for k, v in weyl_rep(3).items() if k != "v"}
    vals = {"q": root_of_unity(3), "lam": 1.0, "mu": 1.0}
    with pytest.raises(KeyError, match="'v' of Wq"):
        numeric_poly(Wq.gen("u", 0) * Wq.gen("v", 1), rep, 2, vals)
    # a generator the polynomial does not use may be absent
    assert numeric_poly(Wq.gen("u", 0), rep, 1, vals).shape == (3, 3)


@pytest.mark.parametrize("bad", [np.eye(5), np.ones((3, 4)), np.ones(3),
                                 np.ones((3, 3, 3))],
                         ids=["other-size", "non-square", "vector", "3d"])
def test_rep_matrices_must_be_square_and_of_one_size(bad):
    rep = dict(weyl_rep(3), ut=bad)
    # the value set lacks lam: the shape check comes before any arithmetic
    p = Wq.gen("u", 0) * Wq.param("lam")
    with pytest.raises(ValueError, match="square and of one size"):
        numeric_poly(p, rep, 1, {"q": root_of_unity(3)})
    with pytest.raises(ValueError, match="square and of one size"):
        numeric_poly(p, {}, 1, {"q": root_of_unity(3)})


def test_missing_coefficient_value_is_named():
    rep = weyl_rep(3)
    p = Wq.gen("u", 0) * Wq.param("lam", -1)
    with pytest.raises(KeyError, match=r"no numeric value for \['lam'\]"):
        numeric_poly(p, rep, 1, {"q": root_of_unity(3)})
    # a variable that does not occur needs no value
    numeric_poly(Wq.gen("u", 0), rep, 1, {})


@pytest.mark.parametrize("L, alg, factory, N, n, cold, warm", [
    (L_qdst, Aq, qosc_rep, 3, 5, 3.0, 1.25),
    (L_ext_hat, GLq2Ext, glq2ext_rep, 7, 3, 1.75, 0.25),
], ids=["qdst-N3-5sites", "ext-hat-N7-3sites"])
def test_transfer_commutator_memory_stays_near_four_dense_matrices(
        L, alg, factory, N, n, cold, warm):
    # no transfer is built densely, and a block of rows holds at most 2^13
    # entries and 2^13 dense elements.  A cold call also builds the
    # program and the words' maps (measured 2.52 and 0.40 dense); a warm
    # one only evaluates and scatters (0.91 and 0.13 dense).  At 5 sites
    # G = 31 layers make the (G, D) layer weights the largest arrays.
    rep, q = factory(N), root_of_unity(N)
    x, y = spectral_points(9, 2)
    dense = 16 * (N**n) ** 2
    _transfer_program.cache_clear()
    for bound in (cold, warm):
        tracemalloc.start()
        try:
            res = transfer_commutator_num(L, alg, rep, n, x, y, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res < 1e-12
        assert peak <= bound * dense, (bound, peak / dense)


def test_small_transfer_commutator_is_one_block(monkeypatch):
    # at N = 3 on 3 sites (D = 27, G = 7) the whole commutator fits in one
    # block, so the commutator and each norm take one scatter
    calls = []
    real = cyclicrep._norm2

    def spy(index, val):
        calls.append(index.shape)
        return real(index, val)

    monkeypatch.setattr(cyclicrep, "_norm2", spy)
    q = root_of_unity(3)
    x, y = spectral_points(9, 2)
    res = transfer_commutator_num(L_qdst, Aq, qosc_rep(3), 3, x, y, q)
    assert res < 1e-12
    assert calls == [(7, 7, 27), (7, 27), (7, 27)]


def _monodromy_program(n_sites):
    M = monodromy(L_ext_hat, GLq2Ext.free_copy(), n_sites)
    return _compile(M.alg, [p for row in M.rows for p in row], n_sites)


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_cached_products_give_bit_identical_results(n_sites, N):
    rep = glq2ext_rep(N)
    prog = _monodromy_program(n_sites)
    points = [_oracle_vals(N, lam) for lam in spectral_points(3, 3)]
    _contract(prog, rep, points[0])
    (cached,) = prog.maps.values()
    for vals in points[1:]:
        got = _contract(prog, rep, vals)
        # a fresh program has nothing cached and builds its own products
        want = _contract(_monodromy_program(n_sites), rep, vals)
        assert np.array_equal(got, want)
    (again,) = prog.maps.values()
    assert again is cached
    assert not any(a.flags.writeable for a in cached)


def _weyl_program():
    p = Wq.gen("u", 0) * Wq.gen("v", 1) * Wq.param("lam") + Wq.gen("vinv", 1)
    return _compile(Wq, [p], 2)


def test_an_array_changed_in_place_is_a_new_representation():
    N, vals = 3, _oracle_vals(3)
    rep = weyl_rep(N)
    prog = _weyl_program()
    before = _contract(prog, rep, vals)
    rep["v"][...] = rep["v"] @ rep["v"]
    after = _contract(prog, rep, vals)
    assert np.array_equal(after, _contract(_weyl_program(), rep, vals))
    assert not np.allclose(before, after)
    assert len(prog.maps) == 2


def test_equal_arrays_in_another_dict_share_one_entry():
    vals = _oracle_vals(3)
    prog = _weyl_program()
    first = _contract(prog, weyl_rep(3), vals)
    copy = {g: m.copy() for g, m in weyl_rep(3).items()}
    assert np.array_equal(_contract(prog, copy, vals), first)
    # the key holds only the generators the program uses, and it has no ut
    assert np.array_equal(_contract(prog, weyl_rep(3, z=2.0), vals), first)
    assert len(prog.maps) == 1


def test_a_program_without_generators_keys_on_the_size():
    prog = _compile(Wq, [Wq.param("lam", 2, scale=3)], 2)
    for N in (3, 5, 3):
        vals = _oracle_vals(N)
        got = _contract(prog, weyl_rep(N), vals)[0]
        assert np.allclose(got, 3 * vals["lam"] ** 2 * np.eye(N**2))
    assert len(prog.maps) == 2


def test_the_cache_keeps_at_most_a_fixed_number_of_representations():
    vals = _oracle_vals(3)
    prog = _weyl_program()
    reps = [dict(weyl_rep(3), u=z * weyl_rep(3)["u"])
            for z in range(1, _CACHED_REPS + 4)]
    for rep in reps:
        _contract(prog, rep, vals)
        assert len(prog.maps) <= _CACHED_REPS
    assert len(prog.maps) == _CACHED_REPS
    kept = [id(m) for m in prog.maps.values()]
    _contract(prog, reps[-1], vals)   # the newest is still there
    assert [id(m) for m in prog.maps.values()] == kept


def _dense(N, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))


def test_boundary_errors_still_raise_on_a_warm_program():
    vals = _oracle_vals(3)
    prog = _weyl_program()
    two = dict(weyl_rep(3), v=_dense(3))   # two nonzeros in a row
    with pytest.raises(ValueError, match="generator 'v' has a row with"):
        _contract(prog, two, vals)   # cold: nothing cached yet
    assert not prog.maps
    _contract(prog, weyl_rep(3), vals)
    with pytest.raises(ValueError, match="generator 'v' has a row with"):
        _contract(prog, two, vals)
    # a dense matrix for a generator the program does not use is fine
    _contract(prog, dict(weyl_rep(3), ut=_dense(3)), vals)
    with pytest.raises(ValueError, match="square and of one size"):
        _contract(prog, dict(weyl_rep(3), ut=np.eye(5)), vals)
    with pytest.raises(KeyError, match="'v' of Wq"):
        _contract(prog, {g: m for g, m in weyl_rep(3).items() if g != "v"},
                  vals)
    with pytest.raises(KeyError, match=r"no numeric value for \['lam'\]"):
        _contract(prog, weyl_rep(3), {"q": vals["q"]})
    assert len(prog.maps) == 1   # ut is not in the key


def test_transfer_commutator_rejects_a_row_with_two_nonzeros():
    x, y = spectral_points(9, 2)
    q, bad = root_of_unity(3), dict(qosc_rep(3), f=_dense(3))
    _transfer_program(L_qdst, Aq, 2).maps.clear()   # cold
    with pytest.raises(ValueError, match="generator 'f' has a row with"):
        transfer_commutator_num(L_qdst, Aq, bad, 2, x, y, q)
    transfer_commutator_num(L_qdst, Aq, qosc_rep(3), 2, x, y, q)   # warm
    with pytest.raises(ValueError, match="generator 'f' has a row with"):
        transfer_commutator_num(L_qdst, Aq, bad, 2, x, y, q)


def test_a_program_caches_column_maps_well_below_one_dense_matrix():
    # per representation a program keeps each word's column map and weight
    # in every row, (W, D) each, and its G distinct layer maps: at N = 7 on
    # 3 sites two representations of the transfer stay below a quarter of
    # one dense D x D array
    N, n = 7, 3
    D = N**n
    x, y = spectral_points(9, 2)
    for rep in (glq2ext_rep(N), glq2ext_rep(N, c=1.5)):
        transfer_commutator_num(L_ext_hat, GLq2Ext, rep, n, x, y,
                                root_of_unity(N))
    prog = _transfer_program(L_ext_hat, GLq2Ext, n)
    W = len(prog.letters)
    assert 2 <= len(prog.maps) <= _CACHED_REPS
    for maps in prog.maps.values():   # other tests may cache smaller N
        G, M = maps.cols.shape
        assert maps.weight.shape == (W, M) and maps.flat.shape == (2 * W * M,)
        assert maps.member.shape == (G, W) and M in (3**n, 5**n, D)
        # each word in one layer, and no two layers with the same map
        assert np.array_equal(maps.member.sum(axis=0), np.ones(W))
        assert len(np.unique(maps.cols, axis=0)) == G
    full = [m for m in prog.maps.values() if m.cols.shape[1] == D]
    assert len(full) >= 2 and {len(m.cols) for m in full} == {7} and W > 7
    assert sum(a.nbytes for m in full[:2] for a in m) < 16 * D * D / 4
    # at one site a word's map is N columns and weights
    rll = _rll_program(R_sym, L_weyl, Wq)
    rll_residual_num(R_sym, L_weyl, Wq, weyl_rep(N), x, y, root_of_unity(N))
    assert (len(rll.letters), N) in {m.weight.shape for m in rll.maps.values()}


def _kron_transfer(L_builder, alg, rep, n_sites, vals):
    """Reference T(lam): every letter as a full-space Kronecker operator,
    the 2x2 block product L(n-1) ... L(0), then the trace."""
    N = next(iter(rep.values())).shape[0]
    D = N**n_sites

    def site_op(g, site):
        factors = [np.eye(N, dtype=complex)] * n_sites
        factors[site] = g
        return reduce(np.kron, factors)

    def entry(p):
        out = np.zeros((D, D), dtype=complex)
        for word, coeff in p.terms.items():
            mat = np.eye(D, dtype=complex)
            for site, gi in word:
                mat = mat @ site_op(rep[alg.gens[gi]], site)
            out += complex(coeff.evaluate(vals)) * mat
        return out

    M = None
    for s in range(n_sites - 1, -1, -1):
        L = L_builder(alg, site=s)
        Ls = [[entry(L[i][j]) for j in range(2)] for i in range(2)]
        M = Ls if M is None else [
            [M[i][0] @ Ls[0][j] + M[i][1] @ Ls[1][j] for j in range(2)]
            for i in range(2)]
    return M[0][0] + M[1][1]


@pytest.mark.parametrize("name", ["qdst", "osc-hat", "ext-hat"])
def test_transfer_matches_kron_block_product(name):
    N, n = 3, 3
    _, _, L_builder, alg = next(p for p in PAIRINGS if p[0] == name)
    rep = {Aq.name: qosc_rep, GLq2Ext.name: glq2ext_rep}[alg.name](N)
    q = root_of_unity(N)
    for lam in (0.3 + 0.4j, spectral_points(5, 1)[0]):
        want = _kron_transfer(L_builder, alg, rep, n,
                              {"q": q, "lam": lam, "mu": 1.0})
        got = transfer_num(L_builder, alg, rep, n, lam, q)
        assert np.max(np.abs(got - want)) < 1e-12
        M = monodromy_num(L_builder, alg, rep, n, lam, q)
        assert np.max(np.abs(M[0, 0] + M[1, 1] - want)) < 1e-12


def test_rll_residual_small_at_spectral_points():
    N = 5
    q = root_of_unity(N)
    rep = weyl_rep(N)
    pts = spectral_points(11, 4)
    for i in range(0, 4, 2):
        assert rll_residual_num(R_sym, L_weyl, Wq, rep, pts[i], pts[i + 1],
                                q) < 1e-10


def _rll_residual_by_blocks(R_builder, L_builder, alg, rep, x, y, q_val):
    """Reference residual: the numeric 4x4 R(x/y) times the identity on the
    quantum leg, and L(x), L(y) placed by hand on legs 1 and 2 of
    C^2 x C^2 x C^N."""
    N = next(iter(rep.values())).shape[0]

    def vals(lam):
        return {"q": q_val, "lam": lam, "mu": 1.0}

    R = R_builder(alg)
    zero = Coefficient.zero(alg.vars)
    R4 = np.array([[complex(R[i][j].terms.get((), zero).evaluate(vals(x / y)))
                    for j in range(4)] for i in range(4)])
    Lx = numeric_opmatrix(L_builder(alg), rep, 1, vals(x))
    Ly = numeric_opmatrix(L_builder(alg), rep, 1, vals(y))
    L13 = np.zeros((2, 2, N, 2, 2, N), dtype=complex)
    L23 = np.zeros((2, 2, N, 2, 2, N), dtype=complex)
    for a in range(2):
        for a2 in range(2):
            for b in range(2):
                L13[a, b, :, a2, b, :] = Lx[a, a2]
                L23[b, a, :, b, a2, :] = Ly[a, a2]
    L13 = L13.reshape(4 * N, 4 * N)
    L23 = L23.reshape(4 * N, 4 * N)
    R12 = np.kron(R4, np.eye(N, dtype=complex))
    return float(np.linalg.norm(R12 @ L13 @ L23 - L23 @ L13 @ R12))


@pytest.mark.parametrize("N", [3, 5])
def test_rll_residual_matches_the_block_assembly(N):
    # Every pairing with its own kernel (residual ~1e-14) and with the other
    # one (mostly O(1), so agreement is a real comparison).
    q = root_of_unity(N)
    pts = spectral_points(40 + N, 2 * len(PAIRINGS))
    for k, (name, R, L, alg) in enumerate(PAIRINGS):
        rep = _REP_FACTORIES[alg.name](N)
        x, y = pts[2 * k], pts[2 * k + 1]
        for kernel in (R_sym, R_hat):
            want = _rll_residual_by_blocks(kernel, L, alg, rep, x, y, q)
            got = rll_residual_num(kernel, L, alg, rep, x, y, q)
            assert abs(got - want) <= 1e-12 * max(1.0, want), (name, kernel)
        assert rll_residual_num(R, L, alg, rep, x, y, q) < 1e-10, name


@pytest.mark.parametrize("N", [3, 7])
def test_rll_residual_on_arrays_matches_per_point_calls(N):
    # both kernels for every pairing: the wrong one gives O(1) residuals, so
    # the comparison is not between rounding errors
    q = root_of_unity(N)
    pts = spectral_points(90 + N, 12)
    x, y = pts[::2], pts[1::2]
    for name, R, L, alg in PAIRINGS:
        rep = _REP_FACTORIES[alg.name](N)
        for kernel in (R, R_sym, R_hat):
            batch = rll_residual_num(kernel, L, alg, rep, x, y, q)
            assert isinstance(batch, np.ndarray) and batch.shape == (6,)
            for i in range(6):
                single = rll_residual_num(kernel, L, alg, rep, x[i], y[i], q)
                assert type(single) is float
                assert abs(single - batch[i]) <= 1e-12 * max(1.0, single), name
    grid = rll_residual_num(R_hat, L_weyl, Wq, weyl_rep(N), x[:, None], y, q)
    assert grid.shape == (6, 6) and np.allclose(np.diag(grid), rll_residual_num(
        R_hat, L_weyl, Wq, weyl_rep(N), x, y, q), rtol=1e-12)


def test_coefficients_at_many_points_match_one_point_at_a_time():
    # q is shared by every point and its powers are taken once; lam and mu
    # vary per point
    prog = _rll_program(R_hat, L_ext_hat, GLq2Ext)
    rep = glq2ext_rep(5)
    q = root_of_unity(5)
    lam, mu = spectral_points(5, 4), spectral_points(6, 4)
    _, batch = _evaluate(prog, rep, {"q": q, "lam": lam, "mu": mu})
    assert batch.shape == (4, len(prog.letters))
    for i in range(4):
        _, one = _evaluate(prog, rep, {"q": q, "lam": lam[i], "mu": mu[i]})
        assert one.shape == (len(prog.letters),)
        assert np.allclose(one, batch[i], rtol=1e-13, atol=1e-13)
        want = _contract(prog, rep, {"q": q, "lam": lam[i], "mu": mu[i]})
        got = _contract(prog, rep, {"q": q, "lam": lam, "mu": mu})[i]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_rll_residual_of_a_mismatched_pairing_is_large():
    # negative control: L_weyl closes with R_sym, not with R_hat
    N = 5
    q = root_of_unity(N)
    x, y = spectral_points(11, 2)
    assert rll_residual_num(R_hat, L_weyl, Wq, weyl_rep(N), x, y, q) > 1.0


def test_transfer_matches_symbolic_at_three_sites():
    # regression: the numeric monodromy must multiply sites in the same
    # descending order as the symbolic one (the trace hides a reversed
    # convention at two sites but not at three)
    N, n = 3, 3
    q = root_of_unity(N)
    rep = qosc_rep(N)
    lam = 0.3 + 0.4j
    sym = numeric_poly(transfer(L_qdst, Aq, n), rep, n,
                       {"q": q, "lam": lam, "mu": 1.0})
    num = transfer_num(L_qdst, Aq, rep, n, lam, q)
    assert np.max(np.abs(sym - num)) < 1e-12


def _commutator_by_terms(L_builder, alg, rep, n_sites, x, y, q):
    """Reference: both transfers term by term as Kronecker products, then
    two dense D x D products."""
    T = transfer(L_builder, alg.free_copy(), n_sites)
    Tx, _ = _numeric_poly_by_terms(T, rep, n_sites, {"q": q, "lam": x})
    Ty, _ = _numeric_poly_by_terms(T, rep, n_sites, {"q": q, "lam": y})
    return np.linalg.norm(Tx @ Ty - Ty @ Tx) / (np.linalg.norm(Tx)
                                                 * np.linalg.norm(Ty))


def _perturbed_qdst():
    """L_qdst with its upper-right entry times q: the transfers no longer
    commute (the exact mutant of tests/test_lmatrices.py)."""
    rows = [list(row) for row in L_qdst.rows]
    rows[0][1] = rows[0][1] * Aq.param("q")
    return Operator("L_qdst_perturbed", Aq, rows)


def _random_monomial_rep(alg, N, seed):
    """One random permutation and random complex weights per generator."""
    rng = np.random.default_rng(seed)
    rep = {}
    for g in alg.gens:
        rep[g] = np.zeros((N, N), dtype=complex)
        rep[g][np.arange(N), rng.permutation(N)] = (rng.normal(size=N)
                                                   + 1j * rng.normal(size=N))
    return rep


_PERTURBED_QDST = _perturbed_qdst()


@pytest.mark.parametrize("case, N, n", [
    *[("perturbed-qdst", N, 3) for N in (3, 5, 7)],
    *[(case, N, n) for case in ("random-qdst", "random-ext-hat")
      for N, n in ((3, 3), (5, 2), (7, 2), (7, 3))],
])
def test_transfer_commutator_matches_dense_products_where_it_is_large(case,
                                                                      N, n):
    # negative controls, 1e-3 to 0.3 where the true chains give 1e-17: the
    # perturbed chain (whose two-site transfers still commute), and the true
    # chains in random monomial matrices, where layers share a column on
    # some rows
    L, alg = {"perturbed-qdst": (_PERTURBED_QDST, Aq),
              "random-qdst": (L_qdst, Aq),
              "random-ext-hat": (L_ext_hat, GLq2Ext)}[case]
    if case == "perturbed-qdst":
        rep = qosc_rep(N)
    else:
        rep = _random_monomial_rep(alg, N, seed=N * 10 + n)
        maps, _ = _evaluate(_transfer_program(L, alg, n), rep,
                            {"q": 1.0, "lam": 1.0})
        cols = maps.cols
        share = (cols[:, None] == cols[None]).any(axis=-1)
        assert share[~np.eye(len(cols), dtype=bool)].any()
    q = root_of_unity(N)
    x, y = spectral_points(70 + N + n, 2)
    got = transfer_commutator_num(L, alg, rep, n, x, y, q)
    want = _commutator_by_terms(L, alg, rep, n, x, y, q)
    assert want > 1e-4, want
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_transfer_commutators_vanish():
    N = 5
    q = root_of_unity(N)
    rep = qosc_rep(N)
    pts = spectral_points(23, 2)
    assert transfer_commutator_num(L_qdst, Aq, rep, 2, pts[0], pts[1],
                                   q) < 1e-12


def test_charge_fit():
    N = 3
    q = root_of_unity(N)
    rep = qosc_rep(N)
    fits = qdst_charge_fit(Aq, rep, 2, q)
    assert set(fits) == {"lam^-n vs Q", "lam^(2-n) vs QH"}
    assert max(fits.values()) < 1e-12


def test_charge_fit_memory_is_a_few_dense_matrices():
    # the fit reads two Fourier coefficients, so it must not hold all 2n+1
    # samples of T(lam) (17 dense D x D arrays at 6 sites)
    N, n = 3, 6
    dense = 16 * (N**n) ** 2
    tracemalloc.start()
    try:
        fits = qdst_charge_fit(Aq, qosc_rep(N), n, root_of_unity(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(fits.values()) < 1e-10
    assert peak <= 6 * dense, peak / dense


def test_spectral_points_are_deterministic_and_unimodular():
    a = spectral_points(4, 6)
    b = spectral_points(4, 6)
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-14
    assert not np.array_equal(a, spectral_points(5, 6))


def test_spectral_points_stream_is_pinned():
    # e^(2 pi i random()) over random.Random(seed): the first two draws at
    # seed 0, and the same stream continued from a Random passed in
    first = [0.8444218515250481, 0.7579544029403025]
    assert spectral_points(0, 2).tolist() == [
        cmath.exp(2j * math.pi * u) for u in first]
    assert np.allclose(spectral_points(0, 2), [0.5590752113944271
                                               - 0.8291169447094159j,
                                               0.04995818320146727
                                               - 0.9987513103526867j],
                       rtol=0, atol=1e-15)
    rng = random.Random(0)
    assert np.array_equal(np.concatenate([spectral_points(rng, 1),
                                          spectral_points(rng, 1)]),
                          spectral_points(0, 2))


def _product_defect(p, r, rep, coeff_q):
    """Relative distance between eval(p r) and eval(p) eval(r) on 2 sites."""
    values = {"q": coeff_q, "lam": 1.0, "mu": 1.0}
    lhs = numeric_poly(p * r, rep, 2, values)
    rhs = numeric_poly(p, rep, 2, values) @ numeric_poly(r, rep, 2, values)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    return np.linalg.norm(lhs - rhs) / scale if scale else 0.0


@pytest.mark.parametrize("alg", [Wq, Aq, GLq2Ext, GLq2], ids=lambda a: a.name)
def test_normal_form_agrees_with_the_cyclic_rep(alg):
    # Cross-layer oracle: the exact product (normal form, site sorting, the
    # reduce memo, Coefficient arithmetic) against matrix products in the
    # registry's cyclic representation at N = 5.
    N = 5
    q = root_of_unity(N)
    rep = _REP_FACTORIES[alg.name](N)
    rng = random.Random(f"oracle-{alg.name}")
    pairs = [[random_poly(alg, rng, n_terms=3, max_len=3, n_sites=2)
              for _ in range(2)] for _ in range(12)]
    assert max(_product_defect(p, r, rep, q) for p, r in pairs) < 1e-10
    # negative control: coefficients at q^2 while the matrices use q
    assert max(_product_defect(p, r, rep, q**2) for p, r in pairs) > 0.1


def test_a_program_that_carries_q_needs_a_value_for_q():
    rep = weyl_rep(3)
    p = Wq.gen("u", 0) * Wq.param("q", 2) + Wq.param("lam")
    with pytest.raises(KeyError, match=r"no numeric value for \['q'\]"):
        numeric_poly(p, rep, 1, {"lam": 2.0})
    # q = 1 is not a default: it is the value given or nothing
    got = numeric_poly(p, rep, 1, {"q": 2.0, "lam": 2.0})
    assert np.allclose(got, 4.0 * rep["u"] + 2.0 * np.eye(3))


def test_one_program_at_two_q_values_and_a_rep_changed_in_place():
    # the q tables and the rep maps are cached apart: each combination must
    # give the per-term oracle's answer, whatever was evaluated before
    M = rll_defect(R_hat, L_ext_hat, GLq2Ext.free_copy())
    polys = [p for row in M.rows for p in row]
    prog = _compile(M.alg, polys, 1)
    assert "q" in prog.needs
    rep = glq2ext_rep(3)
    for q in (root_of_unity(3), 0.8 + 0.3j, root_of_unity(3)):
        for change in (False, True):
            if change:
                rep["d"][...] = 1.5 * rep["d"]
            vals = {"q": q, "lam": 0.7 - 0.2j, "mu": 0.4 + 0.9j}
            got = _contract(prog, rep, vals)
            for k, p in enumerate(polys):
                if p.terms:
                    assert _oracle_defect(got[k], p, rep, 1, vals) <= 1e-12
    assert len(prog.tables) == 2


@pytest.mark.parametrize("bad", [0.0, float("nan"), complex("inf")])
def test_degenerate_spectral_points_are_refused(bad):
    q, rep = root_of_unity(5), weyl_rep(5)
    for x, y, q_val in ((1.0, bad, q), (bad, 1.0, q), (1.0, 1.0, bad),
                        (np.array([1.0, bad]), 1.0, q)):
        with pytest.raises(ValueError, match="finite and nonzero"):
            rll_residual_num(R_sym, L_weyl, Wq, rep, x, y, q_val)
    for x, y, q_val in ((bad, 1.0, q), (1.0, bad, q), (1.0, 1j, bad)):
        with pytest.raises(ValueError, match="finite and nonzero"):
            transfer_commutator_num(L_qdst, Aq, qosc_rep(5), 2, x, y, q_val)
    with pytest.raises(ValueError, match="finite and nonzero"):
        transfer_num(L_qdst, Aq, qosc_rep(5), 2, bad, q)


def test_spectral_points_refuse_a_negative_count():
    assert spectral_points(0, 0).shape == (0,)
    with pytest.raises(ValueError, match="count"):
        spectral_points(0, -1)


def test_charge_fit_compiles_its_charges_once(monkeypatch):
    rep, q = qosc_rep(3), root_of_unity(3)
    first = qdst_charge_fit(Aq, rep, 2, q)
    compiled = []
    monkeypatch.setattr(cyclicrep, "_compile", lambda *a: compiled.append(a))
    assert qdst_charge_fit(Aq, rep, 2, q) == first
    assert not compiled
