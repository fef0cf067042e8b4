import cmath
import math
import random
from functools import reduce

import numpy as np
import pytest

from qbax.catalog import Aq, GLq2, GLq2Ext, Wq
from qbax.cyclicrep import (
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
from qbax.lmatrices import PAIRINGS, L_qdst, L_weyl, R_sym, transfer
from qbax.ncpoly import random_poly
from qbax.registry import _REP_FACTORIES


def test_root_of_unity_validation():
    assert abs(root_of_unity(5) ** 5 - 1) < 1e-14
    with pytest.raises(ValueError):
        root_of_unity(4)  # even
    with pytest.raises(ValueError):
        root_of_unity(1)
    with pytest.raises(ValueError):
        root_of_unity(9, 3)  # not coprime


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


def test_numeric_poly_rejects_sites_outside_the_chain():
    rep = weyl_rep(3)
    vals = {"q": root_of_unity(3), "lam": 1.0, "mu": 1.0}
    for site in (2, -1):
        with pytest.raises(ValueError, match="outside range"):
            numeric_poly(Wq.gen("u", 0) * Wq.gen("v", site), rep, 2, vals)


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


def test_spectral_points_are_deterministic_and_unimodular():
    a = spectral_points(4, 6)
    b = spectral_points(4, 6)
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-14
    assert not np.array_equal(a, spectral_points(5, 6))


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
