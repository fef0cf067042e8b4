"""Operator-valued matrices: embeddings, twists, exchange defects, transfer."""

from fractions import Fraction

import pytest

from qbax import cyclicrep, lmatrices
from qbax.catalog import ALGEBRAS, GLq2, GLq2Ext, Aq, Wq, quantum_determinant
from qbax.lmatrices import (
    PAIRINGS,
    QDET_CONVENTIONS,
    L_ext_hat,
    L_osc_hat,
    L_qdst,
    L_quantum_matrix,
    L_weyl,
    OpMatrix,
    R_hat,
    R_minus,
    R_plus,
    R_sym,
    T_quantum_matrix,
    aux_twist,
    cyclic_commutator,
    embed,
    monodromy,
    perm_P,
    qdet,
    qdet_scan,
    qdst_charges,
    rll_defect,
    slot_grid,
    subst_i_lam,
    transfer,
    transfer_commutation_defect,
    transfer_mode_commutators,
    weight_twist,
    ybe_defect,
)
from qbax.ncpoly import Operator
from qbax.registry import run_suite


def test_pairings_table_is_well_formed():
    names = [row[0] for row in PAIRINGS]
    assert len(names) == 11
    assert len(set(names)) == 11
    for name, R_builder, L_builder, alg in PAIRINGS:
        assert alg is ALGEBRAS[alg.name]
        R = R_builder(alg)
        L = L_builder(alg, site=0)
        assert R.n == 4 and L.n == 2
        # R-matrix entries act on the auxiliary legs only
        assert all(p.is_zero() or p.sites() == {0} or not p.sites()
                   for row in L.rows for p in row)


def test_permutation_squares_to_identity():
    P = perm_P(GLq2)
    assert P @ P == OpMatrix.identity(GLq2, 4)


def test_symmetric_r_is_permutation_invariant():
    P = perm_P(GLq2)
    R = R_sym(GLq2)
    assert P @ R @ P == R


def test_embed_identity_and_size_check():
    I4 = OpMatrix.identity(Wq, 4)
    assert embed(OpMatrix.identity(Wq, 2), (0,), 2) == I4
    assert embed(OpMatrix.identity(Wq, 2), (1,), 2) == I4
    with pytest.raises(ValueError):
        embed(OpMatrix.identity(Wq, 2), (0, 1), 2)


def test_embed_on_different_legs_disagrees():
    L = L_weyl(Wq)
    assert embed(L, (0,), 2) != embed(L, (1,), 2)


def test_weight_twist_rejects_half_integer_powers():
    with pytest.raises(ValueError):
        weight_twist(L_weyl(Wq), (0, 1))


def test_qdst_operator_is_the_aux_twist_of_the_hatted_oscillator():
    assert L_qdst(Aq) == aux_twist(L_osc_hat(Aq))


def test_exchange_defect_vanishes_for_matched_pair():
    assert rll_defect(R_sym, L_weyl, Wq).is_zero()


def test_exchange_defect_detects_a_mismatched_pair():
    # L_weyl satisfies the R_sym relation, not the R_hat one.
    assert not rll_defect(R_hat, L_weyl, Wq).is_zero()


def test_ybe_defect_vanishes_for_symmetric_r():
    assert ybe_defect(R_sym, GLq2).is_zero()


def test_qdet_conventions():
    L = L_quantum_matrix(GLq2)
    scan = qdet_scan(L)
    assert tuple(scan) == QDET_CONVENTIONS
    # the spectral dressing cancels between the off-diagonal entries
    assert scan["AD-qBC"] == quantum_determinant(GLq2)
    # reordering both products with the compensating q power is the same element
    assert scan["AD-qBC"] == scan["DA-q^-1CB"]
    assert scan["AD-q^-1BC"] != scan["AD-qBC"]
    assert scan["DA-qCB"] != scan["AD-qBC"]
    with pytest.raises(ValueError):
        qdet(L, "AD+qBC")


def test_monodromy_ordering_and_single_site_transfer():
    M = monodromy(L_weyl, Wq, 2)
    assert M == L_weyl(Wq, site=1) @ L_weyl(Wq, site=0)
    assert M != L_weyl(Wq, site=0) @ L_weyl(Wq, site=1)
    L = L_weyl(Wq, site=0)
    assert transfer(L_weyl, Wq, 1) == L[0][0] + L[1][1]


def test_qdst_charges_two_sites():
    Q, H = qdst_charges(Aq, 2)
    k0, k1 = Aq.gen("k", 0), Aq.gen("k", 1)
    assert Q == k0 * k1
    expected = Aq.zero()
    for s, t in ((0, 1), (1, 0)):
        kinv_s = Aq.gen("kinv", s)
        expected = expected + kinv_s * kinv_s
        expected = expected + kinv_s * Aq.gen("e", s) * Aq.gen("kinv", t) * Aq.gen("f", t)
    assert H == expected


def test_imaginary_spectral_substitution():
    lam2 = Aq.param("lam", 2)
    p = lam2 * Aq.gen("e") + Aq.gen("k")
    rotated = subst_i_lam(p)
    assert rotated == Aq.gen("k") - lam2 * Aq.gen("e")
    # odd total power of i has nowhere to go in the rational ring
    with pytest.raises(ValueError):
        subst_i_lam(Aq.param("lam") * Aq.gen("e"))
    # ... unless the caller supplies the compensating power
    shifted = subst_i_lam(Aq.param("lam") * Aq.gen("e"), extra_i_power=1)
    assert shifted == (Aq.param("lam") * Aq.gen("e")).scale(Fraction(-1))


CHAINS = [(L_qdst, Aq), (L_ext_hat, GLq2Ext), (L_osc_hat, Aq)]
CHAIN_IDS = ["qdst", "ext-hat", "osc-hat"]


def _direct_commutator(L_builder, alg, n_sites):
    """Reference [T(lam), T(mu)]: the full two-parameter product."""
    T = transfer(L_builder, alg, n_sites)
    T_mu = T.spread_param("lam", ("mu",))
    return T * T_mu - T_mu * T


def _perturbed(L):
    """L with its upper-right entry times q: no longer a commuting chain."""
    rows = [list(row) for row in L.rows]
    rows[0][1] = rows[0][1] * L.alg.param("q")
    return Operator(f"{L.__name__}_perturbed", L.alg, rows)


@pytest.mark.parametrize("L_builder, alg", CHAINS, ids=CHAIN_IDS)
def test_mode_wise_commutator_matches_the_direct_product(L_builder, alg):
    defect = transfer_commutation_defect(L_builder, alg, 3)
    assert defect == _direct_commutator(L_builder, alg, 3)
    assert defect.is_zero()


@pytest.mark.parametrize("L_builder, alg", CHAINS, ids=CHAIN_IDS)
def test_perturbed_chain_matches_the_direct_product_term_for_term(L_builder,
                                                                  alg):
    L = _perturbed(L_builder)
    defect = transfer_commutation_defect(L, alg, 3)
    assert defect == _direct_commutator(L, alg, 3)
    assert defect.n_terms() == 6


def test_perturbed_qdst_matches_the_direct_product_at_four_sites():
    L = _perturbed(L_qdst)
    defect = transfer_commutation_defect(L, Aq, 4)
    assert defect == _direct_commutator(L, Aq, 4)
    assert defect.n_terms() == 80


@pytest.mark.parametrize("L_builder, alg", CHAINS, ids=CHAIN_IDS)
def test_transfer_matrices_commute_at_four_sites(L_builder, alg):
    assert transfer_commutation_defect(L_builder, alg, 4).is_zero()


def test_perturbed_modes_fail_to_commute():
    # expected failure: the perturbed chain keeps a nonzero [T_j, T_k]
    modes = transfer_mode_commutators(_perturbed(L_qdst), Aq, 3)
    assert modes
    assert all(j < k and not c.is_zero() for (j, k), c in modes.items())


def test_lowest_and_highest_modes_enter_the_commutator():
    # lam^2 e added to the upper-right entry spoils [T_j, T_k] for pairs
    # that include both end modes, so no mode may be left out
    rows = [list(row) for row in L_qdst.rows]
    rows[0][1] = rows[0][1] + Aq.param("lam", 2) * Aq.gen("e")
    L = Operator("L_qdst_lam2_e", Aq, rows)
    modes = transfer_mode_commutators(L, Aq, 3)
    assert {j for pair in modes for j in pair} == {-3, -1, 1, 3}
    assert transfer_commutation_defect(L, Aq, 3) == _direct_commutator(L, Aq, 3)


# ---------------------------------------------------------------------------
# commutators taken one cyclic-shift orbit at a time
# ---------------------------------------------------------------------------

def _shifts(letters, n, coeff=1):
    """coeff times the sum of the n cyclic shifts t -> t + s mod n of the
    word of (site, generator) letters, so invariant under the shift; a word
    whose orbit has m < n words is counted n / m times."""
    out = Aq.zero()
    for s in range(n):
        word = Aq.one()
        for site, name in letters:
            word = word * Aq.gen(name, (site + s) % n)
        out = out + word
    return out * coeff


def _sites(names):
    """One generator per site, "." for an empty site and "K" for kinv:
    "k.K." is k⊗1⊗kinv⊗1."""
    return [(t, {"K": "kinv"}.get(g, g)) for t, g in enumerate(names) if g != "."]


_q, _qi, _half = Aq.param("q"), Aq.param("q", -1), Fraction(1, 2)
# n -> (summands of p, q); the comments give each summand's orbit size.
# f e on one site rewrites, so a summand may hold several words per shift.
ORBIT_CASES = {
    4: ([_shifts(_sites("kkkk"), 4),                            # 1
         _shifts(_sites("keke"), 4, _q),                        # 2
         _shifts([(0, "f"), (0, "e"), (1, "kinv")], 4, _half)],  # 4
        _shifts(_sites("e..."), 4) + _shifts(_sites("ffff"), 4, _qi)
        + _shifts(_sites("k.K."), 4, 3)),
    6: ([_shifts(_sites("ffffff"), 6),                          # 1
         _shifts(_sites("k.k.k."), 6, _half),                   # 2
         _shifts(_sites("e..e.."), 6, _q),                      # 3
         _shifts(_sites("kf.kf."), 6, -2),                      # 3
         _shifts(_sites("ekf..."), 6, _qi)],                    # 6
        _shifts(_sites("e....."), 6) + _shifts(_sites("kkkkkk"), 6)
        + _shifts(_sites("f.K..."), 6, _q)),
}


@pytest.mark.parametrize("n", sorted(ORBIT_CASES))
def test_orbit_commutator_matches_the_direct_product(n):
    parts, q = ORBIT_CASES[n]
    p = sum(parts, Aq.zero())
    for part in (*parts, p):   # every orbit size on its own, then together
        want = part * q - q * part
        assert not want.is_zero()
        assert cyclic_commutator(part, q, n) == want
    assert cyclic_commutator(q, p, n) == q * p - p * q


def test_a_non_invariant_operand_raises():
    parts, q = ORBIT_CASES[4]
    e_ring = _shifts(_sites("e..."), 4)
    for bad in (e_ring + Aq.gen("e", 0),          # one shift carries 2, not 1
                Aq.gen("e", 0),                    # the other shifts are absent
                e_ring + Aq.gen("e", 4),           # a site past the last
                _shifts(_sites("e..."), 3)):       # invariant on 3 sites only
        with pytest.raises(ValueError, match="cyclic shift"):
            cyclic_commutator(bad, q, 4)
        with pytest.raises(ValueError, match="cyclic shift"):
            cyclic_commutator(parts[0], bad, 4)


def test_qdst_transfer_matrices_commute_at_six_sites():
    assert transfer_commutation_defect(L_qdst, Aq, 6).is_zero()


def test_each_mode_is_grouped_once(monkeypatch):
    calls = []
    grouped = lmatrices._orbits
    monkeypatch.setattr(lmatrices, "_orbits",
                        lambda x, n: calls.append(x) or grouped(x, n))
    T = transfer(L_qdst, Aq, 5)
    modes = T.param_degrees("lam")
    pairs = transfer_mode_commutators(L_qdst, Aq, 5)
    assert len(calls) == len(modes) == 6
    assert not pairs


# --------------------------------------------------------------------------
# exchange residuals: built once over the free copy, reduced afterwards
# --------------------------------------------------------------------------

def _direct_rll(R_builder, L_builder, alg):
    """The exchange residual from products taken in alg itself."""
    R12 = embed(R_builder(alg), (0, 1), 2)
    L = L_builder(alg, site=0)
    L13 = embed(L.spread_param("lam", ("lam", "mu")), (0,), 2)
    L23 = embed(L.spread_param("lam", ("mu",)), (1,), 2)
    return (R12 @ L13 @ L23) - (L23 @ L13 @ R12)


# the (R, L, algebra) triples of the registry's rll-* and frt-constant-* checks
REGISTRY_TRIPLES = [row[1:] for row in PAIRINGS] + [
    (R_plus, T_quantum_matrix, GLq2), (R_minus, T_quantum_matrix, GLq2)]


@pytest.mark.parametrize("R_builder, L_builder, alg", REGISTRY_TRIPLES,
                         ids=[row[0] for row in PAIRINGS] + ["frt-plus", "frt-minus"])
def test_rll_defect_is_the_product_taken_in_the_algebra(R_builder, L_builder, alg):
    assert rll_defect(R_builder, L_builder, alg) == _direct_rll(R_builder, L_builder, alg)
    # every R in the catalog, some of them a mismatch with a nonzero residual
    nonzero = 0
    for R in (R_hat, R_sym, R_plus, R_minus):
        got = rll_defect(R, L_builder, alg)
        assert got.alg is alg
        assert got == _direct_rll(R, L_builder, alg)
        nonzero += not got.is_zero()
        free = alg.free_copy()
        assert rll_defect(R, L_builder, free) == _direct_rll(R, L_builder, free)
    assert nonzero


def test_free_copy_is_one_object_per_algebra():
    for alg in ALGEBRAS.values():
        free = alg.free_copy()
        assert free is alg.free_copy()
        assert not free.rules and free.gens == alg.gens and free.vars == alg.vars


def test_residuals_and_slot_grids_come_back_unchanged_after_mutation():
    free = GLq2Ext.free_copy()
    for alg in (GLq2Ext, free):
        first = rll_defect(R_hat, L_ext_hat, alg)
        want = [list(row) for row in first.rows]
        first.rows[0][0] = alg.one()
        first.rows[1].clear()
        again = rll_defect(R_hat, L_ext_hat, alg)
        assert again.rows == want and again is not first
    grid = slot_grid(free)
    want = {key: [list(row) for row in M.rows] for key, M in grid.items()}
    grid[(2, 2)].rows[0][0] = free.one()
    grid[(0, 0)].rows.clear()
    del grid[(0, 2)]
    assert {key: M.rows for key, M in slot_grid(free).items()} == want


def test_the_registry_builds_each_residual_and_slot_grid_once():
    for memo in (lmatrices._free_rll, lmatrices._slot_grid, cyclicrep._rll_program):
        assert memo.cache_info().maxsize == 32  # bounded
        memo.cache_clear()
    report = run_suite("rll-*,frt-*,slot-*,rep-rll", seed=0)
    assert len(report.results) == 16 and report.ok
    assert lmatrices._free_rll.cache_info().misses == 13
    assert lmatrices._slot_grid.cache_info().misses == 1
