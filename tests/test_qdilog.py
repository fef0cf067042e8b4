import cmath
import math

import numpy as np
import pytest

from qbax.qdilog import (
    DilogDomainError,
    DilogParams,
    FEQ_IDS,
    QuadratureError,
    check_feq,
    check_product_consistency,
    check_self_dual,
    check_shift,
    check_ssw,
    check_unitarity,
    fold_decay_rate,
    kernel_ratio_rv5_rv3,
    s_compact,
    s_omega,
    s_omega_log,
)


def test_params_validation():
    DilogParams(0.5)  # fine
    for bad in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(ValueError):
            DilogParams(bad)
    with pytest.raises(ValueError):
        DilogParams(0.5, pole_radius=0.6)
    with pytest.raises(ValueError):
        DilogParams(0.5, pole_radius=0.0)
    with pytest.raises(ValueError):
        DilogParams(0.5, tol=0.0)
    p = DilogParams(0.5)
    assert abs(p.q - cmath.exp(1j * math.pi * 0.25)) < 1e-15
    assert abs(p.log_q - 1j * math.pi * 0.25) < 1e-15


# ---------------------------------------------------------------------------
# compact product
# ---------------------------------------------------------------------------

def test_s_compact_edges():
    q = 0.4 + 0.3j  # |q| < 1
    assert s_compact(0.0, q) == 1.0
    # x = -1/q kills the n=1 factor
    assert abs(s_compact(-1.0 / q, q)) < 1e-14
    with pytest.raises(DilogDomainError):
        s_compact(1.0, 1.0)
    with pytest.raises(DilogDomainError):
        s_compact(1.0, 1.2j)


def test_s_compact_matches_direct_product():
    q, x = 0.35 - 0.2j, 0.8 + 0.1j
    direct = 1.0
    for n in range(1, 200):
        direct *= 1.0 + x * q ** (2 * n - 1)
    assert abs(s_compact(x, q) - direct) < 1e-12


# ---------------------------------------------------------------------------
# contour integral evaluator
# ---------------------------------------------------------------------------

def test_frozen_values():
    # pinned against the shipped evaluator; guards against quadrature drift
    assert s_omega(2.0, DilogParams(0.7)) == pytest.approx(
        0.852408416197714 + 0.5228765552167192j, abs=1e-10)
    assert s_omega(0.5, DilogParams(0.3)) == pytest.approx(
        0.6961035580412218 + 0.7179413879157184j, abs=1e-10)


def test_fixed_point_closed_form():
    for om in (0.3, 0.5, 0.9):
        expected = cmath.exp(1j * math.pi * (om**2 + om**-2) / 24.0)
        assert s_omega(1.0, DilogParams(om)) == pytest.approx(
            expected, abs=1e-10)


def test_log_and_plain_agree():
    p = DilogParams(0.6)
    assert s_omega(3.0, p) == pytest.approx(
        s_omega_log(math.log(3.0), p), abs=1e-12)


def test_domain_rejections():
    p = DilogParams(0.5)
    with pytest.raises(DilogDomainError):
        s_omega(0.0, p)
    with pytest.raises(DilogDomainError):
        s_omega(-2.0, p)  # the cut
    # outside the decay strip: |Im log x| too large
    om = 0.5
    ell = 1j * math.pi * (1.0 + om * om)
    assert fold_decay_rate(om, ell) <= 0.05
    with pytest.raises(DilogDomainError):
        s_omega_log(ell, p)
    with pytest.raises(DilogDomainError):  # one bad member fails the batch
        s_omega_log([0.2, ell, -0.4], p)


def test_quadrature_certificate_triggers_on_node_starvation():
    p = DilogParams(0.5, panel_nodes=2, arc_nodes=4, tol=1e-13)
    with pytest.raises(QuadratureError):
        s_omega_log(math.log(2.0), p)
    with pytest.raises(QuadratureError, match="node doubling moved S"):
        s_omega_log([0.1, math.log(2.0), -0.5 + 0.3j], p)


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------

def test_array_call_matches_scalar_calls():
    p = DilogParams(0.7)
    ells = [0.3, -1.1 + 0.4j, 2.5 - 0.9j, 0.0, -0.3 - 1.6j]
    batch = s_omega_log(ells, p)
    assert isinstance(batch, np.ndarray) and batch.shape == (5,)
    for ell, value in zip(ells, batch):
        single = s_omega_log(ell, p)
        assert type(single) is complex
        assert abs(single - value) < 1e-12
    assert s_omega_log([], p).shape == (0,)


def test_mixed_truncation_batch_matches_denser_rule():
    om = 0.5
    edge = 0.3 + 3.7699j  # decay rate 0.1, so the batch truncates at T >= 200
    assert fold_decay_rate(om, edge) < 0.16
    ells = [0.4, -1.2 + 0.5j, edge, 2.0 - 1.0j, -edge]
    batch = s_omega_log(ells, DilogParams(om))
    assert np.isfinite(batch).all()
    dense = DilogParams(om, panel_nodes=24)
    for ell, value in zip(ells, batch):
        assert abs(s_omega_log(ell, dense) - value) < 1e-10


# ---------------------------------------------------------------------------
# functional laws (single spots; the registry sweeps the grids)
# ---------------------------------------------------------------------------

def test_shift_and_unitarity():
    assert check_shift(0.5, 1.7) < 1e-10
    assert check_unitarity(0.5, 1.7) < 1e-10
    assert check_unitarity(0.9, 0.02) < 1e-10


def test_self_duality():
    assert check_self_dual(0.7, 0.25) < 1e-9


def test_product_consistency_at_complex_omega():
    assert check_product_consistency(0.6 + 0.15j, 0.7) < 1e-8
    with pytest.raises(DilogDomainError):
        check_product_consistency(0.6, 0.7)  # needs Im(omega) > 0


def test_power_identity():
    assert check_ssw(0.55, 2.3, 0.4) < 1e-10


def test_functional_equations():
    for feq_id in FEQ_IDS:
        assert check_feq(feq_id, 0.45, 1.7, 0.8) < 1e-10, feq_id
    with pytest.raises(ValueError):
        check_feq("nonsense", 0.45, 1.7, 0.8)
    with pytest.raises(DilogDomainError):
        check_feq("rw", 0.45, -1.0, 0.8)


def test_kernel_ratio_matches_closed_form():
    om, lam = 0.65, 1.9
    p = DilogParams(om)
    closed = cmath.exp(1j * math.log(lam) ** 2 / (4 * math.pi * om * om))
    for w in (0.5, 1.1, 2.7):
        assert kernel_ratio_rv5_rv3(om, lam, w, p) == pytest.approx(
            closed, abs=1e-10)
