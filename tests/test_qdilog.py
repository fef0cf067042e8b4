import cmath
import dataclasses
import math

import numpy as np
import pytest

from qbax import qdilog
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
    for bad in (float("nan"), float("inf"), 2, 0, -80):
        with pytest.raises(DilogDomainError):
            DilogParams(0.5, steps=bad)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError):
            DilogParams(0.5, tol=bad)
    # the line's length always follows from the slowest decay rate
    assert [f.name for f in dataclasses.fields(DilogParams)] == [
        "omega", "steps", "tol"]
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


def test_rule_size_is_bounded():
    # a huge step count must be refused before the nodes are allocated
    with pytest.raises(DilogDomainError, match="nodes"):
        s_omega_log(0.3, DilogParams(0.5, steps=1e9))
    # Re log x = 1e7 needs no more nodes than 1e-7 does, through the
    # inversion relation, but its phase ell^2 / (4 pi omega^2) ~ 3e13 rad
    # has no significant digit left
    with pytest.raises(DilogDomainError, match="inversion phase"):
        s_omega_log(1e7, DilogParams(0.5))


def test_quadrature_certificate_triggers_on_node_starvation():
    p = DilogParams(0.5, steps=16, tol=1e-13)
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


def test_values_do_not_depend_on_call_history():
    # rows are sliced from one grid per omega, which a longer line rebuilds:
    # the same call must give the same bits before and after
    om = 0.37   # an omega no other test uses, so its grid starts here
    p = DilogParams(om)
    ells = [0.4, -1.3 + 0.2j, 2.0, -0.6]
    first, first_one = s_omega_log(ells, p), s_omega_log(0.4, p)
    rows = len(qdilog._grid(om, 0.5, p.steps)[0])
    edge = 0.2 + 3.5j   # decay rate 0.06: a line about 45 times longer
    assert 0.05 < fold_decay_rate(om, edge) < 0.07
    s_omega_log([edge, 0.3], p)
    assert len(qdilog._grid(om, 0.5, p.steps)[0]) > 10 * rows
    assert np.array_equal(s_omega_log(ells, p), first)
    assert s_omega_log(0.4, p) == first_one


@pytest.mark.parametrize("omega", [0.6 + 0.15j, 0.45 + 0.2j])
def test_inversion_relation_at_complex_omega(omega):
    # at Re(ell / omega) > 0, S(e^ell) comes from S(e^-ell) through the
    # inversion relation; the double product form is an independent value
    x = np.array([1.7, 3.0, 8.0, 20.0])
    assert (np.log(x) / omega).real.min() > 0
    assert check_product_consistency(omega, x).max() < 1e-14


def test_large_positive_log_x_is_certified():
    # the direct line lost its certificate from ell ~ 52 at omega = 0.5;
    # through the inversion relation the shift equation holds out to
    # ell = 115, where the phase ell^2 / (4 pi omega^2) is 4200 rad
    x = np.exp([52.0, 80.0, 115.0])
    assert check_shift(0.5, x).max() < 1e-11
    assert check_unitarity(0.5, x).max() < 1e-14


def test_rules_are_shared_by_lines_of_equal_row_count():
    # rows -J..J depend on J alone, so two lengths within one row share
    # one cached rule
    om = 0.43   # an omega no other test uses
    h = 2.0 * math.pi * (0.5 * math.pi * om) / 80   # c = cap / 2
    first = qdilog._rule(om, 0.5, 80, 10.1 * 32 * h)
    assert qdilog._rule(om, 0.5, 80, 10.9 * 32 * h) is first
    assert len(first[2]) == 2 * 11 + 1   # rows of weights
    assert len(qdilog._rule(om, 0.5, 80, 11.1 * 32 * h)[2]) == 2 * 12 + 1


def test_shift_tests_its_own_values_above_one():
    # on the line, not through the inversion relation: under a starved
    # rule (16 steps, certificate lifted) the defect at x > 1 is its own,
    # not a copy of the one at 1/x
    p = DilogParams(0.5, steps=16, tol=1e3)
    e = np.array([0.5, 1.0, 1.5, 2.0])
    above, below = check_shift(0.5, 10.0**e, p), check_shift(0.5, 10.0**-e, p)
    assert (below > 1e-6).all()
    assert (above > 1.1 * below).all()
    # with the default rule the line is exact to rounding on the registry's
    # grid, 0.01 <= x <= 100
    assert check_shift(0.5, 10.0 ** np.linspace(-2, 2, 9)).max() < 1e-14


def _batch_matches_denser_rule(om, edge):
    ells = [0.4, -1.2 + 0.5j, edge, 2.0 - 1.0j, -edge]
    batch = s_omega_log(ells, DilogParams(om))
    assert np.isfinite(batch).all()
    dense = DilogParams(om, steps=120)
    for ell, value in zip(ells, batch):
        assert abs(s_omega_log(ell, dense) - value) < 1e-10


def test_mixed_truncation_batch_matches_denser_rule():
    om = 0.5
    edge = 0.3 + 3.7699j  # decay rate 0.1: the batch's line runs to L >= 320
    assert fold_decay_rate(om, edge) < 0.16
    _batch_matches_denser_rule(om, edge)


def test_domain_edge_batch_stays_finite():
    # the slowest member decays at rate 0.06, so the line runs to |t| ~ 600,
    # where exp(u t) and the weights would leave double range unscaled
    om = 0.3
    edge = 0.3 + 3.3678j
    assert 0.05 < fold_decay_rate(om, edge) < 0.07
    _batch_matches_denser_rule(om, edge)


# S_omega(exp(ell)) at 30 digits: the same line integral (Im t = c, c half
# the distance to the nearest pole above 0), computed once with mpmath,
# which is not a dependency of this package:
#
#   import math, mpmath as mp
#   mp.mp.dps = 30
#   def S(omega, ell):
#       w = mp.mpf(omega)
#       c = mp.pi * min(w, 1 / w) / 2
#       u = -1j * mp.mpc(ell) / (mp.pi * w)
#       def f(s):
#           t = s + 1j * c
#           return mp.exp(u * t) / (4 * t * mp.sinh(w * t) * mp.sinh(t / w))
#       m = max(1, math.ceil(abs(ell)))   # the integrand oscillates
#       cuts = [k / 2 for k in range(-2 * m, 2 * m + 1)]
#       return mp.exp(mp.quad(f, [-mp.inf, *cuts, mp.inf]))
#   for om in (0.3, 0.5, 0.7, 0.9):
#       lq = 1j * math.pi * om * om
#       for ell in (0.5, -1.2 + lq, 2.0 - 2 * lq, -0.7 + 1.1j):
#           print((om, complex(ell), complex(S(om, ell))))
#   for om, ell in ((0.3, 10), (0.7, 10), (0.3, 20), (0.5, 20), (0.7, 20),
#                   (0.9, 20), (0.5, 40), (0.9, 40), (0.5, 20 + 1.1j)):
#       print((om, complex(ell), complex(S(om, ell))))
#
# Moving c to 0.3 of that distance changes no value of the first 16 by more
# than 3e-18, and the breakpoints every 0.5 change none of them by more
# than 1e-17.  Without them, the cuts at -1, 0, 1 alone, mp.quad misses the
# oscillation at large |ell|: off by 1.5e-3 at (0.5, 40), 3.2e-15 at (0.5,
# 20).  The large-ell values hold S(e^ell) S(e^-ell) = exp(i pi (w^2 +
# w^-2) / 12 + i ell^2 / (4 pi w^2)) at 30 digits to 1e-25, each side from
# its own quadrature.
REFERENCE = [
    (0.3, 0.5 + 0j, -0.5898337975739305 + 0.8075246691213314j),
    (0.3, -1.2 + 0.2827433388230814j, 0.7750662395240207 + 0.4096304527853259j),
    (0.3, 2 - 0.5654866776461628j, 7.986270553040649 - 2.4513181181992048j),
    (0.3, -0.7 + 1.1j, 0.44677357843733745 + 0.2148733435141564j),
    (0.5, 0.5 + 0j, 0.6764875600075098 + 0.7364540590933598j),
    (0.5, -1.2 + 0.7853981633974483j, 0.8670482392260668 + 0.1294300365216471j),
    (0.5, 2 - 1.5707963267948966j, -0.20505586387253125 + 8.124395699009193j),
    (0.5, -0.7 + 1.1j, 0.7535479773262027 + 0.1355123300490937j),
    (0.7, 0.5 + 0j, 0.8869746874109327 + 0.46181804197354426j),
    (0.7, -1.2 + 1.5393804002589986j, 0.8762927914335361 + 0.025213630849976035j),
    (0.7, 2 - 3.078760800517997j, 7.399174509508993 - 1.146541901917755j),
    (0.7, -0.7 + 1.1j, 0.8472389862419097 + 0.10290252610639623j),
    (0.9, 0.5 + 0j, 0.9323294696242754 + 0.36160995571211424j),
    (0.9, -1.2 + 2.5446900494077327j, 0.8753651505813449 - 0.04754615280668933j),
    (0.9, 2 - 5.089380098815465j, -0.13881987296475523 - 6.5845417116693294j),
    (0.9, -0.7 + 1.1j, 0.8779679579854663 + 0.10629908050135374j),
    # Re ell > 0, evaluated through the inversion relation
    (0.3, 10 + 0j, -0.9699944021896605 - 0.24312725005791366j),
    (0.7, 10 + 0j, -0.36712455532079397 - 0.9301717910582482j),
    (0.3, 20 + 0j, 0.039319022585314355 - 0.9992267082413958j),
    (0.5, 20 + 0j, -0.9327977652415395 + 0.3604002346841492j),
    (0.7, 20 + 0j, -0.9394829746328887 + 0.34259559304658194j),
    (0.9, 20 + 0j, -0.5336200826627278 + 0.8457243093225023j),
    (0.5, 40 + 0j, 0.10017262380804998 + 0.9949700726350571j),
    (0.9, 40 + 0j, 0.7986780122139066 + 0.6017586167277067j),
    (0.5, 20 + 1.1j, -6.028260313530872e-07 + 5.659434716881703e-07j),
]


@pytest.mark.parametrize("omega, ell, expected", REFERENCE)
def test_matches_30_digit_reference(omega, ell, expected):
    got = s_omega_log(ell, DilogParams(omega))
    assert abs(got - expected) <= 1e-13 * abs(expected)


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


# ---------------------------------------------------------------------------
# batched checks: an array in, an array out, one S call per check
# ---------------------------------------------------------------------------

def test_checks_on_arrays_match_per_point_calls():
    # a starved rule (8 steps, certificate off) so the defects are 1e-4 to
    # 1e-3 rather than rounding noise
    om, p = 0.55, DilogParams(0.55, steps=8, tol=1e3)
    x = np.array([0.05, 0.7, 1.0, 3.3, 40.0])
    y = np.array([0.9, 0.3, 1.2, 2.0, 0.15])   # lam, or t in (0, 1)
    cases = [(check_shift, (x,)), (check_unitarity, (x,)),
             (check_self_dual, (y - 0.6,)), (check_ssw, (x, y)),
             *[(lambda om, lam, w, p, f=f: check_feq(f, om, lam, w, p),
                (y, x)) for f in FEQ_IDS]]
    for fn, args in cases:
        batch = fn(om, *args, p)
        assert isinstance(batch, np.ndarray) and batch.shape == (5,)
        for i in range(5):
            single = fn(om, *(a[i] for a in args), p)
            assert type(single) is float
            assert abs(single - batch[i]) <= 1e-12 * max(1.0, batch[i])
    assert check_shift(om, x, p).max() > 1e-4   # not rounding noise
    # the power identity and the kernel ratio take every S on the line, so
    # the starved rule shows in each of them; through the inversion relation
    # both would hold to rounding whatever the rule
    assert check_ssw(om, x, y, p).min() > 1e-5
    closed = cmath.exp(1j * math.log(1.9) ** 2 / (4 * math.pi * om * om))
    assert (abs(kernel_ratio_rv5_rv3(om, 1.9, x, p) / closed - 1) > 1e-5).all()
    table = kernel_ratio_rv5_rv3(om, y[:, None], x, p)
    assert table.shape == (5, 5)
    single = kernel_ratio_rv5_rv3(om, y[1], x[3], p)
    assert type(single) is complex and abs(single - table[1, 3]) < 1e-12
    z = np.array([0.3, 1.7, 5.0])
    batch = check_product_consistency(0.6 + 0.15j, z)
    for zi, d in zip(z, batch):
        assert abs(check_product_consistency(0.6 + 0.15j, zi) - d) < 1e-12


def test_checks_refuse_non_positive_arguments():
    p = DilogParams(0.5)
    for bad in ([1.0, 0.0], [2.0, -1.0], [float("nan")]):
        with pytest.raises(DilogDomainError, match="positive"):
            check_shift(0.5, bad, p)
        with pytest.raises(DilogDomainError, match="positive"):
            check_feq("rw", 0.5, bad, 1.0, p)


def test_bad_input_is_refused_with_the_argument_named():
    p = DilogParams(0.5)
    with pytest.raises(DilogDomainError, match="tol must be a finite"):
        DilogParams(0.5, tol=float("inf"))   # would lift the certificate
    with pytest.raises(DilogDomainError, match=r"ell = .*nan.* is not finite"):
        s_omega_log(float("nan"), p)
    with pytest.raises(DilogDomainError, match="x must be positive and finite"
                                               ", got inf"):
        check_unitarity(0.5, float("inf"), p)
    with pytest.raises(DilogDomainError, match="t must be real and finite, "
                                               "got nan"):
        check_ssw(0.5, 1.3, float("nan"), p)
    # a complex lam is refused like a negative one
    for lam in (1 + 1j, -1.0):
        with pytest.raises(DilogDomainError, match="lam must be positive"):
            check_feq("rw", 0.5, lam, 0.5, p)
    with pytest.raises(DilogDomainError, match="s must be real and finite"):
        check_self_dual(0.5, [0.1, float("-inf")], p)


@pytest.mark.parametrize("check, args", [
    (check_shift, (2.0,)), (check_unitarity, (2.0,)),
    (check_self_dual, (0.1,)), (check_ssw, (2.0, 0.3)),
    (lambda om, *a: check_feq("rw", om, *a), (1.3, 0.7)),
    (kernel_ratio_rv5_rv3, (1.3, 0.7))],
    ids=["shift", "unitarity", "self_dual", "ssw", "feq", "kernel_ratio"])
def test_params_at_another_omega_are_refused(check, args):
    # S would come from p at 0.7 and any closed form from omega = 0.5
    with pytest.raises(DilogDomainError, match=r"0\.7.*0\.5"):
        check(0.5, *args, DilogParams(0.7))
    assert check(0.5, *args, DilogParams(0.5)) == check(0.5, *args)


def test_scalar_checks_are_the_batched_elements_bit_for_bit():
    # each check evaluates its points together, on the line its slowest
    # member needs; points that share the line (and the inversion choice)
    # give a scalar call exactly its element of the batched call
    p = DilogParams(0.7)
    x = np.array([0.03, 0.4, 1.0, 2.5, 60.0])
    lam = np.array([0.3, 0.9, 1.4, 2.2, 3.9])
    t = np.full(5, 0.35)   # one t: the shifts, hence the line, are shared
    cases = [(check_shift, (x,)), (check_unitarity, (x,)),
             (check_ssw, (x, t)),
             (lambda om, lam, w, p: kernel_ratio_rv5_rv3(om, lam, w, p),
              (lam, x)),
             *[(lambda om, lam, w, p, f=f: check_feq(f, om, lam, w, p),
                (lam, x)) for f in FEQ_IDS]]
    for fn, args in cases:
        batch = fn(0.7, *args, p)
        for i in range(5):
            assert fn(0.7, *(a[i] for a in args), p) == batch[i]
