"""Classical lattice Hamiltonians, continuum sweeps, and zero curvature."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qbax.classical import (
    CONTINUUM_MODELS,
    FIELD_PRESETS,
    MAX_LEVEL_SITES,
    ZC_PRESETS,
    ContinuumRangeError,
    DerivationError,
    FieldConfig,
    continuum_check,
    default_fields,
    h_freefield,
    h_liouville,
    h_toda,
    h_volterra,
    liouville_bracket_terms,
    r_prime_self_dual,
    sine_fields,
    derive,
    exp_phi,
    on_shell,
    symbol,
    toda_total,
    zc_curvature,
    zc_residual,
)


def _random_cfg(seed: int, n: int = 12, periodic: bool = True) -> FieldConfig:
    rng = np.random.default_rng(seed)
    return FieldConfig(phi=rng.normal(size=n), pi=rng.normal(size=n),
                       kappa=0.3, beta=1.1, periodic=periodic)


# ------------------------------------------------------------ configuration

def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(phi=np.zeros(3), pi=np.zeros(4), kappa=1.0, beta=1.0)
    with pytest.raises(ValueError):
        FieldConfig(phi=np.zeros(1), pi=np.zeros(1), kappa=1.0, beta=1.0)
    with pytest.raises(ValueError):
        FieldConfig(phi=np.zeros(3), pi=np.zeros(3), kappa=0.0, beta=1.0)
    with pytest.raises(ValueError):
        FieldConfig(phi=np.zeros(3), pi=np.zeros(3), kappa=1.0, beta=-2.0)
    # nan passes a `<= 0` test, and inf is no spacing or coupling
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            FieldConfig(phi=np.zeros(3), pi=np.zeros(3), kappa=bad, beta=1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            FieldConfig(phi=np.zeros(3), pi=np.zeros(3), kappa=1.0, beta=bad)
    cfg = FieldConfig(phi=[0.0, 0.0], pi=[0.0, 0.0], kappa=1.0, beta=2.0)
    assert cfg.gamma == 0.5
    assert cfg.n_sites == 2


# ------------------------------------------------------- per-link densities

@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0])
def test_liouville_zero_field_closed_form(kappa):
    cfg = FieldConfig(phi=np.zeros(4), pi=np.zeros(4), kappa=kappa, beta=1.0)
    A, B, C2, C4 = liouville_bracket_terms(cfg)
    assert np.allclose(A, 0.5) and np.allclose(B, 0.5)
    assert np.allclose(C2, 1.0) and np.allclose(C4, 0.25)
    expected = math.log((1.0 + kappa**2 / 2.0) ** 2)
    assert h_liouville(cfg) == pytest.approx(np.full(4, expected), abs=1e-14)


def test_liouville_unit_spacing_value():
    cfg = FieldConfig(phi=np.zeros(4), pi=np.zeros(4), kappa=1.0, beta=1.0)
    assert h_liouville(cfg)[0] == pytest.approx(2.0 * math.log(1.5), abs=1e-14)


def test_liouville_rejects_a_nan_field():
    # raised, not asserted, so the check survives python -O
    cfg = FieldConfig(phi=[math.nan, 0.0, 0.0], pi=np.zeros(3), kappa=1.0,
                      beta=1.0)
    with pytest.raises(ValueError, match="log argument must be positive"):
        h_liouville(cfg)


def test_freefield_zero_field_value():
    cfg = FieldConfig(phi=np.zeros(4), pi=np.zeros(4), kappa=0.7, beta=1.3)
    assert h_freefield(cfg) == pytest.approx(np.full(4, 2.0 * math.log(4.0)),
                                             abs=1e-14)


def test_open_chain_has_one_fewer_link():
    cfg = _random_cfg(0, n=9, periodic=False)
    assert len(h_liouville(cfg)) == 8
    assert len(h_volterra(cfg)) == 8


def test_volterra_duality_is_a_field_sign_flip():
    cfg = _random_cfg(1)
    flipped = FieldConfig(phi=-cfg.phi, pi=cfg.pi, kappa=cfg.kappa,
                          beta=cfg.beta)
    assert np.array_equal(h_volterra(cfg, dual=True), h_volterra(flipped))


def test_self_dual_correction_makes_duality_a_symmetry():
    cfg = _random_cfg(2)
    plain = h_volterra(cfg, r_prime=r_prime_self_dual)
    dual = h_volterra(cfg, dual=True, r_prime=r_prime_self_dual)
    assert plain == pytest.approx(dual, abs=1e-12)
    # without the correction the two differ
    assert not np.allclose(h_volterra(cfg), h_volterra(cfg, dual=True))


def test_self_dual_correction_is_overflow_safe():
    y = np.array([1e300, 1.0, 1e-300])
    out = r_prime_self_dual(y)
    assert np.all(np.isfinite(out))
    assert out[1] == 0.0
    # log cosh t ~ |t| - log 2 for large |t|
    t = 0.5 * math.log(1e300)
    assert out[0] == pytest.approx(t - math.log(2.0), abs=1e-12)
    assert out[2] == pytest.approx(out[0], abs=1e-12)


def test_toda_telescopes_on_the_periodic_chain():
    cfg = _random_cfg(3, n=17)
    assert abs(toda_total(cfg)) < 1e-12


def test_toda_open_chain_keeps_the_boundary_terms():
    cfg = _random_cfg(4, n=10, periodic=False)
    expected = (cfg.pi[0] - cfg.pi[-1]) + 2.0 * (cfg.phi[0] - cfg.phi[-1])
    assert toda_total(cfg) == pytest.approx(expected, abs=1e-12)
    assert len(h_toda(cfg)) == 9


# ---------------------------------------------------------- continuum sweeps

@pytest.mark.parametrize("model", sorted(CONTINUUM_MODELS))
def test_continuum_convergence_is_second_order(model):
    report = continuum_check(model, n0=8, levels=3)
    assert report.model == model
    assert report.kappas == (1.0 / 8, 1.0 / 16, 1.0 / 32)
    assert report.monotone
    assert report.order > 1.8
    rows = report.rows()
    assert len(rows) == 3 and math.isnan(rows[0][2])


def test_continuum_constant_is_the_zero_field_value():
    report = continuum_check("freefield_liouvillelimit", n0=8, levels=2)
    assert report.constant == pytest.approx(2.0 * math.log(4.0), abs=1e-12)
    report = continuum_check("liouville", n0=8, levels=2)
    assert report.constant == pytest.approx(0.0, abs=1e-12)


def test_continuum_accepts_custom_fields_and_site_counts():
    report = continuum_check("liouville", fields=sine_fields(1.0),
                             site_counts=[10, 20, 40])
    assert report.kappas == (0.1, 0.05, 0.025)
    assert report.order > 1.8
    assert set(FIELD_PRESETS) == {"default", "sine"}
    phi_fn, pi_fn = default_fields(2.0)
    assert phi_fn(0.0) == pytest.approx(phi_fn(2.0), abs=1e-12)
    assert np.all(pi_fn(np.zeros(3)) == pi_fn(0.0))


def test_continuum_rejects_bad_inputs():
    with pytest.raises(ValueError):
        continuum_check("toda")
    with pytest.raises(ValueError):
        continuum_check("liouville", site_counts=[16])
    with pytest.raises(ValueError):
        continuum_check("liouville", site_counts=[16, 1])
    for too_large in ({"n0": 2**19 + 1, "levels": 2},
                      {"n0": 16, "levels": 10**9},  # no level is formed
                      {"n0": 10**8},
                      {"site_counts": [16, 2**20 + 1]},
                      {"site_counts": [16, math.inf]}):
        with pytest.raises(ValueError, match="1048576"):
            continuum_check("liouville", **too_large)


@pytest.mark.parametrize("ladder", [
    {"n0": 3.5, "levels": 3},   # 4 points at spacing 1/3.5 miss the box
    {"n0": 16.0},
    {"site_counts": [16.5, 33, 66]},
    {"site_counts": [16, 32.0, 64]},
])
def test_continuum_levels_must_be_whole_numbers(ladder):
    with pytest.raises(ValueError, match="whole numbers"):
        continuum_check("liouville", **ladder)


@pytest.mark.parametrize("ladder", [{"n0": True}, {"levels": True},
                                    {"site_counts": [16, True, 64]}])
def test_continuum_refuses_bool_ladders(ladder):
    # a bool is an int of 0 or 1: the two-site floor refuses it
    with pytest.raises(ValueError, match="at least two distinct levels"):
        continuum_check("liouville", **ladder)


@pytest.mark.parametrize("bad", [{"beta": math.nan}, {"beta": -1.0},
                                 {"beta": math.inf}, {"length": 0.0},
                                 {"length": math.nan}, {"length": math.inf}])
def test_continuum_beta_and_length_must_be_finite_and_positive(bad):
    # refused on entry, not deep inside on the log of a nan field
    with pytest.raises(ValueError, match="finite and positive"):
        continuum_check("liouville", **bad)


@pytest.mark.parametrize("bad", [{"length": 1e300}, {"length": 1e-300},
                                 {"beta": 1e6}, {"beta": 1e200},
                                 {"length": 1e-320}])
def test_continuum_overflow_is_a_range_error(bad):
    # finite inputs whose sums, errors or reference integral are not: an
    # OverflowError, a table of inf errors or RuntimeWarnings before
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ContinuumRangeError,
                           match="beta .*, length .* and kappa .* are out"):
            continuum_check("liouville", n0=16, levels=2, **bad)


def test_continuum_accepts_numpy_integer_levels():
    a = continuum_check("liouville", site_counts=[16, 32, 64])
    b = continuum_check("liouville", site_counts=list(np.array([16, 32, 64])))
    assert a == b


def test_continuum_ladder_at_the_size_limit_runs():
    assert MAX_LEVEL_SITES == 2**20
    report = continuum_check("liouville", site_counts=[16, 2**20])
    assert report.kappas == (1 / 16, 2.0**-20)


def _trapezoid_integral(model, fields, beta, n):
    """The model's density integrated over [0, 1] by the n-point periodic
    trapezoid rule, with the spectral derivative of the field."""
    phi_fn, pi_fn = fields
    xs = np.arange(n) / n
    phi = phi_fn(xs)
    k = 2j * math.pi * np.fft.rfftfreq(n, d=1.0 / n)
    dphi = np.fft.irfft(np.fft.rfft(phi) * k, n=n)
    density = CONTINUUM_MODELS[model]["density"]
    return float(np.mean(density(phi, dphi, pi_fn(xs), beta, beta**2 / 8)))


@pytest.mark.parametrize("beta", [0.8, 1.0, 2.0])
@pytest.mark.parametrize("preset", sorted(FIELD_PRESETS))
@pytest.mark.parametrize("model", sorted(CONTINUUM_MODELS))
def test_reference_integral_matches_the_4096_point_rule(model, preset, beta):
    fields = FIELD_PRESETS[preset](1.0)
    report = continuum_check(model, beta=beta, fields=fields, n0=8, levels=2)
    reference = _trapezoid_integral(model, fields, beta, 4096)
    assert abs(report.integral - reference) <= 1e-13 * abs(reference)
    assert report.grid <= 256   # smooth fields stop long before 4096


def test_a_high_mode_refines_the_reference_grid():
    fields = (lambda x: 0.3 * np.sin(2 * math.pi * 40 * x),
              lambda x: 0.2 * np.cos(2 * math.pi * x))
    report = continuum_check("liouville", beta=1.0, fields=fields,
                             site_counts=[256, 512])
    assert report.grid > 128
    reference = _trapezoid_integral("liouville", fields, 1.0, 2**14)
    assert abs(report.integral - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("site_counts", [None, [10, 20, 40], [12, 16, 40, 50]])
def test_order_is_the_least_squares_slope(site_counts):
    report = continuum_check("liouville", site_counts=site_counts)
    slope = np.polyfit(np.log(report.kappas), np.log(report.errors), 1)[0]
    assert report.order == pytest.approx(slope, abs=1e-12)
    # each level pair's order is its slope, whatever the spacing ratio
    assert all(abs(o - report.order) <= 0.1 for o in report.orders)


def test_equal_levels_are_refused():
    with pytest.raises(ValueError, match="distinct"):
        continuum_check("liouville", site_counts=[16, 16])


# ------------------------------------------------- light-cone differential

def test_leibniz_rule_on_a_square():
    assert derive(symbol(Phi=2)) == symbol(2, Phi=1, Pp=1)
    assert derive(symbol(Phi=2), plus=False) == symbol(2, Phi=1, Pm=1)


def test_exponential_derivation_rule():
    expr = exp_phi(s=-1)
    assert derive(expr) == exp_phi(s=-1, value=-1, beta=1, Pp=1)
    # rational r and beta-linear s combine in the prefactor (2 + beta/2)
    expr = exp_phi(r=2, s=Fraction(1, 2))
    assert derive(expr, plus=False) == (exp_phi(2, 0.5, 2, Pm=1)
                                        + exp_phi(2, 0.5, 0.5, beta=1, Pm=1))
    assert expr == symbol(X=4, Y=1)


def test_derivations_leave_the_symbol_set_loudly():
    mixed = derive(derive(symbol(Phi=1)), plus=False)
    for expr, plus in ((symbol(Pp=1), True), (mixed, True),
                       (symbol(Pm=1), False), (mixed, False)):
        with pytest.raises(DerivationError):
            derive(expr, plus)


def test_exponents_off_the_half_integer_lattice_raise():
    assert exp_phi(-1.5, 0.5) == symbol(X=-3, Y=1)
    for r, s in ((Fraction(1, 3), 0), (0, 0.3), (0.25, 0.5)):
        with pytest.raises(ValueError, match="half-integer lattice"):
            exp_phi(r, s)


def test_mixed_symbol_creation_and_reduction():
    mixed = derive(derive(symbol(Phi=1)), plus=False)
    assert mixed == symbol(M=1)
    eom = exp_phi(s=-1, value=3)
    assert on_shell(mixed, eom) == eom
    assert on_shell(mixed * mixed + symbol(2, M=1, Pp=1), eom) == (
        eom * eom + eom * symbol(2, Pp=1))
    # terms without the mixed symbol pass through untouched
    assert on_shell(symbol(Phi=1), eom) == symbol(Phi=1)


def test_zero_curvature_residuals():
    raw, reduced = zc_residual("liouville")
    # raw residual is diagonal and traceless: the curvature sits entirely
    # in the Cartan direction until the equation of motion is used
    assert raw[0][1].is_zero() and raw[1][0].is_zero()
    assert not raw[0][0].is_zero()
    assert (raw[0][0] + raw[1][1]).is_zero()
    assert all(e.is_zero() for row in reduced for e in row)


@pytest.mark.parametrize("preset", ["liouville", "free-volterra",
                                    "free-liouville"])
def test_zero_curvature_closes_on_shell(preset):
    raw, reduced = zc_residual(preset)
    raw_terms = {"liouville": 4, "free-volterra": 2, "free-liouville": 2}
    assert sum(len(e.terms) for row in raw for e in row) == raw_terms[preset]
    assert all(e.is_zero() for e in reduced.flat)


def test_a_perturbed_connection_does_not_close():
    # a spurious constant in the upper corner of U-: three terms survive
    u_plus, u_minus, eom = ZC_PRESETS["liouville"]()
    u_minus[0, 1] = symbol(1)
    _, reduced = zc_curvature(u_plus, u_minus, eom)
    assert sum(len(e.terms) for e in reduced.flat) == 3


def test_zero_curvature_unknown_preset():
    with pytest.raises(ValueError):
        zc_residual("sine-gordon")
