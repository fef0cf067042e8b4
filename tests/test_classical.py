"""Classical lattice Hamiltonians, continuum sweeps, and zero curvature."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qbax.classical import (
    CONTINUUM_MODELS,
    FIELD_PRESETS,
    MAX_LEVEL_SITES,
    DerivationError,
    DiffExpr,
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
    toda_total,
    zc_reduced_is_zero,
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


def test_continuum_ladder_at_the_size_limit_runs():
    assert MAX_LEVEL_SITES == 2**20
    report = continuum_check("liouville", site_counts=[16, 2**20])
    assert report.kappas == (1 / 16, 2.0**-20)


# ------------------------------------------------- light-cone differential

def test_leibniz_rule_on_a_square():
    phi = DiffExpr.phi()
    assert (phi * phi).d_plus() == DiffExpr.number(2) * phi * DiffExpr.dplus_phi()


def test_exponential_derivation_rule():
    expr = DiffExpr.exp_phi(s=-1)
    expected = DiffExpr.beta(1).scale(-1) * DiffExpr.dplus_phi() * expr
    assert expr.d_plus() == expected
    # rational r and beta-linear s combine in the prefactor
    expr = DiffExpr.exp_phi(r=2, s=Fraction(1, 2))
    prefactor = (DiffExpr.number(2)
                 + DiffExpr.beta(1).scale(Fraction(1, 2)))
    assert expr.d_minus() == prefactor * DiffExpr.dminus_phi() * expr


def test_derivations_leave_the_symbol_set_loudly():
    with pytest.raises(DerivationError):
        DiffExpr.dplus_phi().d_plus()
    with pytest.raises(DerivationError):
        DiffExpr.mixed_phi().d_plus()
    with pytest.raises(DerivationError):
        DiffExpr.dminus_phi().d_minus()


def test_mixed_symbol_creation_and_reduction():
    mixed = DiffExpr.phi().d_plus().d_minus()
    assert mixed == DiffExpr.mixed_phi()
    replacement = DiffExpr.exp_phi(s=-1).scale(3)
    assert mixed.reduce_mixed(replacement) == replacement
    square = mixed * mixed
    assert square.reduce_mixed(replacement) == replacement * replacement
    # terms without the mixed symbol pass through untouched
    assert DiffExpr.phi().reduce_mixed(replacement) == DiffExpr.phi()


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
    raw, _ = zc_residual(preset)
    assert any(not e.is_zero() for row in raw for e in row)
    assert zc_reduced_is_zero(preset)


def test_zero_curvature_unknown_preset():
    with pytest.raises(ValueError):
        zc_residual("sine-gordon")
