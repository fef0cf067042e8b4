"""Classical lattice Hamiltonians, continuum limits, and zero curvature.

Three strands:

  * per-link classical Hamiltonian densities (all returned in the gamma H
    normalization, gamma = beta^2/8): the four-term logarithmic density of
    the lattice Liouville model, its free-field limit, the Volterra density
    log cosh s_+ + r'(e^{2 s_-}) with a pluggable r', and the telescoping
    relativistic-Toda density;

  * continuum sweeps: sampling smooth periodic fields with momenta scaled
    by the lattice spacing (P_n = kappa P(n kappa)), the lattice sums
    (1/kappa) Sum_n (gamma H_n - c) must converge to integrals of local
    densities as kappa -> 0, where c is the zero-field per-link constant
    (the "up to an additive constant" freedom), and the convergence order
    is the least-squares slope of log error against log spacing;

  * an exact light-cone calculus: Laurent polynomials (`Coefficient`) in
    beta, the spectral parameter and the symbols Phi, d+Phi, d-Phi,
    d+d-Phi, e^(Phi/2), e^(beta Phi/2), with the derivations d+ and d- as
    Leibniz maps, enough to state the zero-curvature residual
    d-U+ + d+U- - 2[U+, U-] for three connection presets and reduce it
    modulo the equation of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .coeff import Coefficient

__all__ = [
    # fields and per-link densities
    "FieldConfig", "h_liouville", "liouville_bracket_terms", "h_freefield",
    "h_volterra", "r_prime_self_dual", "h_toda", "toda_total",
    # continuum sweeps
    "ContinuumReport", "ContinuumRangeError", "continuum_check",
    "MAX_LEVEL_SITES", "CONTINUUM_MODELS", "default_fields", "sine_fields",
    "FIELD_PRESETS",
    # light-cone calculus and zero curvature
    "DerivationError", "ZC_VARS", "symbol", "exp_phi", "derive", "on_shell",
    "zc_curvature", "ZC_PRESETS", "zc_residual",
]


# ==========================================================================
# field configurations and per-link densities
# ==========================================================================

@dataclass(frozen=True)
class FieldConfig:
    """Periodic canonical lattice fields (phi_n, pi_n) with spacing kappa."""

    phi: np.ndarray
    pi: np.ndarray
    kappa: float
    beta: float
    periodic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        if self.phi.shape != self.pi.shape or self.phi.ndim != 1:
            raise ValueError("phi and pi must be equal-length 1d arrays")
        if len(self.phi) < 2:
            raise ValueError("need at least two sites")
        if not (0 < self.kappa < math.inf and 0 < self.beta < math.inf):
            raise ValueError("kappa and beta must be finite and positive, "
                             f"got {self.kappa!r} and {self.beta!r}")

    @property
    def gamma(self) -> float:
        return self.beta**2 / 8.0

    @property
    def n_sites(self) -> int:
        return len(self.phi)


def _links(x: np.ndarray, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x_n, x_{n+1}) over links; periodic wraps, open chain drops the last."""
    if periodic:
        x = np.concatenate((x, x[:1]))
    return x[:-1], x[1:]


def liouville_bracket_terms(cfg: FieldConfig):
    """The four addends inside the Liouville log, as arrays (A, B, C2, C4):

        gamma H = log(A + B + kappa^2 C2 + kappa^4 C4)

    A = cosh(beta/4 (pi_n+pi_n1))/2, B = cosh(beta/2 (phi_n-phi_n1))/2,
    C2 = e^(-beta/2 (phi_n+phi_n1)) (1 + e^(beta/4 (pi_n+pi_n1)) *
         cosh(beta/2 (phi_n-phi_n1)))/2,
    C4 = e^(beta/4 (pi_n+pi_n1)) e^(-beta (phi_n+phi_n1))/4.
    """
    b = cfg.beta
    p0, p1 = _links(cfg.pi, cfg.periodic)
    f0, f1 = _links(cfg.phi, cfg.periodic)
    psum, fsum, fdif = p0 + p1, f0 + f1, f0 - f1
    A = 0.5 * np.cosh(b / 4.0 * psum)
    B = 0.5 * np.cosh(b / 2.0 * fdif)
    C2 = 0.5 * np.exp(-b / 2.0 * fsum) * (
        1.0 + np.exp(b / 4.0 * psum) * np.cosh(b / 2.0 * fdif))
    C4 = 0.25 * np.exp(b / 4.0 * psum) * np.exp(-b * fsum)
    return A, B, C2, C4


def h_liouville(cfg: FieldConfig) -> np.ndarray:
    """Per-link gamma H of the lattice Liouville model."""
    A, B, C2, C4 = liouville_bracket_terms(cfg)
    arg = A + B + cfg.kappa**2 * C2 + cfg.kappa**4 * C4
    if not np.all(arg > 0):
        raise ValueError("log argument must be positive for real fields")
    return np.log(arg)


def h_freefield(cfg: FieldConfig) -> np.ndarray:
    """Per-link gamma H of the free-field limit of the Liouville chain,
    2 log(2 cosh(beta/4 (pi_n+pi_n1)) + 2 cosh(beta/2 (phi_n1-phi_n)))
    (the conventional additive constant is dropped; sweeps fit it)."""
    b = cfg.beta
    p0, p1 = _links(cfg.pi, cfg.periodic)
    f0, f1 = _links(cfg.phi, cfg.periodic)
    return 2.0 * np.log(2.0 * np.cosh(b / 4.0 * (p0 + p1))
                        + 2.0 * np.cosh(b / 2.0 * (f1 - f0)))


def r_prime_self_dual(y: np.ndarray) -> np.ndarray:
    """The self-dual ambiguity r'(e^{2t}) = log cosh t, as a function of
    y = e^{2t}; written stably as log((sqrt(y) + 1/sqrt(y))/2)."""
    t = 0.5 * np.log(y)
    return np.logaddexp(t, -t) - math.log(2.0)


def h_volterra(cfg: FieldConfig, dual: bool = False,
               r_prime: Callable[[np.ndarray], np.ndarray] | None = None
               ) -> np.ndarray:
    """Per-link gamma H of the Volterra chain: log cosh s_+ + r'(e^{2 s_-}),
    with s_pm = p_n/2 + p_n1/2 +- phi_n1 -+ phi_n (cfg.pi is p, cfg.phi is
    phi).  dual=True swaps the roles of s_+ and s_-; r_prime defaults to 0
    (the plain Volterra Hamiltonian); passing r_prime_self_dual yields the
    lattice free-field density log cosh s_+ + log cosh s_-.
    """
    p0, p1 = _links(cfg.pi, cfg.periodic)
    f0, f1 = _links(cfg.phi, cfg.periodic)
    s_plus = 0.5 * p0 + 0.5 * p1 + f1 - f0
    s_minus = 0.5 * p0 + 0.5 * p1 - f1 + f0
    if dual:
        s_plus, s_minus = s_minus, s_plus
    out = np.logaddexp(s_plus, -s_plus) - math.log(2.0)  # log cosh s_+
    if r_prime is not None:
        out = out + r_prime(np.exp(2.0 * s_minus))
    return out


def h_toda(cfg: FieldConfig) -> np.ndarray:
    """Per-link gamma H of the relativistic Toda chain in light-cone form:
    p_n + 2 phi_n - 2 phi_n1 - p_n1.  Telescopes to zero on a periodic
    chain (the total Hamiltonian is trivial)."""
    p0, p1 = _links(cfg.pi, cfg.periodic)
    f0, f1 = _links(cfg.phi, cfg.periodic)
    return p0 - p1 + 2.0 * f0 - 2.0 * f1


def toda_total(cfg: FieldConfig) -> float:
    return float(np.sum(h_toda(cfg)))


# ==========================================================================
# continuum sweeps
# ==========================================================================

def default_fields(length: float):
    """Smooth periodic test fields on [0, length]."""
    two_pi = 2.0 * math.pi / length

    def phi(x):
        return 0.3 * np.sin(two_pi * x) + 0.1 * np.cos(2.0 * two_pi * x)

    def pi(x):
        return 0.2 * np.cos(two_pi * x) + 0.05 * np.sin(2.0 * two_pi * x)

    return phi, pi


def sine_fields(length: float):
    """Single sine mode in the field, vanishing momentum."""
    two_pi = 2.0 * math.pi / length

    def phi(x):
        return 0.3 * np.sin(two_pi * x)

    def pi(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return phi, pi


FIELD_PRESETS = {"default": default_fields, "sine": sine_fields}


def _density_liouville(phi, dphi, pi, beta, gamma):
    # gamma H units: gamma (pi^2/2 + (dx phi)^2/2) + e^(-beta phi)
    return gamma * (0.5 * pi**2 + 0.5 * dphi**2) + np.exp(-beta * phi)


def _density_freefield_volterra(phi, dphi, pi, beta, gamma):
    return pi**2 + dphi**2


def _density_freefield_liouville(phi, dphi, pi, beta, gamma):
    return gamma * (pi**2 + dphi**2)


CONTINUUM_MODELS: dict[str, dict] = {
    # per_link: cfg -> gamma H array; density: continuum gamma-H density
    "liouville": {"per_link": h_liouville, "density": _density_liouville},
    "freefield_volterra": {
        "per_link": lambda cfg: h_volterra(cfg, r_prime=r_prime_self_dual),
        "density": _density_freefield_volterra},
    "freefield_liouvillelimit": {
        "per_link": h_freefield,
        "density": _density_freefield_liouville},
}


@dataclass(frozen=True)
class ContinuumReport:
    model: str
    kappas: tuple[float, ...]
    errors: tuple[float, ...]
    orders: tuple[float, ...]   # log2(err_k/err_k+1) / log2(kappa_k/kappa_k+1)
    order: float                # least-squares slope of log error vs log kappa
    constant: float             # per-link additive constant (zero-field value)
    monotone: bool              # errors strictly decreasing under refinement
    integral: float             # the continuum reference integral
    grid: int                   # points of its trapezoid grid

    def rows(self) -> list[tuple[float, float, float]]:
        """(kappa, error, order) rows; the first order is nan."""
        ords = (float("nan"),) + self.orders
        return list(zip(self.kappas, self.errors, ords))

    @property
    def passed(self) -> bool:   # the one pass rule; a nan order fails
        return self.order >= 1.0 and self.monotone


class ContinuumRangeError(ValueError):
    """A lattice sum or reference integral that is not finite."""


# the most sites one ladder level may hold (the registry's largest is 128)
MAX_LEVEL_SITES = 2**20
# reference grids run from 64 to 4096 points; a grid's sum is taken once the
# grid of half as many points agrees with it to 1e-13 relative
_GRID_MIN, _GRID_MAX, _GRID_RTOL = 64, 4096, 1e-13


def _reference_integral(density, phi_fn, pi_fn, beta, length):
    """(integral, points): the periodic trapezoid integral of the density,
    with the spectral derivative of the field, on the first doubled grid
    whose sum agrees with the previous one or is not finite (else on the
    largest).  Smooth periodic fields converge exponentially (Trefethen and
    Weideman, SIAM Review 56, 2014), so most stop at 128 points."""
    gamma = beta**2 / 8.0
    n, previous = _GRID_MIN, None
    while True:
        xs = np.linspace(0.0, length, n, endpoint=False)
        h = length / n
        phi = phi_fn(xs)
        k = 2j * math.pi * np.fft.rfftfreq(n, d=h)
        dphi = np.fft.irfft(np.fft.rfft(phi) * k, n=n)
        total = float(np.sum(density(phi, dphi, pi_fn(xs), beta, gamma)) * h)
        if n >= _GRID_MAX or not math.isfinite(total) or (
                previous is not None and abs(total - previous)
                <= _GRID_RTOL * abs(total)):
            return total, n
        n, previous = 2 * n, total


def continuum_check(model: str, beta: float = 1.0, length: float = 1.0,
                    n0: int = 16, levels: int = 4,
                    fields=None, site_counts=None) -> ContinuumReport:
    """Convergence of lattice sums to continuum integrals under halvings.

    For each kappa = length/n with n from site_counts (default: the
    halving ladder n0, 2 n0, ... over `levels` levels) the fields are sampled
    per the continuum recipe (momenta scaled by kappa), and the lattice
    value (1/kappa) Sum_n (gamma H_n - c) is compared with the integral of
    the model's density.  The per-link constant c is the normalization
    freedom the lattice/continuum statement allows ("up to an additive
    constant"): it is the zero-field, zero-spacing value of the per-link
    energy, evaluated in closed form; a joint fit of c against all levels
    would instead degenerate into interpolation at the finest kappa and
    corrupt the order estimate.  The least-squares element here is the
    convergence order: the slope of log error against log kappa.  A level
    of more than MAX_LEVEL_SITES sites or of a site count that is not an
    int, or a beta or length that is not finite and positive, raises
    ValueError, and so does a lattice sum or reference integral that is not
    finite at the given beta, length and spacing (ContinuumRangeError).
    """
    if model not in CONTINUUM_MODELS:
        raise ValueError(
            f"unknown model {model!r}; known: {sorted(CONTINUUM_MODELS)}")
    if not (0 < beta < math.inf and 0 < length < math.inf):
        raise ValueError("beta and length must be finite and positive, "
                         f"got {beta!r} and {length!r}")
    if site_counts is None:
        # the largest level is n0 * 2**(levels - 1); compare without forming it
        if levels > 0 and n0 > MAX_LEVEL_SITES >> (levels - 1):
            raise ValueError(f"n0={n0} over {levels} levels puts more than "
                             f"{MAX_LEVEL_SITES} sites on a level")
        site_counts = [n0 * 2**lev for lev in range(levels)]
    if len(set(site_counts)) < 2 or any(n < 2 for n in site_counts):
        raise ValueError("need at least two distinct levels of >= 2 sites "
                         "each")
    if max(site_counts) > MAX_LEVEL_SITES:
        raise ValueError(f"a level holds more than {MAX_LEVEL_SITES} sites")
    if not all(isinstance(n, (int, np.integer)) for n in site_counts):
        raise ValueError(f"levels must be whole numbers: {site_counts!r}")
    spec = CONTINUUM_MODELS[model]
    phi_fn, pi_fn = fields if fields is not None else default_fields(length)
    kappas = [length / n for n in site_counts]
    errors, kappa = [], kappas[0]
    with np.errstate(all="ignore"):   # out of range is refused, not warned
        try:
            integral, grid = _reference_integral(spec["density"], phi_fn,
                                                 pi_fn, beta, length)
            if not math.isfinite(integral):
                raise OverflowError("the reference integral is not finite")
            # the per-link constant: the zero-field value at vanishing spacing
            c = float(spec["per_link"](FieldConfig(
                phi=np.zeros(2), pi=np.zeros(2), kappa=1e-9, beta=beta))[0])
            for n, kappa in zip(site_counts, kappas):
                x = kappa * np.arange(n)
                cfg = FieldConfig(phi=phi_fn(x), pi=kappa * pi_fn(x),
                                  kappa=kappa, beta=beta)
                lattice = float(np.sum(spec["per_link"](cfg) - c)) / kappa
                errors.append(abs(lattice - integral))
                if not math.isfinite(errors[-1]):
                    raise OverflowError("a lattice sum is not finite")
        except ArithmeticError as exc:   # an overflow, or an underflow to 0
            raise ContinuumRangeError(
                f"beta {beta:g}, length {length:g} and kappa {kappa:g} are "
                f"out of range: {exc.args[-1]}") from exc

    orders = tuple(
        math.log2(e1 / e2) / math.log2(k1 / k2) if e2 > 0 else float("inf")
        for e1, e2, k1, k2 in zip(errors, errors[1:], kappas, kappas[1:]))
    # least-squares slope of log error against log kappa, in closed form
    xs = [math.log(k) for k in kappas]
    ys = [math.log(max(e, 1e-300)) for e in errors]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
             / sum((x - xm) ** 2 for x in xs))
    return ContinuumReport(
        model=model, kappas=tuple(kappas), errors=tuple(errors),
        orders=orders, order=slope, constant=c,
        monotone=all(e1 > e2 for e1, e2 in zip(errors, errors[1:])),
        integral=integral, grid=grid)


# ==========================================================================
# light-cone calculus and zero curvature
# ==========================================================================

class DerivationError(ValueError):
    """A derivative left the closed symbol set (e.g. d+ of d+Phi)."""


# A light-cone expression is a Laurent polynomial over ZC_VARS: beta, the
# spectral parameter lam, Phi, Pp = d+Phi, Pm = d-Phi, M = d+d-Phi and the
# exponentials X = e^(Phi/2), Y = e^(beta Phi/2), so that a connection entry
# e^((r + s beta) Phi) with half-integer r, s is the monomial X^(2r) Y^(2s).
ZC_VARS = ("beta", "lam", "Phi", "Pp", "Pm", "M", "X", "Y")
_BETA, _PHI, _PP, _PM, _M, _X, _Y = 0, 2, 3, 4, 5, 6, 7


def symbol(value=1, **powers: int) -> Coefficient:
    """value times a monomial over ZC_VARS, e.g. symbol(2, Phi=1, Pp=1)."""
    return Coefficient.monomial(ZC_VARS, value, **powers)


def exp_phi(r=0, s=0, value=1, **powers: int) -> Coefficient:
    """value e^((r + s beta) Phi) times a monomial; ValueError unless r and
    s lie on the half-integer lattice."""
    x, y = 2 * Fraction(r), 2 * Fraction(s)
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError(f"e^(({r} + {s} beta) Phi) is off the half-integer "
                         "lattice")
    return symbol(value, X=int(x), Y=int(y), **powers)


def derive(expr: Coefficient, plus: bool = True) -> Coefficient:
    """d+ (or d- with plus=False) of expr by the Leibniz rule: d+ Pm^n =
    n Pm^(n-1) M, d+ Phi^f = f Phi^(f-1) Pp and d+ X^x Y^y = (x + y beta)/2
    Pp X^x Y^y, and d- with Pp and Pm swapped.  d+ of Pp or M (d- of Pm or
    M) would leave the symbols and raises DerivationError."""
    own, other = (_PP, _PM) if plus else (_PM, _PP)
    out: dict[tuple[int, ...], Fraction] = {}

    def add(value, expo, *steps):
        if value:
            e = list(expo)
            for i, step in steps:
                e[i] += step
            out[tuple(e)] = out.get(tuple(e), 0) + value

    for expo, v in expr.terms.items():
        if expo[own] or expo[_M]:
            raise DerivationError(
                f"d{'+' if plus else '-'} of a monomial containing "
                f"{ZC_VARS[own]} or M leaves the symbol set")
        add(v * expo[other], expo, (other, -1), (_M, 1))
        add(v * expo[_PHI], expo, (_PHI, -1), (own, 1))
        if expo[_X] or expo[_Y]:
            add(Fraction(v * expo[_X], 2), expo, (own, 1))
            add(Fraction(v * expo[_Y], 2), expo, (own, 1), (_BETA, 1))
    return Coefficient(ZC_VARS, out)


def on_shell(expr: Coefficient, eom: Coefficient) -> Coefficient:
    """expr with every power M^m of d+d-Phi replaced by eom^m."""
    out = Coefficient.zero(ZC_VARS)
    for m in expr.param_degrees("M"):
        out = out + expr.coefficient_of("M", m) * eom**m
    return out


_derive_all = np.frompyfunc(derive, 2, 1)
_on_shell_all = np.frompyfunc(on_shell, 2, 1)


def zc_curvature(u_plus: np.ndarray, u_minus: np.ndarray, eom: Coefficient):
    """(raw, reduced) for a connection given as 2x2 object arrays over
    ZC_VARS: raw = d-U+ + d+U- - 2 [U+, U-] and reduced = raw with d+d-Phi
    replaced by the equation of motion d+d-Phi = eom."""
    raw = (_derive_all(u_plus, False) + _derive_all(u_minus, True)
           - 2 * (u_plus @ u_minus - u_minus @ u_plus))
    return raw, _on_shell_all(raw, eom)


def _matrix(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=object)


def _zc_liouville():
    """Light-cone connection of the lattice-Liouville continuum limit, with
    d+d-Phi = (8/beta) e^(-beta Phi)."""
    a = Fraction(1, 8)
    u_plus = _matrix(symbol(a, beta=1, Pp=1), exp_phi(0, -0.5, lam=1),
                     exp_phi(0, 0.5, lam=1), symbol(-a, beta=1, Pp=1))
    u_minus = _matrix(symbol(a, beta=1, Pm=1), symbol(0),
                      exp_phi(0, -0.5, lam=-1), symbol(-a, beta=1, Pm=1))
    return u_plus, u_minus, exp_phi(0, -1, 8, beta=-1)


def _zc_free_volterra():
    """Connection of the Volterra-route free field (field phi, weight 2),
    with d+d-phi = 0."""
    a = Fraction(1, 2)
    u_plus = _matrix(symbol(a, Pp=1), exp_phi(-2, 0, lam=1),
                     exp_phi(2, 0, lam=1), symbol(-a, Pp=1))
    u_minus = _matrix(symbol(a, Pm=1), symbol(0), symbol(0), symbol(-a, Pm=1))
    return u_plus, u_minus, symbol(0)


def _zc_free_liouville():
    """Connection of the Liouville-route free field (lower triangular), with
    d+d-Phi = 0."""
    a = Fraction(1, 8)
    u_plus = _matrix(symbol(a, beta=1, Pp=1), symbol(0),
                     exp_phi(0, 0.5, lam=1), symbol(-a, beta=1, Pp=1))
    u_minus = _matrix(symbol(a, beta=1, Pm=1), symbol(0),
                      exp_phi(0, -0.5, lam=-1), symbol(-a, beta=1, Pm=1))
    return u_plus, u_minus, symbol(0)


ZC_PRESETS: dict[str, Callable] = {
    "liouville": _zc_liouville,
    "free-volterra": _zc_free_volterra,
    "free-liouville": _zc_free_liouville,
}


def zc_residual(preset: str):
    """Raw and EOM-reduced zero-curvature residual of a preset connection,
    as zc_curvature returns them: two 2x2 object arrays of Coefficient."""
    if preset not in ZC_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; known: {sorted(ZC_PRESETS)}")
    return zc_curvature(*ZC_PRESETS[preset]())
