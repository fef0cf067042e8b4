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

  * an exact formal calculus on light-cone symbols {Phi, d+Phi, d-Phi,
    d+d-Phi, e^(c Phi)} with Laurent coefficients in beta and the spectral
    parameter, enough to state the zero-curvature residual
    d-U+ + d+U- - 2[U+, U-] for three connection presets and reduce it
    modulo the equation of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .coeff import Coefficient

__all__ = [
    "FieldConfig",
    "h_liouville",
    "liouville_bracket_terms",
    "h_freefield",
    "h_volterra",
    "r_prime_self_dual",
    "h_toda",
    "toda_total",
    "ContinuumReport",
    "continuum_check",
    "MAX_LEVEL_SITES",
    "CONTINUUM_MODELS",
    "default_fields",
    "sine_fields",
    "FIELD_PRESETS",
    "DiffExpr",
    "DerivationError",
    "ZC_PRESETS",
    "zc_residual",
    "zc_reduced_is_zero",
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
        if self.kappa <= 0 or self.beta <= 0:
            raise ValueError("kappa and beta must be positive")

    @property
    def gamma(self) -> float:
        return self.beta**2 / 8.0

    @property
    def n_sites(self) -> int:
        return len(self.phi)


def _links(x: np.ndarray, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x_n, x_{n+1}) over links; periodic wraps, open chain drops the last."""
    if periodic:
        return x, np.roll(x, -1)
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
    orders: tuple[float, ...]   # successive log2(err_k / err_{k+1})
    order: float                # least-squares slope of log error vs log kappa
    constant: float             # per-link additive constant (zero-field value)
    monotone: bool              # errors strictly decreasing under refinement

    def rows(self) -> list[tuple[float, float, float]]:
        """(kappa, error, order) rows; the first order is nan."""
        ords = (float("nan"),) + self.orders
        return list(zip(self.kappas, self.errors, ords))


# the most sites one ladder level may hold (the registry's largest is 128)
MAX_LEVEL_SITES = 2**20


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
    of more than MAX_LEVEL_SITES sites raises ValueError.
    """
    if model not in CONTINUUM_MODELS:
        raise ValueError(
            f"unknown model {model!r}; known: {sorted(CONTINUUM_MODELS)}")
    if site_counts is None:
        # the largest level is n0 * 2**(levels - 1); compare without forming it
        if levels > 0 and n0 > MAX_LEVEL_SITES >> (levels - 1):
            raise ValueError(f"n0={n0} over {levels} levels puts more than "
                             f"{MAX_LEVEL_SITES} sites on a level")
        site_counts = [n0 * 2**lev for lev in range(levels)]
    if len(site_counts) < 2 or any(n < 2 for n in site_counts):
        raise ValueError("need at least two levels of >= 2 sites each")
    if max(site_counts) > MAX_LEVEL_SITES:
        raise ValueError(f"a level holds more than {MAX_LEVEL_SITES} sites")
    spec = CONTINUUM_MODELS[model]
    gamma = beta**2 / 8.0
    phi_fn, pi_fn = fields if fields is not None else default_fields(length)

    # periodic trapezoid integral of the density on a fine grid, with the
    # spectral derivative of the periodic test field
    xs = np.linspace(0.0, length, 4096, endpoint=False)
    h = length / len(xs)
    fk = np.fft.rfft(phi_fn(xs))
    k = 2j * math.pi * np.fft.rfftfreq(len(xs), d=h)
    dphi = np.fft.irfft(fk * k, n=len(xs))
    integral = float(np.sum(spec["density"](
        phi_fn(xs), dphi, pi_fn(xs), beta, gamma)) * h)

    # per-link additive constant: the zero-field value at vanishing spacing
    c = float(spec["per_link"](FieldConfig(
        phi=np.zeros(2), pi=np.zeros(2), kappa=1e-9, beta=beta))[0])

    errors, kappas = [], []
    for n in site_counts:
        kappa = length / n
        x = kappa * np.arange(n)
        cfg = FieldConfig(phi=phi_fn(x), pi=kappa * pi_fn(x),
                          kappa=kappa, beta=beta)
        lattice = float(np.sum(spec["per_link"](cfg) - c)) / kappa
        errors.append(abs(lattice - integral))
        kappas.append(kappa)

    orders = tuple(
        math.log2(errors[i] / errors[i + 1]) if errors[i + 1] > 0 else
        float("inf") for i in range(len(errors) - 1))
    logs = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(np.log(kappas), logs, 1)[0])
    return ContinuumReport(
        model=model, kappas=tuple(kappas), errors=tuple(errors),
        orders=orders, order=slope, constant=c,
        monotone=all(e1 > e2 for e1, e2 in zip(errors, errors[1:])))


# ==========================================================================
# formal light-cone calculus and zero curvature
# ==========================================================================

class DerivationError(ValueError):
    """A derivative left the closed symbol set (e.g. d+ of d+Phi)."""


_BL = ("beta", "lam")

# term key: (power of d+Phi, power of d-Phi, power of d+d-Phi,
#            power of Phi, (r, s) with the exponential factor e^((r+s*beta) Phi))
_Key = tuple[int, int, int, int, tuple[Fraction, Fraction]]


def _coeff(value=1, **powers: int) -> Coefficient:
    return Coefficient.monomial(_BL, value, **powers)


class DiffExpr:
    """Formal sums of light-cone monomials with Laurent coefficients.

    Monomials are products of powers of d+Phi, d-Phi, d+d-Phi, Phi and a
    single merged exponential e^((r + s beta) Phi) with rational r, s;
    coefficients are Laurent polynomials in beta and the spectral
    parameter lam.  The derivations d+ and d- act by the Leibniz rule with
    d(e^(c Phi)) = c (dPhi) e^(c Phi); they are only defined while the
    result stays inside the symbol set, so d+ rejects monomials already
    containing d+Phi or the mixed symbol (and symmetrically for d-).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[_Key, Coefficient] | None = None):
        self.terms: dict[_Key, Coefficient] = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    # ------------------------------------------------------------ builders
    @classmethod
    def zero(cls) -> "DiffExpr":
        return cls()

    @classmethod
    def scalar(cls, coeff: Coefficient) -> "DiffExpr":
        return cls({(0, 0, 0, 0, (Fraction(0), Fraction(0))): coeff})

    @classmethod
    def number(cls, value) -> "DiffExpr":
        return cls.scalar(_coeff(value))

    @classmethod
    def dplus_phi(cls) -> "DiffExpr":
        return cls({(1, 0, 0, 0, (Fraction(0), Fraction(0))): _coeff()})

    @classmethod
    def dminus_phi(cls) -> "DiffExpr":
        return cls({(0, 1, 0, 0, (Fraction(0), Fraction(0))): _coeff()})

    @classmethod
    def mixed_phi(cls) -> "DiffExpr":
        return cls({(0, 0, 1, 0, (Fraction(0), Fraction(0))): _coeff()})

    @classmethod
    def phi(cls) -> "DiffExpr":
        return cls({(0, 0, 0, 1, (Fraction(0), Fraction(0))): _coeff()})

    @classmethod
    def exp_phi(cls, r=0, s=0) -> "DiffExpr":
        """e^((r + s beta) Phi) with rational r, s."""
        return cls({(0, 0, 0, 0, (Fraction(r), Fraction(s))): _coeff()})

    @classmethod
    def lam(cls, power: int = 1) -> "DiffExpr":
        return cls.scalar(_coeff(1, lam=power))

    @classmethod
    def beta(cls, power: int = 1) -> "DiffExpr":
        return cls.scalar(_coeff(1, beta=power))

    # ---------------------------------------------------------- arithmetic
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffExpr) and self.terms == other.terms

    def __add__(self, other: "DiffExpr") -> "DiffExpr":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Coefficient.zero(_BL)) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return DiffExpr(out)

    def __neg__(self) -> "DiffExpr":
        return DiffExpr({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "DiffExpr") -> "DiffExpr":
        return self + (-other)

    def __mul__(self, other: "DiffExpr") -> "DiffExpr":
        out: dict[_Key, Coefficient] = {}
        for (a1, b1, m1, f1, (r1, s1)), c1 in self.terms.items():
            for (a2, b2, m2, f2, (r2, s2)), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2, m1 + m2, f1 + f2, (r1 + r2, s1 + s2))
                s = out.get(k, Coefficient.zero(_BL)) + c1 * c2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return DiffExpr(out)

    def scale(self, value) -> "DiffExpr":
        return DiffExpr({k: v.scale(value) for k, v in self.terms.items()})

    def scale_coeff(self, coeff: Coefficient) -> "DiffExpr":
        return DiffExpr({k: v * coeff for k, v in self.terms.items()})

    # ---------------------------------------------------------- derivations
    def _derive(self, plus: bool) -> "DiffExpr":
        out = DiffExpr.zero()
        dphi = DiffExpr.dplus_phi() if plus else DiffExpr.dminus_phi()
        for key, coeff in self.terms.items():
            a, b, m, f, (r, s) = key
            own, other = (a, b) if plus else (b, a)
            if own > 0 or m > 0:
                sym = "d+Phi" if plus else "d-Phi"
                raise DerivationError(
                    f"d{'+' if plus else '-'} of a monomial containing {sym} "
                    "or d+d-Phi leaves the symbol set")
            base = DiffExpr({key: coeff})
            # d+(d-Phi^n) = n d-Phi^(n-1) d+d-Phi (and symmetrically)
            if other > 0:
                new_key = list(key)
                new_key[1 if plus else 0] = other - 1
                new_key[2] = m + 1
                out = out + DiffExpr(
                    {(new_key[0], new_key[1], new_key[2], new_key[3],
                      key[4]): coeff.scale(other)})
            # d(Phi^f) -> f Phi^(f-1) dPhi
            if f > 0:
                out = out + DiffExpr(
                    {(a, b, m, f - 1, (r, s)): coeff.scale(f)}) * dphi
            # d(e^(c Phi)) -> c dPhi e^(c Phi), c = r + s beta
            if r or s:
                c_coeff = (Coefficient.rational(r, _BL)
                           + Coefficient.param("beta", 1, _BL, scale=s))
                out = out + (base * dphi).scale_coeff(c_coeff)
        return out

    def d_plus(self) -> "DiffExpr":
        return self._derive(True)

    def d_minus(self) -> "DiffExpr":
        return self._derive(False)

    # ------------------------------------------------------------ reduction
    def reduce_mixed(self, replacement: "DiffExpr") -> "DiffExpr":
        """Substitute every power of d+d-Phi by `replacement`."""
        out = DiffExpr.zero()
        for (a, b, m, f, e), coeff in self.terms.items():
            term = DiffExpr({(a, b, 0, f, e): coeff})
            for _ in range(m):
                term = term * replacement
            out = out + term
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b, m, f, (r, s)), coeff in sorted(
                self.terms.items(), key=lambda kv: str(kv[0])):
            factors = [f"({coeff})"]
            for pw, nm in ((a, "d+Phi"), (b, "d-Phi"), (m, "d+d-Phi"),
                           (f, "Phi")):
                if pw:
                    factors.append(nm if pw == 1 else f"{nm}^{pw}")
            if r or s:
                factors.append(f"exp(({r}{'+' if s >= 0 else ''}"
                               f"{s}*beta)*Phi)")
            bits.append(" ".join(factors))
        return " + ".join(bits)


def _mat(rows):
    return [list(r) for r in rows]


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), DiffExpr.zero())
             for j in range(n)] for i in range(n)]


def _mat_map(A, fn):
    return [[fn(a) for a in row] for row in A]


def _zc_liouville():
    """Light-cone connection of the lattice-Liouville continuum limit."""
    E = DiffExpr
    a_plus = E.beta(1).scale(Fraction(1, 8)) * E.dplus_phi()
    a_minus = E.beta(1).scale(Fraction(1, 8)) * E.dminus_phi()
    u_plus = _mat([[a_plus, E.lam(1) * E.exp_phi(s=Fraction(-1, 2))],
                   [E.lam(1) * E.exp_phi(s=Fraction(1, 2)), -a_plus]])
    u_minus = _mat([[a_minus, E.zero()],
                    [E.lam(-1) * E.exp_phi(s=Fraction(-1, 2)), -a_minus]])
    # equation of motion: d+d-Phi = (8/beta) e^(-beta Phi)
    eom = E.beta(-1).scale(8) * E.exp_phi(s=-1)
    return u_plus, u_minus, eom


def _zc_free_volterra():
    """Connection of the Volterra-route free field (field phi, weight 2)."""
    E = DiffExpr
    a_plus = E.dplus_phi().scale(Fraction(1, 2))
    a_minus = E.dminus_phi().scale(Fraction(1, 2))
    u_plus = _mat([[a_plus, E.lam(1) * E.exp_phi(r=-2)],
                   [E.lam(1) * E.exp_phi(r=2), -a_plus]])
    u_minus = _mat([[a_minus, E.zero()], [E.zero(), -a_minus]])
    return u_plus, u_minus, E.zero()  # d+d-phi = 0


def _zc_free_liouville():
    """Connection of the Liouville-route free field (lower triangular)."""
    E = DiffExpr
    a_plus = E.beta(1).scale(Fraction(1, 8)) * E.dplus_phi()
    a_minus = E.beta(1).scale(Fraction(1, 8)) * E.dminus_phi()
    u_plus = _mat([[a_plus, E.zero()],
                   [E.lam(1) * E.exp_phi(s=Fraction(1, 2)), -a_plus]])
    u_minus = _mat([[a_minus, E.zero()],
                    [E.lam(-1) * E.exp_phi(s=Fraction(-1, 2)), -a_minus]])
    return u_plus, u_minus, E.zero()  # d+d-Phi = 0


ZC_PRESETS: dict[str, Callable] = {
    "liouville": _zc_liouville,
    "free-volterra": _zc_free_volterra,
    "free-liouville": _zc_free_liouville,
}


def zc_residual(preset: str):
    """Raw and EOM-reduced zero-curvature residual of a preset connection.

    Returns (raw, reduced): 2x2 matrices of DiffExpr with
    raw = d-U+ + d+U- - 2 [U+, U-] and reduced = raw modulo the preset's
    equation of motion for the mixed derivative.
    """
    if preset not in ZC_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; known: {sorted(ZC_PRESETS)}")
    u_plus, u_minus, eom = ZC_PRESETS[preset]()
    commutator = _mat_sub(_mat_mul(u_plus, u_minus), _mat_mul(u_minus, u_plus))
    raw = _mat_sub(
        _mat_add(_mat_map(u_plus, DiffExpr.d_minus),
                 _mat_map(u_minus, DiffExpr.d_plus)),
        _mat_map(commutator, lambda e: e.scale(2)))
    reduced = _mat_map(raw, lambda e: e.reduce_mixed(eom))
    return raw, reduced


def zc_reduced_is_zero(preset: str) -> bool:
    _, reduced = zc_residual(preset)
    return all(e.is_zero() for row in reduced for e in row)
