"""Noncompact quantum dilogarithm and its scalar functional equations.

The central object is the function

    S_w(x) = exp( INT_O dt/(4t) * exp(t/(i pi w) * log x)
                                / (sinh(w t) sinh(t/w)) ),

with q = exp(i pi w^2), w in (0, 1), and O the real line passed *above*
the third-order pole at t = 0.  It solves

    S(q^-1 x) = (1 + x) S(q x)                                   (shift)

and is unitary on the positive half line (|S_w(x)| = 1 for x > 0).

Everything downstream works with the (unwrapped) logarithm ell = log x
rather than x itself: the integral representation is a function of ell,
and the functional-equation checks shift arguments by q^{+-2} which can
push the phase past the principal branch while staying inside the decay
strip |Im ell| < pi (1 + w^2).  Numerically the contour is truncated at
+-T, one T per call from the slowest decay rate among its arguments, and
the pole is avoided by a semicircle of radius r in the upper half plane.
A call evaluates all its arguments in one exp pass over a node vector
that stacks a coarse Gauss-Legendre rule and the same panels at twice the
density; a two-column weight matrix yields both integrals.  Every value
is certified by its coarse and fine results agreeing within tol,
otherwise QuadratureError names the worst argument and its movement.

The phrase "decay strip" above is the actual bound obtained from the
integrand's asymptotics; it is *smaller* than the looser engineering
bound |Im ell| < pi (w + 1/w) sometimes quoted, and the domain check
here uses the true one.

Scalar shadows of operator identities: the exchange kernels built from
S_w ratios satisfy three first-order q-difference equations (here `s` is
defined by q^s = lam, i.e. s = log lam / (i pi w^2)):

    rw:     R0(v, lam) = S(lam^-1 v)/S(lam v) * v^(-s/2)
            R0(v, lam) (lam + q^-1 v) = (1 + lam q^-1 v) R0(q^-2 v, lam)
    rw3:    R2(v, lam) = S(lam^-2 v)/S(lam^2 v) * v^(-s)
            R2(v, lam) (lam q/v + 1/lam) = (q/(lam v) + lam) R2(q^-2 v, lam)
    rbd3pp: G(f, lam)  = S(lam^-1 f)/S(lam f)
            G(f, lam) (lam + q^-1/f) = (lam^-1 + q^-1/f) G(q^2 f, lam)

together with the two-sided power identity

    ssw:    v^t = S(q^-t v) S(q^t v^-1) / ( S(q^t v) S(q^-t v^-1) )
                = q^(t^2) S(q^-2t v) S(q^2t v^-1) / ( S(v) S(v^-1) ),

and the alternative kernel R5(v, lam) = S(v) S(v^-1) /
(S(lam v) S(lam v^-1)), which differs from R0 by a v-independent
factor (equal to exp(i log^2 lam / (4 pi w^2)) by ssw).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DilogDomainError",
    "QuadratureError",
    "DilogParams",
    "s_compact",
    "s_omega",
    "s_omega_log",
    "fold_decay_rate",
    "check_shift",
    "check_unitarity",
    "check_self_dual",
    "check_product_consistency",
    "check_ssw",
    "check_feq",
    "kernel_ratio_rv5_rv3",
    "FEQ_IDS",
]


class DilogDomainError(ValueError):
    """Argument outside the validated domain of the integral representation."""


class QuadratureError(RuntimeError):
    """Two node densities disagree beyond the requested tolerance."""


@dataclass(frozen=True)
class DilogParams:
    """Evaluation parameters: w and the quadrature knobs.

    omega must lie strictly inside (0, 1).  truncation=None picks T from
    the slowest decay rate among a call's arguments (then rounds up for
    node caching); a fixed value is honoured as given.
    """

    omega: float
    pole_radius: float = 0.1
    panel_nodes: int = 12
    arc_nodes: int = 64
    truncation: float | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.omega, complex) or not (0.0 < self.omega < 1.0):
            raise DilogDomainError(
                f"omega must be real in (0,1), got {self.omega!r}")
        if not (0.0 < self.pole_radius < 0.5):
            raise DilogDomainError("pole_radius must lie in (0, 0.5)")
        if self.tol <= 0:
            raise DilogDomainError("tolerance must be positive")

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.omega**2)

    @property
    def log_q(self) -> complex:
        return 1j * math.pi * self.omega**2


# --------------------------------------------------------------------------
# compact product (|q| < 1)
# --------------------------------------------------------------------------

def s_compact(x: complex, q: complex, tol: float = 1e-14,
              max_terms: int = 100_000) -> complex:
    """prod_{n>=1} (1 + x q^(2n-1)), truncated by the geometric tail bound.

    The log of the tail past n is below |x| |q|^(2n+1) / (1 - |q|^2), so the
    partial product is returned once that bound drops under tol.
    """
    aq = abs(q)
    if aq >= 1.0:
        raise DilogDomainError(f"compact product needs |q| < 1, got |q| = {aq}")
    out = 1.0 + 0.0j
    term = q  # q^(2n-1) at n = 1
    q2 = q * q
    ax = abs(x)
    for n in range(1, max_terms + 1):
        out *= 1.0 + x * term
        term *= q2
        if ax * abs(term) / (1.0 - aq * aq) < tol:
            return out
    raise QuadratureError("compact product did not meet its tail bound")


# --------------------------------------------------------------------------
# contour quadrature
# --------------------------------------------------------------------------

_TAIL_LOG = 32.0  # exp(-32) ~ 1.3e-14: target tail mass at truncation


def fold_decay_rate(omega: complex, ell):
    """Decay rate of the folded integrand sinh(u t)/(2t sinh(wt) sinh(t/w)).

    u = -i ell / (pi w); the denominator grows like exp(Re(w + 1/w) t) and
    the numerator like exp(|Re u| t), so the rate is their difference.  A
    nonpositive rate means ell is outside the decay strip.  An array of
    ell gives an array of rates.
    """
    u = -1j * ell / (math.pi * omega)
    return (omega + 1.0 / omega).real - abs(u.real)


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)  # numpy imports it lazily


def _paired(n: int, place) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rules with n and 2n nodes, mapped by place(x, w) and
    stacked into one node vector with weight columns (coarse, fine)."""
    (t1, w1), (t2, w2) = (place(*_leggauss(k)) for k in (n, 2 * n))
    weights = np.zeros((t1.size + t2.size, 2))
    weights[:t1.size, 0], weights[t1.size:, 1] = w1, w2
    return np.concatenate([t1, t2]), weights


@lru_cache(maxsize=64)
def _rule(omega: complex, r: float, T: float, n_panel: int, n_arc: int):
    """Nodes and ell-independent factors of the contour, both densities.

    The axis [r, T] gets composite panels (geometric up to 1, then length
    2); the arc is theta on [0, pi], run from pi to 0 on the contour, with
    dt/t cancelling the 1/t of the measure.  Every factor that does not
    depend on ell is folded into the two-column weights.
    """
    edges = [r]
    while edges[-1] < 1.0:
        edges.append(min(2.0 * edges[-1], 1.0))
    while edges[-1] < T:
        edges.append(min(edges[-1] + 2.0, T))
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    t, w_axis = _paired(n_panel, lambda x, w: (
        (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel(),
        (0.5 * (hi - lo) * w).ravel()))
    down = -(omega + 1.0 / omega) * t
    # the folded integrand is (A - B) / (t (1 - e^-2wt)(1 - e^-2t/w))
    w_axis = w_axis / (t * np.expm1(-2 * omega * t)
                       * np.expm1(-2 * t / omega))[:, None]
    theta, w_arc = _paired(n_arc, lambda x, w: (0.5 * math.pi * (x + 1.0),
                                                 0.5 * math.pi * w))
    tc = r * np.exp(1j * theta)
    w_arc = -1j * w_arc / (4.0 * np.sinh(omega * tc)
                           * np.sinh(tc / omega))[:, None]
    return t, down, np.exp(2.0 * down), w_axis, tc, w_arc


def _eval_log(ell, omega: complex, r: float, n_panel: int, n_arc: int,
              tol: float, truncation: float | None = None):
    """S at each ell: a complex for a scalar, else an array of its shape.

    The call shares one truncation T, the largest any member needs
    (rounded up so node caches are reused) unless `truncation` fixes it,
    and one exp pass over the stacked coarse and fine nodes gives both
    integrals; each value is certified on its own.  On the axis the t < 0
    half is folded into sinh(u t) / (2 t sinh(w t) sinh(t / w)); as sinh
    is odd, u is flipped to Re u >= 0, so A = exp(u t + down) cannot
    overflow and the second exponential is exp(2 down) / A.  Where
    exp(2 down) underflows that term is below exp(down) < 1e-161 and is
    taken as zero (A may be subnormal there, and complex division by a
    subnormal overflows).
    """
    shape = np.shape(ell)
    ells = np.asarray(ell, dtype=complex).ravel()
    if ells.size == 0:
        return np.zeros(shape, dtype=complex)
    rate = fold_decay_rate(omega, ells)
    i = int(np.argmin(rate))
    if not rate[i] > 0.05:
        raise DilogDomainError(
            f"Im(log x) = {ells[i].imag:.4f} is outside the decay strip "
            f"|Im log x| < pi (1 + omega^2) = {math.pi * (1 + omega**2):.4f} "
            "(or too close to its edge)")
    T = (4.0 * math.ceil(max(24.0, _TAIL_LOG / rate[i]) / 4.0)
         if truncation is None else float(truncation))
    t, down, e2, w_axis, tc, w_arc = _rule(omega, r, T, n_panel, n_arc)
    u = -1j * ells / (math.pi * omega)
    sign = np.where(u.real < 0, -1.0, 1.0)
    A = np.exp((sign * u)[:, None] * t + down)
    B = np.divide(e2, A, out=np.zeros_like(A), where=e2 != 0)
    s = np.exp(sign[:, None] * ((A - B) @ w_axis)
               + np.exp(u[:, None] * tc) @ w_arc)
    move = np.abs(s[:, 1] - s[:, 0])
    i = int(np.argmax(move))
    if not move[i] <= tol:
        raise QuadratureError(
            f"node doubling moved S by {move[i]:.3e} (> {tol:.1e}) "
            f"at ell={ells[i]:.6g}, omega={omega:.6g}")
    return s[:, 1].reshape(shape) if shape else complex(s[0, 1])


def s_omega_log(ell, p: DilogParams) -> complex | np.ndarray:
    """S evaluated at x = exp(ell), taking the unwrapped logarithm directly.

    A scalar ell gives a complex; a sequence gives an array of its shape,
    evaluated in one pass with one truncation and certified per value.
    """
    return _eval_log(ell, p.omega, p.pole_radius, p.panel_nodes, p.arc_nodes,
                     p.tol, p.truncation)


def s_omega(x: complex, p: DilogParams) -> complex:
    """S at the point x itself (principal branch of log x)."""
    xc = complex(x)
    if xc == 0 or (xc.imag == 0 and xc.real < 0):
        raise DilogDomainError(f"x = {x!r} lies on the cut (-inf, 0]")
    val = s_omega_log(cmath.log(xc), p)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise QuadratureError(f"non-finite value at x = {x!r}")
    return val


# --------------------------------------------------------------------------
# defect helpers
# --------------------------------------------------------------------------

def _rel(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)


# --------------------------------------------------------------------------
# basic property checks
# --------------------------------------------------------------------------

def check_shift(omega: float, x: float, p: DilogParams | None = None) -> float:
    """Relative defect of S(q^-1 x) == (1 + x) S(q x) at real x > 0."""
    p = p or DilogParams(omega)
    ell = math.log(x)
    lhs, rhs = s_omega_log([ell - p.log_q, ell + p.log_q], p)
    return _rel(lhs, (1.0 + x) * rhs)


def check_unitarity(omega: float, x: float, p: DilogParams | None = None) -> float:
    """| |S(x)| - 1 | for real x > 0."""
    p = p or DilogParams(omega)
    return abs(abs(s_omega(x, p)) - 1.0)


def check_self_dual(omega: float, s: float, p: DilogParams | None = None) -> float:
    """Self-duality S_w(x^w) == S_{1/w}(x^{1/w}) at x = exp(2 pi s).

    Both sides reduce to the same integrand, so to make this a real test of
    the contour handling the two sides are evaluated with different pole
    radii and node counts.
    """
    p = p or DilogParams(omega)
    left = s_omega_log(2.0 * math.pi * omega * s, p)
    # 1/omega > 1 falls outside DilogParams validation; call the core with
    # independently chosen quadrature knobs.
    right = _eval_log(2.0 * math.pi * s / omega, 1.0 / omega, 0.17, 20, 48,
                      p.tol)
    return _rel(left, right)


def check_product_consistency(omega: complex, x: float,
                              tol: float = 1e-12) -> float:
    """Integral versus double-product form, at complex omega.

    For omega with a small positive imaginary part both |q| and |q_hat| drop
    below 1, so S equals the ratio of two convergent compact products:
    prod (1 + x q^(2n-1)) / prod (1 + x^(1/omega^2) q_hat^(2n-1)) with
    q_hat = exp(-i pi / omega^2).  The integral representation is evaluated
    at the same complex omega and must agree.
    """
    om = complex(omega)
    if om.imag <= 0:
        raise DilogDomainError("needs Im(omega) > 0 so both products converge")
    ell = math.log(x)
    integral = _eval_log(ell, om, 0.1, 24, 64, 1e-8)
    q = cmath.exp(1j * cmath.pi * om * om)
    q_hat = cmath.exp(-1j * cmath.pi / (om * om))
    num = s_compact(x, q, tol)
    den = s_compact(cmath.exp(ell / (om * om)), q_hat, tol)
    return _rel(integral, num / den)


# --------------------------------------------------------------------------
# the power identity and the exchange-kernel functional equations
# --------------------------------------------------------------------------

def check_ssw(omega: float, w: float, t: float,
              p: DilogParams | None = None) -> float:
    """Both displayed forms of the power identity; returns the worse defect.

    form 1:  w^t == S(q^-t w) S(q^t /w) / ( S(q^t w) S(q^-t /w) )
    form 2:  w^t == q^(t^2) S(q^-2t w) S(q^2t /w) / ( S(w) S(1/w) )
    """
    p = p or DilogParams(omega)
    lq = p.log_q
    ell = math.log(w)
    wt = cmath.exp(t * ell)
    # S(e) S(-e) at e = ell - t lq, ell + t lq, ell - 2t lq, ell
    e = ell + np.array([-t, t, -2.0 * t, 0.0]) * lq
    s = s_omega_log(np.concatenate([e, -e]), p)
    pair = s[:4] * s[4:]
    one = pair[0] / pair[1]
    two = cmath.exp(t * t * lq) * pair[2] / pair[3]
    return max(_rel(wt, one), _rel(wt, two))


FEQ_IDS = ("rw", "rw3", "rbd3pp")


def check_feq(feq_id: str, omega: float, lam: float, w: float,
              p: DilogParams | None = None) -> float:
    """Relative defect of one exchange-kernel functional equation.

    The kernels are built exactly as documented in the module docstring;
    lam and w must be positive reals.  The q^{+-2} argument shifts are taken
    as unwrapped logarithm shifts by +-2 log q.
    """
    p = p or DilogParams(omega)
    if lam <= 0 or w <= 0:
        raise DilogDomainError("lam and w must be positive")
    q, lq = p.q, p.log_q
    ll = math.log(lam)
    s = ll / lq  # q^s = lam
    # kernel K(e) = S(e - k ll) / S(e + k ll) * exp(-c s e), compared at
    # e = log w and at log w + shift
    if feq_id == "rw":  # R0
        k, c, shift = 1.0, 0.5, -2.0 * lq
        left, right = lam + w / q, 1.0 + lam * w / q
    elif feq_id == "rw3":  # R2
        k, c, shift = 2.0, 1.0, -2.0 * lq
        left, right = lam * q / w + 1.0 / lam, q / (lam * w) + lam
    elif feq_id == "rbd3pp":  # G
        k, c, shift = 1.0, 0.0, 2.0 * lq
        left, right = lam + 1.0 / (q * w), 1.0 / lam + 1.0 / (q * w)
    else:
        raise ValueError(f"unknown functional equation id {feq_id!r}; "
                         f"known: {FEQ_IDS}")
    e = math.log(w) + np.array([0.0, shift])
    sv = s_omega_log(np.concatenate([e - k * ll, e + k * ll]), p)
    kernel = sv[:2] / sv[2:] * np.exp(-c * s * e)
    return _rel(kernel[0] * left, right * kernel[1])


def kernel_ratio_rv5_rv3(omega: float, lam: float, w: float,
                         p: DilogParams | None = None) -> complex:
    """Ratio of the two exchange kernels solving the same equation.

    R5(w, lam) = S(w) S(1/w) / ( S(lam w) S(lam / w) ) and the primary
    kernel R0 from check_feq("rw", ...) solve the same first-order
    q-difference equation, so their ratio must not depend on w; by the
    power identity it equals exp(i log^2 lam / (4 pi omega^2)).
    """
    p = p or DilogParams(omega)
    ell = math.log(w)
    ll = math.log(lam)
    s = ll / p.log_q
    a, b, c, d, e = s_omega_log([ell - ll, ell + ll, ell, -ell, -ell + ll], p)
    r0 = a / b * cmath.exp(-0.5 * s * ell)
    r5 = c * d / (b * e)
    return r0 / r5
