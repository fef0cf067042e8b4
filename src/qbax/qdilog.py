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
strip |Im ell| < pi (1 + w^2).

Numerically O is the line Im t = c half way up the strip 0 < Im t < cap
= pi min(Re w, Re 1/w) below the poles above 0.  There the trapezoid rule
with step h = pi cap / steps errs like exp(-pi cap / h) (Trefethen and
Weideman, SIAM Review 56, 2014) if |exp(u t)|, u = -i ell / (pi w), does
not grow up the strip.  At Re(ell / w) > 0, where it would, S comes from
S(e^-ell) and the inversion relation (Faddeev and Kashaev, 1994)

    S(e^ell) S(e^-ell) = exp(i pi (w^2 + w^-2) / 12 + i ell^2 / (4 pi w^2)).

The line is cut at +-L, one L per call from its slowest decay rate.  Every
other node with doubled weights is the rule of step 2h, so each value is
certified for free: the two sums must agree within tol relative to |S|,
else QuadratureError names the worst argument.  Rows of _M nodes anchored
at t = i c factor exp(u t) = exp(u a_j) exp(u b_m), scaled by sigma =
Re(w + 1/w) >= |Re u| to stay in range; a shorter line is the middle rows
of a longer one, so one grid per w serves every L.

The checks take scalars and arrays one way, over Python floats: a check's
points give one list of arguments for one s_omega_log call, and numpy runs
only in its quadrature (one exp over every argument and node, two products).

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
from functools import cached_property, lru_cache

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

    omega must lie strictly inside (0, 1).  The trapezoid step is 2 pi d /
    steps on a strip of half-width d.  The line's half-length follows from
    the slowest decay rate among a call's arguments.
    """

    omega: float
    steps: float = 80
    tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.omega, complex) or not (0.0 < self.omega < 1.0):
            raise DilogDomainError(
                f"omega must be real in (0,1), got {self.omega!r}")
        if not (math.isfinite(self.steps) and self.steps >= 4):
            raise DilogDomainError(
                f"steps must be a finite number >= 4, got {self.steps!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DilogDomainError(
                f"tol must be a finite number > 0, got {self.tol!r}")

    @cached_property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.omega**2)

    @cached_property
    def log_q(self) -> complex:
        return 1j * math.pi * self.omega**2


# --------------------------------------------------------------------------
# compact product (|q| < 1)
# --------------------------------------------------------------------------

def s_compact(x, q: complex, tol: float = 1e-14) -> complex:
    """prod_{n>=1} (1 + x q^(2n-1)), truncated by the geometric tail bound.

    The log of the tail past n is below |x| |q|^(2n+1) / (1 - |q|^2), so the
    partial product is returned once that bound drops under tol at every x.
    """
    aq = abs(q)
    if aq >= 1.0:
        raise DilogDomainError(f"compact product needs |q| < 1, got |q| = {aq}")
    out = 1.0 + 0.0j
    term = q  # q^(2n-1) at n = 1
    q2 = q * q
    ax = np.max(np.abs(x))
    for _ in range(100_000):
        out *= 1.0 + x * term
        term *= q2
        if ax * abs(term) / (1.0 - aq * aq) < tol:
            return out
    raise QuadratureError("compact product did not meet its tail bound")


# --------------------------------------------------------------------------
# contour quadrature
# --------------------------------------------------------------------------

_TAIL_LOG = 32.0  # exp(-32) ~ 1.3e-14: target tail mass at truncation
_MAX_K = 2**19    # a rule of 2^20 nodes takes about 100 MB to build
_M = 32           # nodes per row of a rule; column 1 of _FINE_COARSE picks
_FINE_COARSE = np.c_[np.ones(_M), np.resize([2.0, 0.0], _M)] + 0j  # even t


def fold_decay_rate(omega: complex, ell):
    """Decay rate of the integrand exp(u t) / (4t sinh(wt) sinh(t/w)).

    u = -i ell / (pi w); along a horizontal line the denominator grows like
    exp(Re(w + 1/w) |t|) and the numerator like exp(|Re u| |t|), so the
    rate is their difference, nonpositive outside the decay strip.  An
    array of ell gives an array of rates.
    """
    u = -1j * ell / (math.pi * omega)
    return (omega + 1.0 / omega).real - abs(u.real)


def _log_sinh(z: np.ndarray) -> np.ndarray:
    """A logarithm of sinh z that cannot overflow (any branch: only its
    exp is used), from sinh z = +-exp(+-z) (1 - exp(-2|z|)) / 2."""
    flip = z.real < 0
    z = np.where(flip, -z, z)
    return (z + np.log(-0.5 * np.expm1(-2.0 * z))
            + np.where(flip, 1j * math.pi, 0.0))


# (omega, height, steps) -> [a, low, W] for the longest line yet
_grid = lru_cache(maxsize=64)(lambda omega, height, steps: [np.zeros(0)] * 3)


def _rule(omega: complex, height: float, steps: float, L: float):
    """Rows -J..J of the rule on Im t = c, J the fewest that reach |t| = L.

    c = height * cap and h = 2 pi min(c, cap - c) / steps: the coarse rule
    errs like exp(-pi c / h) from the pole at 0 and exp(-pi (cap - c) / h)
    from those at height cap.  Row j holds t = (j _M + m - _M/2) h + i c, so
    it is sliced from one grid per (omega, height, steps), rebuilt at least
    doubled when a line outgrows it: its centre a_j, low_j = -sigma |Re a_j|
    and its weights times exp(-low_j); then the offsets b."""
    cap = math.pi * min(omega.real, (1.0 / omega).real)
    c = height * cap
    h = 2.0 * math.pi * min(c, cap - c) / steps
    return _rows(omega, height, steps, c, h, math.ceil(L / (_M * h)))


@lru_cache(maxsize=256)
def _rows(omega: complex, height: float, steps: float, c: float, h: float,
          J: int):
    """_rule's slices, cached by J, which many L share (c and h follow from
    omega, height and steps): the centres, then b; their lows, b's 0; W."""
    if J * _M > _MAX_K:
        raise DilogDomainError(f"the rule would need {(2 * J + 1) * _M} "
                               "nodes: steps is too large")
    grid = _grid(omega, height, steps)
    if len(grid[0]) < 2 * J + 1:
        n = max(J, min(len(grid[0]) - 1, _MAX_K // _M))
        t = (np.arange(-n * _M - _M // 2, (n + 1) * _M - _M // 2) * h
             + 1j * c).reshape(2 * n + 1, _M)
        log_w = (math.log(h) - np.log(4.0 * t) - _log_sinh(omega * t)
                 - _log_sinh(t / omega))
        a = t[:, _M // 2]
        low = -(omega + 1.0 / omega).real * np.abs(a.real)
        grid[:] = a, low, np.exp(log_w - low[:, None])
    n = len(grid[0]) // 2
    a, low, W = (g[n - J:n + J + 1] for g in grid)
    return (np.concatenate([a, (np.arange(_M) - _M // 2) * h]),
            np.concatenate([low, np.zeros(_M)]) + 0j, W)


def _eval_log(ell, omega: complex, steps: float, tol: float,
              height=0.5, invert=True):
    """S at each finite ell: a complex for a scalar, else an array of its shape.

    All share the line the slowest-decaying one needs.  With `invert`, an
    ell with Re(ell / omega) > 0 takes S(e^-ell) and the inversion phase,
    refused once it rounds off by more than tol."""
    ell = np.asarray(ell, dtype=complex)
    ells = ell.ravel().tolist()
    bad = [e for e in ells if not cmath.isfinite(e)]
    if bad:
        raise DilogDomainError(f"ell = {bad[0]} is not finite")
    if not ells:
        return np.zeros(ell.shape, dtype=complex)
    us = [-1j * e / (math.pi * omega) for e in ells]
    rate = (omega + 1.0 / omega).real - max([abs(u.real) for u in us])
    if not rate > 0.05:
        i = max(range(len(us)), key=lambda i: abs(us[i].real))
        raise DilogDomainError(
            f"Im(log x) = {ells[i].imag:.4f} is outside the decay strip "
            f"|Im log x| < pi (1 + omega^2) = {math.pi * (1 + omega**2):.4f} "
            "(or too close to its edge)")
    t, low, W = _rule(omega, height, steps, _TAIL_LOG / rate)
    flip = [invert and u.imag < 0 for u in us]
    # every exp before the products: one after a BLAS call can run 10x slow
    e = np.multiply.outer([-u if f else u for u, f in zip(us, flip)], t)
    e += low
    np.exp(e, out=e)
    g = np.dot(e[:, :len(W)], W)
    g *= e[:, len(W):]
    fine_coarse = np.dot(g, _FINE_COARSE)
    move = np.abs(np.expm1(fine_coarse[:, 1] - fine_coarse[:, 0])).tolist()
    if not all(m <= tol for m in move):   # nan fails too
        i = int(np.argmax(move))
        raise QuadratureError(
            f"node doubling moved S by {move[i]:.3e} relative (> {tol:.1e}) "
            f"at ell={ells[i]:.6g}, omega={omega:.6g}")
    log_s, c = fine_coarse[:, 0].tolist(), math.pi * (omega**2 + omega**-2) / 12
    for i, z in enumerate(ells):
        if flip[i]:   # the inversion relation
            phase = z * z / (4.0 * math.pi * omega * omega) + c
            if abs(phase) * 2.0**-52 > tol:
                raise DilogDomainError(
                    f"the inversion phase {phase:.3g} at ell={z:.6g} "
                    f"rounds off by more than {tol:.1e}")
            log_s[i] = 1j * phase - log_s[i]
    s = np.exp(log_s)
    return s.reshape(ell.shape) if ell.ndim else complex(s[0])


def s_omega_log(ell, p: DilogParams, invert: bool = True):
    """S evaluated at x = exp(ell), taking the unwrapped logarithm directly.

    A scalar ell gives a complex; a sequence gives an array of its shape,
    evaluated in one pass on one line and certified per value.  invert=False
    keeps every ell on the line, which is accurate only for modest Re ell.
    """
    return _eval_log(ell, p.omega, p.steps, p.tol, 0.5, invert)


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

def _reals(names: str, *args, real: str = ""):
    """The arguments broadcast to one shape, each as a list of floats, and
    that shape, () for scalars.  Every value must be finite, and above 0
    unless its name is in `real`."""
    if all(isinstance(a, float) for a in args):   # one point, as it comes
        cols, shape = [[float(a)] for a in args], ()
    else:
        arrays = np.broadcast_arrays(*args)
        cols, shape = [a.ravel().tolist() for a in arrays], arrays[0].shape
    for name, col in zip(names.split(), cols):
        kind, low = ("real", -math.inf) if name in real else ("positive", 0.0)
        bad = [v for v in col   # nan fails too
               if isinstance(v, complex) or not low < v < math.inf]
        if bad:
            raise DilogDomainError(
                f"{name} must be {kind} and finite, got {bad[0]!r}")
    return cols, shape


def _shaped(values: list, shape: tuple):
    """The one value for shape (), else an array of that shape."""
    return np.array(values).reshape(shape) if shape else values[0]


def _rel(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|)."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


# --------------------------------------------------------------------------
# basic property checks; an array argument gives an array of defects
# --------------------------------------------------------------------------

def check_shift(omega: float, x, p: DilogParams | None = None):
    """Relative defect of S(q^-1 x) == (1 + x) S(q x) at real x > 0, both
    sides on the line, so that x > 1 tests its own values rather than those
    at 1/x; past |log x| = 10 the line is inexact: invert."""
    p = p or DilogParams(omega)
    lq, ((xs,), shape) = p.log_q, _reals("x", x)
    ells = [math.log(v) for v in xs]
    s = s_omega_log([e - lq for e in ells] + [e + lq for e in ells], p,
                    max(map(abs, ells), default=0) > 10).tolist()
    return _shaped([_rel(lhs, (1.0 + v) * rhs)
                    for v, lhs, rhs in zip(xs, s, s[len(xs):])], shape)


def check_unitarity(omega: float, x, p: DilogParams | None = None):
    """Worse of | |S(x)| - 1 | and S(x) S(1/x) against the inversion phase for
    x > 0, both on the line, whose symmetric rule gives |S| = 1 at any step
    (the product can fail).  Past |log x| = 10 the line is inexact: invert."""
    p = p or DilogParams(omega)
    (xs,), shape = _reals("x", x)
    ells = [math.log(v) for v in xs]
    s = s_omega_log(ells + [-e for e in ells], p,
                    max(map(abs, ells), default=0) > 10).tolist()
    out = []
    for e, one, inv in zip(ells, s, s[len(ells):]):
        d = _rel(one * inv, cmath.exp(1j * (
            e * e / (4.0 * math.pi * omega * omega)
            + math.pi * (omega**2 + omega**-2) / 12)))
        out.append(max(abs(abs(one) - 1.0), d) if d == d else d)   # nan wins
    return _shaped(out, shape)


def check_self_dual(omega: float, s, p: DilogParams | None = None):
    """Self-duality S_w(x^w) == S_{1/w}(x^{1/w}) at x = exp(2 pi s).

    Both sides reduce to the same integrand, so to make this a real test of
    the contour handling the two sides are evaluated on different lines
    with different steps.
    """
    p = p or DilogParams(omega)
    (ss,), shape = _reals("s", s, real="s")
    left = s_omega_log([2.0 * math.pi * omega * v for v in ss], p).tolist()
    # 1/omega > 1 is outside DilogParams: call the core on another line
    right = _eval_log([2.0 * math.pi * v / omega for v in ss], 1.0 / omega,
                      72, p.tol, height=0.4).tolist()
    return _shaped(list(map(_rel, left, right)), shape)


def check_product_consistency(omega: complex, x):
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
    (xs,), shape = _reals("x", x)
    ell = np.log(xs)
    integral = _eval_log(ell, om, DilogParams.steps, 1e-8)
    q = cmath.exp(1j * cmath.pi * om * om)
    q_hat = cmath.exp(-1j * cmath.pi / (om * om))
    compact = (s_compact(np.array(xs), q, 1e-15)
               / s_compact(np.exp(ell / (om * om)), q_hat, 1e-15))
    return _shaped(list(map(_rel, integral.tolist(), compact.tolist())), shape)


# --------------------------------------------------------------------------
# the power identity and the exchange-kernel functional equations
# --------------------------------------------------------------------------

def check_ssw(omega: float, w, t, p: DilogParams | None = None):
    """Both displayed forms of the power identity; returns the worse defect.

    form 1:  w^t == S(q^-t w) S(q^t /w) / ( S(q^t w) S(q^-t /w) )
    form 2:  w^t == q^(t^2) S(q^-2t w) S(q^2t /w) / ( S(w) S(1/w) )
    """
    p = p or DilogParams(omega)
    lq, ((ws, ts), shape) = p.log_q, _reals("w t", w, t, real="t")
    ells = [math.log(v) for v in ws]
    # S(e) S(-e), each on the line: the inversion relation makes it exact
    e = [ell + k * t * lq for ell, t in zip(ells, ts)
         for k in (-1.0, 1.0, -2.0, 0.0)]
    s = s_omega_log(e + [-v for v in e], p, invert=False).tolist()
    out = []
    for i, (ell, t) in enumerate(zip(ells, ts)):
        a, b, c, d = (s[j] * s[j + len(e)] for j in range(4 * i, 4 * i + 4))
        wt = math.exp(t * ell)
        one, two = _rel(wt, a / b), _rel(wt, cmath.exp(t * t * lq) * c / d)
        out.append(max(one, two) if two == two else two)   # nan wins
    return _shaped(out, shape)


# id -> (k, c, sign of the shift by 2 log q, the sides (left, right) at lam,
# w, q) of the kernel K(e) = S(e - k log lam) / S(e + k log lam) exp(-c s e)
_FEQS = {
    "rw": (1.0, 0.5, -1.0,   # R0
           lambda lam, w, q: (lam + w / q, 1.0 + lam * w / q)),
    "rw3": (2.0, 1.0, -1.0,   # R2
            lambda lam, w, q: (lam * q / w + 1.0 / lam, q / (lam * w) + lam)),
    "rbd3pp": (1.0, 0.0, 1.0,   # G
               lambda lam, w, q: (lam + 1.0 / (q * w),
                                  1.0 / lam + 1.0 / (q * w))),
}
FEQ_IDS = tuple(_FEQS)


def check_feq(feq_id: str, omega: float, lam, w,
              p: DilogParams | None = None):
    """Relative defect of one exchange-kernel functional equation.

    The kernels are built exactly as documented in the module docstring;
    lam and w must be positive reals.  The q^{+-2} argument shifts are taken
    as unwrapped logarithm shifts by +-2 log q.
    """
    if feq_id not in _FEQS:
        raise ValueError(f"unknown functional equation id {feq_id!r}; "
                         f"known: {FEQ_IDS}")
    p = p or DilogParams(omega)
    (lams, ws), shape = _reals("lam w", lam, w)
    (k, c, sign, sides), q, lq = _FEQS[feq_id], p.q, p.log_q
    shift = sign * 2.0 * lq
    # K compared at e = log w and at log w + shift; s = log lam / log q
    e = [(math.log(v), math.log(u)) for v, u in zip(ws, lams)]
    s = s_omega_log([lw + d + sgn * k * ll for lw, ll in e
                     for sgn in (-1.0, 1.0) for d in (0.0, shift)], p).tolist()
    out = []
    for i, ((lw, ll), v, u) in enumerate(zip(e, ws, lams)):
        top, top_shift, bottom, bottom_shift = s[4 * i:4 * i + 4]
        left, right = sides(u, v, q)
        out.append(_rel(top / bottom * cmath.exp(-c * (ll / lq) * lw) * left,
                        right * (top_shift / bottom_shift
                                 * cmath.exp(-c * (ll / lq) * (lw + shift)))))
    return _shaped(out, shape)


def kernel_ratio_rv5_rv3(omega: float, lam, w, p: DilogParams | None = None):
    """Ratio of the two exchange kernels solving the same equation.

    R5(w, lam) = S(w) S(1/w) / ( S(lam w) S(lam / w) ) and the primary
    kernel R0 from check_feq("rw", ...) solve the same first-order
    q-difference equation, so their ratio must not depend on w; by the
    power identity it equals exp(i log^2 lam / (4 pi omega^2)).
    """
    p = p or DilogParams(omega)
    (lams, ws), shape = _reals("lam w", lam, w)
    e = [(math.log(v), math.log(u)) for v, u in zip(ws, lams)]
    s = s_omega_log([z for ell, ll in e    # every S on the line, as in
                     for z in (ell - ll, ell + ll, ell, -ell, ll - ell)],
                    p, False).tolist()   # check_ssw
    return _shaped([a / b * cmath.exp(-0.5 * (ll / p.log_q) * ell)
                    / (c * d / (b * f))   # R0 / R5
                    for (ell, ll), (a, b, c, d, f)
                    in zip(e, zip(*[iter(s)] * 5))], shape)
