"""Exact Laurent-polynomial coefficients over the rationals.

Coefficients of the noncommutative layer live in Q[q^±1, lam^±1, mu^±1, ...],
stored as integer numerators over one shared positive denominator in canonical
form (gcd 1).  Each numerator is keyed by its packed exponent vector, one int
whose balanced base-2^16 digits are the exponents, first variable lowest
(Monagan & Pearce, CASC 2007), so a product's key is the sum of its factors'.
An exponent outside ±32767 raises OverflowError instead of spilling into the
next digit.  Other modules read exponent tuples and values through `terms`.
No floats enter until a caller evaluates at numeric parameter values.
Coefficients are never mutated, so an operation may return an operand.

The variable tuple travels with each instance so different modules can use
different parameter sets (the lattice algebra uses ("q", "lam", "mu"), the
classical field layer uses ("beta", "lam")).  Mixing variable sets in one
operation is a bug and raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

__all__ = ["Coefficient", "QLM"]

# Parameter tuple used by the quantum-algebra layer: the deformation parameter
# and the two spectral parameters appearing in exchange relations.
QLM = ("q", "lam", "mu")

_BITS = 16                        # width of one packed exponent digit
_MASK, _HALF = (1 << _BITS) - 1, 1 << (_BITS - 1)
_EMAX = _HALF - 1                 # largest |exponent| a digit holds


def _num(value) -> int | Fraction:
    """An exact rational value: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _pack(vars: tuple[str, ...], expo: tuple[int, ...]) -> tuple[int, int]:
    """(packed key, largest |exponent|) of one exponent vector."""
    if len(expo) != len(vars):
        raise ValueError(f"exponent {expo} does not match variables {vars}")
    for name, e in zip(vars, expo):
        if not -_EMAX <= e <= _EMAX:
            raise OverflowError(f"exponent {name}^{e} is outside ±{_EMAX}")
    key = 0
    for e in reversed(expo):
        key = (key << _BITS) + e
    return key, max(map(abs, expo), default=0)


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of n variables packed in key."""
    key += _HALF * ((1 << _BITS * n) - 1) // _MASK  # every digit made >= 0
    return tuple([((key >> s) & _MASK) - _HALF for s in range(0, _BITS * n, _BITS)])


def _new(vars, num: dict[int, int], den: int, bound: int) -> "Coefficient":
    """A Coefficient of numerators over den > 0, put in canonical form;
    bound is at least its largest |exponent|."""
    if den != 1 and (g := gcd(den, *num.values())) != 1:
        num, den = {k: v // g for k, v in num.items()}, den // g
    c = object.__new__(Coefficient)
    c.vars, c._num, c._den, c._bound = vars, num, den, bound if num else 0
    return c


def _power(one, base, n: int):
    """base**n for an int n >= 0 by square and multiply, starting from one."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _extremes(c: "Coefficient") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each variable's lowest and highest exponent in a nonzero c."""
    expos = list(zip(*(_unpack(k, len(c.vars)) for k in c._num)))
    return tuple(map(min, expos)), tuple(map(max, expos))


class Coefficient:
    """A Laurent polynomial with rational coefficients in named central variables."""

    __slots__ = ("vars", "_num", "_den", "_bound")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        num, den, bound = {}, 1, 0
        for expo, val in (terms or {}).items():
            if val:
                key, top = _pack(vars, tuple(expo))
                num[key] = val = _num(val)
                bound = max(bound, top)
                if type(val) is Fraction:
                    den = lcm(den, val.denominator)
        if den != 1:  # over the lcm of reduced denominators: already canonical
            num = {k: v * den if type(v) is int else v.numerator * (den // v.denominator)
                   for k, v in num.items()}
        self.vars, self._num, self._den, self._bound = vars, num, den, bound

    # ---------------------------------------------------------------- builders
    @classmethod
    def zero(cls, vars: tuple[str, ...] = QLM) -> "Coefficient":
        return _new(vars, {}, 1, 0)

    @classmethod
    def one(cls, vars: tuple[str, ...] = QLM) -> "Coefficient":
        return _new(vars, {0: 1}, 1, 0)

    @classmethod
    def rational(cls, value, vars: tuple[str, ...] = QLM) -> "Coefficient":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def param(cls, name: str, power: int = 1, vars: tuple[str, ...] = QLM, scale=1) -> "Coefficient":
        """`scale * name**power` as a one-term Laurent polynomial."""
        return cls.monomial(vars, scale, **{name: power})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], scale, **powers: int) -> "Coefficient":
        expo = [0] * len(vars)
        for name, p in powers.items():
            try:
                expo[vars.index(name)] = p
            except ValueError:
                raise ValueError(f"no variable {name!r} in {vars}") from None
        return cls(vars, {tuple(expo): scale})

    # ---------------------------------------------------------------- queries
    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """A new {exponent tuple: value} dict in term order; a value is an
        int when integral and a Fraction otherwise."""
        n, den = len(self.vars), self._den
        return {_unpack(k, n): v if den == 1 else _num(Fraction(v, den)) for k, v in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._den == 1 and len(self._num) == 1 and self._num.get(0) == 1

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    def constant_value(self) -> Fraction:
        """The rational value, if no variable actually occurs; raises otherwise."""
        if not self._num:
            return Fraction(0)
        if len(self._num) != 1 or 0 not in self._num:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._num[0], self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.vars == other.vars and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.vars, self._den, frozenset(self._num.items())))

    def _check(self, other: "Coefficient"):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.vars != other.vars:
            self._check(other)
        den = self._den
        if den == other._den:
            out, terms = dict(self._num), other._num.items()
        else:
            den = lcm(den, other._den)
            fa, fb = den // self._den, den // other._den
            out = {k: v * fa for k, v in self._num.items()}
            terms = [(k, v * fb) for k, v in other._num.items()]
        for k, v in terms:
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return _new(self.vars, out, den, max(self._bound, other._bound))

    def __neg__(self) -> "Coefficient":
        return _new(self.vars, {k: -v for k, v in self._num.items()}, self._den, self._bound)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other) -> "Coefficient":
        if type(other) is not Coefficient:
            return self.scale(other)
        if self.vars is not other.vars and self.vars != other.vars:
            self._check(other)
        sn, on = self._num, other._num
        bound = self._bound + other._bound
        if len(sn) == 1 == len(on) and bound <= _EMAX:  # monomial times monomial
            (k1,), (k2,) = sn, on
            v, den = sn[k1] * on[k2], self._den * other._den
            if den != 1 and (g := gcd(v, den)) != 1:
                v, den = v // g, den // g
            c = object.__new__(Coefficient)
            c.vars, c._num, c._den, c._bound = self.vars, {k1 + k2: v}, den, bound
            return c
        # the product is commutative: let `small` be the side with fewer terms
        small, big = (self, other) if len(sn) <= len(on) else (other, self)
        sn, bn = small._num, big._num
        if len(sn) == 1:
            ((k1, v1),) = sn.items()
            if not k1 and v1 == 1 and small._den == 1:
                return big
        if bound > _EMAX:
            # a variable's extreme exponents in a product are the sums of its
            # factors' (the product of the extreme parts cannot vanish)
            (lo1, hi1), (lo2, hi2) = _extremes(small), _extremes(big)
            _, bound = _pack(self.vars, tuple(max(a + b, c + d, key=abs)
                                              for a, b, c, d in zip(lo1, lo2, hi1, hi2)))
        if len(sn) == 1:
            # a monomial shifts exponents one-to-one: no two products collide
            return _new(self.vars, {k1 + k2: v1 * v2 for k2, v2 in bn.items()},
                        small._den * big._den, bound)
        out: dict[int, int] = {}
        get = out.get
        for k1, v1 in sn.items():
            for k2, v2 in bn.items():
                k = k1 + k2
                s = get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _new(self.vars, out, small._den * big._den, bound)

    __rmul__ = __mul__

    def scale(self, value) -> "Coefficient":
        value = _num(value)
        p, r = (value, 1) if type(value) is int else (value.numerator, value.denominator)
        return _new(self.vars, {k: v * p for k, v in self._num.items() if p},
                    self._den * r, self._bound)

    def __pow__(self, n: int) -> "Coefficient":
        if not isinstance(n, int):
            raise TypeError(f"power must be an int, got {n!r}")
        if n < 0:
            return self.monomial_inverse() ** (-n)
        if self._bound * n > _EMAX:
            _pack(self.vars, tuple(max(a * n, b * n, key=abs) for a, b in zip(*_extremes(self))))
        return _power(Coefficient.one(self.vars), self, n)

    def monomial_inverse(self) -> "Coefficient":
        if not self.is_monomial():
            raise ValueError(f"not invertible as a Laurent monomial: {self}")
        ((k, v),) = self._num.items()
        return _new(self.vars, {-k: self._den if v > 0 else -self._den}, abs(v), self._bound)

    # ------------------------------------------------------------ conjugation
    def conj_param(self, name: str) -> "Coefficient":
        """Invert one variable, name ↦ name⁻¹ (the q-conjugation of the star maps)."""
        i = self.vars.index(name)
        return _new(self.vars, {k - (2 * _unpack(k, i + 1)[i] << _BITS * i): v
                                for k, v in self._num.items()}, self._den, self._bound)

    def spread_param(self, src: str, dsts: Iterable[str]) -> "Coefficient":
        """Substitute src^n ↦ Π dst^n (e.g. lam ↦ lam·mu, or a rename lam ↦ mu)."""
        i = self.vars.index(src)
        dst_idx = [self.vars.index(d) for d in dsts]
        out: dict[int, int] = {}
        bound = 0
        for k, v in self._num.items():
            e = list(_unpack(k, len(self.vars)))
            n, e[i] = e[i], 0
            for j in dst_idx:
                e[j] += n
            key, top = _pack(self.vars, tuple(e))
            bound = max(bound, top)
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                del out[key]
        return _new(self.vars, out, self._den, bound)

    def param_degrees(self, name: str) -> set[int]:
        i = self.vars.index(name)
        return {_unpack(k, i + 1)[i] for k in self._num}

    def coefficient_of(self, name: str, power: int) -> "Coefficient":
        """The Laurent coefficient of name**power (name removed from the result)."""
        try:
            i = self.vars.index(name)
        except ValueError:
            raise ValueError(f"no variable {name!r} in {self.vars}") from None
        num = {k - (power << _BITS * i): v for k, v in self._num.items()
               if _unpack(k, i + 1)[i] == power}
        return _new(self.vars, num, self._den, self._bound)

    # --------------------------------------------------------------- numerics
    def evaluate(self, values: Mapping[str, complex]) -> complex:
        terms = self.terms
        missing = [v for i, v in enumerate(self.vars)
                   if v not in values and any(e[i] for e in terms)]
        if missing:
            raise KeyError(f"no numeric value for {missing}")
        total = 0j
        for expo, val in terms.items():
            term = complex(val)
            for name, e in zip(self.vars, expo):
                if e:
                    term *= values[name] ** e
            total += term
        return total

    # ------------------------------------------------------------------ print
    def __repr__(self) -> str:
        return f"Coefficient({self})"

    def __str__(self) -> str:
        parts = []
        for expo, val in sorted(self.terms.items()):
            body = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(self.vars, expo) if e)
            parts.append(body if body and val == 1 else f"-{body}" if body and val == -1
                         else f"{val}*{body}" if body else str(val))
        if not parts:
            return "0"
        return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                                  for p in parts[1:])
