"""Exact Laurent-polynomial coefficients over the rationals.

Coefficients of the noncommutative layer live in Q[q^±1, lam^±1, mu^±1, ...]:
multivariate Laurent polynomials stored as a mapping from integer exponent
tuples to exact rationals: an `int` when integral (most are, and int arithmetic
is far cheaper), a `fractions.Fraction` otherwise; 2 == Fraction(2) with equal
hashes.  Everything is exact; no floats enter until a caller explicitly
evaluates at numeric parameter values.  Coefficients are never mutated after
construction, so an operation may return an operand (one times x is x).

The variable tuple travels with each instance so different modules can use
different parameter sets (the lattice algebra uses ("q", "lam", "mu"), the
classical field layer uses ("beta", "lam")).  Mixing variable sets in one
operation is a bug and raises.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

__all__ = ["Coefficient", "QLM"]

# Parameter tuple used by the quantum-algebra layer: the deformation parameter
# and the two spectral parameters appearing in exchange relations.
QLM = ("q", "lam", "mu")


def _num(value) -> int | Fraction:
    """An exact rational value: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Coefficient:
    """A Laurent polynomial with rational coefficients in named central variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        self.vars = vars
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for expo, val in terms.items():
                if val:
                    self.terms[expo] = _num(val)

    # ---------------------------------------------------------------- builders
    @classmethod
    def zero(cls, vars: tuple[str, ...] = QLM) -> "Coefficient":
        return cls(vars)

    @classmethod
    def one(cls, vars: tuple[str, ...] = QLM) -> "Coefficient":
        return cls.rational(1, vars)

    @classmethod
    def rational(cls, value, vars: tuple[str, ...] = QLM) -> "Coefficient":
        value = _num(value)
        if not value:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def param(cls, name: str, power: int = 1, vars: tuple[str, ...] = QLM, scale=1) -> "Coefficient":
        """`scale * name**power` as a one-term Laurent polynomial."""
        expo = [0] * len(vars)
        expo[vars.index(name)] = power
        scale = _num(scale)
        if not scale:
            return cls(vars)
        return cls(vars, {tuple(expo): scale})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], scale, **powers: int) -> "Coefficient":
        expo = [0] * len(vars)
        for name, p in powers.items():
            expo[vars.index(name)] = p
        scale = _num(scale)
        if not scale:
            return cls(vars)
        return cls(vars, {tuple(expo): scale})

    # ---------------------------------------------------------------- queries
    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((0,) * len(self.vars)) == 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        """The rational value, if no variable actually occurs; raises otherwise."""
        if not self.terms:
            return Fraction(0)
        ((expo, val),) = self.terms.items() if len(self.terms) == 1 else ((None, None),)
        if expo is None or any(expo):
            raise ValueError(f"not a constant: {self}")
        return Fraction(val)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check(self, other: "Coefficient"):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.vars != other.vars:
            self._check(other)
        out = dict(self.terms)
        for expo, val in other.terms.items():
            s = out.get(expo, 0) + val
            if s:
                out[expo] = _num(s)
            else:
                out.pop(expo, None)
        res = Coefficient(self.vars)
        res.terms = out
        return res

    def __neg__(self) -> "Coefficient":
        res = Coefficient(self.vars)
        res.terms = {expo: -val for expo, val in self.terms.items()}
        return res

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other) -> "Coefficient":
        if type(other) is not Coefficient:
            return self.scale(other)
        if self.vars != other.vars:
            self._check(other)
        # the product is commutative: let `small` be the side with fewer terms
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        if len(small.terms) == 1:
            if small.is_one():
                return big
            if big.is_one():
                return small
            # a monomial shifts exponents one-to-one: no two products collide
            ((e1, v1),) = small.terms.items()
            res = Coefficient(self.vars)
            res.terms = {tuple(map(add, e1, e2)): _num(v1 * v2) for e2, v2 in big.terms.items()}
            return res
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, v1 in small.terms.items():
            for e2, v2 in big.terms.items():
                expo = tuple(map(add, e1, e2))
                s = out.get(expo, 0) + v1 * v2
                if s:
                    out[expo] = s
                else:
                    out.pop(expo, None)
        res = Coefficient(self.vars)
        res.terms = {expo: _num(val) for expo, val in out.items()}
        return res

    __rmul__ = __mul__

    def scale(self, value) -> "Coefficient":
        value = _num(value)
        res = Coefficient(self.vars)
        if value:
            res.terms = {expo: _num(val * value) for expo, val in self.terms.items()}
        return res

    def __pow__(self, n: int) -> "Coefficient":
        if n < 0:
            return self.monomial_inverse() ** (-n)
        result = Coefficient.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monomial_inverse(self) -> "Coefficient":
        if not self.is_monomial():
            raise ValueError(f"not invertible as a Laurent monomial: {self}")
        ((expo, val),) = self.terms.items()
        return Coefficient(self.vars, {tuple(-e for e in expo): Fraction(1) / val})

    # ------------------------------------------------------------ conjugation
    def conj_param(self, name: str) -> "Coefficient":
        """Invert one variable, name ↦ name⁻¹ (the q-conjugation of the star maps)."""
        i = self.vars.index(name)
        res = Coefficient(self.vars)
        res.terms = {
            tuple(-e if j == i else e for j, e in enumerate(expo)): val
            for expo, val in self.terms.items()
        }
        return res

    def spread_param(self, src: str, dsts: Iterable[str]) -> "Coefficient":
        """Substitute src^n ↦ Π dst^n (e.g. lam ↦ lam·mu, or a rename lam ↦ mu)."""
        i = self.vars.index(src)
        dst_idx = [self.vars.index(d) for d in dsts]
        out: dict[tuple[int, ...], int | Fraction] = {}
        for expo, val in self.terms.items():
            n = expo[i]
            e = list(expo)
            e[i] = 0
            for j in dst_idx:
                e[j] += n
            key = tuple(e)
            s = out.get(key, 0) + val
            if s:
                out[key] = _num(s)
            else:
                out.pop(key, None)
        res = Coefficient(self.vars)
        res.terms = out
        return res

    def param_degrees(self, name: str) -> set[int]:
        i = self.vars.index(name)
        return {expo[i] for expo in self.terms}

    def coefficient_of(self, name: str, power: int) -> "Coefficient":
        """The Laurent coefficient of name**power (name removed from the result)."""
        i = self.vars.index(name)
        res = Coefficient(self.vars)
        res.terms = {
            tuple(0 if j == i else e for j, e in enumerate(expo)): val
            for expo, val in self.terms.items()
            if expo[i] == power
        }
        return res

    # --------------------------------------------------------------- numerics
    def evaluate(self, values: Mapping[str, complex]) -> complex:
        missing = [v for v in self.vars if v not in values and any(e[self.vars.index(v)] for e in self.terms)]
        if missing:
            raise KeyError(f"no numeric value for {missing}")
        total = 0j
        for expo, val in self.terms.items():
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
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms):
            val = self.terms[expo]
            factors = []
            for name, e in zip(self.vars, expo):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(val)
            elif val == 1:
                piece = body
            elif val == -1:
                piece = f"-{body}"
            else:
                piece = f"{val}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out
