"""Noncommutative polynomials over site-indexed copies of a quadratic algebra.

An NCPoly is a finite sum of words in generators placed at integer "sites"
(lattice positions or tensor legs), with exact Laurent-polynomial coefficients.
Letters at *different* sites always commute (ultralocality); letters at the
same site are reduced to a Poincare–Birkhoff–Witt normal form by a confluent
rewriting system carried by the Presentation:

  * generator order = the order generators are listed (PBW order),
  * each rule rewrites a descending adjacent pair into a combination of
    strictly smaller words in the degree-lexicographic order,
  * unit pairs (x, y) contribute the two annihilation rules x.y -> 1, y.x -> 1.

Every NCPoly is kept in normal form at all times, so equality of normal forms
is dictionary equality.  Rewriting is memoized per presentation; the diamond
check for local confluence (`check_confluence`) makes memoized reduction safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .coeff import QLM, Coefficient

__all__ = [
    "Presentation",
    "NCPoly",
    "GenMap",
    "PartialMapError",
    "ConfluenceResult",
    "check_confluence",
    "random_poly",
]

# A word is a tuple of (site, generator-index) letters.
Word = tuple[tuple[int, int], ...]
# Site-local words drop the site tag.
LocalWord = tuple[int, ...]


class PartialMapError(KeyError):
    """Raised when a generator map is applied outside its covered generators."""


def _deglex_less(a: LocalWord, b: LocalWord) -> bool:
    return (len(a), a) < (len(b), b)


class Presentation:
    """A finitely presented quadratic algebra with a rewriting normal form."""

    def __init__(
        self,
        name: str,
        gens: Sequence[str],
        rules: Mapping[tuple[int, int], Mapping[LocalWord, Coefficient]],
        vars: tuple[str, ...] = QLM,
        unit_pairs: Sequence[tuple[int, int]] = (),
    ):
        self.name = name
        self.gens = tuple(gens)
        self.vars = vars
        self.unit_pairs = tuple(unit_pairs)
        self.rules: dict[tuple[int, int], dict[LocalWord, Coefficient]] = {
            lhs: {w: c for w, c in rhs.items() if c} for lhs, rhs in rules.items()
        }
        self._reduce_cache: dict[LocalWord, dict[LocalWord, Coefficient]] = {}
        self._validate()

    def _validate(self):
        seen = set()
        for g in self.gens:
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        n = len(self.gens)
        for (g1, g2), rhs in self.rules.items():
            if not (0 <= g1 < n and 0 <= g2 < n):
                raise ValueError(f"rule LHS out of range: {(g1, g2)}")
            lhs = (g1, g2)
            for w in rhs:
                if not _deglex_less(w, lhs):
                    raise ValueError(
                        f"{self.name}: rule {self._lw(lhs)} -> {self._lw(w)} does not "
                        "decrease the degree-lexicographic order; rewriting may loop"
                    )

    # ------------------------------------------------------------- utilities
    def index(self, gen_name: str) -> int:
        return self.gens.index(gen_name)

    def _lw(self, w: LocalWord) -> str:
        return ".".join(self.gens[g] for g in w) if w else "1"

    def free_copy(self) -> "Presentation":
        """Same generators, no rules: words are only site-sorted, never reduced."""
        return Presentation(self.name + "/free", self.gens, {}, self.vars)

    # ------------------------------------------------------------ reduction
    def reduce_local(self, word: LocalWord) -> dict[LocalWord, Coefficient]:
        """Fully reduce a one-site word; leftmost redex first, memoized."""
        cached = self._reduce_cache.get(word)
        if cached is not None:
            return cached
        rules = self.rules
        for i in range(len(word) - 1):
            rhs = rules.get((word[i], word[i + 1]))
            if rhs is None:
                continue
            prefix, suffix = word[:i], word[i + 2 :]
            out: dict[LocalWord, Coefficient] = {}
            for rw, rc in rhs.items():
                for w2, c2 in self.reduce_local(prefix + rw + suffix).items():
                    acc = out.get(w2)
                    prod = rc * c2
                    out[w2] = prod if acc is None else acc + prod
            out = {w2: c2 for w2, c2 in out.items() if c2}
            self._reduce_cache[word] = out
            return out
        out = {word: Coefficient.one(self.vars)}
        self._reduce_cache[word] = out
        return out

    # ---------------------------------------------------------- constructors
    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(): Coefficient.one(self.vars)}, normalized=True)

    def scalar(self, coeff) -> "NCPoly":
        if isinstance(coeff, (int, Fraction)):
            coeff = Coefficient.rational(coeff, self.vars)
        return NCPoly(self, {(): coeff}, normalized=True)

    def gen(self, name: str, site: int = 0) -> "NCPoly":
        g = self.index(name)
        return NCPoly(
            self, {((site, g),): Coefficient.one(self.vars)}, normalized=True
        )

    def word(self, names: Sequence[str], site: int = 0) -> "NCPoly":
        p = self.one()
        for nm in names:
            p = p * self.gen(nm, site)
        return p

    def param(self, name: str, power: int = 1, scale=1) -> "NCPoly":
        return self.scalar(Coefficient.param(name, power, self.vars, scale))


class NCPoly:
    """A normal-form element of a multi-site copy of a presented algebra."""

    __slots__ = ("alg", "terms")

    def __init__(
        self,
        alg: Presentation,
        terms: Mapping[Word, Coefficient],
        normalized: bool = False,
    ):
        self.alg = alg
        if normalized:
            self.terms = dict(terms)
        else:
            self.terms = _normal_form(alg, terms)

    # --------------------------------------------------------------- queries
    def is_zero(self) -> bool:
        return not self.terms

    def sites(self) -> set[int]:
        return {s for w in self.terms for (s, _) in w}

    def n_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), frozenset((w, hash(c)) for w, c in self.terms.items())))

    def _check(self, other: "NCPoly"):
        if self.alg is not other.alg:
            raise ValueError(
                f"mixed algebras: {self.alg.name} vs {other.alg.name}"
            )

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            s = c if acc is None else acc + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return NCPoly(self.alg, out, normalized=True)

    def __neg__(self) -> "NCPoly":
        return NCPoly(
            self.alg, {w: -c for w, c in self.terms.items()}, normalized=True
        )

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        self._check(other)
        raw: dict[Word, Coefficient] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                prod = c1 * c2
                acc = raw.get(w)
                raw[w] = prod if acc is None else acc + prod
        return NCPoly(self.alg, raw)

    def __rmul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "NCPoly":
        if isinstance(value, (int, Fraction)):
            value = Coefficient.rational(value, self.alg.vars)
        out = {}
        for w, c in self.terms.items():
            prod = c * value
            if prod:
                out[w] = prod
        return NCPoly(self.alg, out, normalized=True)

    def __pow__(self, n: int) -> "NCPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for NCPoly")
        result = self.alg.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    # ----------------------------------------------------------------- star
    def star(self) -> "NCPoly":
        """Anti-involution: reverse words, conjugate q ↦ q⁻¹ in coefficients."""
        raw: dict[Word, Coefficient] = {}
        has_q = "q" in self.alg.vars
        for w, c in self.terms.items():
            cw = c.conj_param("q") if has_q else c
            rw = tuple(reversed(w))
            acc = raw.get(rw)
            raw[rw] = cw if acc is None else acc + cw
        return NCPoly(self.alg, raw)

    # ----------------------------------------------------- coefficient moves
    def map_coeff(self, fn: Callable[[Coefficient], Coefficient]) -> "NCPoly":
        out = {}
        for w, c in self.terms.items():
            c2 = fn(c)
            if c2:
                out[w] = c2
        return NCPoly(self.alg, out, normalized=True)

    def spread_param(self, src: str, dsts: Iterable[str]) -> "NCPoly":
        """Apply src^n ↦ Π dst^n to every coefficient (spectral substitutions)."""
        dsts = tuple(dsts)
        raw: dict[Word, Coefficient] = {}
        for w, c in self.terms.items():
            c2 = c.spread_param(src, dsts)
            acc = raw.get(w)
            raw[w] = c2 if acc is None else acc + c2
        return NCPoly(self.alg, {w: c for w, c in raw.items() if c}, normalized=True)

    def coefficient_of(self, name: str, power: int) -> "NCPoly":
        out = {}
        for w, c in self.terms.items():
            c2 = c.coefficient_of(name, power)
            if c2:
                out[w] = c2
        return NCPoly(self.alg, out, normalized=True)

    def param_degrees(self, name: str) -> set[int]:
        degs: set[int] = set()
        for c in self.terms.values():
            degs |= c.param_degrees(name)
        return degs

    # ------------------------------------------------------------------ misc
    def shift_sites(self, fn: Callable[[int], int]) -> "NCPoly":
        raw = {}
        for w, c in self.terms.items():
            raw[tuple((fn(s), g) for (s, g) in w)] = c
        return NCPoly(self.alg, raw)

    def __repr__(self) -> str:
        return f"NCPoly<{self.alg.name}>({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        gens = self.alg.gens
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            body = ".".join(f"{gens[g]}[{s}]" for (s, g) in w)
            cs = str(c)
            if body:
                cs = body if cs == "1" else (f"-{body}" if cs == "-1" else f"({cs})*{body}")
            parts.append(cs)
        return " + ".join(parts)


def _normal_form(alg: Presentation, raw: Mapping[Word, Coefficient]) -> dict[Word, Coefficient]:
    out: dict[Word, Coefficient] = {}
    for word, coeff in raw.items():
        if not coeff:
            continue
        # Stable-split the word by site: cross-site letters commute freely.
        by_site: dict[int, list[int]] = {}
        for (s, g) in word:
            by_site.setdefault(s, []).append(g)
        # Reduce site by site and multiply the local results back out.
        combos: list[tuple[Word, Coefficient]] = [((), coeff)]
        for s in sorted(by_site):
            lw = tuple(by_site[s])
            local = alg.reduce_local(lw)
            if lw in local:
                # already normal: rules only make words smaller, so lw
                # survives only if none applied, alone and with coefficient 1
                tail = tuple((s, g) for g in lw)
                combos = [(w + tail, c) for (w, c) in combos]
                continue
            tails = [(tuple((s, g) for g in w2), c2) for w2, c2 in local.items()]
            combos = [(w + tail, c * lc) for (w, c) in combos for (tail, lc) in tails]
        for w, c in combos:
            acc = out.get(w)
            s2 = c if acc is None else acc + c
            if s2:
                out[w] = s2
            else:
                out.pop(w, None)
    return out


# --------------------------------------------------------------------------
# generator maps
# --------------------------------------------------------------------------

class GenMap:
    """An algebra map given on generators, of tensor arity 1 or 2.

    Images are NCPolys over the target presentation living at sites (0,) for
    arity 1 or (0, 1) for arity 2.  Applying the map sends a letter at site s
    to its image shifted to sites (arity*s, ..., arity*s + arity - 1).
    Generators without an image make the map partial; applying it to a
    polynomial touching them raises PartialMapError.
    """

    def __init__(
        self,
        name: str,
        source: Presentation,
        target: Presentation,
        arity: int,
        images: Mapping[str, NCPoly],
    ):
        if arity not in (1, 2):
            raise ValueError("arity must be 1 or 2")
        self.name = name
        self.source = source
        self.target = target
        self.arity = arity
        self.images: dict[int, NCPoly] = {}
        for gname, img in images.items():
            if img.alg is not target:
                raise ValueError(f"image of {gname} lives in {img.alg.name}, not {target.name}")
            bad = [s for s in img.sites() if not 0 <= s < arity]
            if bad:
                raise ValueError(f"image of {gname} uses sites {bad} outside arity {arity}")
            self.images[source.index(gname)] = img

    def covers(self, gen_name: str) -> bool:
        return self.source.index(gen_name) in self.images

    def covered_gens(self) -> list[str]:
        return [g for g in self.source.gens if self.covers(g)]

    def __call__(self, p: NCPoly, positions: Mapping[int, tuple[int, ...] | int] | None = None) -> NCPoly:
        """Apply the map; `positions` overrides the per-site output placement.

        positions[s] = tuple of output sites (expand the letter via its image)
        or a single int (pass the letter through unchanged — requires source
        and target to be the same presentation).  Default expands every site s
        to (arity*s, ..., arity*s + arity - 1).
        """
        if p.alg is not self.source:
            raise ValueError(f"{self.name} expects elements of {self.source.name}")
        if self.source.vars != self.target.vars:
            raise ValueError("source and target must share the same parameter ring")
        out = self.target.zero()
        for word, coeff in p.terms.items():
            acc = self.target.scalar(coeff)
            for (s, g) in word:
                spec = None if positions is None else positions.get(s)
                if spec is None:
                    spec = tuple(self.arity * s + k for k in range(self.arity))
                if isinstance(spec, int):
                    if self.source is not self.target:
                        raise ValueError("pass-through sites need source == target")
                    acc = acc * NCPoly(
                        self.target,
                        {((spec, g),): Coefficient.one(self.target.vars)},
                        normalized=True,
                    )
                    continue
                img = self.images.get(g)
                if img is None:
                    raise PartialMapError(
                        f"{self.name} has no image for generator "
                        f"{self.source.gens[g]!r}"
                    )
                table = dict(enumerate(spec))
                acc = acc * img.shift_sites(lambda x: table[x])
            out = out + acc
        return out

    # ------------------------------------------------------------ law checks
    def hom_defects(self) -> tuple[list[str], list[str]]:
        """Check every source rule maps to zero; returns (failures, skipped)."""
        failures, skipped = [], []
        for (g1, g2), rhs in self.source.rules.items():
            letters = {g1, g2} | {g for w in rhs for g in w}
            if not letters <= self.images.keys():
                skipped.append(self.source._lw((g1, g2)))
                continue
            lhs_img = self(self.source.gen(self.source.gens[g1])) * self(
                self.source.gen(self.source.gens[g2])
            )
            rhs_img = self.target.zero()
            for w, c in rhs.items():
                term = self.target.scalar(c)
                for g in w:
                    term = term * self(self.source.gen(self.source.gens[g]))
                rhs_img = rhs_img + term
            if lhs_img != rhs_img:
                failures.append(self.source._lw((g1, g2)))
        return failures, skipped

    def coassoc_defects(self) -> tuple[list[str], list[str]]:
        """(m⊗id)m = (id⊗m)m on covered generators (source must equal target)."""
        if self.arity != 2 or self.source is not self.target:
            raise ValueError("coassociativity needs an arity-2 endomap")
        failures, skipped = [], []
        for g in self.covered_gens():
            try:
                once = self(self.source.gen(g))
                left = self(once, positions={0: (0, 1), 1: 2})
                right = self(once, positions={0: 0, 1: (1, 2)})
            except PartialMapError:
                skipped.append(g)
                continue
            if left != right:
                failures.append(g)
        return failures, skipped

    def star_hom_defects(self) -> list[str]:
        """m(x*) = (m(x))* on covered generators."""
        failures = []
        for g in self.covered_gens():
            x = self.source.gen(g)
            if self(x.star()) != self(x).star():
                failures.append(g)
        return failures


# --------------------------------------------------------------------------
# confluence
# --------------------------------------------------------------------------

@dataclass
class ConfluenceResult:
    algebra: str
    n_pairs: int
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def first_failure(self) -> str | None:
        if not self.failures:
            return None
        word, left, right = self.failures[0]
        return f"critical pair {word}: {left} != {right}"


def check_confluence(alg: Presentation) -> ConfluenceResult:
    """Diamond-lemma local confluence: resolve every length-3 overlap ambiguity.

    All rule left-hand sides have length 2, so the only overlaps are words
    x.y.z where (x, y) and (y, z) are both redexes.  Each is reduced both ways
    to normal form; any disagreement is reported with the offending word.
    """
    n_pairs = 0
    failures = []
    lhs_by_first: dict[int, list[tuple[int, int]]] = {}
    for (g1, g2) in alg.rules:
        lhs_by_first.setdefault(g1, []).append((g1, g2))
    for (x, y) in alg.rules:
        for (_, z) in lhs_by_first.get(y, ()):
            n_pairs += 1
            word = (x, y, z)
            # reduce the left redex first, then fully
            left_acc: dict[LocalWord, Coefficient] = {}
            for rw, rc in alg.rules[(x, y)].items():
                for w2, c2 in alg.reduce_local(rw + (z,)).items():
                    acc = left_acc.get(w2)
                    prod = rc * c2
                    left_acc[w2] = prod if acc is None else acc + prod
            right_acc: dict[LocalWord, Coefficient] = {}
            for rw, rc in alg.rules[(y, z)].items():
                for w2, c2 in alg.reduce_local((x,) + rw).items():
                    acc = right_acc.get(w2)
                    prod = rc * c2
                    right_acc[w2] = prod if acc is None else acc + prod
            left_acc = {w: c for w, c in left_acc.items() if c}
            right_acc = {w: c for w, c in right_acc.items() if c}
            if left_acc != right_acc:
                fmt = lambda d: " + ".join(
                    f"({c})*{alg._lw(w)}" for w, c in sorted(d.items())
                ) or "0"
                failures.append((alg._lw(word), fmt(left_acc), fmt(right_acc)))
    return ConfluenceResult(alg.name, n_pairs, failures)


# --------------------------------------------------------------------------
# random elements (for property tests and fuzzing)
# --------------------------------------------------------------------------

def random_poly(alg: Presentation, rng, n_terms: int = 3, max_len: int = 4, n_sites: int = 1) -> NCPoly:
    """A small random element; deterministic given the rng state."""
    total = alg.zero()
    for _ in range(n_terms):
        length = rng.randrange(max_len + 1)
        word = tuple(
            (rng.randrange(n_sites), rng.randrange(len(alg.gens)))
            for _ in range(length)
        )
        coeff = Coefficient.monomial(
            alg.vars,
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
            q=rng.randrange(-2, 3),
        )
        total = total + NCPoly(alg, {word: coeff})
    return total
