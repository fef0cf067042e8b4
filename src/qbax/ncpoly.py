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
Every product runs one multiply-accumulate kernel, `_mul_into`, which adds p q
term by term into a dict its caller owns: an NCPoly product, or one entry of
an OpMatrix product (right operands prepared once).  `free_copy()` is one
rule-free copy per presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .coeff import _BITS, QLM, Coefficient, _new

__all__ = [
    "Presentation",
    "NCPoly",
    "OpMatrix",
    "Operator",
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
        self._site_cache: dict[tuple[int, LocalWord], _SiteTerms] = {}
        self._free: Presentation | None = None
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
        """Same generators, no rules: words are only site-sorted, never
        reduced.  One copy per presentation, so its memos are shared."""
        if self._free is None:
            self._free = Presentation(self.name + "/free", self.gens, {}, self.vars)
        return self._free

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
            out: dict[LocalWord, Coefficient] = {}
            for rw, rc in rhs.items():
                for w2, c2 in self.reduce_local(word[:i] + rw + word[i + 2:]).items():
                    _accumulate(out, w2, rc * c2)
            self._reduce_cache[word] = out
            return out
        out = {word: Coefficient.one(self.vars)}
        self._reduce_cache[word] = out
        return out

    def site_terms(self, site: int, word: LocalWord) -> "_SiteTerms":
        """reduce_local(word) as (letters at site, coefficient) terms, memoized;
        the coefficient is None where it is 1."""
        key = (site, word)
        out = self._site_cache.get(key)
        if out is None:
            out = tuple((tuple((site, g) for g in w), None if c.is_one() else c)
                        for w, c in self.reduce_local(word).items())
            self._site_cache[key] = out
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
            _accumulate(out, w, c)
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
        out: dict[Word, Coefficient] = {}
        _mul_into(out, self, _right(other))
        return NCPoly(self.alg, out, normalized=True)

    def __rmul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "NCPoly":
        if isinstance(value, (int, Fraction)):
            value = Coefficient.rational(value, self.alg.vars)
        return self.map_coeff(lambda c: c * value)

    def __pow__(self, n: int) -> "NCPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for NCPoly")
        result = self.alg.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    # ----------------------------------------------------------------- star
    def star(self) -> "NCPoly":
        """Anti-involution: reverse words, conjugate q ↦ q⁻¹ in coefficients."""
        has_q = "q" in self.alg.vars
        return NCPoly(self.alg, {w[::-1]: c.conj_param("q") if has_q else c
                                 for w, c in self.terms.items()})

    # ----------------------------------------------------- coefficient moves
    def map_coeff(self, fn: Callable[[Coefficient], Coefficient]) -> "NCPoly":
        mapped = ((w, fn(c)) for w, c in self.terms.items())
        return NCPoly(self.alg, {w: c for w, c in mapped if c}, normalized=True)

    def spread_param(self, src: str, dsts: Iterable[str]) -> "NCPoly":
        """Apply src^n ↦ Π dst^n to every coefficient (spectral substitutions)."""
        dsts = tuple(dsts)
        return self.map_coeff(lambda c: c.spread_param(src, dsts))

    def coefficient_of(self, name: str, power: int) -> "NCPoly":
        return self.map_coeff(lambda c: c.coefficient_of(name, power))

    def param_degrees(self, name: str) -> set[int]:
        return set().union(*(c.param_degrees(name) for c in self.terms.values()))

    # ------------------------------------------------------------------ misc
    def shift_sites(self, fn: Callable[[int], int]) -> "NCPoly":
        return NCPoly(self.alg, {tuple((fn(s), g) for (s, g) in w): c
                                 for w, c in self.terms.items()})

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


_SiteTerms = tuple[tuple[Word, "Coefficient | None"], ...]
_SITE, _GEN = itemgetter(0), itemgetter(1)


def _blocks(word: Word) -> dict[int, tuple[LocalWord, _SiteTerms]]:
    """Per site of a normal word, in site order: its local word, and its
    letters as a one-term part."""
    blocks = {}
    for s, letters in groupby(word, _SITE):
        letters = tuple(letters)
        blocks[s] = (tuple(map(_GEN, letters)), ((letters, None),))
    return blocks


def _right(q: NCPoly) -> list:
    """q's terms with their first and last sites and site blocks."""
    return [(w, c, w[0][0], w[-1][0], _blocks(w)) if w else (w, c, inf, -inf, {})
            for w, c in q.terms.items()]


def _mul_into(out: dict[Word, Coefficient], p: NCPoly, right: list):
    """out += p q, term by term, for normal p and q = _right(q) over one
    presentation.

    Words whose site ranges do not overlap are concatenated.  Otherwise one
    merge of their site blocks reduces the sites both words hold, and a
    site held by one word only keeps its letters."""
    site_terms = p.alg.site_terms
    for w1, c1 in p.terms.items():
        first1, last1 = (w1[0][0], w1[-1][0]) if w1 else (inf, -inf)
        blocks1 = None
        for w2, c2, first2, last2, blocks2 in right:
            c = c1 * c2
            if last1 < first2:
                _accumulate(out, w1 + w2, c)
            elif last2 < first1:
                _accumulate(out, w2 + w1, c)
            else:
                blocks1 = blocks1 or _blocks(w1)
                _expand([site_terms(s, x[0] + y[0])
                         if (x := blocks1.get(s)) and (y := blocks2.get(s)) else (x or blocks2[s])[1]
                         for s in sorted(blocks1.keys() | blocks2.keys())], c, out)


def _expand(parts: Sequence[_SiteTerms], coeff: Coefficient, out: dict[Word, Coefficient]):
    """Add coeff times the product of parts, one per site in site order."""
    word, combos = (), None
    for terms in parts:
        if combos is None and len(terms) == 1:
            ((t, lc),) = terms
            word, coeff = word + t, coeff if lc is None else coeff * lc
        else:
            combos = [(w + t, c if lc is None else c * lc) for w, c in
                      ([(word, coeff)] if combos is None else combos) for t, lc in terms]
    for w, c in [(word, coeff)] if combos is None else combos:
        _accumulate(out, w, c)


def _accumulate(out: dict, key, c: Coefficient):
    """out[key] += c, dropping the entry if it cancels."""
    acc = out.get(key)
    if acc is not None:
        c = acc + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _normal_form(alg: Presentation, raw: Mapping[Word, Coefficient]) -> dict[Word, Coefficient]:
    out: dict[Word, Coefficient] = {}
    for word, coeff in raw.items():
        if not coeff:
            continue
        # Stable-split the word by site: cross-site letters commute freely.
        by_site: dict[int, list[int]] = {}
        for (s, g) in word:
            by_site.setdefault(s, []).append(g)
        _expand([alg.site_terms(s, tuple(by_site[s])) for s in sorted(by_site)], coeff, out)
    return out


# --------------------------------------------------------------------------
# operator matrices
# --------------------------------------------------------------------------

class OpMatrix:
    """A dense matrix of NCPoly entries over one presentation."""

    def __init__(self, alg: Presentation, rows: Sequence[Sequence[NCPoly]]):
        self.alg = alg
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("OpMatrix must be square")

    @classmethod
    def zeros(cls, alg: Presentation, n: int) -> "OpMatrix":
        return cls(alg, [[alg.zero() for _ in range(n)] for _ in range(n)])

    @classmethod
    def identity(cls, alg: Presentation, n: int) -> "OpMatrix":
        m = cls.zeros(alg, n)
        for i in range(n):
            m.rows[i][i] = alg.one()
        return m

    def __getitem__(self, i: int) -> list[NCPoly]:
        return self.rows[i]

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        cols = [[(b, _right(b)) for b in col] for col in zip(*other.rows)]
        rows = []
        for row in self.rows:
            rows.append(entries := [])
            for col in cols:
                out: dict[Word, Coefficient] = {}
                for a, (b, right) in zip(row, col):
                    if a.terms and right:  # embedded matrices are mostly zero
                        a._check(b)
                        _mul_into(out, a, right)
                entries.append(NCPoly(self.alg, out, normalized=True))
        return OpMatrix(self.alg, rows)

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix(
            self.alg,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix(
            self.alg,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "OpMatrix":
        return OpMatrix(self.alg, [[-a for a in r] for r in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.alg is other.alg and self.rows == other.rows

    def map_entries(self, fn: Callable[[NCPoly], NCPoly]) -> "OpMatrix":
        return OpMatrix(self.alg, [[fn(a) for a in r] for r in self.rows])

    def map_entries_to(self, alg: Presentation, fn) -> "OpMatrix":
        return OpMatrix(alg, [[fn(a) for a in r] for r in self.rows])

    def spread_param(self, src: str, dsts) -> "OpMatrix":
        return self.map_entries(lambda p: p.spread_param(src, dsts))

    def coefficient_of(self, name: str, power: int) -> "OpMatrix":
        return self.map_entries(lambda p: p.coefficient_of(name, power))

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.rows for p in r)

    def nonzero_entries(self) -> list[tuple[int, int, NCPoly]]:
        return [
            (i, j, p)
            for i, r in enumerate(self.rows)
            for j, p in enumerate(r)
            if not p.is_zero()
        ]

    def trace(self) -> NCPoly:
        return sum((self.rows[i][i] for i in range(self.n)), self.alg.zero())

    def param_degrees(self, name: str) -> set[int]:
        return set().union(*(p.param_degrees(name) for r in self.rows for p in r))

    def __repr__(self):
        return f"OpMatrix({self.n}x{self.n} over {self.alg.name})"


class Operator:
    """A named square matrix on site 0 of a home algebra, linear in the
    generators (declared as text, see `algtext.load_operators`).

    op(alg=None, site=0) is its OpMatrix over `alg` (default: the home
    algebra), letters matched by generator name and moved to `site`; being
    linear, the entries stay normal whatever the generator order of `alg`.
    """

    def __init__(self, name: str, alg: Presentation,
                 rows: Sequence[Sequence[NCPoly]]):
        self.__name__ = name
        self.alg = alg
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows or any(len(r) != len(self.rows) for r in self.rows):
            raise ValueError(f"rows of lengths {[len(r) for r in self.rows]} "
                             "are not square")
        words = [w for r in self.rows for p in r for w in p.terms]
        if any(len(w) > 1 for w in words):
            raise ValueError("an entry is not linear in the generators")
        if any(s for w in words for s, _ in w):
            raise ValueError("an entry is not on site 0")

    def __call__(self, alg: Presentation | None = None, site: int = 0) -> OpMatrix:
        if alg is None:
            alg = self.alg
        names = self.alg.gens
        index = {i: alg.index(g) for i, g in enumerate(names) if g in alg.gens}

        def move(p: NCPoly) -> NCPoly:
            try:
                return NCPoly(alg, {tuple((site + s, index[g]) for s, g in w): c
                                    for w, c in p.terms.items()}, normalized=True)
            except KeyError as exc:
                raise ValueError(f"{self.__name__}: {alg.name} has no generator "
                                 f"{names[exc.args[0]]!r}") from None

        return OpMatrix(alg, [[move(p) for p in row] for row in self.rows])


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
                    acc = acc * self.target.gen(self.target.gens[g], spec)
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
        img = {g: self(self.source.gen(name))
               for g, name in enumerate(self.source.gens) if g in self.images}
        for (g1, g2), rhs in self.source.rules.items():
            if not {g1, g2} | {g for w in rhs for g in w} <= img.keys():
                skipped.append(self.source._lw((g1, g2)))
                continue
            rhs_img = self.target.zero()
            for w, c in rhs.items():
                term = self.target.scalar(c)
                for g in w:
                    term = term * img[g]
                rhs_img = rhs_img + term
            if img[g1] * img[g2] != rhs_img:
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

    def resolve(rhs, wrap) -> dict[LocalWord, Coefficient]:
        """Sum of rc * wrap(rw) over one rule's right side, in normal form."""
        p = NCPoly(alg, {tuple((0, g) for g in wrap(rw)): rc for rw, rc in rhs.items()})
        return {tuple(g for _, g in w): c for w, c in p.terms.items()}

    for (x, y) in alg.rules:
        for (_, z) in lhs_by_first.get(y, ()):
            n_pairs += 1
            # reduce the left redex first, then fully; then the right one
            left_acc = resolve(alg.rules[(x, y)], lambda rw: rw + (z,))
            right_acc = resolve(alg.rules[(y, z)], lambda rw: (x,) + rw)
            if left_acc != right_acc:
                fmt = lambda d: " + ".join(f"({c})*{alg._lw(w)}"
                                           for w, c in sorted(d.items())) or "0"
                failures.append((alg._lw((x, y, z)), fmt(left_acc), fmt(right_acc)))
    return ConfluenceResult(alg.name, n_pairs, failures)


# --------------------------------------------------------------------------
# random elements (for property tests and fuzzing)
# --------------------------------------------------------------------------

def random_poly(alg: Presentation, rng, n_terms: int = 3, max_len: int = 4, n_sites: int = 1) -> NCPoly:
    """A small random element; deterministic given the rng state."""
    raw: dict[Word, Coefficient] = {}
    q_shift = _BITS * alg.vars.index("q")
    for _ in range(n_terms):
        length = rng.randrange(max_len + 1)
        word = tuple(
            (rng.randrange(n_sites), rng.randrange(len(alg.gens)))
            for _ in range(length)
        )
        # num/den * q^e, drawn in that order
        num, den, e = rng.randrange(-4, 5), rng.randrange(1, 4), rng.randrange(-2, 3)
        _accumulate(raw, word, _new(alg.vars, {e << q_shift: num} if num else {}, den, abs(e)))
    return NCPoly(alg, raw)
