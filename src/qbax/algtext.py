"""Plain-text format for algebra presentations, generator maps, operator
matrices, and elements.

The relation catalog is stored as data, not code: presentations, maps and
operators are written in a small line-oriented language and parsed once at
import time.

    algebra Aq
    gens e k kinv f
    unit k kinv
    rule k.e -> q^-1 e.k
    rule f.e -> e.f - (q - q^-1) k.k

    map deltaA Aq -> Aq x Aq
    e -> e(x)kinv + k(x)e
    k -> k(x)k

    operator L_osc Aq              # one line per row, entries split by ','
    e, lam k
    lam kinv + lam^-1 k, f

    pairing osc R_sym L_osc Aq     # an exchange relation that closes

Expression grammar (used for rule right-hand sides, map images and operator
entries):

    expr    :=  [+|-] tensor ((+|-) tensor)*
    tensor  :=  prod ((x) prod)*          # legs are numbered left to right
    prod    :=  factor ([*|.] factor)*    # juxtaposition multiplies
    factor  :=  NUMBER | NAME | ( expr )  followed by an optional ^INT

Names must be generators of the algebra at hand or ring variables; `(x)` is
only legal at the top level of a map image.  `0` and `1` are the obvious
scalars.  Operator entries live on site 0 of the operator's home algebra.
Comments run from `#` to end of line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

from .coeff import QLM, Coefficient
from .ncpoly import GenMap, LocalWord, NCPoly, Operator, Presentation

__all__ = [
    "AlgTextError",
    "parse_poly",
    "load_algebras",
    "load_maps",
    "load_operators",
    "poly_text",
    "presentation_text",
    "map_text",
    "operator_text",
]


class AlgTextError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""(?P<tensor>\(x\))
      | (?P<number>\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<power>\^-?\d+)
      | (?P<op>[+\-*().])
      | (?P<ws>\s+)""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise AlgTextError(f"cannot tokenize {text[pos:pos+12]!r} in {text!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            toks.append((kind, m.group()))
    return toks


class _Parser:
    def __init__(self, text: str, alg: Presentation, legs: int):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.alg = alg
        self.legs = legs

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise AlgTextError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def _is_op(self, chars: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in chars

    def parse(self) -> NCPoly:
        p = self.expr(depth=0, leg=0)
        if self.peek() is not None:
            raise AlgTextError(f"trailing tokens after {self.toks[self.pos]} in {self.text!r}")
        return p

    def expr(self, depth: int, leg: int) -> NCPoly:
        total = self.alg.zero()
        sign = 1
        if self._is_op("+-"):
            sign = -1 if self.next()[1] == "-" else 1
        while True:
            total = total + self.tensor(depth, leg).scale(sign)
            if self._is_op("+-"):
                sign = -1 if self.next()[1] == "-" else 1
            else:
                return total

    def tensor(self, depth: int, leg: int) -> NCPoly:
        p = self.prod(depth, leg)
        while self.peek() is not None and self.peek()[0] == "tensor":
            if depth:
                raise AlgTextError(f"(x) inside parentheses in {self.text!r}")
            self.next()
            leg += 1
            if leg >= self.legs:
                raise AlgTextError(
                    f"too many tensor legs (max {self.legs}) in {self.text!r}"
                )
            p = p * self.prod(depth, leg)
        return p

    def prod(self, depth: int, leg: int) -> NCPoly:
        p = None
        while True:
            tok = self.peek()
            if tok is None or tok[0] == "tensor":
                break
            kind, val = tok
            if kind == "op" and val in "+-)":
                break
            if kind == "op" and val in "*.":
                self.next()
                continue
            f = self.factor(depth, leg)
            p = f if p is None else p * f
        if p is None:
            raise AlgTextError(f"empty product in {self.text!r}")
        return p

    def factor(self, depth: int, leg: int) -> NCPoly:
        kind, val = self.next()
        if kind == "op" and val == "(":
            base = self.expr(depth + 1, leg)
            if not self._is_op(")"):
                raise AlgTextError(f"missing ')' in {self.text!r}")
            self.next()
        elif kind == "number":
            base = self.alg.scalar(Fraction(val))
        elif kind == "name":
            if val in self.alg.gens:
                base = self.alg.gen(val, leg)
            elif val in self.alg.vars:
                base = self.alg.param(val)
            else:
                raise AlgTextError(
                    f"unknown symbol {val!r} (not a generator of {self.alg.name} "
                    f"or one of {self.alg.vars}) in {self.text!r}"
                )
        else:
            raise AlgTextError(f"unexpected token {val!r} in {self.text!r}")
        tok = self.peek()
        if tok is not None and tok[0] == "power":
            n = int(self.next()[1][1:])
            if n >= 0:
                base = base**n
            else:
                if set(base.terms) != {()}:
                    raise AlgTextError(
                        f"negative power of a non-scalar in {self.text!r}"
                    )
                base = self.alg.scalar(base.terms[()] ** n)
        return base


def parse_poly(text: str, alg: Presentation, legs: int = 1) -> NCPoly:
    """Parse an expression into a (normal-form) element of `alg`."""
    return _Parser(text, alg, legs).parse()


# --------------------------------------------------------------------------
# presentations
# --------------------------------------------------------------------------

def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _blocks(text: str, heads: tuple[str, ...]):
    """Yield (head, rest of line, body lines) for each line whose first word
    is one of `heads`; its body is the comment-free lines up to the next."""
    block = None
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head in heads:
            if block is not None:
                yield block
            block = (head, rest.strip(), [])
        elif block is None:
            raise AlgTextError(f"{line!r} comes before any {'/'.join(heads)} line")
        else:
            block[2].append(line)
    if block is not None:
        yield block


def _algebra(algebras: Mapping[str, Presentation], name: str) -> Presentation:
    if name not in algebras:
        raise AlgTextError(f"unknown algebra {name!r}")
    return algebras[name]


def load_algebras(text: str) -> dict[str, Presentation]:
    """Parse `algebra` blocks into Presentation objects; order is preserved."""
    out: dict[str, Presentation] = {}
    for _, name, body in _blocks(text, ("algebra",)):
        if name in out:
            raise AlgTextError(f"duplicate algebra {name}")
        vars_, gens, rule_lines, unit_lines = QLM, (), [], []
        for line in body:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "vars":
                vars_ = tuple(rest.split())
            elif head == "gens":
                gens = tuple(rest.split())
            elif head == "rule":
                rule_lines.append(rest)
            elif head == "unit":
                pair = tuple(rest.split())
                if len(pair) != 2:
                    raise AlgTextError(f"unit line needs two generators: {line!r}")
                unit_lines.append(pair)
            else:
                raise AlgTextError(f"unknown directive {head!r} in {line!r}")
        if not gens:
            raise AlgTextError(f"algebra {name} has no gens line")
        out[name] = _build_presentation(name, gens, vars_, rule_lines, unit_lines)
    return out


def _build_presentation(name, gens, vars_, rule_lines, unit_lines) -> Presentation:
    scratch = Presentation(name, gens, {}, vars_)
    rules: dict[tuple[int, int], dict[LocalWord, Coefficient]] = {}

    def add(lhs: tuple[int, int], rhs: dict[LocalWord, Coefficient]):
        if lhs in rules:
            raise AlgTextError(f"{name}: duplicate rule for {scratch._lw(lhs)}")
        rules[lhs] = rhs

    for line in rule_lines:
        lhs_text, arrow, rhs_text = line.partition("->")
        if not arrow:
            raise AlgTextError(f"{name}: rule without '->': {line!r}")
        letters = [s.strip() for s in lhs_text.strip().split(".")]
        if len(letters) != 2:
            raise AlgTextError(f"{name}: rule LHS must be a 2-letter word: {line!r}")
        lhs = (scratch.index(letters[0]), scratch.index(letters[1]))
        poly = parse_poly(rhs_text.strip(), scratch, legs=1)
        add(lhs, {tuple(g for (_, g) in w): c for w, c in poly.terms.items()})

    unit_pairs = []
    one = {(): Coefficient.one(vars_)}
    for x, y in unit_lines:
        i, j = scratch.index(x), scratch.index(y)
        add((i, j), dict(one))
        add((j, i), dict(one))
        unit_pairs.append((i, j))

    return Presentation(name, gens, rules, vars_, unit_pairs)


def presentation_text(alg: Presentation) -> str:
    """The block format of a Presentation: the parser's round-trip oracle."""
    lines = [f"algebra {alg.name}", f"vars {' '.join(alg.vars)}", f"gens {' '.join(alg.gens)}"]
    unit_lhs = set()
    for (i, j) in alg.unit_pairs:
        lines.append(f"unit {alg.gens[i]} {alg.gens[j]}")
        unit_lhs |= {(i, j), (j, i)}
    for lhs in sorted(alg.rules):
        if lhs in unit_lhs:
            continue
        rhs = _local_poly_text(alg, alg.rules[lhs])
        lines.append(f"rule {alg._lw(lhs)} -> {rhs}")
    return "\n".join(lines) + "\n"


def _join_signed(parts: list[str]) -> str:
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _term_text(coeff: Coefficient, body: str) -> str:
    if not body or body == "1":
        return f"({coeff})" if len(coeff.terms) > 1 else str(coeff)
    if coeff.is_one():
        return body
    if coeff == Coefficient.rational(-1, coeff.vars):
        return f"-{body}"
    return f"({coeff}) {body}"


def _local_poly_text(alg: Presentation, terms: Mapping[LocalWord, Coefficient]) -> str:
    if not terms:
        return "0"
    parts = [
        _term_text(terms[w], alg._lw(w) if w else "")
        for w in sorted(terms, key=lambda w: (len(w), w))
    ]
    return _join_signed(parts)


def poly_text(p: NCPoly, legs: int = 1) -> str:
    """Render an NCPoly; legs > 1 prints `(x)` between tensor legs.  A letter
    on a site outside range(legs) has no leg to print on: AlgTextError."""
    if p.is_zero():
        return "0"
    outside = sorted(p.sites() - set(range(legs)))
    if outside:
        raise AlgTextError(f"site {outside[0]} is outside the {legs} leg(s) "
                           f"of {p}")
    gens = p.alg.gens
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), w)):
        leg_words = []
        for L in range(legs):
            names = [gens[g] for (s, g) in w if s == L]
            leg_words.append(".".join(names) if names else "1")
        body = "(x)".join(leg_words)
        parts.append(_term_text(p.terms[w], body))
    return _join_signed(parts)


# --------------------------------------------------------------------------
# maps
# --------------------------------------------------------------------------

def load_maps(text: str, algebras: Mapping[str, Presentation]) -> dict[str, GenMap]:
    """Parse `map` blocks; sources/targets must be in `algebras`."""
    out: dict[str, GenMap] = {}
    for _, header, body in _blocks(text, ("map",)):
        name, _, sig = header.partition(" ")
        if name in out:
            raise AlgTextError(f"duplicate map {name}")
        src_name, arrow, tgt_spec = sig.partition("->")
        if not arrow:
            raise AlgTextError(f"bad map header: 'map {header}'")
        src = _algebra(algebras, src_name.strip())
        tgt_names = [t.strip() for t in tgt_spec.strip().split(" x ")]
        if len(set(tgt_names)) != 1 or len(tgt_names) not in (1, 2):
            raise AlgTextError(f"target must be T or T x T: 'map {header}'")
        tgt, arity = _algebra(algebras, tgt_names[0]), len(tgt_names)
        images: dict[str, NCPoly] = {}
        for line in body:
            gen_name, arrow, rhs = line.partition("->")
            if not arrow:
                raise AlgTextError(f"image line without '->': {line!r}")
            gen_name = gen_name.strip()
            if gen_name not in src.gens:
                raise AlgTextError(f"{gen_name!r} is not a generator of {src.name}")
            images[gen_name] = parse_poly(rhs.strip(), tgt, legs=arity)
        out[name] = GenMap(name, src, tgt, arity, images)
    return out


def map_text(m: GenMap) -> str:
    """The block format of a GenMap: the parser's round-trip oracle."""
    tgt = " x ".join([m.target.name] * m.arity)
    lines = [f"map {m.name} {m.source.name} -> {tgt}"]
    for g in m.source.gens:
        idx = m.source.index(g)
        if idx in m.images:
            lines.append(f"{g} -> {poly_text(m.images[idx], legs=m.arity)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# operators and pairings
# --------------------------------------------------------------------------

Pairing = tuple[str, Operator, Operator, Presentation]


def load_operators(
    text: str, algebras: Mapping[str, Presentation]
) -> tuple[dict[str, Operator], list[Pairing]]:
    """Parse `operator` blocks (one line per row, entries split by commas)
    and `pairing <name> <R> <L> <algebra>` lines naming operators above them;
    text order is preserved."""
    ops: dict[str, Operator] = {}
    pairings: list[Pairing] = []
    for head, rest, body in _blocks(text, ("operator", "pairing")):
        words = rest.split()
        if head == "pairing":
            if len(words) != 4 or body:
                raise AlgTextError(f"pairing needs a name, R, L and an algebra: {rest!r}")
            name, r_name, l_name, alg_name = words
            if any(name == p[0] for p in pairings):
                raise AlgTextError(f"duplicate pairing {name}")
            for op_name in (r_name, l_name):
                if op_name not in ops:
                    raise AlgTextError(f"pairing {name} names unknown operator {op_name}")
            pairings.append((name, ops[r_name], ops[l_name], _algebra(algebras, alg_name)))
            continue
        if len(words) != 2:
            raise AlgTextError(f"operator needs a name and an algebra: {rest!r}")
        name, alg = words[0], _algebra(algebras, words[1])
        if name in ops:
            raise AlgTextError(f"duplicate operator {name}")
        try:
            ops[name] = Operator(name, alg, [[parse_poly(e, alg) for e in line.split(",")]
                                             for line in body])
        except ValueError as exc:  # AlgTextError included
            raise AlgTextError(f"operator {name}: {exc}") from None
    return ops, pairings


def operator_text(operators: Iterable[Operator], pairings: Iterable[Pairing] = ()) -> str:
    """The block format of operators and pairings: the parser's round-trip oracle."""
    lines = []
    for op in operators:
        lines.append(f"operator {op.__name__} {op.alg.name}")
        lines += [", ".join(poly_text(p) for p in row) for row in op.rows]
    lines += [f"pairing {name} {R.__name__} {L.__name__} {alg.name}"
              for name, R, L, alg in pairings]
    return "\n".join(lines) + "\n"
