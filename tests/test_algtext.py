import hashlib
import random
import re
from fractions import Fraction

import pytest

from qbax import lmatrices
from qbax.algtext import (
    AlgTextError,
    load_algebras,
    load_maps,
    load_operators,
    map_text,
    operator_text,
    parse_poly,
    poly_text,
    presentation_text,
)
from qbax.catalog import (
    ALGEBRAS,
    MAPS,
    OPERATORS,
    PAIRINGS,
    Aq,
    GLq2,
    GLq2ExtP,
    GLq2ExtPP,
)
from qbax.ncpoly import Operator, random_poly


def test_parse_simple_expressions():
    assert parse_poly("0", Aq).is_zero()
    assert parse_poly("1", Aq) == Aq.one()
    assert parse_poly("q^-1 e.k", Aq) == Aq.param("q", -1) * Aq.word(["e", "k"])
    assert parse_poly("e.f - (q - q^-1) k.k", Aq) == \
        Aq.gen("e") * Aq.gen("f") \
        - (Aq.param("q") - Aq.param("q", -1)) * Aq.word(["k", "k"])
    # * and . both multiply, parentheses and powers nest
    assert parse_poly("(k)^2 * e", Aq) == Aq.word(["k", "k", "e"])
    assert parse_poly("2/3 k", Aq) == Aq.gen("k").scale(Fraction(2, 3))


def test_parse_rejects_garbage():
    with pytest.raises(AlgTextError):
        parse_poly("nosuchgen", Aq)
    with pytest.raises(AlgTextError):
        parse_poly("e.(k", Aq)
    with pytest.raises(AlgTextError):
        parse_poly("e (x) k", Aq)  # tensor marker outside a map image
    with pytest.raises(AlgTextError):
        parse_poly("", Aq)


def test_presentation_round_trip():
    for name, alg in ALGEBRAS.items():
        text = presentation_text(alg)
        loaded = load_algebras(text)[name]
        assert loaded.gens == alg.gens
        assert loaded.unit_pairs == alg.unit_pairs
        assert loaded.rules == alg.rules, f"{name} rules changed in round trip"


def test_map_round_trip():
    for name, m in MAPS.items():
        text = map_text(m)
        loaded = load_maps(text, ALGEBRAS)[name]
        assert loaded.arity == m.arity
        assert loaded.source is m.source and loaded.target is m.target
        assert set(loaded.images) == set(m.images)
        for g, img in m.images.items():
            assert loaded.images[g] == img, f"{name}: image of gen {g} changed"


def test_poly_text_round_trip_on_random_elements():
    rng = random.Random(3)
    for alg in (Aq, GLq2):
        for _ in range(30):
            p = random_poly(alg, rng, n_terms=3, max_len=4)
            assert parse_poly(poly_text(p), alg) == p


def test_operator_round_trip():
    text = operator_text(OPERATORS.values(), PAIRINGS)
    ops, pairings = load_operators(text, ALGEBRAS)
    assert list(ops) == list(OPERATORS)
    for name, op in OPERATORS.items():
        assert ops[name].__name__ == name and ops[name].alg is op.alg
        assert ops[name]() == op(), f"{name} changed in round trip"
    assert [(n, R.__name__, L.__name__, alg) for n, R, L, alg in pairings] == \
        [(n, R.__name__, L.__name__, alg) for n, R, L, alg in PAIRINGS]
    assert operator_text(ops.values(), pairings) == text


@pytest.mark.parametrize("text, message", [
    ("operator L_bad Aq\ne, k\nf\n", "operator L_bad: rows of lengths [2, 1]"),
    ("operator L_bad Aq\ne, k, f\nk, e, f\n", "operator L_bad: rows of lengths [3, 3]"),
    ("operator L_bad Aq\n", "operator L_bad: rows of lengths []"),
    ("operator L_bad Aq\ne, u\nk, f\n", "operator L_bad: unknown symbol 'u'"),
    ("operator L_bad Aq\ne.f\n", "operator L_bad: an entry is not linear"),
    ("operator L_bad Aq\ne\noperator L_bad Aq\nk\n", "duplicate operator L_bad"),
    ("operator L_bad Aq\ne\npairing p R_sym L_bad Aq\n",
     "pairing p names unknown operator R_sym"),
    ("operator L_bad Nope\ne\n", "unknown algebra 'Nope'"),
    ("operator L_bad Aq\ne\npairing p L_bad L_bad Aq\npairing p L_bad L_bad Aq\n",
     "duplicate pairing p"),
    ("e, k\n", "comes before any operator/pairing line"),
])
def test_malformed_operator_text_is_rejected(text, message):
    with pytest.raises(AlgTextError, match=re.escape(message)):
        load_operators(text, ALGEBRAS)


# sha256 of the rendering below, pinned while the operators were still
# hand-written Python builders, so that a transcription slip in the
# operator text fails
OPERATOR_DIGEST = "f25ab42e5cc3357f9d6f319885ef37bca1e68ae2ed146b659b7b58a506eb8019"


def test_operator_entries_match_the_pinned_digest():
    def render(M):
        return "; ".join(poly_text(p, legs=3) for row in M.rows for p in row)

    names = [n for n in OPERATORS if n not in ("T_quantum_matrix", "L_toda")]
    assert len(names) == 18
    lines = [f"{name} site {site}: "
             f"{render(getattr(lmatrices, name)(OPERATORS[name].alg, site=site))}"
             for name in names for site in (0, 2)]
    lines += [f"{name} over {alg.name}: {render(getattr(lmatrices, name)(alg))}"
              for name in ("L_ext_plus", "L_ext_minus")
              for alg in (GLq2ExtP, GLq2ExtPP)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OPERATOR_DIGEST


def test_operator_rehoming_matches_generators_by_name():
    # GLq2ExtP orders th before c, so indices differ from GLq2Ext's
    L = lmatrices.L_ext_plus(GLq2ExtP, site=1)
    assert L[0][0] == GLq2ExtP.gen("th", 1) and L[1][1] == GLq2ExtP.gen("b", 1)
    with pytest.raises(ValueError, match="Aq has no generator 'th'"):
        lmatrices.L_ext_plus(Aq)


def test_duplicate_algebra_is_rejected():
    with pytest.raises(AlgTextError, match="duplicate algebra X"):
        load_algebras("algebra X\ngens a b\nalgebra X\ngens c\n")


def test_duplicate_map_is_rejected():
    text = "map m Aq -> Aq\ne -> f\nmap m Aq -> Aq\ne -> k\n"
    with pytest.raises(AlgTextError, match="duplicate map m"):
        load_maps(text, ALGEBRAS)


@pytest.mark.parametrize("legs, site", [(1, 1), (1, 2), (2, 2)])
def test_poly_text_rejects_a_letter_outside_its_legs(legs, site):
    p = Aq.gen("k") + Aq.gen("e", site)
    with pytest.raises(AlgTextError, match=f"site {site} is outside"):
        poly_text(p, legs=legs)
    assert poly_text(p, legs=site + 1)  # enough legs: renders


def test_operator_entries_must_be_on_site_zero():
    with pytest.raises(ValueError, match="an entry is not on site 0"):
        Operator("L_bad", Aq, [[Aq.gen("k", 1)]])
    assert Operator("L_ok", Aq, [[Aq.gen("k", 0)]])(Aq, site=1)[0][0] \
        == Aq.gen("k", 1)
