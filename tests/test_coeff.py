from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbax.coeff import Coefficient, QLM


def q(power=1, scale=1):
    return Coefficient.param("q", power, scale=scale)


def lam(power=1, scale=1):
    return Coefficient.param("lam", power, scale=scale)


def test_basic_arithmetic():
    x = q() + lam()
    sq = x * x
    assert sq == q(2) + lam() * q() * Coefficient.rational(2) + lam(2)
    assert (sq - sq).is_zero()
    assert Coefficient.one().is_one()
    assert not (q() - q(1)).terms


def test_rational_and_monomial_builders():
    half = Coefficient.rational(Fraction(1, 2))
    assert half.terms == {(0, 0, 0): Fraction(1, 2)}
    m = Coefficient.monomial(QLM, 3, q=2, lam=-1)
    assert m.terms == {(2, -1, 0): Fraction(3)}
    assert Coefficient.rational(0).is_zero()
    assert Coefficient.param("q", 5, scale=0).is_zero()


@pytest.mark.parametrize("make", [
    lambda: Coefficient.param("z"),
    lambda: Coefficient.monomial(QLM, 1, zz=2),
    lambda: q().coefficient_of("z", 1),
], ids=["param", "monomial", "coefficient_of"])
def test_unknown_variables_are_refused_by_name(make):
    with pytest.raises(ValueError, match=r"no variable '(z|zz)' in \('q', 'lam', 'mu'\)"):
        make()


def test_non_integer_powers_are_refused_by_name():
    with pytest.raises(TypeError, match="power must be an int, got 2.5"):
        Coefficient.param("q") ** 2.5


def test_negative_powers_and_inverse():
    qinv = q(-1)
    assert q() * qinv == Coefficient.one()
    assert q() ** -3 == q(-3)
    m = Coefficient.monomial(QLM, Fraction(2, 3), q=1, mu=2)
    assert m * m.monomial_inverse() == Coefficient.one()
    with pytest.raises(ValueError):
        (q() + lam()).monomial_inverse()
    with pytest.raises(ValueError):
        (q() + lam()) ** -1


def test_conj_param_inverts_one_variable():
    c = q(2) + lam(3) * q(-1)
    cc = c.conj_param("q")
    assert cc == q(-2) + lam(3) * q(1)
    assert cc.conj_param("q") == c


def test_spread_param():
    c = lam(2, scale=5)
    # substitution lam -> lam*mu
    assert c.spread_param("lam", ("lam", "mu")) == Coefficient.monomial(
        QLM, 5, lam=2, mu=2)
    # plain rename lam -> mu
    assert c.spread_param("lam", ("mu",)) == Coefficient.param("mu", 2, scale=5)
    # collapse lam -> nothing (evaluation at lam = 1), terms merge
    merged = (lam(1) + lam(-1)).spread_param("lam", ())
    assert merged == Coefficient.rational(2)


def test_coefficient_of_and_degrees():
    c = q() * lam(2) + q(3) * lam(2) + lam(-1)
    assert c.param_degrees("lam") == {2, -1}
    assert c.coefficient_of("lam", 2) == q() + q(3)
    assert c.coefficient_of("lam", 0).is_zero()


def test_mixed_variable_sets_raise():
    a = Coefficient.param("q")
    b = Coefficient.param("beta", vars=("beta", "lam"))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_evaluate():
    c = q(2) * lam(-1) + Coefficient.rational(Fraction(1, 4))
    got = c.evaluate({"q": 2j, "lam": 0.5})
    assert abs(got - ((2j) ** 2 / 0.5 + 0.25)) < 1e-14
    with pytest.raises(KeyError):
        q().evaluate({"lam": 1.0})
    # unused variables do not need values
    assert lam().evaluate({"lam": 3.0}) == 3.0


# ---------------------------------------------------------------------------
# algebraic laws on random elements
# ---------------------------------------------------------------------------

@st.composite
def coefficients(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        expo = tuple(draw(st.integers(-3, 3)) for _ in QLM)
        terms[expo] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
    return Coefficient(QLM, terms)


@given(coefficients(), coefficients(), coefficients())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a  # coefficients are central
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == Coefficient.zero()


@given(coefficients(), coefficients())
def test_evaluate_is_a_homomorphism(a, b):
    point = {"q": 0.7 + 0.2j, "lam": 1.3 - 0.4j, "mu": 0.9j}
    pa, pb = a.evaluate(point), b.evaluate(point)
    assert (a + b).evaluate(point) == pytest.approx(pa + pb, abs=1e-9)
    assert (a * b).evaluate(point) == pytest.approx(pa * pb, rel=1e-9, abs=1e-9)


@given(coefficients())
def test_conj_is_an_involution(a):
    assert a.conj_param("q").conj_param("q") == a


# ---------------------------------------------------------------------------
# stored values: int when integral, Fraction otherwise; fast paths
# ---------------------------------------------------------------------------

def _canonical(c: Coefficient) -> bool:
    """Every value is an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in c.terms.values())


def _ref_combine(a: dict, b: dict, mul: bool) -> dict:
    """Naive dict-of-Fraction product (mul) or sum of two term mappings."""
    out: dict = {}
    if mul:
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + Fraction(v1) * Fraction(v2)
    else:
        for e, v in list(a.items()) + list(b.items()):
            out[e] = out.get(e, Fraction(0)) + Fraction(v)
    return {e: v for e, v in out.items() if v}


_values = st.one_of(st.integers(-9, 9),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
_expos = st.tuples(*[st.integers(-3, 3)] * len(QLM))


@st.composite
def operands(draw):
    """A unit, monomial or dense coefficient with mixed int/Fraction values."""
    kind = draw(st.sampled_from(["unit", "monomial", "dense"]))
    if kind == "unit":
        return Coefficient.one()
    size = 1 if kind == "monomial" else draw(st.integers(0, 5))
    terms = draw(st.dictionaries(_expos, _values.filter(bool),
                                 min_size=size, max_size=size))
    return Coefficient(QLM, terms)


@given(operands(), operands(), _values)
def test_arithmetic_matches_a_fraction_reference(a, b, k):
    ra, rb = dict(a.terms), dict(b.terms)
    neg_b = {e: -Fraction(v) for e, v in rb.items()}
    for got, want in ((a * b, _ref_combine(ra, rb, mul=True)),
                      (b * a, _ref_combine(rb, ra, mul=True)),
                      (a + b, _ref_combine(ra, rb, mul=False)),
                      (a - b, _ref_combine(ra, neg_b, mul=False)),
                      (a.scale(k), _ref_combine(ra, {(0,) * len(QLM): k}, mul=True)),
                      (a * k, _ref_combine(ra, {(0,) * len(QLM): k}, mul=True))):
        assert got.terms == want
        assert _canonical(got)
    # the operands are left as they were
    assert a.terms == ra and b.terms == rb


def test_values_are_int_when_integral_and_never_float():
    half = Fraction(1, 2)
    made = [
        Coefficient(QLM, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): half, (0, 0, 1): 3.0}),
        Coefficient.rational(0.5),
        Coefficient.rational(Fraction(6, 3)),
        Coefficient.param("q", 2, scale=2.0),
        Coefficient.monomial(QLM, Fraction(9, 3), lam=1),
        q(scale=half) * q(scale=2),
        q(scale=half) + q(scale=half),
        q(scale=half).scale(4),
        (lam(scale=half) + lam(-1, scale=half)).spread_param("lam", ()),
        Coefficient.monomial(QLM, half, q=1).monomial_inverse(),
        Coefficient.monomial(QLM, Fraction(2, 3), q=1) ** -2,
    ]
    for c in made:
        assert _canonical(c), c.terms
    assert made[0].terms == {(1, 0, 0): 2, (0, 1, 0): half, (0, 0, 1): 3}
    assert made[5].terms == {(2, 0, 0): 1}
    assert made[10].terms == {(-2, 0, 0): Fraction(9, 4)}
    # a constant's value is an exact rational, and zero has no terms
    assert Coefficient.rational(2).terms == {(0, 0, 0): 2}
    assert Coefficient.zero().terms == {}
    # an int and an equal Fraction value give equal, equally hashed coefficients
    a = Coefficient(QLM, {(0, 0, 0): 2})
    b = Coefficient(QLM, {(0, 0, 0): Fraction(2)})
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("value, inverse", [
    (2, Fraction(1, 2)), (3, Fraction(1, 3)), (Fraction(1, 3), 3),
    (Fraction(-2, 3), Fraction(-3, 2))])
def test_monomial_inverse_is_exact(value, inverse):
    m = Coefficient.monomial(QLM, value, q=1)
    inv = m.monomial_inverse()
    assert inv.terms == {(-1, 0, 0): inverse}
    assert type(inv.terms[(-1, 0, 0)]) is type(inverse)
    assert (m ** -1).terms == inv.terms
    assert (m * inv).is_one()


def test_shared_unit_operand_is_left_unchanged():
    x = q() + lam(2, scale=Fraction(1, 3))
    snapshot = dict(x.terms)
    y = Coefficient.one() * x  # may return x itself
    further = [y * y, y + y, y - x, y.scale(5), -y, y * lam(),
               y.spread_param("lam", ("mu",)), y.conj_param("q"), y ** 2]
    assert further[0] == further[-1] and further[2].is_zero()
    assert x.terms == snapshot and y.terms == snapshot


# ---------------------------------------------------------------------------
# every operation against a tuple-keyed Fraction reference
# ---------------------------------------------------------------------------

def _ref(c: Coefficient) -> dict:
    return {e: Fraction(v) for e, v in c.terms.items()}


def _ref_clean(terms) -> dict:
    out: dict = {}
    for e, v in terms:
        out[e] = out.get(e, Fraction(0)) + Fraction(v)
    return {e: v for e, v in out.items() if v}


def _ref_mul(a: dict, b: dict) -> dict:
    return _ref_clean((tuple(x + y for x, y in zip(e1, e2)), v1 * v2)
                      for e1, v1 in a.items() for e2, v2 in b.items())


def _ref_str(terms: dict, vars=QLM) -> str:
    """The printed form, as the tuple-keyed implementation wrote it."""
    if not terms:
        return "0"
    parts = []
    for expo in sorted(terms):
        val = terms[expo]
        val = val.numerator if val.denominator == 1 else val
        factors = []
        for name, e in zip(vars, expo):
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


# ints, Fractions and denominators that differ between terms
_mixed_values = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 10])))


@st.composite
def mixed(draw, max_terms=4):
    terms = draw(st.dictionaries(_expos, _mixed_values, max_size=max_terms))
    return Coefficient(QLM, terms)


@given(mixed(), mixed(), _mixed_values, st.integers(0, 3),
       st.sampled_from(QLM), st.integers(-3, 3))
def test_every_operation_matches_a_fraction_reference(a, b, k, n, name, power):
    ra, rb = _ref(a), _ref(b)
    i = QLM.index(name)
    assert all(type(v) is Fraction for v in ra.values())
    power_ref = {(0,) * 3: Fraction(1)}
    for _ in range(n):
        power_ref = _ref_mul(power_ref, ra)
    spread_to = [j for j in range(3) if j != i]
    cases = [
        (a + b, _ref_clean([*ra.items(), *rb.items()])),
        (a - b, _ref_clean([*ra.items(), *((e, -v) for e, v in rb.items())])),
        (a * b, _ref_mul(ra, rb)),
        (a.scale(k), _ref_clean((e, v * k) for e, v in ra.items())),
        (a * k, _ref_clean((e, v * k) for e, v in ra.items())),
        (-a, {e: -v for e, v in ra.items()}),
        (a ** n, power_ref),
        (a.conj_param(name), {tuple(-x if j == i else x for j, x in enumerate(e)): v
                              for e, v in ra.items()}),
        (a.spread_param(name, [QLM[j] for j in spread_to]),
         _ref_clean((tuple(0 if j == i else x + e[i] if j in spread_to else x
                           for j, x in enumerate(e)), v) for e, v in ra.items())),
        (a.coefficient_of(name, power),
         {tuple(0 if j == i else x for j, x in enumerate(e)): v
          for e, v in ra.items() if e[i] == power}),
    ]
    if a.is_monomial():
        ((e, v),) = ra.items()
        cases.append((a.monomial_inverse(), {tuple(-x for x in e): 1 / v}))
        cases.append((a ** -n, {tuple(-x * n for x in e): v ** -n}))
    for got, want in cases:
        assert _ref(got) == want
        assert _canonical(got)
        rebuilt = Coefficient(QLM, want)
        assert got == rebuilt and hash(got) == hash(rebuilt)
        assert str(got) == _ref_str(want)
    assert (a == b) == (ra == rb)
    assert str(a) == _ref_str(ra) and str(b) == _ref_str(rb)


# ---------------------------------------------------------------------------
# the exponent range: checked where exponents enter, never aliased
# ---------------------------------------------------------------------------

LIMIT = 32767  # the largest |exponent| a packed key holds


def test_exponents_outside_the_range_are_rejected_on_entry():
    assert Coefficient.param("q", LIMIT).param_degrees("q") == {LIMIT}
    assert Coefficient.param("mu", -LIMIT).param_degrees("mu") == {-LIMIT}
    for make in (lambda: Coefficient(QLM, {(0, LIMIT + 1, 0): 1}),
                 lambda: Coefficient.param("lam", LIMIT + 1),
                 lambda: Coefficient.param("mu", -LIMIT - 1),
                 lambda: Coefficient.monomial(QLM, 2, q=1, mu=LIMIT + 1)):
        with pytest.raises(OverflowError, match=r"\^-?32768"):
            make()
    half = Coefficient.monomial(QLM, 1, lam=LIMIT // 2 + 1, mu=LIMIT // 2 + 1)
    with pytest.raises(OverflowError, match=r"mu\^32768"):
        half.spread_param("lam", ("mu",))
    with pytest.raises(OverflowError, match=r"lam\^32768"):
        half ** 2
    with pytest.raises(OverflowError, match=r"lam\^-32768"):
        half ** -2


def test_a_product_that_would_cross_the_limit_raises():
    big = Coefficient.param("q", 20000)
    with pytest.raises(OverflowError, match=r"q\^40000"):
        big * big
    with pytest.raises(OverflowError, match=r"q\^-40000"):
        big.monomial_inverse() * (big.monomial_inverse() + Coefficient.one())
    with pytest.raises(OverflowError, match=r"q\^40000"):
        (big + Coefficient.param("lam")) * (big + Coefficient.one())
    # factor bounds that add up past the limit while no exponent does
    assert big * big.monomial_inverse() == Coefficient.one()
    edge = Coefficient.param("q", LIMIT - 1) * Coefficient.param("q", 1, scale=3)
    assert edge.terms == {(LIMIT, 0, 0): 3}
    # a sum keeps a bound from its larger summand; the product still checks
    # exactly and does not raise when the large term has cancelled
    gone = (big + Coefficient.param("lam")) - big
    assert gone * big == Coefficient.monomial(QLM, 1, q=20000, lam=1)
    assert ((big - big) * big).is_zero() and ((big - big) ** 2).is_zero()


# ---------------------------------------------------------------------------
# monomial times monomial: the fast path against the general one
# ---------------------------------------------------------------------------

_BIG = Coefficient.param("q", 20000)


def _general(c):
    """c with an exponent bound of 20000, so that the product of two such
    factors is taken by the general path (their bounds add past LIMIT)."""
    return (c + _BIG) - _BIG


@pytest.mark.parametrize("a, b", [
    (q(2, scale=3), lam(-1, scale=-5)),
    (q(scale=Fraction(2, 3)), q(-1, scale=Fraction(3, 4))),   # gcd: 1/2
    (Coefficient.monomial(QLM, Fraction(-7, 6), q=1, mu=2),
     Coefficient.monomial(QLM, Fraction(9, 14), lam=3)),       # gcd: -3/4
    (q(scale=Fraction(1, 2)), Coefficient.rational(2)),        # back to an int
    (Coefficient.one(), lam(-4, scale=Fraction(5, 3))),
    (Coefficient.rational(-1), Coefficient.param("mu", LIMIT - 1)),
])
def test_monomial_products_match_the_general_path(a, b):
    fast, general = a * b, _general(a) * _general(b)
    (e1, v1), = a.terms.items()
    (e2, v2), = b.terms.items()
    want = Coefficient(QLM, {tuple(x + y for x, y in zip(e1, e2)): Fraction(v1) * v2})
    for got in (fast, b * a):
        assert got == general == want and hash(got) == hash(general)
        assert str(got) == str(general) and got.terms == general.terms
        assert [type(v) for v in got.terms.values()] == \
            [type(v) for v in general.terms.values()]
        assert _canonical(got)


def test_monomial_fast_path_keeps_its_checks():
    half = q(scale=Fraction(2, 3)) * q(-1, scale=Fraction(3, 4))
    assert half.terms == {(0, 0, 0): Fraction(1, 2)}
    with pytest.raises(OverflowError, match=r"q\^40000"):
        _BIG * _BIG
    # a variable set of the same length packs the same keys: checked first
    beta = Coefficient.monomial(("beta", "lam", "mu"), 2, beta=1)
    with pytest.raises(ValueError, match="variable sets differ"):
        q() * beta
    with pytest.raises(ValueError, match="variable sets differ"):
        beta * q()
