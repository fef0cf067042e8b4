import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbax.coeff import Coefficient
from qbax.catalog import ALGEBRAS, Aq, GLq2, Wq
from qbax.ncpoly import (
    NCPoly,
    Presentation,
    check_confluence,
    random_poly,
)


def test_normal_form_applies_rules():
    # f.e rewrites: the raw word must not survive reduction
    f, e = Aq.gen("f"), Aq.gen("e")
    p = f * e
    fe_word = ((0, Aq.index("f")), (0, Aq.index("e")))
    assert fe_word not in p.terms
    assert p == e * f - Aq.param("q") * Aq.word(["k", "k"]) \
        + Aq.param("q", -1) * Aq.word(["k", "k"])


def test_unit_pairs_cancel():
    assert Aq.gen("k") * Aq.gen("kinv") == Aq.one()
    assert Aq.gen("kinv") * Aq.gen("k") == Aq.one()
    assert Wq.gen("v") * Wq.gen("vinv") * Wq.gen("u") == Wq.gen("u")


def test_ultralocality():
    a0 = GLq2.gen("a", 0)
    b1 = GLq2.gen("b", 1)
    assert a0 * b1 == b1 * a0
    # same site does not commute: b.a rewrites to q^-1 a.b in GLq2
    a, b = GLq2.gen("a"), GLq2.gen("b")
    assert b * a == GLq2.param("q", -1) * (a * b)


def test_normal_form_is_idempotent_on_random_elements():
    rng = random.Random(7)
    for alg in (Aq, GLq2, Wq):
        for _ in range(25):
            p = random_poly(alg, rng, n_terms=4, max_len=5, n_sites=2)
            again = NCPoly(alg, p.terms)  # re-normalize the normal form
            assert again == p


def test_mixed_algebras_raise():
    with pytest.raises(ValueError):
        Aq.gen("k") + Wq.gen("u")
    with pytest.raises(ValueError):
        Aq.gen("k") * Wq.gen("u")


def test_scale_pow_and_zero():
    k = Aq.gen("k")
    assert k.scale(0).is_zero()
    assert k ** 0 == Aq.one()
    assert k ** 3 == k * k * k
    with pytest.raises(ValueError):
        k ** -1
    assert (k - k).is_zero()
    assert Aq.zero().n_terms() == 0


def test_shift_sites_and_sites():
    p = Aq.gen("e", 0) * Aq.gen("f", 2)
    assert p.sites() == {0, 2}

    q = p.shift_sites(lambda s: s + 5)
    assert q.sites() == {5, 7}


def test_free_copy_does_not_reduce():
    free = Aq.free_copy()
    f, e = free.gen("f"), free.gen("e")
    p = f * e
    assert ((0, free.index("f")), (0, free.index("e"))) in p.terms
    assert p.n_terms() == 1


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation("dup", ("x", "x"), {})
    # a rule that does not decrease the order must be rejected
    c1 = Coefficient.one()
    with pytest.raises(ValueError):
        Presentation("loop", ("x", "y"), {(1, 0): {(1, 0): c1}})


def test_confluence_detects_injected_fault():
    # Weyl pair with the wrong exchange constant: v.u -> q^-2 u.v makes the
    # overlap v.vinv.u resolve two different ways
    one = Coefficient.one()
    bad = Presentation(
        "skew", ("u", "v", "vinv"),
        {
            (1, 0): {(0, 1): Coefficient.param("q", -2)},
            (2, 0): {(0, 2): Coefficient.param("q", 1)},
            (2, 1): {(): one},
            (1, 2): {(): one},
        },
        unit_pairs=((1, 2),),
    )
    res = check_confluence(bad)
    assert not res.passed
    assert res.first_failure() is not None
    words = [w for (w, _l, _r) in res.failures]
    assert "v.vinv.u" in words or "vinv.v.u" in words


def test_confluence_passes_for_catalog_algebras():
    for alg in (Aq, Wq, GLq2):
        res = check_confluence(alg)
        assert res.passed, f"{alg.name}: {res.first_failure()}"
        assert res.n_pairs > 0


# ---------------------------------------------------------------------------
# structural laws on random elements (hypothesis drives the seed only, so the
# generation itself stays cheap and reproducible)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Aq, Wq]))
def test_associativity(seed, alg):
    rng = random.Random(seed)
    a = random_poly(alg, rng, n_terms=2, max_len=3)
    b = random_poly(alg, rng, n_terms=2, max_len=3)
    c = random_poly(alg, rng, n_terms=2, max_len=3)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_star_is_an_anti_homomorphism(seed):
    rng = random.Random(seed)
    a = random_poly(Aq, rng, n_terms=3, max_len=3)
    b = random_poly(Aq, rng, n_terms=3, max_len=3)
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a
    assert (a + b).star() == a.star() + b.star()


# ---------------------------------------------------------------------------
# the site-by-site product against concatenate-then-normalize
# ---------------------------------------------------------------------------

def _reference_normal_form(alg, raw):
    """Split each word by site, reduce every site with reduce_local and
    multiply the local results out: normal form from the rules alone."""
    out = {}
    for word, coeff in raw.items():
        by_site = {}
        for s, g in word:
            by_site.setdefault(s, []).append(g)
        combos = [((), coeff)]
        for s in sorted(by_site):
            local = alg.reduce_local(tuple(by_site[s]))
            combos = [(w + tuple((s, g) for g in lw), c * lc)
                      for w, c in combos for lw, lc in local.items()]
        for w, c in combos:
            out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if c}


def _reference_product(a, b):
    raw = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            raw[w] = raw[w] + c1 * c2 if w in raw else c1 * c2
    return NCPoly(a.alg, _reference_normal_form(a.alg, raw), normalized=True)


@pytest.mark.parametrize("free", [False, True], ids=["rules", "free"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_product_matches_concatenate_then_normalize(name, free):
    alg = ALGEBRAS[name].free_copy() if free else ALGEBRAS[name]
    rng = random.Random(f"{name}/{free}")
    for n_sites in (1, 2, 3, 4):
        for _ in range(6):
            a, b = (random_poly(alg, rng, n_terms=rng.randrange(1, 5), max_len=4,
                                n_sites=n_sites) for _ in range(2))
            assert a * b == _reference_product(a, b)
            # the inputs are normal forms of their own words
            assert a == NCPoly(alg, _reference_normal_form(alg, a.terms),
                               normalized=True)


def _random_poly_term_by_term(alg, rng, n_terms=3, max_len=4, n_sites=1):
    """random_poly as a sum of one-term polynomials, each normalized."""
    total = alg.zero()
    for _ in range(n_terms):
        length = rng.randrange(max_len + 1)
        word = tuple((rng.randrange(n_sites), rng.randrange(len(alg.gens)))
                     for _ in range(length))
        coeff = Coefficient.monomial(
            alg.vars, Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
            q=rng.randrange(-2, 3))
        total = total + NCPoly(alg, {word: coeff})
    return total


@pytest.mark.parametrize("free", [False, True], ids=["rules", "free"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_random_poly_matches_the_term_by_term_sum(name, free):
    alg = ALGEBRAS[name].free_copy() if free else ALGEBRAS[name]
    seed = f"random-poly/{name}/{free}"
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for n_sites in (1, 2, 3):
        for n_terms in (1, 3, 8):
            for _ in range(10):
                got = random_poly(alg, got_rng, n_terms, 4, n_sites)
                want = _random_poly_term_by_term(alg, want_rng, n_terms, 4,
                                                 n_sites)
                assert got == want
    # the same draws, in the same order
    assert got_rng.getstate() == want_rng.getstate()
