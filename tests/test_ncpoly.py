import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbax.coeff import Coefficient
from qbax.catalog import ALGEBRAS, Aq, GLq2, Wq
from qbax.ncpoly import (
    NCPoly,
    OpMatrix,
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
    """Each pair of terms concatenated and normalized on its own, added in
    the order of a's terms, then b's, dropping what cancels: the product's
    terms in the product's insertion order."""
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            for w, c in _reference_normal_form(a.alg, {w1 + w2: c1 * c2}).items():
                if w in out:
                    c = out[w] + c
                if c:
                    out[w] = c
                else:
                    del out[w]
    return NCPoly(a.alg, out, normalized=True)


def _overlap(w1, w2):
    """How a product meets a pair of normal words: apart (site ranges do not
    overlap), shared (a site in both) or interleaved (neither)."""
    s1, s2 = {s for s, _ in w1}, {s for s, _ in w2}
    if not s1 or not s2 or max(s1) < min(s2) or max(s2) < min(s1):
        return "apart"
    return "shared" if s1 & s2 else "interleaved"


@pytest.mark.parametrize("free", [False, True], ids=["rules", "free"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_product_matches_concatenate_then_normalize(name, free):
    alg = ALGEBRAS[name].free_copy() if free else ALGEBRAS[name]
    rng = random.Random(f"{name}/{free}")
    seen = set()
    for n_sites in (1, 2, 3, 4):
        for _ in range(12):
            a, b = (random_poly(alg, rng, n_terms=rng.randrange(1, 5), max_len=4,
                                n_sites=n_sites) for _ in range(2))
            got, want = a * b, _reference_product(a, b)
            assert got == want
            assert list(got.terms) == list(want.terms)  # the same insertion order
            seen |= {_overlap(w1, w2) for w1 in a.terms for w2 in b.terms}
            seen |= {"empty" for w in (*a.terms, *b.terms) if not w}
            # the inputs are normal forms of their own words
            assert a == NCPoly(alg, _reference_normal_form(alg, a.terms),
                               normalized=True)
    assert seen == {"apart", "shared", "interleaved", "empty"}


def test_product_of_interleaved_and_empty_words():
    one = GLq2.one()
    x = GLq2.gen("a", 0) * GLq2.gen("d", 2)
    y = GLq2.gen("b", 1) * GLq2.gen("c", 3)
    for p, q in ((x, y), (y, x), (one, x), (x, one), (x + one, y + one)):
        got = p * q
        assert got == _reference_product(p, q)
        assert list(got.terms) == list(_reference_product(p, q).terms)
    letters = [(s, GLq2.index(g)) for s, g in ((0, "a"), (1, "b"), (2, "d"), (3, "c"))]
    assert (x * y).terms == {tuple(letters): Coefficient.one()}


def test_opmatrix_product_is_the_sum_of_entry_products():
    rng = random.Random("opmatrix")
    for alg in (Aq, GLq2, GLq2.free_copy()):
        m1, m2 = (OpMatrix(alg, [[random_poly(alg, rng, 2, 3, 3) if rng.random() < 0.7
                                  else alg.zero() for _ in range(3)] for _ in range(3)])
                  for _ in range(2))
        got = m1 @ m2
        for i in range(3):
            for j in range(3):
                want = alg.zero()
                for k in range(3):
                    want = want + m1[i][k] * m2[k][j]
                assert got[i][j] == want
    with pytest.raises(ValueError, match="mixed algebras"):
        OpMatrix.identity(Aq, 2) @ OpMatrix.identity(GLq2, 2)


def test_opmatrix_product_prepares_each_right_entry_once(monkeypatch):
    # a 3 x 3 product reads each right-hand entry in 3 rows, and prepares
    # it (sites and site blocks of its terms) once
    from qbax import ncpoly

    prepared = []
    real = ncpoly._right
    monkeypatch.setattr(ncpoly, "_right",
                        lambda q: prepared.append(q) or real(q))
    rng = random.Random("prepare")
    m1, m2 = (OpMatrix(Aq, [[random_poly(Aq, rng, 2, 3, 3) for _ in range(3)]
                            for _ in range(3)]) for _ in range(2))
    got = m1 @ m2
    assert sorted(map(id, prepared)) == sorted(id(p) for row in m2.rows for p in row)
    assert got[0][0] == sum((m1[0][k] * m2[k][0] for k in range(3)), Aq.zero())


def _random_poly_term_by_term(alg, rng, n_terms=3, max_len=4, n_sites=1):
    """random_poly as a sum of one-term polynomials, each normalized; and,
    from the same draws, the raw words added first and then normalized,
    which gives random_poly's term order."""
    total, raw = alg.zero(), {}
    for _ in range(n_terms):
        length = rng.randrange(max_len + 1)
        word = tuple((rng.randrange(n_sites), rng.randrange(len(alg.gens)))
                     for _ in range(length))
        coeff = Coefficient.monomial(
            alg.vars, Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
            q=rng.randrange(-2, 3))
        total = total + NCPoly(alg, {word: coeff})
        if word in raw:
            coeff = raw[word] + coeff
        if coeff:
            raw[word] = coeff
        else:
            raw.pop(word, None)
    return total, NCPoly(alg, raw)


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
                want, ordered = _random_poly_term_by_term(alg, want_rng, n_terms,
                                                          4, n_sites)
                assert got == want
                assert list(got.terms.items()) == list(ordered.terms.items())
    # the same draws, in the same order
    assert got_rng.getstate() == want_rng.getstate()
