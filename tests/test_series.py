import random
from fractions import Fraction

import pytest

from helpers import binom_frac, n_compose, n_mul, n_revert, series_dict
from reversion_route import SeriesError, TruncSeries, binomial_series, revert

F = Fraction


def rand_series(rng, trunc, base_lo=-3, n_terms=6, ensure_nonzero=False):
    terms = {}
    for _ in range(n_terms):
        e = rng.randrange(base_lo, trunc + 1)
        terms[e] = F(rng.randrange(-9, 10), rng.randrange(1, 7))
    s = TruncSeries.from_terms(terms, trunc)
    if ensure_nonzero and s.is_zero():
        return TruncSeries.monomial(base_lo, 1, trunc)
    return s


# -- construction and canonical form ------------------------------------------


def test_from_terms_strips_zero_terms():
    s = TruncSeries.from_terms({2: F(0), 3: F(5)}, 6)
    assert s.base_exponent == 3
    assert s.support() == (3,)


def test_zero_series_canonical_shape():
    z = TruncSeries.zero(7)
    assert z.is_zero()
    assert z.base_exponent == 8
    assert z.coefficients == ()
    assert TruncSeries.from_terms({}, 7) == z


def test_constructor_rejects_inconsistent_window():
    with pytest.raises(SeriesError):
        TruncSeries(0, (F(1),), 5)


def test_constructor_rejects_stored_leading_zero():
    with pytest.raises(SeriesError):
        TruncSeries(0, (F(0), F(1)), 1)


def test_from_terms_rejects_term_beyond_window():
    with pytest.raises(SeriesError):
        TruncSeries.from_terms({5: F(1)}, 4)


def test_floats_are_rejected_everywhere():
    with pytest.raises(SeriesError):
        TruncSeries.monomial(0, 0.5, 3)
    with pytest.raises(SeriesError):
        TruncSeries.from_terms({1: 0.5}, 3)
    with pytest.raises(SeriesError):
        TruncSeries.monomial(1, 1, 3).scale(0.5)


def test_coeff_semantics():
    s = TruncSeries.from_terms({-2: F(1), 3: F(7)}, 5)
    assert s.coeff(-2) == 1
    assert s.coeff(0) == 0
    assert s.coeff(-10) == 0
    assert s.coeff(5) == 0
    with pytest.raises(SeriesError):
        s.coeff(6)


def test_terms_and_support():
    s = TruncSeries.from_terms({4: F(2), -1: F(-1)}, 9)
    assert s.terms() == [(-1, F(-1)), (4, F(2))]
    assert s.support() == (-1, 4)


# -- ring operations ------------------------------------------------------------


def test_add_examples():
    a = TruncSeries.from_terms({0: F(1), 2: F(3)}, 4)
    b = TruncSeries.from_terms({2: F(-3), 3: F(1)}, 6)
    total = a + b
    assert total.trunc_order == 4
    assert series_dict(total) == {0: F(1), 3: F(1)}
    assert (a + 2).coeff(0) == 3
    assert (2 + a).coeff(0) == 3
    assert (a - a).is_zero()


def test_mul_example():
    a = TruncSeries.from_terms({-1: F(1), 1: F(2)}, 3)
    b = TruncSeries.from_terms({1: F(1), 2: F(1)}, 4)
    p = a * b
    # window: min(3 + 1, 4 + (-1)) = 3
    assert p.trunc_order == 3
    assert series_dict(p) == {0: F(1), 1: F(1), 2: F(2), 3: F(2)}


def test_ring_axioms_random():
    rng = random.Random(7321)
    for _ in range(30):
        trunc = rng.randrange(5, 14)
        p = rand_series(rng, trunc)
        q = rand_series(rng, trunc)
        r = rand_series(rng, trunc)
        assert p + q == q + p
        assert p * q == q * p
        assert ((p + q) + r) == (p + (q + r))
        assert ((p * q) * r).agrees_through(p * (q * r))
        assert ((p + q) * r).agrees_through(p * r + q * r)


def test_mul_against_dict_oracle():
    rng = random.Random(40)
    for _ in range(25):
        a = rand_series(rng, rng.randrange(4, 12))
        b = rand_series(rng, rng.randrange(4, 12))
        p = a * b
        expected = n_mul(series_dict(a), series_dict(b), p.trunc_order)
        assert series_dict(p) == expected


def test_power():
    t = TruncSeries.monomial(1, 1, 6)
    s = t + t.shift(1)  # t + t^2
    cube = s.power(3)
    assert series_dict(cube) == {3: F(1), 4: F(3), 5: F(3), 6: F(1)}
    assert s.power(1) == s
    assert s.power(0) == TruncSeries.one(6)
    assert s.power(0, cap=3) == TruncSeries.one(3)


def test_power_negative_exponent():
    m = TruncSeries.monomial(2, 3, 10)
    inv = m.power(-1)
    assert inv.coeff(-2) == F(1, 3)
    assert inv.trunc_order == 10 - 4
    sq = TruncSeries.monomial(1, 2, 8).power(-2)
    assert sq.coeff(-2) == F(1, 4)


def _dense(seed, base, trunc):
    rng = random.Random(seed)
    exponents = range(base, trunc + 1)
    return TruncSeries.from_terms(
        {e: F(rng.randrange(1, 10), rng.randrange(1, 30)) for e in exponents}, trunc
    )


@pytest.mark.parametrize(
    "s",
    [
        TruncSeries.from_terms({0: F(1), 5: F(-3, 7), 10: F(2, 9), 20: F(5)}, 30),
        _dense(5, 0, 24),
        TruncSeries.from_terms({-3: F(2, 3), -1: F(-5), 4: F(1, 11)}, 12),
        _dense(6, -4, 15),
        TruncSeries.monomial(-2, F(7, 5), 9),
        TruncSeries.zero(7),
    ],
    ids=["sparse", "dense", "laurent-sparse", "laurent-dense", "monomial", "zero"],
)
def test_square_matches_product_with_a_copy(s):
    # s._mul(s) takes the squaring path of the kernel, which forms each
    # cross term once; an equal but distinct copy takes the general one.
    def copy():
        return TruncSeries(s.base_exponent, s.coefficients, s.trunc_order)

    assert copy() is not s and copy() == s
    for cap in (None, s.trunc_order - 3, 2 * s.base_exponent + 4):
        assert s._mul(s, cap=cap) == s._mul(copy(), cap=cap), cap
    for n in range(2, 6):
        chain = copy()
        for _ in range(n - 1):
            chain = chain._mul(copy())
        assert s.power(n) == chain, n
        if s.base_exponent >= 0:
            # With a valuation >= 0 the cap bounds the window whatever the
            # order of the products.
            cap = s.trunc_order - 2
            assert s.power(n, cap=cap) == chain.truncate(cap), n


# -- window bookkeeping ----------------------------------------------------------


def test_mul_window_is_honest():
    # multiply truncated views of known polynomials and confirm every
    # claimed coefficient matches the exact product
    rng = random.Random(99)
    for _ in range(25):
        da = {e: F(rng.randrange(-5, 6)) for e in range(-2, 5)}
        db = {e: F(rng.randrange(-5, 6)) for e in range(-1, 6)}
        exact = n_mul(da, db, 100)
        ta = rng.randrange(0, 5)
        tb = rng.randrange(1, 6)
        a = TruncSeries.from_terms({e: c for e, c in da.items() if e <= ta}, ta)
        b = TruncSeries.from_terms({e: c for e, c in db.items() if e <= tb}, tb)
        p = a * b
        for e in range(p.base_exponent, p.trunc_order + 1):
            assert p.coeff(e) == exact.get(e, F(0)), (e, da, db, ta, tb)


def test_truncate_and_padded():
    s = TruncSeries.from_terms({1: F(1), 4: F(2)}, 6)
    cut = s.truncate(3)
    assert cut.trunc_order == 3
    assert series_dict(cut) == {1: F(1)}
    assert s.truncate(6) is s
    assert s.truncate(0).is_zero()
    wide = s._padded(10)
    assert wide.trunc_order == 10
    assert wide.coeff(10) == 0
    assert s._padded(5) is s


def test_shift():
    s = TruncSeries.from_terms({0: F(2), 1: F(3)}, 4)
    up = s.shift(2)
    assert series_dict(up) == {2: F(2), 3: F(3)}
    assert up.trunc_order == 6
    assert up.shift(-2) == s


def test_agrees_through():
    a = TruncSeries.from_terms({1: F(1), 3: F(2)}, 8)
    b = TruncSeries.from_terms({1: F(1), 3: F(2), 5: F(9)}, 6)
    assert a.agrees_through(b, 6) is False
    assert a.agrees_through(b, 4) is True
    # bound defaults to the smaller window, 6, where they differ
    assert a.agrees_through(b) is False
    assert a.first_difference(b) == 5
    assert a.first_difference(b, 4) is None
    assert b.first_difference(TruncSeries.from_terms({3: F(2)}, 6)) == 1


# -- calculus ---------------------------------------------------------------------


def test_derive():
    s = TruncSeries.from_terms({-1: F(1), 0: F(5), 3: F(2)}, 5)
    d = s.derive()
    assert series_dict(d) == {-2: F(-1), 2: F(6)}
    assert d.trunc_order == 4


def test_integrate():
    s = TruncSeries.from_terms({-3: F(2), 0: F(1), 2: F(6)}, 4)
    anti = s.integrate()
    assert series_dict(anti) == {-2: F(-1), 1: F(1), 3: F(2)}
    assert anti.trunc_order == 5
    assert anti.derive().agrees_through(s)


def test_integrate_rejects_log_term():
    with pytest.raises(SeriesError):
        TruncSeries.from_terms({-1: F(1), 2: F(1)}, 4).integrate()


def test_derive_integrate_roundtrip_random():
    rng = random.Random(88)
    for _ in range(20):
        s = rand_series(rng, 12)
        # drop the slots with no antiderivative partner (t^-1 and the constant)
        body = TruncSeries.from_terms(
            {e: c for e, c in s.terms() if e not in (-1, 0)}, s.trunc_order
        )
        assert body.integrate().derive().agrees_through(body)


# -- inversion ----------------------------------------------------------------------


def test_invert_examples():
    u = TruncSeries.from_terms({0: F(1), 1: F(-1)}, 5)
    geo = u.invert()
    assert series_dict(geo) == {e: F(1) for e in range(6)}
    m = TruncSeries.monomial(2, 1, 10)
    assert series_dict(m.invert()) == {-2: F(1)}
    assert m.invert().trunc_order == 6


def test_invert_roundtrip_random():
    rng = random.Random(5150)
    for _ in range(25):
        s = rand_series(rng, rng.randrange(6, 16), ensure_nonzero=True)
        prod = s * s.invert()
        assert prod.agrees_through(TruncSeries.one(max(prod.trunc_order, 0)))


def test_invert_rejects_zero():
    with pytest.raises(SeriesError):
        TruncSeries.zero(4).invert()


# -- composition ---------------------------------------------------------------------


def test_compose_example():
    outer = TruncSeries.monomial(2, 1, 4)
    inner = TruncSeries.from_terms({1: F(1), 2: F(1)}, 4)
    comp = outer.compose(inner)
    assert comp.trunc_order == 4
    assert series_dict(comp) == {2: F(1), 3: F(2), 4: F(1)}


def test_compose_laurent_outer():
    outer = TruncSeries.monomial(-1, 1, 3)
    inner = TruncSeries.monomial(1, 2, 5)
    comp = outer.compose(inner)
    assert comp.coeff(-1) == F(1, 2)


def test_compose_against_dict_oracle():
    rng = random.Random(313)
    for _ in range(15):
        outer = rand_series(rng, rng.randrange(4, 9), base_lo=0)
        inner_terms = {1: F(1)}
        for _ in range(3):
            inner_terms[rng.randrange(2, 8)] = F(rng.randrange(-4, 5))
        inner = TruncSeries.from_terms(inner_terms, 9)
        if outer.is_zero():
            continue
        comp = outer.compose(inner)
        expected = n_compose(series_dict(outer), series_dict(inner), comp.trunc_order)
        assert series_dict(comp) == {
            e: c for e, c in expected.items() if e <= comp.trunc_order
        }


def test_compose_preconditions():
    t = TruncSeries.monomial(1, 1, 5)
    with pytest.raises(SeriesError):
        t.compose(TruncSeries.zero(5))
    with pytest.raises(SeriesError):
        t.compose(TruncSeries.one(5))
    with pytest.raises(SeriesError):
        TruncSeries.monomial(-1, 1, 5).compose(TruncSeries.monomial(2, 1, 5))


# -- binomial series -------------------------------------------------------------------


def test_binomial_series_examples():
    s = binomial_series(10, F(-1, 2), 25)
    assert series_dict(s) == {0: F(1), 10: F(1, 2), 20: F(3, 8)}
    s = binomial_series(4, F(-1, 2), 9)
    assert series_dict(s) == {0: F(1), 4: F(1, 2), 8: F(3, 8)}
    assert binomial_series(3, 0, 12) == TruncSeries.one(12)
    assert binomial_series(2, 1, 7) == TruncSeries.from_terms({0: F(1), 2: F(-1)}, 7)


def test_binomial_series_against_product_formula():
    for alpha in (F(1, 2), F(-2, 5), F(3)):
        s = binomial_series(7, alpha, 50)
        for k in range(8):
            assert s.coeff(7 * k) == (-1) ** k * binom_frac(alpha, k)


def test_binomial_series_reciprocal_identity():
    for alpha in (F(1, 2), F(-1, 3), F(5, 7)):
        prod = binomial_series(4, alpha, 30) * binomial_series(4, -alpha, 30)
        assert prod.agrees_through(TruncSeries.one(30))


def test_binomial_series_validation():
    with pytest.raises(SeriesError):
        binomial_series(0, F(1, 2), 5)
    with pytest.raises(SeriesError):
        binomial_series(3, F(1, 2), -1)


# -- reversion ----------------------------------------------------------------------------


def test_revert_example():
    s = TruncSeries.from_terms({1: F(1), 2: F(1)}, 4)
    g = revert(s)
    assert series_dict(g) == {1: F(1), 2: F(-1), 3: F(2), 4: F(-5)}


def test_revert_patterned_example():
    # the weight-10 integral: u = t + t^11/22 + t^21/56 + ...
    u = binomial_series(10, F(-1, 2), 20).integrate()
    t_of_u = revert(u)
    assert t_of_u.coeff(1) == 1
    assert t_of_u.coeff(11) == F(-1, 22)
    assert t_of_u.coeff(21) == F(3, 616)


def test_revert_roundtrip_patterned_deep():
    u = binomial_series(7, F(-2, 7), 200).integrate()
    g = revert(u)
    t = TruncSeries.monomial(1, 1, 200)
    assert u.compose(g).agrees_through(t, 200)
    assert g.compose(u).agrees_through(t, 200)


def test_revert_roundtrip_dense_random():
    rng = random.Random(414)
    terms = {1: F(1)}
    for e in range(2, 121):
        if rng.random() < 0.7:
            terms[e] = F(rng.randrange(-9, 10), rng.randrange(1, 8))
    s = TruncSeries.from_terms(terms, 120)
    g = revert(s)
    t = TruncSeries.monomial(1, 1, 120)
    assert s.compose(g).agrees_through(t, 120)
    assert g.compose(s).agrees_through(t, 120)


def test_revert_dict_oracle():
    rng = random.Random(515)
    terms = {1: F(1)}
    for e in range(2, 12):
        terms[e] = F(rng.randrange(-5, 6), rng.randrange(1, 4))
    s = TruncSeries.from_terms(terms, 11)
    assert series_dict(revert(s)) == n_revert(series_dict(s), 11)


def test_revert_identity_monomial():
    t = TruncSeries.monomial(1, 1, 30)
    assert revert(t) == t


def test_revert_preconditions():
    with pytest.raises(SeriesError):
        revert(TruncSeries.one(5))
    with pytest.raises(SeriesError):
        revert(TruncSeries.monomial(1, 2, 5))
    with pytest.raises(SeriesError):
        revert(TruncSeries.monomial(2, 1, 5))
