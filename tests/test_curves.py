from fractions import Fraction
from math import gcd

import pytest

from bhnum.curves import (
    CurveError,
    CurveSpec,
    canonical_exponents,
    parse_curve,
)
from reversion_route import (
    binomial_series,
    differential_pullback,
    u_series,
    xy_of_t,
)

F = Fraction


def test_canonical_exponents_examples():
    assert canonical_exponents(2, 5) == (2, 1)
    assert canonical_exponents(2, 3) == (1, 1)
    assert canonical_exponents(3, 4) == (1, 1)
    assert canonical_exponents(5, 7) == (4, 3)


def test_canonical_exponents_defining_property():
    for a in range(2, 9):
        for b in range(2, 12):
            if a == b or gcd(a, b) != 1:
                continue
            i, j = canonical_exponents(a, b)
            assert b * j - a * i == 1
            assert 1 <= j <= a - 1


def test_canonical_exponents_validation():
    with pytest.raises(CurveError):
        canonical_exponents(2, 4)
    with pytest.raises(CurveError):
        canonical_exponents(1, 5)


def test_curve_spec_properties():
    main = CurveSpec.cyclotomic(2, 5)
    assert main.weight == 10
    assert main.exponent_pair == (2, 1)
    assert main.y_leading_sign == -1
    assert main.genus_if_hyperelliptic == 2

    lem = CurveSpec.minus_x(1)
    assert lem.weight == 4
    assert lem.exponent_pair == (1, 1)
    assert lem.genus_if_hyperelliptic == 1

    odd = CurveSpec.cyclotomic(3, 4)
    assert odd.weight == 12
    assert odd.y_leading_sign == 1
    with pytest.raises(CurveError):
        odd.genus_if_hyperelliptic


def test_curve_spec_validation():
    with pytest.raises(CurveError):
        CurveSpec.cyclotomic(2, 4)
    with pytest.raises(CurveError):
        CurveSpec.cyclotomic(1, 5)
    with pytest.raises(CurveError):
        CurveSpec.minus_x(0)
    with pytest.raises(CurveError):
        CurveSpec("minusx", 3, 7)
    with pytest.raises(CurveError):
        CurveSpec("weierstrass", 2, 3)


def test_parse_round_trip():
    for curve in (
        CurveSpec.cyclotomic(2, 5),
        CurveSpec.cyclotomic(3, 4),
        CurveSpec.minus_x(1),
        CurveSpec.minus_x(3),
    ):
        assert parse_curve(str(curve)) == curve
    assert str(CurveSpec.cyclotomic(2, 5)) == "cyclo:a=2,b=5"
    assert str(CurveSpec.minus_x(2)) == "minusx:g=2"


def test_parse_errors():
    for bad in (
        "cubic:a=2,b=5",
        "cyclo:a=2",
        "cyclo:a=2,b=4",
        "minusx:g=x",
        "",
        "cyclo:a=2,b=5,a=3",
        "minusx:g=1,g=2",
        "cyclo:a=2,b=\u00b2",
        "cyclo:a=2,b=\u0665",
        "cyclo:a=2,b=--5",
    ):
        with pytest.raises(CurveError):
            parse_curve(bad)


def test_u_series_main_curve():
    u = u_series(CurveSpec.cyclotomic(2, 5), 21)
    assert dict(u.terms()) == {1: F(1), 11: F(1, 22), 21: F(1, 56)}
    with pytest.raises(CurveError):
        u_series(CurveSpec.cyclotomic(2, 5), 0)


def test_u_series_minusx():
    u = u_series(CurveSpec.minus_x(1), 9)
    assert dict(u.terms()) == {1: F(1), 5: F(1, 10), 9: F(1, 24)}


def test_xy_of_t_leading_terms():
    x, y = xy_of_t(CurveSpec.cyclotomic(2, 5), 0)
    assert dict(x.terms()) == {-2: F(1)}
    assert y.coeff(-5) == -1
    x, y = xy_of_t(CurveSpec.cyclotomic(3, 4), 0)
    assert y.coeff(-4) == 1


def test_xy_of_t_satisfies_curve_equation():
    for curve, order in (
        (CurveSpec.cyclotomic(2, 5), 30),
        (CurveSpec.cyclotomic(3, 4), 30),
        (CurveSpec.minus_x(2), 30),
    ):
        x, y = xy_of_t(curve, order)
        lhs = y.power(curve.a)
        rhs = x.power(curve.b) - 1
        if curve.family == "minusx":
            rhs = x.power(curve.b) - x
        assert lhs.agrees_through(rhs)


def test_differential_pullback_normalization():
    for curve in (
        CurveSpec.cyclotomic(2, 5),
        CurveSpec.cyclotomic(3, 4),
        CurveSpec.minus_x(1),
    ):
        pulled = differential_pullback(curve, 25)
        assert pulled.base_exponent == 0
        _, j = curve.exponent_pair
        sigma = -((curve.y_leading_sign) ** j)
        expected = binomial_series(
            curve.weight, F(-j, curve.a), 25
        ).scale(sigma)
        assert pulled == expected


def test_differential_pullback_chain_rule():
    # a * y**j * (pullback) == x**(i-1) * x' exactly as series
    for curve in (CurveSpec.cyclotomic(2, 5), CurveSpec.cyclotomic(3, 5)):
        i, j = curve.exponent_pair
        order = 22
        pulled = differential_pullback(curve, order)
        x, y = xy_of_t(curve, order + curve.a + curve.b * j)
        lhs = y.power(j) * pulled * curve.a
        rhs = x.power(i - 1) * x.derive()
        assert lhs.agrees_through(rhs, order - curve.b * j)


def test_u_series_integrates_pullback():
    curve = CurveSpec.minus_x(2)
    _, j = curve.exponent_pair
    sigma = -((curve.y_leading_sign) ** j)
    pulled = differential_pullback(curve, 20).scale(sigma)
    assert pulled.integrate().agrees_through(u_series(curve, 21))
