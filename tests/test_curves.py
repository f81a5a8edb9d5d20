from fractions import Fraction
from math import gcd

import pytest

from bhnum.curves import (
    CurveError,
    CurveSpec,
    parse_curve,
)
from reversion_route import (
    binomial_series,
    differential_pullback,
    u_series,
    xy_of_t,
)

F = Fraction


def test_exponent_pair_examples():
    assert CurveSpec.cyclotomic(2, 5).exponent_pair == (2, 1)
    assert CurveSpec.cyclotomic(2, 3).exponent_pair == (1, 1)
    assert CurveSpec.cyclotomic(3, 4).exponent_pair == (1, 1)
    assert CurveSpec.cyclotomic(5, 7).exponent_pair == (4, 3)
    assert CurveSpec.minus_x(1).exponent_pair == (1, 1)
    assert CurveSpec.minus_x(7).exponent_pair == (7, 1)


def test_exponent_pair_defining_property():
    # The unique (i, j) with b*j - a*i = 1 and 1 <= j <= a - 1, found by
    # search; on minusx (a = 2, b = 2g + 1) that is (g, 1).
    curves = [CurveSpec.minus_x(g) for g in range(1, 20)]
    curves += [
        CurveSpec.cyclotomic(a, b)
        for a in range(2, 13)
        for b in range(2, 40)
        if gcd(a, b) == 1
    ]
    for curve in curves:
        a, b = curve.a, curve.b
        (j,) = [j for j in range(1, a) if (b * j - 1) % a == 0]
        assert curve.exponent_pair == ((b * j - 1) // a, j), curve
        if curve.family == "minusx":
            assert curve.exponent_pair == ((b - 1) // 2, 1)


def test_exponent_pair_on_every_constructible_spec():
    # The pair is read off a, b without checks of its own: every spec that
    # construction admits has one, and every (a, b) without one is refused.
    for family in ("cyclo", "minusx"):
        for a in range(0, 7):
            for b in range(0, 16):
                try:
                    curve = CurveSpec(family, a, b)
                except CurveError:
                    assert a < 2 or b < 2 or gcd(a, b) != 1 or family == "minusx"
                    continue
                i, j = curve.exponent_pair
                assert b * j - a * i == 1 and 1 <= j <= a - 1, curve


def test_curve_spec_properties():
    main = CurveSpec.cyclotomic(2, 5)
    assert main.weight == 10
    assert main.exponent_pair == (2, 1)
    assert main.y_leading_sign == -1

    lem = CurveSpec.minus_x(1)
    assert lem.weight == 4
    assert lem.exponent_pair == (1, 1)

    odd = CurveSpec.cyclotomic(3, 4)
    assert odd.weight == 12
    assert odd.y_leading_sign == 1


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
