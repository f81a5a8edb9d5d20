import re
from fractions import Fraction
from math import lcm

import pytest

from bhnum import certificate
from bhnum.certificate import ExpansionError, certify
from bhnum.curves import CurveSpec
from bhnum.generator import expand_online
from helpers import bump
from reversion_route import (
    TruncSeries,
    as_series,
    expand_by_reversion,
    from_dense,
    truncseries_certificate,
)

F = Fraction

PARITY_CURVES = [
    CurveSpec.cyclotomic(2, 3),
    CurveSpec.cyclotomic(2, 5),
    CurveSpec.cyclotomic(2, 7),
    CurveSpec.cyclotomic(3, 4),
    CurveSpec.cyclotomic(3, 5),
    CurveSpec.cyclotomic(4, 3),
    CurveSpec.cyclotomic(4, 5),
    CurveSpec.cyclotomic(5, 3),
    CurveSpec.minus_x(1),
    CurveSpec.minus_x(2),
    CurveSpec.minus_x(3),
]

_MESSAGE = re.compile(
    r"fails the (.+) at u\^(-?\d+) \(residual coefficient: "
    r"(\d+)-bit numerator, (\d+)-bit denominator\)$"
)


def _outcome(expansion):
    """certify's result in the form truncseries_certificate returns."""
    try:
        return "window", certify(expansion)
    except ExpansionError as exc:
        name, e, num, den = _MESSAGE.search(str(exc)).groups()
        return name, int(e), int(num), int(den)


@pytest.mark.parametrize("route", ["online", "reversion"])
@pytest.mark.parametrize("curve", PARITY_CURVES, ids=str)
def test_certificate_matches_truncseries_oracle_on_clean_expansions(curve, route):
    # Orders below, at and past the first weights, where the window, the
    # +1 (or +x) term and the v-grid length all change.  The online half runs
    # certify and the oracle; the reversion half checks that reversion gives
    # the same grids (all that either reads, besides the curve) and order.
    w = curve.weight
    for order in sorted({1, 3, w - 1, w + 1, 2 * w + 5, 61}):
        expansion = expand_online(curve, order)
        if route == "online":
            assert _outcome(expansion) == truncseries_certificate(expansion), order
        else:
            by_rev = expand_by_reversion(curve, order)
            assert (by_rev.x, by_rev.y, by_rev.order) == (
                expansion.x, expansion.y, expansion.order
            ), order


@pytest.mark.parametrize("curve", PARITY_CURVES, ids=str)
def test_certificate_matches_truncseries_oracle_on_tampers(curve):
    # Every non-leading support slot of x and y, through the top slot of
    # each series: the same identity, slot and residual sizes must come out.
    good = expand_online(curve, 61)
    seen = set()
    for name in ("x", "y"):
        for k in range(1, len(good.x)):
            for by in (F(1, 7), F(-3)):
                tampered = bump(good, name, k, by)
                outcome = _outcome(tampered)
                assert outcome == truncseries_certificate(tampered), (name, k, by)
                seen.add(outcome[0])
    # u -> u + c*u**(w*k + 1) keeps (x, y) on the curve and on the support
    # pattern, so only the differential identity can tell.
    good_x, good_y = as_series(good)
    for k, c in ((1, F(1, 7)), (2, F(-3))):
        top = max(good_x.trunc_order, good_y.trunc_order) + curve.b
        inner = TruncSeries.from_terms({1: 1, curve.weight * k + 1: c}, top)
        x, y = (s.compose(inner) for s in (good_x, good_y))
        # compose narrows the windows, and certify reads the grids, not order
        moved = from_dense(curve, x, y, good.method, 1)
        outcome = _outcome(moved)
        assert outcome == truncseries_certificate(moved), (k, c)
        seen.add(outcome[0])
    assert seen == {"curve equation", "differential identity"}


# cyclo(3,5) has (i, j) = (3, 2): x**2, x**4, x**5 = x**4 * x and
# x**3 = x**2 * x, then y**2 and y**3 = y**2 * y.
PRODUCTS = {
    CurveSpec.cyclotomic(3, 5): 6,
    CurveSpec.cyclotomic(2, 5): 4,
    CurveSpec.minus_x(2): 4,
    CurveSpec.cyclotomic(3, 4): 4,
    CurveSpec.minus_x(1): 3,
    CurveSpec.cyclotomic(2, 7): 5,
}


@pytest.mark.parametrize("curve", list(PRODUCTS), ids=str)
def test_certificate_forms_each_power_once(curve, monkeypatch):
    # A square formed twice on the way to x**b and x**i (or y**a and y**j)
    # shows here as an extra product.
    calls = []
    real = certificate._mul

    def counted(p, q, n):
        calls.append(n)
        return real(p, q, n)

    monkeypatch.setattr(certificate, "_mul", counted)
    certify(expand_online(curve, 4 * curve.weight + 2))
    assert len(calls) == PRODUCTS[curve]


def test_v_grid_product_matches_fraction_convolution():
    # The square path and the general path against a Fraction convolution,
    # and the content gcd leaves the lcm of the coefficients' denominators.
    coeffs = [F(1), F(-1, 6), F(5, 14), F(0), F(-3, 35), F(2, 9)]
    den = 630
    f = [int(c * den) for c in coeffs], den
    g = [int(c * den) for c in reversed(coeffs)], den
    n = len(coeffs) - 1
    for p, q in ((f, f), (f, g)):
        want = [
            sum(F(p[0][k], p[1]) * F(q[0][m - k], q[1]) for k in range(m + 1))
            for m in range(n + 1)
        ]
        nums, d = certificate._mul(p, q, n)
        assert [F(v, d) for v in nums] == want
        assert d == lcm(*(c.denominator for c in want))


def test_grid_is_rescaled():
    # X_k carries most of (w + 1)**k in its denominator, and the grid is
    # rescaled to drop it: on cyclo(3,4) through v**84 its denominator must
    # fall below the 1776-bit lcm of the unscaled X_k, or the rescale is gone.
    curve = CurveSpec.cyclotomic(3, 4)
    w = curve.weight
    x = expand_online(curve, 1010).x
    assert lcm(*(c.denominator for c in x)).bit_length() == 1776
    nums, den = certificate._grid(x, w)
    assert den.bit_length() < 1776
    assert [F(v, den * (w + 1) ** k) for k, v in enumerate(nums)] == list(x)
