import re
from collections import Counter
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
    # shows here as an extra product at every slot.
    calls = Counter()
    real = certificate._slot

    def counted(p, q, row, m):
        calls[m] += 1
        return real(p, q, row, m)

    monkeypatch.setattr(certificate, "_slot", counted)
    expansion = expand_online(curve, 4 * curve.weight + 2)
    certify(expansion)
    assert calls == dict.fromkeys(range(len(expansion.x)), PRODUCTS[curve])


def _convolution_check(f, g):
    # The square path and the general path against a Fraction convolution,
    # each product formed slot by slot.  w = 0 leaves the grids unscaled;
    # slot 0 of each is an integer, as X_0 and Y_0 are.
    p, q, rungs, got = [], [], [], ([], [], [])
    pairs = ((p, p, (f, f)), (p, q, (f, g)), (q, p, (g, f)))
    for m, row, rung, (u, v) in certificate._ladder((f, g), 0):
        p.append(u)
        q.append(v)
        rungs.append(rung)
        for out, (a, b, _) in zip(got, pairs):
            out.append(certificate._slot(a, b, row, m))
    for out, (_, _, (x, y)) in zip(got, pairs):
        want = [sum(x[k] * y[m - k] for k in range(m + 1)) for m in range(len(f))]
        assert [F(v, d) for v, d in zip(out, rungs)] == want
    return rungs


def test_v_grid_product_matches_fraction_convolution():
    coeffs = [F(1), F(-1, 6), F(5, 14), F(0), F(-3, 35), F(2, 9)]
    _convolution_check(coeffs, [F(-2), *reversed(coeffs[1:])])


def test_ladder_closes_over_pairs():
    # Slot 1 has denominator 3 and slot 2 none of its own, but X_1**2 puts
    # 1/9 into slot 2 of the square: D_2 must hold 9 for it to be an integer.
    f = [F(1), F(1, 3), F(2), F(-1, 7), F(4, 3)]
    g = [F(-1), F(2, 3), F(1), F(5), F(0)]
    rungs = _convolution_check(f, g)
    assert rungs[:3] == [1, 3, 9]


@pytest.mark.parametrize(
    "curve, weight",
    [
        (CurveSpec.cyclotomic(2, 5), 600),
        (CurveSpec.minus_x(2), 600),
        (CurveSpec.minus_x(1), 300),
        (CurveSpec.cyclotomic(3, 4), 1008),
        (CurveSpec.cyclotomic(3, 5), 1005),
    ],
    ids=str,
)
def test_ladder_rungs_divide_up(curve, weight):
    # D_0 = 1, each slot's own denominators divide D_k, and every
    # D_k * D_(m-k) divides D_m, with the row holding the cofactor.
    w = curve.weight
    e = expand_online(curve, weight + 2)
    rungs = []
    for m, row, d, _ in certificate._ladder((e.x, e.y), w):
        rungs.append(d)
        for grid in (e.x, e.y):
            assert d % (grid[m] * (w + 1) ** m).denominator == 0, m
        assert len(row) == m // 2 + 1
        for k, c in enumerate(row):
            assert c * rungs[k] * rungs[m - k] == d, (m, k)
    assert rungs[0] == 1 and len(rungs) == len(e.x)


def test_ladder_failures_name_the_same_residual():
    # The messages the shared-denominator certificate gave for a large
    # prime at x slot 2 (which the closure carries into every later rung)
    # and a small one at y slot 1.
    good = expand_online(CurveSpec.cyclotomic(3, 4), 1008)
    for name, k, by, message in (
        ("x", 2, F(1, 2**61 - 1), "u^12 (residual coefficient: "
         "3-bit numerator, 61-bit denominator)"),
        ("y", 1, F(1, 10007), "u^0 (residual coefficient: "
         "2-bit numerator, 14-bit denominator)"),
    ):
        with pytest.raises(ExpansionError) as err:
            certify(bump(good, name, k, by))
        assert str(err.value) == (
            f"online expansion of cyclo:a=3,b=4 fails the curve equation at {message}"
        )


def test_grid_is_rescaled():
    # X_k carries most of (w + 1)**k in its denominator, and the grid is
    # rescaled to drop it: on cyclo(3,4) through v**84 its top rung must
    # fall below the 1776-bit lcm of the unscaled X_k, or the rescale is gone.
    curve = CurveSpec.cyclotomic(3, 4)
    w = curve.weight
    e = expand_online(curve, 1010)
    assert lcm(*(c.denominator for c in e.x)).bit_length() == 1776
    slots = [(nums[0], d) for _, _, d, nums in certificate._ladder((e.x, e.y), w)]
    assert slots[-1][1].bit_length() < 1776
    assert [F(v, d * (w + 1) ** k) for k, (v, d) in enumerate(slots)] == list(e.x)


@pytest.mark.parametrize("m, at", [(3, 30), (7, 70)])
def test_curve_equation_outranks_an_earlier_differential_failure(m, at):
    # 2 added to X_m and -5 to Y_m keep the curve equation at slot m and
    # break the differential identity there; the curve equation first fails
    # at slot m + 1, and it is the identity named.
    good = expand_online(CurveSpec.cyclotomic(2, 5), 302)
    with pytest.raises(ExpansionError) as err:
        certify(bump(bump(good, "x", m, F(2)), "y", m, F(-5)))
    assert str(err.value) == (
        f"online expansion of cyclo:a=2,b=5 fails the curve equation at u^{at} "
        "(residual coefficient: 7-bit numerator, 4-bit denominator)"
    )
