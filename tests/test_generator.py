import inspect
import json
import math
import os
import re
import stat
from dataclasses import replace
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from bhnum import generator
from bhnum.curves import CurveSpec
from bhnum.generator import (
    BHTable,
    CacheError,
    ExpansionError,
    bernoulli,
    certify,
    expand_checked,
    expand_online,
    extract_numbers,
    hurwitz,
)
from helpers import assert_dict_eq, bump, oracle_bernoulli, oracle_x_of_u, series_dict
import ode_route
from ode_route import expand_by_ode
from reversion_route import (
    TruncSeries,
    as_series,
    binomial_series,
    expand_by_reversion,
    from_dense,
)

F = Fraction

MAIN = CurveSpec.cyclotomic(2, 5)


def test_main_curve_leading_window():
    exp = expand_by_reversion(MAIN, 8)
    assert series_dict(as_series(exp)[0]) == {-2: F(1), 8: F(1, 11)}
    exp = expand_by_reversion(MAIN, 5)
    assert series_dict(as_series(exp)[1]) == {-5: F(-1), 5: F(3, 11)}


@pytest.mark.parametrize(
    "curve, order, weights, pins",
    [
        (
            MAIN,
            22,
            [10, 20],
            {
                "c": {10: F(403200, 11), 20: F(-4988862627840000, 11)},
                "d": {10: F(3600, 11)},
                "c_over_n": {10: F(40320, 11)},
                "d_over_n": {10: F(360, 11)},
            },
        ),
        # D_8 / 8 = 4/3: a denominator prime outside p = 1 mod w.
        (CurveSpec.minus_x(2), 18, [8, 16], {"c": {8: F(640)}, "d": {8: F(32, 3)}}),
    ],
    ids=["cyclo:a=2,b=5", "minusx:g=2"],
)
def test_extracted_numbers_main_curve(curve, order, weights, pins):
    table = extract_numbers(expand_by_reversion(curve, order))
    assert table.weights() == weights
    for name, values in pins.items():
        for n, value in values.items():
            assert getattr(table, name)(n) == value, (name, n)


def test_extraction_respects_exactness_margin():
    assert extract_numbers(expand_by_reversion(MAIN, 22)).weights() == [10, 20]
    assert extract_numbers(expand_by_reversion(MAIN, 21)).weights() == [10]


@pytest.mark.parametrize(
    "curve",
    [
        MAIN,
        CurveSpec.cyclotomic(2, 3),
        CurveSpec.cyclotomic(2, 7),
        CurveSpec.minus_x(1),
        CurveSpec.minus_x(2),
        CurveSpec.minus_x(3),
    ],
    ids=str,
)
def test_methods_agree(curve):
    order = 4 * curve.weight + 2
    by_rev = expand_by_reversion(curve, order)
    by_ode = expand_by_ode(curve, order)
    assert by_rev.x == by_ode.x
    assert by_rev.y == by_ode.y
    assert extract_numbers(by_rev).rows == extract_numbers(by_ode).rows


# The next four take the branches of the online y route the first six
# miss: (i, j) = (3, 1) on both families, (1, 2) and (2, 3).  The last two
# are the b = 2 curves, where Y**a's Miller step reads X**b, a square, as Q.
ONLINE_CURVES = [
    MAIN,
    CurveSpec.cyclotomic(3, 4),
    CurveSpec.cyclotomic(3, 5),
    CurveSpec.cyclotomic(4, 5),
    CurveSpec.minus_x(1),
    CurveSpec.minus_x(2),
    CurveSpec.cyclotomic(2, 7),
    CurveSpec.cyclotomic(5, 3),
    CurveSpec.cyclotomic(4, 3),
    CurveSpec.minus_x(3),
    CurveSpec.cyclotomic(3, 2),
    CurveSpec.cyclotomic(5, 2),
]


@pytest.mark.parametrize("curve", ONLINE_CURVES, ids=str)
def test_online_matches_reversion(curve):
    order = 4 * curve.weight + 2
    online = expand_online(curve, order)
    by_rev = expand_by_reversion(curve, order)
    assert online.method == "online"
    assert online.x == by_rev.x
    assert online.y == by_rev.y
    assert extract_numbers(online).rows == extract_numbers(by_rev).rows


# One curve per branch of the online loop: i = j = 1; X**i by a Miller
# step (i = 3) on both families; i = 3 with Y**j a square (j = 2); X**i a
# square (i = 2) with Y**j a Miller step (j = 3); i = 1 with j = 2; and
# the two b = 2 curves, whose Q is read off the list of a square.
DEEP_CURVES = [
    CurveSpec.cyclotomic(2, 3),
    CurveSpec.cyclotomic(2, 7),
    CurveSpec.minus_x(3),
    CurveSpec.cyclotomic(3, 5),
    CurveSpec.cyclotomic(4, 3),
    CurveSpec.cyclotomic(5, 3),
    CurveSpec.cyclotomic(3, 2),
    CurveSpec.cyclotomic(5, 2),
]


@pytest.mark.parametrize("curve", DEEP_CURVES, ids=str)
def test_online_matches_reversion_deep(curve):
    # Through 12 v-slots (test_online_matches_reversion stops at 4): the
    # X_m solve on the rescaled grid must match reversion slot by slot, in
    # x and y.
    order = 12 * curve.weight + 2
    online = expand_online(curve, order)
    by_rev = expand_by_reversion(curve, order)
    assert online.x == by_rev.x
    assert online.y == by_rev.y


@pytest.mark.parametrize(
    "curve",
    [MAIN, CurveSpec.cyclotomic(3, 4), CurveSpec.cyclotomic(5, 3), CurveSpec.minus_x(2)],
    ids=str,
)
def test_online_window_is_honest(curve):
    # The online grids cover a window never shorter than asked, and are
    # exact to their last slot.
    a, b, w = curve.a, curve.b, curve.weight
    order = 2 * w + 1
    online = expand_online(curve, order)
    n = len(online.x) - 1
    assert order <= w * (n + 1) - 1 - max(a, b) < order + w
    wide = expand_by_reversion(curve, order + w)
    assert online.x == wide.x[: n + 1]
    assert online.y == wide.y[: n + 1]


@pytest.mark.parametrize(
    "curve", ONLINE_CURVES + [CurveSpec.cyclotomic(2, 3)], ids=str
)
def test_certificate_accepts_online_expansions(curve):
    order = 4 * curve.weight + 2
    window = certify(expand_online(curve, order))
    assert window >= order - curve.a * curve.b


@pytest.mark.parametrize("name", ["x", "y"])
def test_certificate_rejects_pattern_preserving_tamper(name):
    # 1/7 added at any slot of the support pattern but the leading one, up
    # to the top slot of the series (on minusx:g=2 that lies past the
    # table's top slot): the support pattern and leading term survive, so
    # only the certificate can tell.
    for curve in (MAIN, CurveSpec.cyclotomic(3, 4), CurveSpec.minus_x(2)):
        good = expand_online(curve, 102)
        for k in range(1, len(good.x)):
            with pytest.raises(ExpansionError, match=r"at u\^"):
                certify(bump(good, name, k, F(1, 7)))


@pytest.mark.parametrize(
    "curve",
    [MAIN, CurveSpec.cyclotomic(3, 4), CurveSpec.minus_x(2)],
    ids=str,
)
def test_certificate_rejects_consistent_x_tamper(curve):
    # expand_online reads y off x' by the differential identity, so an
    # error in x would pass into y consistently.  Here y is rebuilt from
    # the tampered x as -sigma * x**(i-1) * x' / a (these curves have
    # j = 1): the differential identity holds, and the curve equation must
    # fail at u**(e + a - a*b), a*b - a below the tampered slot u**e.
    a, b, w = curve.a, curve.b, curve.weight
    i, j = curve.exponent_pair
    assert j == 1
    good = expand_online(curve, 102)
    for k in range(1, len(good.x)):
        e = w * k - a
        x = as_series(bump(good, "x", k, F(1, 7)))[0]
        dx = x.derive()
        if i > 1:
            dx = x.power(i - 1) * dx
        y = dx.scale(F(-curve.y_leading_sign, a))
        tampered = from_dense(curve, x, y, good.method, good.order)
        with pytest.raises(
            ExpansionError, match=rf"curve equation at u\^{e + a - a * b} "
        ):
            certify(tampered)


KERNEL_CURVES = [
    MAIN,
    CurveSpec.cyclotomic(3, 4),
    CurveSpec.cyclotomic(3, 5),
    CurveSpec.minus_x(1),
    CurveSpec.minus_x(2),
]

# Each mutant is the kernel function with one fault; certify runs in
# bhnum.certificate and never calls them.


def _miller_weight_off(f, p, e):
    m = len(p)
    weights = [(e + 1) * k - m + (k == 1) for k in range(1, m + 1)]  # k = 1 off by one
    return sum(map(mul, map(mul, weights, f[1 : m + 1]), reversed(p)))


def _cross_pairs_undoubled(f, m):
    h = (m + 1) // 2
    total = sum(map(mul, f[1:h], reversed(f[m - h + 1 : m])))  # no 2 *
    if m % 2 == 0:
        total += f[h] * f[h]
    return total


def _solve_divisor_off():
    """expand_online with X_m divided by i*(w*m + 2), not i*(w*m + 1)."""
    source = inspect.getsource(generator.expand_online)
    solve = "slope = i * (w * m + 1)"
    assert source.count(solve) == 1
    namespace = dict(vars(generator))
    exec(source.replace(solve, solve.replace("+ 1", "+ 2")), namespace)
    return namespace["expand_online"]


def _extend_one_unscaled(series, den, nums, over):
    g = gcd(over, *nums)
    new = over // g
    scale = new // gcd(den, new)
    if scale > 1:
        den *= scale
        for s in series:
            # the newest stored numerator keeps its old scale, unless it is
            # the leading one (that fault would only break the leading term)
            last = len(s) - 1
            s[:] = [v if 0 < k == last else v * scale for k, v in enumerate(s)]
    up = den // new
    for s, v in zip(series, nums):
        s.append(v // g * up)
    return den


# cyclo(3,4) has i = j = 1 and a = 3: it forms no square.
SQUARING_KERNEL_CURVES = [c for c in KERNEL_CURVES if c != CurveSpec.cyclotomic(3, 4)]


@pytest.mark.parametrize(
    "target, mutant, must_catch",
    [
        ("_miller", _miller_weight_off, []),
        ("_cross", _cross_pairs_undoubled, SQUARING_KERNEL_CURVES),
        ("expand_online", _solve_divisor_off(), KERNEL_CURVES),
        ("_extend", _extend_one_unscaled, []),
    ],
    ids=["_miller", "_cross", "solve", "_extend"],
)
def test_certify_catches_kernel_mutants(target, mutant, must_catch, monkeypatch):
    # The online route runs on _miller, _cross, _extend and the X_m solve
    # in expand_online; certify shares none of them, so a fault in that
    # kernel cannot hide from it.  A curve that never calls the mutant
    # (cyclo(3,4) forms no square) must get the expansion it got before.
    clean = {curve: expand_online(curve, 102) for curve in KERNEL_CURVES}
    monkeypatch.setattr(generator, target, mutant)
    caught = []
    for curve in KERNEL_CURVES:
        expansion = generator.expand_online(curve, 102)
        try:
            certify(expansion)
        except ExpansionError as exc:
            assert re.search(r"at u\^", str(exc))
            caught.append(curve)
        else:
            assert expansion == clean[curve], curve
    assert len(caught) >= 1
    assert all(curve in caught for curve in must_catch), caught


@pytest.mark.parametrize(
    "curve",
    [MAIN, CurveSpec.cyclotomic(3, 4), CurveSpec.minus_x(2)],
    ids=str,
)
def test_expansion_satisfies_curve_equation(curve):
    x, y = as_series(expand_by_reversion(curve, 3 * curve.weight))
    lhs = y.power(curve.a)
    rhs = x.power(curve.b)
    rhs = rhs - x if curve.family == "minusx" else rhs - 1
    assert lhs.agrees_through(rhs)


@pytest.mark.parametrize("curve", [MAIN, CurveSpec.minus_x(2)], ids=str)
def test_y_is_half_power_derivative(curve):
    # u was normalized so that x' = 2 y / x**(g-1)
    g = (curve.b - 1) // 2
    x, y = as_series(expand_by_reversion(curve, 3 * curve.weight))
    lhs = y.scale(2)
    rhs = x.derive()
    if g >= 2:
        rhs = x.power(g - 1) * rhs
    assert lhs.agrees_through(rhs)


def test_expansion_against_independent_pipeline():
    for curve in (MAIN, CurveSpec.minus_x(1), CurveSpec.cyclotomic(2, 7)):
        _, j = curve.exponent_pair
        exp = expand_by_reversion(curve, 30)
        oracle = oracle_x_of_u(curve.a, curve.b, j, curve.weight, 30)
        assert_dict_eq(series_dict(as_series(exp)[0]), oracle, 30)


def test_ode_wrong_coefficient_is_named(monkeypatch):
    # Skew one Miller step of P = alpha**5 at v**3: alpha_3, the coefficient
    # of u**28 in x, comes out wrong, and the certificate must name the
    # slot u**(10*3 - 10) where the curve equation first fails.
    real = ode_route._miller

    def skewed(f, p, alpha):
        value = real(f, p, alpha)
        return value + 1 if alpha == 5 and len(p) == 3 else value

    monkeypatch.setattr(ode_route, "_miller", skewed)
    with pytest.raises(ExpansionError, match=r"^ode expansion .* curve equation at u\^20 "):
        expand_by_ode(MAIN, 62)


# -- the integer kernel --------------------------------------------------------

# Pairwise coprime denominators: every append brings a new factor into the
# shared denominator and rescales the numerators stored before it.
COPRIME = [F(1), F(1, 2), F(-1, 3), F(5, 7), F(1, 11), F(-4, 13), F(2, 17), F(-3, 19)]


def test_shared_denominator_reproduces_every_coefficient():
    # Each step appends c to one series and c / 6 to another, both handed
    # over with a common factor 23 that no denominator has.  The last two
    # append without a rescale: 0, and 7/22 with 22 | den.
    values = COPRIME + [F(0), F(7, 22)]
    s, t, den = [], [], 1
    for k, c in enumerate(values):
        nums, over = [138 * c.numerator, 23 * c.numerator], 138 * c.denominator
        den = generator._extend([s, t], den, nums, over)
        assert [F(v, den) for v in s] == values[: k + 1]
        assert [F(v, den) for v in t] == [q / 6 for q in values[: k + 1]]
        seen = values[: k + 1] + [q / 6 for q in values[: k + 1]]
        assert den == math.lcm(*(q.denominator for q in seen))


def _power(coeffs, e):
    """f**e through f's last coefficient on the integer kernel, for f_0 = 1:
    f's numerators, then f**e's, Miller step by step, over their shared
    denominator, which comes last."""
    den_f = math.lcm(*(q.denominator for q in coeffs))
    f = [int(c * den_f) for c in coeffs]
    p, den = [1], 1
    for m in range(1, len(f)):
        den = generator._extend([p], den, [generator._miller(f, p, e)], m * f[0] * den)
    return f, p, den


def _as_series(coeffs):
    return TruncSeries.from_terms(dict(enumerate(coeffs)), len(coeffs) - 1)


@pytest.mark.parametrize("e", [-3, -2, 5])
def test_power_matches_series_oracle(e):
    # TruncSeries.power inverts first for a negative exponent.
    _, p, den = _power(COPRIME, e)
    g, f = _as_series([F(v, den) for v in p]), _as_series(COPRIME).power(e)
    assert g.terms() == f.terms() and g.trunc_order == f.trunc_order
    # (1 - t)**e against the binomial series.
    _, p, den = _power([F(1), F(-1)] + [F(0)] * 10, e)
    binomial = binomial_series(1, e, 11)
    assert [F(v, den) for v in p] == [binomial.coeff(k) for k in range(12)]


def test_miller_reads_a_missing_top_coefficient_as_zero():
    f, p, _ = _power(COPRIME[:4], 5)
    assert generator._miller(f, p, 5) == generator._miller(f + [0], p, 5)


# The benchmark's compute curves at the orders it expands them to.
BENCH_CURVES = [
    (MAIN, 602),
    (CurveSpec.minus_x(2), 602),
    (CurveSpec.minus_x(1), 302),
    (CurveSpec.cyclotomic(3, 4), 1010),
    (CurveSpec.cyclotomic(3, 5), 1007),
]

# The lists the slot loop stores on each: X, X**b and Y, and X**3 on
# cyclo(3,5), whose (i, j) = (3, 2); no square and no Q has a list.
STORED_LISTS = {curve: 3 for curve, _ in BENCH_CURVES}
STORED_LISTS[CurveSpec.cyclotomic(3, 5)] = 4


@pytest.mark.parametrize("curve, order", BENCH_CURVES, ids=str)
def test_online_denominator_is_the_lcm_of_its_coefficients(curve, order, monkeypatch):
    # A dropped or partial reduction in the slot loop leaves the shared
    # denominator larger than it must be: the tables stay right, and only
    # the time grows.  Pin it after every slot, and at the end against
    # every stored coefficient.
    real, slots, lcm = generator._extend, [], 1

    def checked(series, den, nums, over):
        nonlocal lcm
        den = real(series, den, nums, over)
        lcm = math.lcm(lcm, *(F(s[-1], den).denominator for s in series))
        assert den == lcm, len(slots) + 1
        slots.append(series)
        return den

    monkeypatch.setattr(generator, "_extend", checked)
    expansion = generator.expand_online(curve, order)
    assert len(slots) == len(expansion.x) - 1
    assert {len(series) for series in slots} == {STORED_LISTS[curve]}
    assert lcm == math.lcm(*(F(v, lcm).denominator for s in slots[-1] for v in s))


def test_ode_refuses_non_hyperelliptic():
    with pytest.raises(ValueError, match="hyperelliptic"):
        expand_by_ode(CurveSpec.cyclotomic(3, 4), 12)


def test_order_validation():
    with pytest.raises(ExpansionError):
        expand_by_reversion(MAIN, 0)
    with pytest.raises(ExpansionError):
        expand_by_ode(MAIN, -3)
    with pytest.raises(ExpansionError):
        expand_online(MAIN, 0)


@pytest.mark.parametrize("curve", [MAIN, CurveSpec.cyclotomic(3, 4)], ids=str)
def test_expansion_checks_its_grids(curve):
    # Through order 18 MAIN keeps slots 0..2: x through u^27, y through u^24;
    # cyclo(3,4) keeps slots 0..1, x through u^20, y through u^19.
    good = expand_online(curve, 18)
    a, b, n = curve.a, curve.b, len(good.x) - 1
    for name, pole in (("x", a), ("y", b)):
        with pytest.raises(ExpansionError, match=rf"^{name} must start .* u\^-{pole}$"):
            bump(good, name, 0, 1)
    with pytest.raises(ExpansionError, match=rf"y grid at u\^{curve.weight * (n - 1) - b} "):
        replace(good, y=good.y[:-1])
    top = curve.weight * (n + 1) - 1 - max(a, b)
    assert replace(good, order=top).order == top
    with pytest.raises(ExpansionError, match=rf"through u\^{top}, claimed order {top + 1}$"):
        replace(good, order=top + 1)


def test_reversion_oracle_rejects_off_pattern_terms():
    x, y = as_series(expand_by_reversion(MAIN, 18))
    assert from_dense(MAIN, x, y, "reversion", 18).order == 18
    with pytest.raises(ExpansionError, match=r"^x series has a term at u\^3,"):
        from_dense(MAIN, x + TruncSeries.monomial(3, 1, 18), y, "reversion", 18)
    with pytest.raises(ExpansionError, match=r"^y series has a term at u\^7,"):
        from_dense(MAIN, x, y + TruncSeries.monomial(7, 1, 18), "reversion", 18)


def test_expand_checked_runs_the_certificate(monkeypatch):
    curve = CurveSpec.cyclotomic(3, 4)
    good = expand_online(curve, 26)
    bad = bump(good, "x", len(good.x) - 1, 1)
    monkeypatch.setattr("bhnum.generator.expand_online", lambda c, o: bad)
    with pytest.raises(ExpansionError, match="curve equation"):
        expand_checked(curve, 26)


# -- tables ------------------------------------------------------------------


def make_table(order=32):
    return extract_numbers(expand_by_reversion(MAIN, order))


def test_table_json_round_trip_is_byte_identical():
    table = make_table()
    text = table.dumps()
    again = BHTable.loads(text)
    assert again.dumps() == text
    assert again.rows == table.rows
    assert again.curve == table.curve


def test_table_write_read(tmp_path):
    table = make_table()
    path = tmp_path / "cache" / "main.json"
    table.write(path)
    back = BHTable.read(path)
    assert back.rows == table.rows
    doc = json.loads(path.read_text())
    assert doc["format"] == "bhnum.table"
    assert doc["weight_step"] == 10


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_table_write_gives_the_mode_open_would(tmp_path, umask, mode):
    path = tmp_path / "main.json"
    old = os.umask(umask)
    try:
        make_table().write(path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_failed_table_replace_keeps_the_old_table(tmp_path, monkeypatch):
    path = tmp_path / "main.json"
    make_table(22).write(path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        make_table().write(path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["main.json"]


def test_table_restrict():
    table = make_table(42)
    small = table.restrict(20)
    assert small.weights() == [10, 20]
    assert small.c(20) == table.c(20)
    with pytest.raises(ValueError):
        table.restrict(50)


def test_table_loads_rejects_malformed_documents():
    good = json.loads(make_table().dumps())

    with pytest.raises(CacheError):
        BHTable.loads("{not json")
    for mangle in (
        lambda d: d.update(format="bhnum.other"),
        lambda d: d.update(version=99),
        lambda d: d["rows"].pop(0),
        lambda d: d["rows"][0].pop("c"),
        lambda d: d["rows"][0].update(c=["1", "0x3"]),
        lambda d: d.update(curve="cyclo:a=2,b=4"),
        lambda d: d["rows"][0].update(c=["1", "0"]),
        lambda d: d["rows"][0].update(c=["\u0663", "1"]),
        lambda d: d["rows"][0].update(c="12"),
        lambda d: d.update(curve=5),
        lambda d: d.update(order="32"),
        lambda d: d.update(order=None),
        lambda d: d.update(method=["online"]),
        lambda d: d["rows"][0].update(weight="10"),
        lambda d: d["rows"][0].update(weight=10.0),
        lambda d: d["rows"].append(d["rows"][0]),
        lambda d: d["rows"][0].update(c=["7" * 5000, "1"]),
        lambda d: d.update(order=10**9),
        lambda d: d.update(weight_step=999),
        lambda d: d.update(weight_step="10"),
        lambda d: d.update(weight_step=True),
        lambda d: d.pop("weight_step"),
        lambda d: d.update(order=-40, rows=[]),
        lambda d: d.update(order=11, rows=[]),
    ):
        doc = json.loads(json.dumps(good))
        mangle(doc)
        with pytest.raises(CacheError):
            BHTable.from_json_dict(doc)


# -- classical anchors ---------------------------------------------------------


def test_bernoulli_matches_recurrence_oracle():
    assert bernoulli(15) == oracle_bernoulli(15)


def test_bernoulli_first_values():
    assert bernoulli(3) == [F(1, 6), F(-1, 30), F(1, 42)]
    assert bernoulli(0) == []
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_hurwitz_values():
    assert hurwitz(2) == [F(1, 10), F(3, 10)]
    assert hurwitz(0) == []
    with pytest.raises(ValueError):
        hurwitz(-2)


def test_hurwitz_consistent_with_table():
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 18))
    assert hurwitz(4) == [table.c(4 * n) / 2 ** (4 * n) for n in range(1, 5)]
