import inspect
import json
import math
import os
import re
import stat
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul
from pathlib import Path

import pytest

from bhnum import certificate, generator
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
from helpers import (
    assert_dict_eq, bump, oracle_bernoulli, oracle_x_of_u, series_dict, table_text,
)
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
    read = {
        "c": table.c, "d": table.d,
        "c_over_n": lambda n: table.c(n) / n, "d_over_n": lambda n: table.d(n) / n,
    }
    for name, values in pins.items():
        for n, value in values.items():
            assert read[name](n) == value, (name, n)


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


def _miller_weight_off(f, p, e, row):
    m = len(p)
    weights = [(e + 1) * k - m + (k == 1) for k in range(1, m)]  # k = 1 off by one
    terms = map(mul, f[1:m], reversed(p[1:]))
    return sum(map(mul, map(mul, weights, row), terms))


def _cross_pairs_undoubled(f, row):
    m = len(row) + 1
    h = (m + 1) // 2
    total = sum(map(mul, row, map(mul, f[1:h], reversed(f[m - h + 1 : m]))))  # no 2 *
    if m % 2 == 0:
        total += row[h - 1] * f[h] * f[h]
    return total


def _solve_divisor_off():
    """expand_online with X_m divided by i*(w*m + 2), not i*(w*m + 1)."""
    source = inspect.getsource(generator.expand_online)
    solve = "slope = i * (w * m + 1)"
    assert source.count(solve) == 1
    namespace = dict(vars(generator))
    exec(source.replace(solve, solve.replace("+ 1", "+ 2")), namespace)
    return namespace["expand_online"]


def _cofactors_unscaled(steps):
    m = len(steps) + 1
    if m == 1:
        return 1, []
    up, row = steps[0], [1]
    for k in range(2, m // 2 + 1):
        num, e = row[-1] * steps[m - k], steps[k - 1]
        q, r = divmod(num, e)
        if r:  # the new factor scales L_m but not the row built so far
            f = e // gcd(e, r)
            up, q = up * f, num * f // e
        row.append(q)
    return up, row + row[: m - 1 - len(row)][::-1]


# cyclo(3,4) has i = j = 1 and a = 3: it forms no square.
SQUARING_KERNEL_CURVES = [c for c in KERNEL_CURVES if c != CurveSpec.cyclotomic(3, 4)]


@pytest.mark.parametrize(
    "target, mutant, must_catch",
    [
        ("_miller", _miller_weight_off, KERNEL_CURVES),
        ("_cross", _cross_pairs_undoubled, SQUARING_KERNEL_CURVES),
        ("expand_online", _solve_divisor_off(), KERNEL_CURVES),
        ("_cofactors", _cofactors_unscaled, KERNEL_CURVES),
    ],
    ids=["_miller", "_cross", "solve", "_cofactors"],
)
def test_certify_catches_kernel_mutants(target, mutant, must_catch, monkeypatch):
    # The online route runs on _miller, _cross, _cofactors, _append and the
    # X_m solve in expand_online; certify shares none of them, so a fault
    # in that kernel cannot hide from it.  A curve that never calls the
    # mutant (cyclo(3,4) forms no square) must get the expansion it got
    # before.
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

# Pairwise coprime denominators: each coefficient past the first brings a
# prime no earlier one has into its slot's rung.
COPRIME = [F(1), F(1, 2), F(-1, 3), F(5, 7), F(1, 11), F(-4, 13), F(2, 17), F(-3, 19)]


def _rungs(steps):
    """The rungs D_0 = 1, D_1, ... of the kernel's ladder from its steps."""
    return [1, *accumulate(steps, mul)]


def test_cofactors_match_the_lcm_of_the_pairs():
    # The row is built from ratios of steps; it must be exactly
    # L_m // (D_k * D_(m-k)) for L_m the lcm of the pairs, on steps that
    # bring in new primes, repeat old ones and raise their powers.  From
    # slot 4 on a pair past (1, m - 1) brings in a factor, so every such
    # row is rescaled.
    steps = [2, 3, 7, 2, 11, 13, 4, 17, 19, 6, 9, 5]
    for m in range(1, len(steps) + 2):
        rungs = _rungs(steps[: m - 1])
        top = math.lcm(*(rungs[k] * rungs[m - k] for k in range(1, m)))
        if m > 1:
            assert (top != rungs[1] * rungs[m - 1]) == (m >= 4), m
        up, row = generator._cofactors(steps[: m - 1])
        assert up * rungs[m - 1] == top, m
        assert row == [top // (rungs[k] * rungs[m - k]) for k in range(1, m)], m


def test_ladder_reproduces_every_coefficient():
    # Each slot appends c to one series and c / 6 to another, both handed
    # over with a common factor 23 that no denominator has.  Slot 2's 3 is
    # in D_1 already (1/2 / 6 = 1/12), and the last two bring no new
    # factor: 0, and 7/22 with 22 | L_m; every other rung outgrows L_m.
    values = COPRIME[1:] + [F(0), F(7, 22)]
    s, t, steps, grew = [1], [1], [], []
    for m, c in enumerate(values, 1):
        up, row = generator._cofactors(steps)
        big = c.numerator * math.prod(steps) * up  # c over c.denominator * L_m
        generator._append([s, t], steps, [138 * big, 23 * big], 138 * c.denominator, up)
        grew += [m] * (steps[-1] != up)
        rungs = _rungs(steps)
        assert [F(v, d) for v, d in zip(s, rungs)] == [1] + values[:m]
        assert [F(v, d) for v, d in zip(t, rungs)] == [1] + [q / 6 for q in values[:m]]
        pairs = (rungs[k] * rungs[m - k] for k in range(1, m))
        assert rungs[m] == math.lcm(c.denominator, (c / 6).denominator, *pairs)
    assert grew == [1, 3, 4, 5, 6, 7]


def _power(coeffs, e):
    """f**e through f's last coefficient on the rung ladder, for f_0 = 1:
    f's numerators, then f**e's, Miller step by step, and the ladder's
    steps, which come last."""
    f, p, steps = [1], [1], []
    for m, c in enumerate(coeffs[1:], 1):
        up, row = generator._cofactors(steps)
        f_m = m * math.prod(steps) * up * c.numerator  # over m * L_m * c.denominator
        p_m = c.denominator * generator._miller(f, p, e, row) + e * f_m
        generator._append([f, p], steps, [f_m, p_m], m * c.denominator, up)
    return f, p, steps


def _as_series(coeffs):
    return TruncSeries.from_terms(dict(enumerate(coeffs)), len(coeffs) - 1)


@pytest.mark.parametrize("e", [-3, -2, 5])
def test_power_matches_series_oracle(e):
    # TruncSeries.power inverts first for a negative exponent.
    _, p, steps = _power(COPRIME, e)
    g = _as_series([F(v, d) for v, d in zip(p, _rungs(steps))])
    f = _as_series(COPRIME).power(e)
    assert g.terms() == f.terms() and g.trunc_order == f.trunc_order
    # (1 - t)**e against the binomial series.
    _, p, steps = _power([F(1), F(-1)] + [F(0)] * 10, e)
    binomial = binomial_series(1, e, 11)
    coeffs = [F(v, d) for v, d in zip(p, _rungs(steps))]
    assert coeffs == [binomial.coeff(k) for k in range(12)]


def test_miller_reads_a_missing_top_coefficient_as_zero():
    f, p, steps = _power(COPRIME[:4], 5)
    _, row = generator._cofactors(steps)
    value = generator._miller(f, p, 5, row)
    assert value == generator._miller(f + [0], p, 5, row)
    assert value == generator._miller(f + [12345], p, 5, row)


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
def test_online_rungs_are_the_lcm_of_their_slots_and_pairs(curve, order, monkeypatch):
    # A spare factor in a rung leaves the tables right, and only the time
    # grows.  After every slot, D_m must be the lcm of the denominators
    # stored at slot m and of every D_k * D_(m-k); the finished ladder is
    # the one the certificate builds from the expansion on its own.
    real, slots = generator._append, []

    def checked(series, steps, nums, over, up):
        real(series, steps, nums, over, up)
        m, rungs = len(steps), _rungs(steps)
        own = (F(s[m], rungs[m]).denominator for s in series)
        pairs = (rungs[k] * rungs[m - k] for k in range(1, m))
        assert rungs[m] == math.lcm(*own, *pairs), m
        slots.append((series, steps))

    monkeypatch.setattr(generator, "_append", checked)
    expansion = generator.expand_online(curve, order)
    assert len(slots) == len(expansion.x) - 1
    assert {len(series) for series, _ in slots} == {STORED_LISTS[curve]}
    ladder = certificate._ladder((expansion.x, expansion.y), curve.weight)
    assert _rungs(slots[-1][1]) == [rung for _, _, rung, _ in ladder]


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
    text = table_text(table)
    again = BHTable.loads(text)
    assert table_text(again) == text
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


def test_table_write_holds_one_copy_of_the_text(tmp_path):
    # write dumps the rows into the file as they are encoded, so what it
    # allocates at its peak (the rows' decimal strings and one chunk) stays
    # below twice the file; a text joined before writing would need more.
    fixture = Path(__file__).parents[1] / "bhbench/fixtures/cyclo_a2_b5_w1000.json"
    table = BHTable.read(fixture)
    path = tmp_path / "table.json"
    tracemalloc.start()
    try:
        table.write(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == fixture.read_bytes()
    assert peak < 2 * path.stat().st_size


def test_table_restrict():
    table = make_table(42)
    small = table.restrict(20)
    assert small.weights() == [10, 20]
    assert small.c(20) == table.c(20)
    with pytest.raises(ValueError):
        table.restrict(50)


def test_table_loads_rejects_malformed_documents():
    good = json.loads(table_text(make_table()))

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
