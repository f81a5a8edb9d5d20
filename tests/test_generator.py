import json
from fractions import Fraction

import pytest

from bhnum.curves import CurveSpec
from bhnum.generator import (
    BHTable,
    CacheError,
    CrossCheckError,
    Expansion,
    ExpansionError,
    UnsupportedMethodError,
    bernoulli,
    certify,
    expand_by_ode,
    expand_by_reversion,
    expand_checked,
    expand_online,
    extract_numbers,
    hurwitz,
)
from bhnum.series import TruncSeries
from helpers import assert_dict_eq, oracle_bernoulli, oracle_x_of_u, series_dict

F = Fraction

MAIN = CurveSpec.cyclotomic(2, 5)


def test_main_curve_leading_window():
    exp = expand_by_reversion(MAIN, 8)
    assert series_dict(exp.x_series) == {-2: F(1), 8: F(1, 11)}
    exp = expand_by_reversion(MAIN, 5)
    assert series_dict(exp.y_series) == {-5: F(-1), 5: F(3, 11)}


def test_extracted_numbers_main_curve():
    table = extract_numbers(expand_by_reversion(MAIN, 22))
    assert table.weights() == [10, 20]
    assert table.c(10) == F(403200, 11)
    assert table.d(10) == F(3600, 11)
    assert table.c(20) == F(-4988862627840000, 11)
    assert table.c_over_n(10) == F(40320, 11)
    assert table.d_over_n(10) == F(360, 11)


def test_extraction_respects_exactness_margin():
    assert extract_numbers(expand_by_reversion(MAIN, 22)).weights() == [10, 20]
    assert extract_numbers(expand_by_reversion(MAIN, 21)).weights() == [10]


@pytest.mark.parametrize(
    "curve",
    [MAIN, CurveSpec.cyclotomic(2, 7), CurveSpec.minus_x(1), CurveSpec.minus_x(2)],
    ids=str,
)
def test_methods_agree(curve):
    order = 4 * curve.weight + 2
    by_rev = expand_by_reversion(curve, order)
    by_ode = expand_by_ode(curve, order)
    assert by_rev.x_series.agrees_through(by_ode.x_series, order)
    assert by_rev.y_series.agrees_through(by_ode.y_series, order)
    assert extract_numbers(by_rev).rows == extract_numbers(by_ode).rows


ONLINE_CURVES = [
    MAIN,
    CurveSpec.cyclotomic(3, 4),
    CurveSpec.cyclotomic(3, 5),
    CurveSpec.cyclotomic(4, 5),
    CurveSpec.minus_x(1),
    CurveSpec.minus_x(2),
]


@pytest.mark.parametrize("curve", ONLINE_CURVES, ids=str)
def test_online_matches_reversion(curve):
    order = 4 * curve.weight + 2
    online = expand_online(curve, order)
    by_rev = expand_by_reversion(curve, order)
    assert online.method == "online"
    assert online.x_series.truncate(order) == by_rev.x_series
    assert online.y_series.truncate(order) == by_rev.y_series
    assert extract_numbers(online).rows == extract_numbers(by_rev).rows


@pytest.mark.parametrize(
    "curve",
    [MAIN, CurveSpec.cyclotomic(3, 4), CurveSpec.cyclotomic(5, 3), CurveSpec.minus_x(2)],
    ids=str,
)
def test_online_window_is_honest(curve):
    # The online series keep their whole window, which is never shorter
    # than asked and is exact to its last slot.
    order = 2 * curve.weight + 1
    online = expand_online(curve, order)
    for s in (online.x_series, online.y_series):
        assert order <= s.trunc_order < order + curve.weight + max(curve.a, curve.b)
    wide = expand_by_reversion(
        curve, max(online.x_series.trunc_order, online.y_series.trunc_order)
    )
    assert online.x_series.agrees_through(wide.x_series, online.x_series.trunc_order)
    assert online.y_series.agrees_through(wide.y_series, online.y_series.trunc_order)


@pytest.mark.parametrize(
    "curve",
    ONLINE_CURVES
    + [CurveSpec.cyclotomic(2, 3), CurveSpec.cyclotomic(5, 3), CurveSpec.minus_x(3)],
    ids=str,
)
def test_certificate_accepts_online_expansions(curve):
    order = 4 * curve.weight + 2
    window = certify(expand_online(curve, order))
    assert window >= order - curve.a * curve.b


@pytest.mark.parametrize("name", ["x", "y"])
def test_certificate_rejects_pattern_preserving_tamper(name):
    curve = CurveSpec.cyclotomic(3, 4)
    tampered = _pattern_preserving_tamper(
        expand_online(curve, 4 * curve.weight + 2), name
    )
    # the support pattern and leading terms survive, so only the
    # certificate can tell
    with pytest.raises(ExpansionError, match=r"at u\^"):
        certify(tampered)


@pytest.mark.parametrize(
    "curve",
    [MAIN, CurveSpec.cyclotomic(3, 4), CurveSpec.minus_x(2)],
    ids=str,
)
def test_expansion_satisfies_curve_equation(curve):
    exp = expand_by_reversion(curve, 3 * curve.weight)
    lhs = exp.y_series.power(curve.a)
    rhs = exp.x_series.power(curve.b)
    rhs = rhs - exp.x_series if curve.family == "minusx" else rhs - 1
    assert lhs.agrees_through(rhs)


@pytest.mark.parametrize("curve", [MAIN, CurveSpec.minus_x(2)], ids=str)
def test_y_is_half_power_derivative(curve):
    # u was normalized so that x' = 2 y / x**(g-1)
    g = curve.genus_if_hyperelliptic
    exp = expand_by_reversion(curve, 3 * curve.weight)
    lhs = exp.y_series.scale(2)
    rhs = exp.x_series.derive()
    if g >= 2:
        rhs = exp.x_series.power(g - 1) * rhs
    assert lhs.agrees_through(rhs)


def test_expansion_against_independent_pipeline():
    for curve in (MAIN, CurveSpec.minus_x(1), CurveSpec.cyclotomic(2, 7)):
        _, j = curve.exponent_pair
        exp = expand_by_reversion(curve, 30)
        oracle = oracle_x_of_u(curve.a, curve.b, j, curve.weight, 30)
        assert_dict_eq(series_dict(exp.x_series), oracle, 30)


def test_ode_degenerate_recurrence_raises(monkeypatch):
    # With every single-slot convolution read as 0 the linear response
    # vanishes at the first unknown slot; the route must refuse rather
    # than borrow that coefficient from another route.
    monkeypatch.setattr("bhnum.generator.conv_coeff", lambda a, b, e: F(0))
    with pytest.raises(ExpansionError, match=r"degenerate recurrence at u\^6 .*residual 4"):
        expand_by_ode(CurveSpec.minus_x(2), 34)


def test_ode_refuses_non_hyperelliptic():
    with pytest.raises(UnsupportedMethodError):
        expand_by_ode(CurveSpec.cyclotomic(3, 4), 12)


def test_order_validation():
    with pytest.raises(ExpansionError):
        expand_by_reversion(MAIN, 0)
    with pytest.raises(ExpansionError):
        expand_by_ode(MAIN, -3)
    with pytest.raises(ExpansionError):
        expand_online(MAIN, 0)


def test_expansion_rejects_tampering():
    exp = expand_by_reversion(MAIN, 18)
    off_pattern = exp.x_series + TruncSeries.monomial(3, 1, 18)
    with pytest.raises(ExpansionError):
        Expansion(MAIN, off_pattern, exp.y_series, "reversion", 18)
    wrong_lead = exp.x_series.scale(2)
    with pytest.raises(ExpansionError):
        Expansion(MAIN, wrong_lead, exp.y_series, "reversion", 18)
    with pytest.raises(ExpansionError):
        Expansion(MAIN, exp.x_series, exp.y_series, "reversion", 25)


def _pattern_preserving_tamper(exp, name="x"):
    """exp with the top stored coefficient of x (or y) bumped by 1."""
    target = exp.x_series if name == "x" else exp.y_series
    terms = dict(target.terms())
    terms[max(terms)] += 1
    bad = TruncSeries.from_terms(terms, target.trunc_order)
    x, y = (bad, exp.y_series) if name == "x" else (exp.x_series, bad)
    return Expansion(exp.curve, x, y, exp.method, exp.order)


def test_expand_checked_cross_check(monkeypatch):
    good = expand_checked(MAIN, 12)
    assert good.method == "online+ode"
    assert expand_checked(CurveSpec.cyclotomic(3, 4), 12).method == "online"

    bad = _pattern_preserving_tamper(expand_by_ode(MAIN, 12))
    monkeypatch.setattr(
        "bhnum.generator.expand_by_ode", lambda curve, order: bad
    )
    e = max(bad.x_series.support())
    with pytest.raises(CrossCheckError, match=rf"x\(u\) .* at u\^{e}: "):
        expand_checked(MAIN, 12)


def test_expand_checked_runs_the_certificate(monkeypatch):
    curve = CurveSpec.cyclotomic(3, 4)
    bad = _pattern_preserving_tamper(expand_online(curve, 26))
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
