import json
import random
import re
from fractions import Fraction
from math import comb, factorial, inf, lcm
from typing import NamedTuple

import pytest

from bhnum import congruence
from bhnum.congruence import (
    IntegralityRow,
    KummerReport,
    MissingWeightError,
    Residues,
    VerifierDomainError,
    VscContribution,
    VscReport,
    _decompose,
    _dividing_primes,
    ap_invariant,
    integrality_scan,
    kummer_check,
    kummer_sweep,
    kummer_triples,
    vsc_decompose,
)
from bhnum.curves import CurveSpec
from bhnum.generator import (
    BHTable,
    CacheError,
    bernoulli,
    extract_numbers,
)
from bhnum.numtheory import is_prime, padic_valuation, primes_in_class
from helpers import brute_mod_inverse, rational_residue, table_text
from reversion_route import binomial_series, expand_by_reversion

F = Fraction

MAIN = CurveSpec.cyclotomic(2, 5)


@pytest.fixture(scope="module")
def table100():
    return extract_numbers(expand_by_reversion(MAIN, 102))


def refused(message):
    """pytest.raises for a VerifierDomainError with exactly this message."""
    return pytest.raises(VerifierDomainError, match=f"^{re.escape(message)}$")


def tampered(table, weight, delta_c=F(0), delta_d=F(0)):
    rows = dict(table.rows)
    c, d = rows[weight]
    rows[weight] = (c + delta_c, d + delta_d)
    return BHTable(table.curve, table.order, table.method, rows)


# -- the prime invariant -------------------------------------------------------


def test_ap_invariant_values():
    assert ap_invariant(11) == -5
    assert ap_invariant(31) == -455
    assert ap_invariant(41) == 4845
    assert ap_invariant(61) == 593775  # (+1)**6 * C(30, 6)


def test_ap_invariant_domain():
    with refused("21 is not prime"):
        ap_invariant(21)
    with refused("A_p needs p = 1 mod 5, got 7"):
        ap_invariant(7)


def test_ap_invariant_is_a_binomial_coefficient_mod_p():
    # A_p = f_{p-1} (mod p) with f_k = [t^k](1 - t^10)^(-1/2), because
    # (p - 1)/2 = -1/2 (mod p): the invariant of the universal theorem.
    for p in primes_in_class(2000, 5, 1):
        f = binomial_series(10, F(-1, 2), p - 1).coeff(p - 1)
        assert rational_residue(f, p) == ap_invariant(p) % p, p


def test_validation_still_fires_after_caching(table100):
    # ap_invariant is cached, and a cached A_p stands in for a primality
    # proof inside kummer_check; a refused p must be refused every time.
    assert ap_invariant(11) == ap_invariant(11) == -5
    assert kummer_check(Residues(table100), 31, 1, 1).passed
    for _ in range(2):
        for bad, message in ((21, "21 is not prime"), (7, "A_p needs p = 1 mod 5, got 7")):
            with refused(message):
                ap_invariant(bad)
        with refused("21 is not prime"):
            kummer_check(Residues(table100), 21, 1, 1)
        with pytest.raises(ValueError):
            padic_valuation(F(1, 2), 21)


def test_table_stays_a_plain_value(table100, table300):
    # Every verifier runs on table300, and it keeps its four fields and its
    # rows: the quotients and the residue rows live on a Residues.
    rows = dict(table300.rows)
    residues = Residues(table300)
    assert all(vsc_decompose(table300, n).passed for n in table300.weights())
    for report in kummer_sweep(residues, 300, 3):
        report.sums(residues)
    assert integrality_scan(residues, 300).passed
    assert list(vars(table300)) == ["curve", "order", "method", "rows"]
    assert table300.rows == rows
    # A restricted table verifies as the table of its weights does.
    child = table300.restrict(100)
    triples = list(kummer_triples(MAIN, 100, 3, 100))
    assert [vsc_decompose(child, n) for n in child.weights()] == [
        vsc_decompose(table100, n) for n in table100.weights()
    ]
    ours, theirs = Residues(child), Residues(table100)
    assert [with_sums(kummer_check(ours, *t), ours) for t in triples] == [
        with_sums(kummer_check(theirs, *t), theirs) for t in triples
    ]
    assert [with_sums(r, ours) for r in kummer_sweep(ours, 100, 3)] == [
        with_sums(r, theirs) for r in kummer_sweep(theirs, 100, 3)
    ]
    assert integrality_scan(ours, 100) == integrality_scan(theirs, 100)
    assert sorted(ours.quotients) == child.weights() == list(range(10, 101, 10))
    assert len(residues.quotients) == 30
    for res, table, top in ((ours, child, 100), (residues, table300, 300)):
        # rows at N // 10, to top
        assert res.top == table.weights()[-1] == top
        digits, sides, m, _ = res.rows[31]
        den = common_denominator(table)
        assert res.den == den and m == 31 ** (digits + padic_valuation(den, 31))
        for number, x in zip((table.c, table.d), sides):
            assert x == [0] + [number(n) / n * den % m for n in table.weights()]
    # Two Residues of one table share no rows.
    again = Residues(table300)
    assert again.rows == {} and again.rows is not residues.rows


# -- von Staudt-Clausen ---------------------------------------------------------


def test_vsc_weight_10(table100):
    report = vsc_decompose(table100, 10)
    assert report.passed
    assert len(report.contributions) == 1
    con = report.contributions[0]
    assert (con.p, con.exponent, con.ap) == (11, 1, -5)
    assert con.c_part == F(-5, 11)
    assert con.d_part == F(-30, 11)
    assert report.g_remainder == 36655
    assert report.h_remainder == 330
    assert report.summary_line() == "VSC N=10 pass G=36655 H=330"


def test_vsc_weight_20_single_prime(table100):
    report = vsc_decompose(table100, 20)
    assert report.passed
    assert [(c.p, c.exponent) for c in report.contributions] == [(11, 2)]
    assert report.contributions[0].c_part == F(25, 11)


def test_vsc_weight_30_two_primes(table100):
    report = vsc_decompose(table100, 30)
    assert report.passed
    assert [(c.p, c.exponent) for c in report.contributions] == [(11, 3), (31, 1)]


def test_vsc_all_weights_to_100(table100):
    for n in table100.weights():
        assert vsc_decompose(table100, n).passed, n


def test_vsc_is_not_vacuous(table100):
    # a table off by 1/11 in one entry must be caught
    bad = tampered(table100, 10, delta_c=F(1, 11))
    report = vsc_decompose(bad, 10)
    assert not report.passed
    assert "FAIL" in report.summary_line()
    assert vsc_decompose(tampered(table100, 10, delta_d=F(1, 11)), 10).passed is False


def test_vsc_json_shape(table100):
    doc = vsc_decompose(table100, 10).to_json_dict()
    assert doc["format"] == "bhnum.report.vsc"
    assert doc["passed"] is True
    assert doc["g_remainder"] == ["36655", "1"]
    assert doc["contributions"][0]["ap"] == "-5"


def test_vsc_requires_weight_present(table100):
    with pytest.raises(MissingWeightError) as exc:
        vsc_decompose(table100, 110)
    assert exc.value.weights == [110]
    assert str(exc.value) == (
        "vsc_decompose needs weights [110] not present in the table "
        "(available up to 100)"
    )


def test_vsc_refuses_other_curves():
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 14))
    with refused(
        "the von Staudt-Clausen analogue is only proven for cyclo:a=2,b=5; "
        "refusing minusx:g=1"
    ):
        vsc_decompose(table, 4)


class BernoulliVscReport(NamedTuple):
    index: int
    primes: tuple[int, ...]
    remainder: Fraction
    passed: bool

    def summary_line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"VSC-BERNOULLI 2n={self.index} {flag} R={self.remainder}"


def classical_vsc_bernoulli(index: int, value: Fraction) -> BernoulliVscReport:
    """The classical statement: B_2n + sum over (p-1) | 2n of 1/p is integral.

    Runs through the same decomposition engine as vsc_decompose, with
    contribution -1/p at every prime p with p - 1 | 2n; it anchors the
    engine against two centuries of literature.
    """
    if index < 2 or index % 2:
        raise VerifierDomainError(f"index must be an even integer >= 2, got {index}")
    primes = _dividing_primes(index, 1, 0)
    remainder, ok = _decompose(value, [Fraction(-1, p) for p in primes])
    return BernoulliVscReport(index, tuple(primes), remainder, ok)


def test_classical_bernoulli_anchor():
    for k, value in enumerate(bernoulli(15), start=1):
        report = classical_vsc_bernoulli(2 * k, value)
        assert report.passed, 2 * k
    r2 = classical_vsc_bernoulli(2, F(1, 6))
    assert r2.primes == (2, 3)
    assert r2.remainder == 1
    assert classical_vsc_bernoulli(2, F(1, 5)).passed is False
    with refused("index must be an even integer >= 2, got 3"):
        classical_vsc_bernoulli(3, F(1, 6))
    with refused("index must be an even integer >= 2, got 0"):
        classical_vsc_bernoulli(0, F(1))


# -- Kummer congruences ------------------------------------------------------------


def test_kummer_depth_one(table100):
    report = kummer_check(Residues(table100), 31, 1, 1)
    assert report.weights == (10, 40)
    assert report.passed
    assert report.c_valuation == 1
    assert report.d_valuation == 1
    assert report.summary_line() == "KUMMER p=31 a=1 n=1 pass valC=1 valD=1"


def test_kummer_depth_two(table100):
    report = kummer_check(Residues(table100), 31, 2, 1)
    assert report.weights == (10, 40, 70)
    assert report.passed
    assert report.c_valuation >= 2
    assert report.d_valuation >= 2


def test_kummer_depth_one_is_a_residue_identity(table100):
    # depth 1 says A_p * C_W / W has the same residue at consecutive W
    ap = ap_invariant(31)
    lhs = rational_residue(ap * table100.c(10) / 10, 31)
    rhs = rational_residue(table100.c(40) / 40, 31)
    assert lhs == rhs
    assert kummer_check(Residues(table100), 31, 1, 1).passed


def test_kummer_rejects_dividing_prime(table100):
    # p = 11 has p - 1 = 10 dividing every weight in the ladder
    with refused(
        "p - 1 = 10 divides 10n = 10; the congruence needs p - 1 not dividing 10n"
    ):
        kummer_check(Residues(table100), 11, 1, 1)


def test_kummer_rejects_shallow_weight(table100):
    with refused("10n - 2 = 8 is below depth 9"):
        kummer_check(Residues(table100), 31, 9, 1)


def test_kummer_argument_validation(table100):
    residues = Residues(table100)
    with refused("depth and index must be positive"):
        kummer_check(residues, 31, 0, 1)
    with refused("depth and index must be positive"):
        kummer_check(residues, 31, 1, 0)
    with refused("21 is not prime"):
        kummer_check(residues, 21, 1, 1)


def test_kummer_missing_weights_are_reported(table100):
    with pytest.raises(MissingWeightError) as exc:
        kummer_check(Residues(table100), 41, 2, 5)
    assert exc.value.weights == [130]
    assert str(exc.value) == (
        "kummer_check(p=41, a=2, n=5) needs weights [130] not present in the "
        "table (available up to 100)"
    )


def test_kummer_is_not_vacuous(table100):
    bad = tampered(table100, 40, delta_c=F(1))
    report = kummer_check(Residues(bad), 31, 1, 1)
    assert not report.passed


def test_kummer_triples_are_admissible(table100):
    # the criterion-5 sweep (p in 31, 41, 61, 71, depth <= 2, weight <= 300)
    # counts 140 triples; p = 11 never qualifies, since 10 divides every 10n
    assert len(list(kummer_triples(MAIN, 71, 2, 300))) == 140
    triples = list(kummer_triples(MAIN, 100, 3, 100))
    assert triples and all(p != 11 for p, _, _ in triples)
    residues = Residues(table100)
    for p, depth, n in triples:
        assert kummer_check(residues, p, depth, n).passed


def test_kummer_triples_stop_at_what_max_weight_admits(monkeypatch):
    # A triple has depth * (p - 1) < max_weight, so no prime past
    # max_weight + 1 is sieved and no depth past max_weight // (p - 1) is
    # run; larger bounds yield the same triples.
    limits = []
    real = congruence.primes_in_class

    def spy(limit, modulus, residue):
        limits.append(limit)
        return real(limit, modulus, residue)

    monkeypatch.setattr(congruence, "primes_in_class", spy)
    unbounded = list(kummer_triples(MAIN, 10**4, 10**3, 300))
    assert limits == [301]
    assert unbounded == list(kummer_triples(MAIN, 301, 30, 300))
    assert unbounded == naive_triples(301, 30, 300)


def test_kummer_refuses_other_curves():
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 30))
    with refused(
        "the Kummer-style congruence is only proven for cyclo:a=2,b=5; "
        "refusing minusx:g=1"
    ):
        kummer_check(Residues(table), 13, 1, 1)


# -- integrality ----------------------------------------------------------------------


def test_integrality_scan(table100):
    report = integrality_scan(Residues(table100), 50)
    assert report.passed
    pairs = [(r.p, r.weight) for r in report.rows]
    # p = 11 never appears: 10 divides every weight in the ladder
    assert all(p != 11 for p, _ in pairs)
    assert (31, 30) not in pairs
    assert (31, 40) in pairs
    assert (41, 40) not in pairs
    assert pairs == sorted(pairs)
    for row in report.rows:
        assert row.c_valuation >= 0
        assert row.d_valuation >= 0


def test_integrality_is_not_vacuous(table100):
    bad = tampered(table100, 20, delta_c=F(1, 31))
    report = integrality_scan(Residues(bad), 50)
    assert not report.passed
    failing = [r for r in report.rows if not r.passed]
    assert [(r.p, r.weight) for r in failing] == [(31, 20)]
    assert failing[0].c_valuation == -1


def test_integrality_empty_prime_range(table100):
    residues = Residues(table100)
    report = integrality_scan(residues, 7)
    assert report.rows == ()
    assert report.passed
    with refused("prime limit must be positive"):
        integrality_scan(residues, 0)


def test_integrality_refuses_other_curves():
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 14))
    with refused(
        "the integrality statement is only proven for cyclo:a=2,b=5; "
        "refusing minusx:g=1"
    ):
        integrality_scan(Residues(table), 50)


# -- differential check against the definitions ---------------------------------------
#
# The verifiers memoize quotients and A_p, skip primality proofs for sieve
# primes, and read valuations off p-adic digit tables, summing a Kummer
# combination on integers only when the digits cannot tell.  These
# references do none of that: plain Fraction arithmetic, the public
# padic_valuation, and A_p straight from its formula.  Each takes the
# curve's weight w (and pole order b of y) as a parameter, cyclo(2,5)'s by
# default, rather than reading it off the table.


def naive_ap(p, w=10):
    e = (p - 1) // w
    return (-1) ** e * comb((p - 1) // 2, e)


def naive_primes(limit, w=10):
    """Primes p = 1 mod w up to limit; for w = 10, the primes = 1 mod 5."""
    return [p for p in range(w + 1, limit + 1, w) if is_prime(p)]


def naive_vsc(table, n, w=10, b=5):
    parts = []
    for p in naive_primes(n + 1, w):
        if n % (p - 1) == 0:
            ape = naive_ap(p, w) ** (n // (p - 1))
            c_part = F(ape, p)
            d_part = F(brute_mod_inverse(factorial(b - 1), p) * ape, p)
            parts.append(VscContribution(p, n // (p - 1), naive_ap(p, w), c_part, d_part))
    g = table.c(n) - sum(c.c_part for c in parts)
    h = table.d(n) - sum(c.d_part for c in parts)
    ok = g.denominator == 1 and h.denominator == 1
    return VscReport(n, tuple(parts), g, h, ok)


def naive_kummer(table, p, depth, n, w=10):
    weights = tuple(w * n + r * (p - 1) for r in range(depth + 1))
    sums = []
    for number in (table.c, table.d):
        total = F(0)
        for r, weight in enumerate(weights):
            coeff = (-1) ** r * comb(depth, r) * naive_ap(p, w) ** (depth - r)
            total += coeff * number(weight) / weight
        sums.append(total)
    vals = [padic_valuation(s, p) for s in sums]
    report = KummerReport(p, depth, n, weights, *vals, min(vals) >= depth)
    return report, tuple(sums)


def naive_triples(prime_limit, max_depth, max_weight, w=10):
    """Every admissible (p, depth, n) with top weight w*n + depth*(p - 1)
    within max_weight, in kummer_triples order."""
    return [
        (p, depth, n)
        for p in naive_primes(prime_limit, w)
        for depth in range(1, max_depth + 1)
        for n in range(1, max_weight // w + 1)
        if w * n + depth * (p - 1) <= max_weight and (w * n) % (p - 1) and w * n - 2 >= depth
    ]


def with_sums(report, residues):
    """A report with its exact combinations on residues, as naive_kummer returns it."""
    return report, report.sums(residues)


def naive_integrality(table, prime_limit, w=10):
    rows = []
    for p in naive_primes(prime_limit, w):
        for n in table.weights():
            if n % (p - 1):
                c_val = padic_valuation(table.c(n) / n, p)
                d_val = padic_valuation(table.d(n) / n, p)
                rows.append(IntegralityRow(p, n, c_val, d_val, min(c_val, d_val) >= 0))
    return tuple(rows)


def common_denominator(table):
    """The lcm of the denominators of C_N / N and D_N / N over the table."""
    return lcm(*((x(n) / n).denominator for n in table.weights() for x in (table.c, table.d)))


# The sides the verifiers take exactly on these tables: the C side of
# (181, 1, 9) on table300, valuation 2 against 181's 2 digits (181 has no
# deeper check), and the deep entry's 71**5.
EXACT_CALLS = {
    "checks": [],
    "sweep": [(181, 2)],
    "table300": [(181, 2)],
    "deep": [(181, 2), (71, 5)],
}


@pytest.fixture()
def builds(monkeypatch):
    """The (p, digits) of every prime's residue rows, as the verifiers build them."""
    built = []
    real = congruence._rows

    def spy(residues, depths):
        before = dict(residues.rows)
        memo = real(residues, depths)
        built.extend((p, rows[0]) for p, rows in memo.items() if before.get(p) is not rows)
        return memo

    monkeypatch.setattr(congruence, "_rows", spy)
    return built


@pytest.mark.parametrize("route", ["sweep", "checks"])
def test_rows_are_built_once_per_prime(table100, table300, builds, exact_calls, route):
    # The sweep builds each prime's rows once, one digit past its deepest
    # check.  A kummer_check loop sizes a prime's rows to the check it runs,
    # so it builds them again at each deeper depth.  Integrality reads the
    # same rows and builds none.
    top = {"sweep": 300, "checks": 100}[route]
    residues = Residues({"sweep": table300, "checks": table100}[route])
    triples = list(kummer_triples(MAIN, top, 3, top))
    if route == "sweep":
        kummer_sweep(residues, top, 3)
    for t in triples if route == "checks" else ():
        kummer_check(residues, *t)
    integrality_scan(residues, top)
    if route == "sweep":
        deepest = {p: depth for p, depth, _ in triples}
        primes = naive_primes(top)[1:]  # 10 divides every weight: nothing at 11
        assert builds == [(p, deepest[p] + 1) for p in primes]
    else:
        assert builds == [(p, depth + 1) for p, depth in dict.fromkeys(t[:2] for t in triples)]
    assert exact_calls == EXACT_CALLS[route]


def test_rows_take_no_inverse_and_one_tree(table100, monkeypatch):
    # Over the quotients' common denominator the rows need no modular
    # inverse, and both sides' numerators go down one remainder tree over
    # every prime's modulus at once: 2k - 1 reductions for k moduli.
    residues = Residues(table100)
    inverses, trees = [], []

    def counted(base, exp, mod=None):
        if exp == -1:
            inverses.append(mod)
        return pow(base, exp, mod)

    def spy(nums, moduli):
        trees.append(len(moduli))
        return real(nums, moduli)

    real = congruence._reduce
    monkeypatch.setattr(congruence, "pow", counted, raising=False)
    monkeypatch.setattr(congruence, "_reduce", spy)
    integrality_scan(residues, 100)
    assert inverses == []
    k = len(naive_primes(100)[1:])
    assert trees.count(k) == 1 and len(trees) == 2 * k - 1


def test_remainder_tree_matches_direct_reduction():
    rng = random.Random(5)
    moduli = [p ** rng.randrange(1, 10) for p in naive_primes(400)]
    assert len(moduli) > 8  # a tree several levels deep
    nums = [rng.randrange(-(10**600), 10**600) for _ in range(25)] + [0]
    for part in (moduli, moduli[:3], moduli[:1], []):
        assert congruence._reduce(nums, part) == [[a % m for a in nums] for m in part]


def test_rows_shift_by_the_common_denominators_valuation(table300, builds):
    # 1/31**2 in C_40 / 40 makes v_31 of the common denominator 2: 31's
    # rows keep two more digits and read valuations down to -2.
    source = tampered(table300, 40, delta_c=F(40, 31**2))
    residues = Residues(source)
    sweep = kummer_sweep(residues, 300, 3)
    digits, _, m, log = residues.rows[31]
    assert (m, log[1]) == (31 ** (digits + 2), -2)
    scan = integrality_scan(residues, 300).rows
    assert scan == naive_integrality(source, 300)
    assert [(r.p, r.weight, r.c_valuation) for r in scan if not r.passed] == [(31, 40, -2)]
    assert any(r.p == 31 and not r.passed for r in sweep)
    assert len(builds) == len(set(builds))


@pytest.fixture()
def exact_calls(monkeypatch):
    """The (p, valuation) of every check side the verifiers take exactly."""
    calls = []

    def spy(p, v, coeffs, nums):
        calls.append((p, real(p, v, coeffs, nums)))
        return calls[-1][1]

    real = congruence._exact
    monkeypatch.setattr(congruence, "_exact", spy)
    return calls


def test_deep_entry_is_valued_by_the_exact_integer_sum(table300, exact_calls):
    # 71's deepest check on table300 has depth 3, so its rows keep 4 digits.
    # 71**5 in C_100 / 100 reads 0 there, and the exact sum on the integer
    # numerators values it: 5.
    rows = dict(table300.rows)
    rows[100] = (F(100 * 3 * 71**5, 7), rows[100][1])
    source = BHTable(table300.curve, table300.order, table300.method, rows)
    residues = Residues(source)
    sweep = kummer_sweep(residues, 300, 3)
    scan = integrality_scan(residues, 300).rows
    digits, _, m, _ = residues.rows[71]
    v = padic_valuation(common_denominator(source), 71)
    assert (digits, m) == (4, 71 ** (4 + v))
    assert [with_sums(r, residues) for r in sweep] == [
        naive_kummer(source, *t) for t in kummer_triples(MAIN, 300, 3, 300)
    ]
    assert scan == naive_integrality(source, 300)
    assert [r.c_valuation for r in scan if (r.p, r.weight) == (71, 100)] == [5]
    assert exact_calls == EXACT_CALLS["deep"]


def check_against_naive(table300, tamper):
    table = tampered(table300, 40, delta_c=F(1, 31)) if tamper else table300
    residues = Residues(table)
    triples = list(kummer_triples(MAIN, 300, 3, 300))
    kummer = [kummer_check(residues, *t) for t in triples]
    assert [with_sums(r, residues) for r in kummer] == [naive_kummer(table, *t) for t in triples]
    rows = integrality_scan(residues, 300).rows
    assert rows == naive_integrality(table, 300)
    assert [vsc_decompose(table, n) for n in table.weights()] == [
        naive_vsc(table, n) for n in table.weights()
    ]
    failed_triples = [t for t, r in zip(triples, kummer) if not r.passed]
    failed_rows = [(r.p, r.weight) for r in rows if not r.passed]
    if tamper:
        # 1/31 has p-adic valuation 0 at every other p, and no Kummer
        # coefficient is divisible by p, so exactly the ladders through
        # weight 40 fail.
        through_40 = [t for t, r in zip(triples, kummer) if 40 in r.weights]
        assert failed_triples == through_40 and (31, 1, 1) in through_40
        assert failed_rows == [(31, 40)]
    else:
        assert failed_triples == [] and failed_rows == []
    return kummer


@pytest.mark.parametrize("tamper", [False, True], ids=["table300", "tampered"])
def test_verifiers_match_naive_reference(table300, tamper, exact_calls):
    check_against_naive(table300, tamper)
    # The rows keep one digit past each check's depth, so only the sides
    # whose valuation exceeds it are taken exactly.
    assert exact_calls == EXACT_CALLS["table300"]


@pytest.mark.parametrize("tamper", [False, True], ids=["table300", "tampered"])
def test_exact_fallback_matches_naive_reference(
    table300, tamper, exact_calls, monkeypatch
):
    # Rows asked for depth 0 keep one digit, and there a combination of
    # valuation >= 1 over terms of valuation 0 has residue 0, so on these
    # tables each side of each passing Kummer check goes through the exact
    # path.
    real = congruence._rows
    monkeypatch.setattr(
        congruence, "_rows", lambda residues, depths: real(residues, dict.fromkeys(depths, 0))
    )
    kummer = check_against_naive(table300, tamper)
    assert len(exact_calls) >= 2 * sum(r.passed for r in kummer)


def test_edge_entries_take_the_exact_path(table300, exact_calls):
    # C_40 / 40 = 0, and the numerator of C_70 / 70 is divisible by
    # 31**10: both have residue 0 in every row.  A kummer_check keeps p's
    # rows one digit past its depth, so a Kummer sum takes the exact path
    # exactly when a side's valuation exceeds the depth; (31, 1, 4), whose
    # C-side terms are exactly those two entries, is one of them.  An
    # integrality row takes it for each of the two entries.
    deep = 31**10
    rows = dict(table300.rows)
    rows[40] = (F(0), rows[40][1])
    rows[70] = (F(70 * deep, 7), rows[70][1])
    table = BHTable(table300.curve, table300.order, table300.method, rows)
    residues = Residues(table)
    triples = list(kummer_triples(MAIN, 300, 3, 300))
    kummer, exact = [], []
    for t in triples:
        exact_calls.clear()
        kummer.append(kummer_check(residues, *t))
        exact.append(bool(exact_calls))
    assert [with_sums(r, residues) for r in kummer] == [naive_kummer(table, *t) for t in triples]
    assert exact == [max(r.c_valuation, r.d_valuation) > r.depth for r in kummer]
    assert (31, 1, 4) in [(r.p, r.depth, r.index) for r, e in zip(kummer, exact) if e]
    exact_calls.clear()
    scan = integrality_scan(residues, 300).rows
    assert scan == naive_integrality(table, 300)
    zero_rows = {(r.p, r.weight) for r in scan if r.c_valuation == inf}
    assert zero_rows == {(p, 40) for p in naive_primes(300) if 40 % (p - 1)}
    assert [r.c_valuation for r in scan if (r.p, r.weight) == (31, 70)] == [10]
    assert sorted(exact_calls) == sorted(
        [(p, inf) for p in naive_primes(300) if 40 % (p - 1)] + [(31, 10)]
    )


def edge_table(table300):
    """C_40 / 40 = 0 and 31**10 dividing the numerator of C_70 / 70, as in
    test_edge_entries_take_the_exact_path."""
    deep = 31**10
    rows = dict(table300.rows)
    rows[40] = (F(0), rows[40][1])
    rows[70] = (F(70 * deep, 7), rows[70][1])
    return BHTable(table300.curve, table300.order, table300.method, rows), deep


@pytest.mark.parametrize("which", ["table100", "table300", "tampered", "edge", "shifted"])
def test_sweep_matches_single_checks_and_naive_reference(table100, table300, which):
    source = {
        "table100": table100,
        "table300": table300,
        "tampered": tampered(table300, 40, delta_c=F(1, 31)),
        "edge": edge_table(table300)[0],
        "shifted": tampered(table300, 40, delta_c=F(40, 31**2)),  # v_31(L) = 2
    }[which]
    top = max(source.rows)
    triples = list(kummer_triples(MAIN, top, 3, top))
    sweep = kummer_sweep(Residues(source), top, 3)
    assert sweep == [kummer_check(Residues(source), *t) for t in triples]
    residues = Residues(source)
    assert [with_sums(r, residues) for r in sweep] == [naive_kummer(source, *t) for t in triples]
    assert [r.weights for r in sweep] == [
        tuple(10 * n + r * (p - 1) for r in range(a + 1)) for p, a, n in triples
    ]


def test_sweep_checks_the_curve_and_the_weight_ladder(table100):
    other = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 30))
    with refused(
        "the Kummer-style congruence is only proven for cyclo:a=2,b=5; "
        "refusing minusx:g=1"
    ):
        kummer_sweep(Residues(other), 50, 1)
    # A table with a gap in its ladder cannot be built, so the sweep reads
    # a full one.
    rows = dict(table100.rows)
    del rows[50]
    with pytest.raises(ValueError, match="not the full ladder of weight multiples up to 100"):
        BHTable(table100.curve, table100.order, table100.method, rows)


def test_table_refuses_rows_off_its_weight_ladder(table100):
    # A row at weight 15 would sit at row index 15 // 10 = 1, over C_10, and
    # the verifiers would read the wrong weight; the table refuses it, and
    # the reader turns the refusal into a CacheError.
    curve, order, method = table100.curve, table100.order, table100.method
    with pytest.raises(ValueError, match="not the full ladder of weight multiples up to 100"):
        BHTable(curve, order, method, {**table100.rows, 15: table100.rows[10]})
    doc = json.loads(table_text(table100))
    doc["rows"][0]["weight"] = 15
    with pytest.raises(CacheError, match="not the full ladder"):
        BHTable.from_json_dict(doc)
    assert BHTable(curve, 11, method).weights() == []  # an order below w + 2


@pytest.mark.parametrize("which", ["table300", "tampered", "edge", "shifted"])
def test_rows_keep_one_digit_past_each_primes_deepest_check(
    table300, which, builds, exact_calls
):
    # A sweep to prime 100 and then an integrality scan to 300: every
    # prime's rows are built once and keep its deepest admissible depth + 1
    # digits, 1 at the primes with no Kummer check.  A check side is taken
    # exactly when its valuation reaches its prime's digits, and only then.
    source = {
        "table300": table300,
        "tampered": tampered(table300, 40, delta_c=F(1, 31)),
        "edge": edge_table(table300)[0],
        "shifted": tampered(table300, 40, delta_c=F(40, 31**2)),  # v_31(L) = 2
    }[which]
    residues = Residues(source)
    triples = list(kummer_triples(MAIN, 100, 3, 300))
    sweep = kummer_sweep(residues, 100, 3)
    scan = integrality_scan(residues, 300).rows
    deepest = {p: depth for p, depth, _ in triples}
    digits = {p: deepest.get(p, 0) + 1 for p in naive_primes(300)[1:]}
    assert builds == list(digits.items())
    assert {p: rows[0] for p, rows in residues.rows.items()} == digits
    assert [with_sums(r, residues) for r in sweep] == [naive_kummer(source, *t) for t in triples]
    assert scan == naive_integrality(source, 300)
    sides = [(r.p, val) for r in (*sweep, *scan) for val in (r.c_valuation, r.d_valuation)]
    assert sorted(exact_calls) == sorted((p, val) for p, val in sides if val >= digits[p])


def lemniscate_ap(p):
    """minusx:g=1's binomial A_p: ap_invariant's formula with w = 4."""
    if not is_prime(p) or p % 4 != 1:
        raise VerifierDomainError(f"A_p needs a prime p = 1 mod 4, got {p}")
    return naive_ap(p, 4)


def test_no_site_assumes_weight_10(gen300, monkeypatch):
    # The verifiers read w, the prime class and the D-side factor off the
    # table's curve.  Put minusx:g=1 (w = 4, b = 3) on the proven ground and
    # they agree with the naive references given w = 4 and b = 3.  Whether
    # its checks pass is not asserted: the lemniscate is not a proven curve.
    lemniscate = CurveSpec.minus_x(1)
    monkeypatch.setitem(congruence._PROVEN, lemniscate, lemniscate_ap)
    table = gen300[str(lemniscate)]["table"].restrict(200)
    assert table.weights() == list(range(4, 201, 4))
    assert [vsc_decompose(table, n) for n in table.weights()] == [
        naive_vsc(table, n, w=4, b=3) for n in table.weights()
    ]
    residues = Residues(table)
    triples = list(kummer_triples(lemniscate, 200, 3, 200))
    assert triples == naive_triples(200, 3, 200, w=4) and triples
    assert [with_sums(r, residues) for r in kummer_sweep(residues, 200, 3)] == [
        naive_kummer(table, *t, w=4) for t in triples
    ]
    assert kummer_check(residues, *triples[0]) == naive_kummer(table, *triples[0], w=4)[0]
    assert integrality_scan(residues, 200).rows == naive_integrality(table, 200, w=4)
