from fractions import Fraction
from math import comb, inf

import pytest

from bhnum import congruence
from bhnum.congruence import (
    IntegralityRow,
    KummerReport,
    MissingWeightError,
    VerifierDomainError,
    VscContribution,
    VscReport,
    ap_invariant,
    classical_vsc_bernoulli,
    integrality_scan,
    kummer_check,
    kummer_sweep,
    kummer_triples,
    vsc_decompose,
)
from bhnum.curves import CurveSpec
from bhnum.generator import (
    BHTable,
    bernoulli,
    extract_numbers,
)
from bhnum.numtheory import (
    PrimeResidueClass,
    is_prime,
    mod_inverse,
    padic_valuation,
    primes_in_class,
)
from helpers import rational_residue
from reversion_route import binomial_series, expand_by_reversion

F = Fraction

MAIN = CurveSpec.cyclotomic(2, 5)


@pytest.fixture(scope="module")
def table100():
    return extract_numbers(expand_by_reversion(MAIN, 102))


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
    with pytest.raises(VerifierDomainError):
        ap_invariant(21)
    with pytest.raises(VerifierDomainError):
        ap_invariant(7)


def test_ap_invariant_is_a_binomial_coefficient_mod_p():
    # A_p = f_{p-1} (mod p) with f_k = [t^k](1 - t^10)^(-1/2), because
    # (p - 1)/2 = -1/2 (mod p): the invariant of the universal theorem.
    for p in primes_in_class(2000, PrimeResidueClass(5, 1)):
        f = binomial_series(10, F(-1, 2), p - 1).coeff(p - 1)
        assert rational_residue(f, p) == ap_invariant(p) % p, p


def test_validation_still_fires_after_caching(table100):
    # ap_invariant is cached, and a cached A_p stands in for a primality
    # proof inside kummer_check; a refused p must be refused every time.
    assert ap_invariant(11) == ap_invariant(11) == -5
    assert kummer_check(table100, 31, 1, 1).passed
    for _ in range(2):
        for bad in (21, 7):
            with pytest.raises(VerifierDomainError):
                ap_invariant(bad)
        with pytest.raises(VerifierDomainError):
            kummer_check(table100, 21, 1, 1)
        with pytest.raises(ValueError):
            padic_valuation(F(1, 2), 21)


def test_restricted_table_builds_its_own_memo(table100, table300):
    parent = BHTable(table300.curve, table300.order, table300.method, table300.rows)
    kummer_check(parent, 31, 1, 1)  # builds the quotient memo and 31's digits
    child = parent.restrict(100)
    assert "_quotients" not in vars(child)
    assert "_digit_tables" not in vars(child)
    triples = list(kummer_triples(100, 3, 100))
    assert [vsc_decompose(child, n) for n in child.weights()] == [
        vsc_decompose(table100, n) for n in table100.weights()
    ]
    assert [with_sums(kummer_check(child, *t)) for t in triples] == [
        with_sums(kummer_check(table100, *t)) for t in triples
    ]
    assert integrality_scan(child, 100) == integrality_scan(table100, 100)
    assert child._quotients is not parent._quotients
    assert sorted(child._quotients) == child.weights() == list(range(10, 101, 10))
    assert len(parent._quotients) == 30
    for table, top in ((child, 100), (parent, 300)):  # rows at N // 10
        for _, mods in table._digit_tables[31].sides:
            assert [10 * i for i, m in enumerate(mods) if m > 1] == table.weights()
            assert table.weights()[-1] == top


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
    with pytest.raises(VerifierDomainError):
        vsc_decompose(table, 4)


def test_classical_bernoulli_anchor():
    for k, value in enumerate(bernoulli(15), start=1):
        report = classical_vsc_bernoulli(2 * k, value)
        assert report.passed, 2 * k
    r2 = classical_vsc_bernoulli(2, F(1, 6))
    assert r2.primes == (2, 3)
    assert r2.remainder == 1
    assert classical_vsc_bernoulli(2, F(1, 5)).passed is False
    with pytest.raises(VerifierDomainError):
        classical_vsc_bernoulli(3, F(1, 6))
    with pytest.raises(VerifierDomainError):
        classical_vsc_bernoulli(0, F(1))


# -- Kummer congruences ------------------------------------------------------------


def test_kummer_depth_one(table100):
    report = kummer_check(table100, 31, 1, 1)
    assert report.weights == (10, 40)
    assert report.passed
    assert report.c_valuation == 1
    assert report.d_valuation == 1
    assert report.summary_line() == "KUMMER p=31 a=1 n=1 pass valC=1 valD=1"


def test_kummer_depth_two(table100):
    report = kummer_check(table100, 31, 2, 1)
    assert report.weights == (10, 40, 70)
    assert report.passed
    assert report.c_valuation >= 2
    assert report.d_valuation >= 2


def test_kummer_depth_one_is_a_residue_identity(table100):
    # depth 1 says A_p * C_W / W has the same residue at consecutive W
    ap = ap_invariant(31)
    lhs = rational_residue(ap * table100.c_over_n(10), 31)
    rhs = rational_residue(table100.c_over_n(40), 31)
    assert lhs == rhs
    assert kummer_check(table100, 31, 1, 1).passed


def test_kummer_rejects_dividing_prime(table100):
    # p = 11 has p - 1 = 10 dividing every weight in the ladder
    with pytest.raises(VerifierDomainError):
        kummer_check(table100, 11, 1, 1)


def test_kummer_rejects_shallow_weight(table100):
    with pytest.raises(VerifierDomainError):
        kummer_check(table100, 31, 9, 1)


def test_kummer_argument_validation(table100):
    with pytest.raises(VerifierDomainError):
        kummer_check(table100, 31, 0, 1)
    with pytest.raises(VerifierDomainError):
        kummer_check(table100, 31, 1, 0)
    with pytest.raises(VerifierDomainError):
        kummer_check(table100, 21, 1, 1)


def test_kummer_missing_weights_are_reported(table100):
    with pytest.raises(MissingWeightError) as exc:
        kummer_check(table100, 41, 2, 5)
    assert exc.value.weights == [130]
    assert str(exc.value) == (
        "kummer_check(p=41, a=2, n=5) needs weights [130] not present in the "
        "table (available up to 100)"
    )


def test_kummer_is_not_vacuous(table100):
    bad = tampered(table100, 40, delta_c=F(1))
    report = kummer_check(bad, 31, 1, 1)
    assert not report.passed


def test_kummer_triples_are_admissible(table100):
    # the criterion-5 sweep (p in 31, 41, 61, 71, depth <= 2, weight <= 300)
    # counts 140 triples; p = 11 never qualifies, since 10 divides every 10n
    assert len(list(kummer_triples(71, 2, 300))) == 140
    triples = list(kummer_triples(100, 3, 100))
    assert triples and all(p != 11 for p, _, _ in triples)
    for p, depth, n in triples:
        assert kummer_check(table100, p, depth, n).passed


def test_kummer_refuses_other_curves():
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 30))
    with pytest.raises(VerifierDomainError):
        kummer_check(table, 13, 1, 1)


# -- integrality ----------------------------------------------------------------------


def test_integrality_scan(table100):
    report = integrality_scan(table100, 50)
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
    report = integrality_scan(bad, 50)
    assert not report.passed
    failing = [r for r in report.rows if not r.passed]
    assert [(r.p, r.weight) for r in failing] == [(31, 20)]
    assert failing[0].c_valuation == -1


def test_integrality_empty_prime_range(table100):
    report = integrality_scan(table100, 7)
    assert report.rows == ()
    assert report.passed
    with pytest.raises(VerifierDomainError):
        integrality_scan(table100, 0)


def test_integrality_refuses_other_curves():
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 14))
    with pytest.raises(VerifierDomainError):
        integrality_scan(table, 50)


# -- differential check against the definitions ---------------------------------------
#
# The verifiers memoize quotients and A_p, skip primality proofs for sieve
# primes, and read valuations off p-adic digit tables, summing a Kummer
# combination on integers only when the digits cannot tell.  These
# references do none of that: plain Fraction arithmetic, the public
# padic_valuation, and A_p straight from its formula.


def naive_ap(p):
    e = (p - 1) // 10
    return (-1) ** e * comb((p - 1) // 2, e)


def naive_primes(limit):
    """Primes p = 1 mod 5 up to limit (odd, so p = 1 mod 10)."""
    return [p for p in range(11, limit + 1, 10) if is_prime(p)]


def naive_vsc(table, n):
    parts = []
    for p in naive_primes(n + 1):
        if n % (p - 1) == 0:
            ape = naive_ap(p) ** (n // (p - 1))
            c_part = F(ape, p)
            d_part = F(mod_inverse(24, p) * ape, p)
            parts.append(VscContribution(p, n // (p - 1), naive_ap(p), c_part, d_part))
    g = table.c(n) - sum(c.c_part for c in parts)
    h = table.d(n) - sum(c.d_part for c in parts)
    ok = g.denominator == 1 and h.denominator == 1
    return VscReport(n, tuple(parts), g, h, ok)


def naive_kummer(table, p, depth, n):
    weights = tuple(10 * n + r * (p - 1) for r in range(depth + 1))
    sums = []
    for number in (table.c, table.d):
        total = F(0)
        for r, w in enumerate(weights):
            coeff = (-1) ** r * comb(depth, r) * naive_ap(p) ** (depth - r)
            total += coeff * number(w) / w
        sums.append(total)
    vals = [padic_valuation(s, p) for s in sums]
    report = KummerReport(p, depth, n, weights, *vals, min(vals) >= depth, table)
    return report, tuple(sums)


def with_sums(report):
    """A report with its exact combinations, as naive_kummer returns it."""
    return report, (report.c_combination, report.d_combination)


def naive_integrality(table, prime_limit):
    rows = []
    for p in naive_primes(prime_limit):
        for n in table.weights():
            if n % (p - 1):
                c_val = padic_valuation(table.c(n) / n, p)
                d_val = padic_valuation(table.d(n) / n, p)
                rows.append(IntegralityRow(p, n, c_val, d_val, min(c_val, d_val) >= 0))
    return tuple(rows)


def first_tier(p):
    """The largest k <= _DIGITS with p**k below one 30-bit CPython digit."""
    return max(k for k in range(1, congruence._DIGITS + 1) if p**k < 2**30)


@pytest.fixture()
def builds(monkeypatch):
    """The (p, precision) of every digit-row table the verifiers build."""
    built = []
    real = congruence._Digits

    def spy(table, p, prec, units):
        built.append((p, prec))
        return real(table, p, prec, units)

    monkeypatch.setattr(congruence, "_Digits", spy)
    return built


def test_digits_are_built_once_per_prime(table100, builds):
    # Kummer builds each prime's first-tier rows once; integrality reuses
    # them.  On this table those digits decide every valuation.
    table = BHTable(table100.curve, table100.order, table100.method, table100.rows)
    for t in kummer_triples(100, 3, 100):
        kummer_check(table, *t)
    integrality_scan(table, 100)
    assert sorted(builds) == [(p, first_tier(p)) for p in naive_primes(100)]
    assert first_tier(11) == congruence._DIGITS and first_tier(71) == 4


def test_digit_tiers_invert_each_denominator_once(table100, builds, monkeypatch):
    # With _LIMB at 0 the first tier keeps one digit, so every prime with a
    # Kummer check builds its p**_DIGITS rows too; both tiers share one
    # inverse per distinct denominator.
    table = BHTable(table100.curve, table100.order, table100.method, table100.rows)
    dens = {q.denominator for cd in table._quotients.values() for q in cd}
    moduli = []

    def counted(base, exp, mod=None):
        if exp == -1:
            moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(congruence, "pow", counted, raising=False)
    monkeypatch.setattr(congruence, "_LIMB", 0)
    kummer_sweep(table, 100, 3)
    primes = naive_primes(100)[1:]  # 10 divides every weight: no check at 11
    assert builds == [(p, prec) for p in primes for prec in (1, congruence._DIGITS)]
    assert sorted(set(moduli)) == [p**congruence._DIGITS for p in primes]
    assert all(moduli.count(p**congruence._DIGITS) <= len(dens) for p in primes)


def test_digit_tables_invert_each_denominator_once(table100, monkeypatch):
    # The 20 quotients share 6 denominators; a prime's digit table inverts
    # each distinct one at most once, not once per quotient.
    table = BHTable(table100.curve, table100.order, table100.method, table100.rows)
    dens = {q.denominator for cd in table._quotients.values() for q in cd}
    assert len(dens) < 2 * len(table.rows)
    moduli = []

    def counted(base, exp, mod=None):
        if exp == -1:
            moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(congruence, "pow", counted, raising=False)
    integrality_scan(table, 100)
    primes = naive_primes(100)
    assert sorted(set(moduli)) == [p**congruence._DIGITS for p in primes]
    assert all(moduli.count(p**congruence._DIGITS) <= len(dens) for p in primes)


@pytest.fixture()
def exact_calls(monkeypatch):
    """The (value, p) of every valuation the verifiers take exactly."""
    calls = []

    def spy(q, p):
        calls.append((q, p))
        return real(q, p)

    real = congruence._valuation
    monkeypatch.setattr(congruence, "_valuation", spy)
    return calls


def check_against_naive(table300, tamper):
    table = BHTable(table300.curve, table300.order, table300.method, table300.rows)
    if tamper:
        table = tampered(table, 40, delta_c=F(1, 31))
    triples = list(kummer_triples(300, 3, 300))
    kummer = [kummer_check(table, *t) for t in triples]
    assert [with_sums(r) for r in kummer] == [naive_kummer(table, *t) for t in triples]
    rows = integrality_scan(table, 300).rows
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
    # On these tables the digits decide every valuation.
    assert exact_calls == []


@pytest.mark.parametrize("tamper", [False, True], ids=["table300", "tampered"])
def test_exact_fallback_matches_naive_reference(
    table300, tamper, exact_calls, monkeypatch
):
    # With one digit a combination of valuation >= 1 over terms of
    # valuation 0 has residue 0, so on these tables each side of each
    # passing Kummer check goes through the exact path.
    monkeypatch.setattr(congruence, "_DIGITS", 1)
    kummer = check_against_naive(table300, tamper)
    assert len(exact_calls) >= 2 * sum(r.passed for r in kummer)


def test_edge_entries_take_the_exact_path(table300, exact_calls):
    # C_40 / 40 = 0, and the numerator of C_70 / 70 is divisible by
    # 31**(_DIGITS + 2): neither has digits at p = 31, so every check that
    # reads them must value them exactly.
    deep = 31 ** (congruence._DIGITS + 2)
    rows = dict(table300.rows)
    rows[40] = (F(0), rows[40][1])
    rows[70] = (F(70 * deep, 7), rows[70][1])
    table = BHTable(table300.curve, table300.order, table300.method, rows)
    triples = list(kummer_triples(300, 3, 300))
    kummer, exact = [], []
    for t in triples:
        exact_calls.clear()
        kummer.append(kummer_check(table, *t))
        exact.append(bool(exact_calls))
    assert [with_sums(r) for r in kummer] == [naive_kummer(table, *t) for t in triples]
    assert exact == [40 in r.weights or (r.p == 31 and 70 in r.weights) for r in kummer]
    exact_calls.clear()
    scan = integrality_scan(table, 300).rows
    assert scan == naive_integrality(table, 300)
    zero_rows = {(r.p, r.weight) for r in scan if r.c_valuation == inf}
    assert zero_rows == {(p, 40) for p in naive_primes(300) if 40 % (p - 1)}
    assert [r.c_valuation for r in scan if (r.p, r.weight) == (31, 70)] == [
        congruence._DIGITS + 2
    ]
    assert sorted(exact_calls) == sorted(
        [(F(0), p) for p in naive_primes(300) if 40 % (p - 1)] + [(F(deep, 7), 31)]
    )


def edge_table(table300):
    """C_40 / 40 = 0 and 31**(_DIGITS + 2) dividing the numerator of C_70 / 70,
    as in test_edge_entries_take_the_exact_path."""
    deep = 31 ** (congruence._DIGITS + 2)
    rows = dict(table300.rows)
    rows[40] = (F(0), rows[40][1])
    rows[70] = (F(70 * deep, 7), rows[70][1])
    return BHTable(table300.curve, table300.order, table300.method, rows), deep


@pytest.mark.parametrize("which", ["table100", "table300", "tampered", "edge"])
def test_sweep_matches_single_checks_and_naive_reference(table100, table300, which):
    source = {
        "table100": table100,
        "table300": table300,
        "tampered": tampered(table300, 40, delta_c=F(1, 31)),
        "edge": edge_table(table300)[0],
    }[which]
    top = max(source.rows)

    def fresh():
        return BHTable(source.curve, source.order, source.method, source.rows)

    triples = list(kummer_triples(top, 3, top))
    sweep = kummer_sweep(fresh(), top, 3)
    assert sweep == [kummer_check(fresh(), *t) for t in triples]
    assert [with_sums(r) for r in sweep] == [naive_kummer(source, *t) for t in triples]
    assert [r.weights for r in sweep] == [
        tuple(10 * n + r * (p - 1) for r in range(a + 1)) for p, a, n in triples
    ]


def test_sweep_checks_the_curve_and_the_weight_ladder(table100):
    other = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 30))
    with pytest.raises(VerifierDomainError):
        kummer_sweep(other, 50, 1)
    rows = dict(table100.rows)
    del rows[50]
    gap = BHTable(table100.curve, table100.order, table100.method, rows)
    with pytest.raises(MissingWeightError) as exc:
        kummer_sweep(gap, 100, 3)
    assert exc.value.weights == [50]


@pytest.mark.parametrize(
    "tamper", [False, True, "edge"], ids=["table300", "tampered", "edge"]
)
def test_forced_deep_tier_keeps_reports_and_exact_calls(
    table300, tamper, exact_calls, builds, monkeypatch
):
    # With _LIMB at 0 every first tier keeps one digit: a combination of
    # valuation >= 1 reads 0 there, so its prime's p**_DIGITS rows decide.
    # Reports and exact valuations must be those of the one-tier verifier.
    monkeypatch.setattr(congruence, "_LIMB", 0)
    if tamper != "edge":
        check_against_naive(table300, tamper)
        assert exact_calls == []
    else:
        table, deep = edge_table(table300)
        triples = list(kummer_triples(300, 3, 300))
        reports = kummer_sweep(table, 300, 3)
        naive = [naive_kummer(table, *t) for t in triples]
        assert [with_sums(r) for r in reports] == naive
        exact_calls.clear()
        assert integrality_scan(table, 300).rows == naive_integrality(table, 300)
        assert sorted(exact_calls) == sorted(
            [(F(0), p) for p in naive_primes(300) if 40 % (p - 1)] + [(F(deep, 7), 31)]
        )
    assert len(builds) == len(set(builds))  # each tier of each prime once
    # Every prime but 11, where 10 | N leaves no check and no integrality row.
    deepened = {p for p, prec in builds if prec == congruence._DIGITS}
    assert deepened == set(naive_primes(300)[1:])
