"""End-to-end acceptance battery.

Eight criteria, each reported as one line in the terminal summary:

    [criterion N] name: PASS/FAIL (X.XXs)

The criteria cover the classical anchors, the frozen small values, deep
three-route generation, the three congruence statements at full scale, a
property battery over the series engine, and a normalization regression
guard.  Everything asserted here is either derived by an independent
oracle or frozen from hand-checked arithmetic.
"""

import random
import time
from fractions import Fraction
from math import factorial

from conftest import build_gen300, record_acceptance

from bhnum import (
    BHTable,
    CurveSpec,
    Expansion,
    TruncSeries,
    ap_invariant,
    bernoulli,
    binomial_series,
    certify,
    expand_checked,
    extract_numbers,
    hurwitz,
    integrality_scan,
    kummer_check,
    revert,
    vsc_decompose,
)
from helpers import hyperelliptic_residual, oracle_bernoulli

F = Fraction

MAIN = CurveSpec.cyclotomic(2, 5)


class criterion:
    """Times a block and records its acceptance line on the way out."""

    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name
        self.details: list[str] = []

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        flag = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.start
        line = f"[criterion {self.num}] {self.name}: {flag} ({elapsed:.2f}s)"
        record_acceptance(line)
        print(line)
        for text in self.details:
            record_acceptance(f"    {text}")
        return False

    def detail(self, text: str) -> None:
        self.details.append(text)


def test_criterion_1_classical_anchors():
    with criterion(1, "classical Bernoulli and Hurwitz anchors"):
        assert bernoulli(15) == oracle_bernoulli(15)
        assert hurwitz(2) == [F(1, 10), F(3, 10)]


def test_criterion_2_frozen_small_values():
    with criterion(2, "frozen small values on y^2 = x^5 - 1"):
        table = extract_numbers(expand_checked(MAIN, 12))
        assert table.c(10) == F(403200, 11)
        assert table.d(10) == F(3600, 11)
        assert ap_invariant(11) == -5
        report = vsc_decompose(table, 10)
        assert report.summary_line() == "VSC N=10 pass G=36655 H=330"


def test_criterion_3_deep_two_route_generation():
    with criterion(3, "three-route agreement through u^302 on 3 curves") as c:
        gen = build_gen300()
        assert sorted(gen) == ["cyclo:a=2,b=5", "minusx:g=1", "minusx:g=2"]
        for key, entry in gen.items():
            online = entry["online"]
            rows = extract_numbers(online).rows
            certify(online)
            for route in ("reversion", "ode"):
                other = entry[route]
                assert online.x_series.agrees_through(other.x_series, 302), route
                assert online.y_series.agrees_through(other.y_series, 302), route
                assert extract_numbers(other).rows == rows, route
            secs = entry["seconds"]
            c.detail(
                f"{key}: online {secs['online']:.2f}s, "
                f"reversion {secs['reversion']:.2f}s, ode {secs['ode']:.2f}s, "
                f"rows {len(rows)}, all three agree"
            )


def test_criterion_4_von_staudt_clausen(table300):
    with criterion(4, "von Staudt-Clausen analogue at N = 10..300") as c:
        weights = table300.weights()
        assert weights == list(range(10, 301, 10))
        for n in weights:
            report = vsc_decompose(table300, n)
            assert report.passed, report.summary_line()
        c.detail(f"{len(weights)}/{len(weights)} weights decompose to integers")


def test_criterion_5_kummer_sweep(table300):
    with criterion(5, "Kummer congruences, p in {31,41,61,71}, depth <= 2") as c:
        checks = 0
        for p in (31, 41, 61, 71):
            for depth in (1, 2):
                n = 1
                while 10 * n + depth * (p - 1) <= 300:
                    if (10 * n) % (p - 1) != 0:
                        report = kummer_check(table300, p, depth, n)
                        assert report.passed, report.summary_line()
                        checks += 1
                    n += 1
        assert checks == 140
        c.detail(f"{checks} admissible (p, depth, n) triples all hold")


def test_criterion_6_integrality(table300):
    with criterion(6, "p-integrality of C_N/N, D_N/N for p <= 1000") as c:
        report = integrality_scan(table300, 1000)
        assert report.passed
        assert len(report.rows) == 1130
        c.detail(f"{len(report.rows)} (p, N) pairs, all p-integral")


def test_criterion_7_property_battery(gen300, table300):
    with criterion(7, "series engine property battery") as c:
        rng = random.Random(73)

        def rand_series(trunc):
            terms = {
                rng.randrange(-3, trunc + 1): F(
                    rng.randrange(-9, 10), rng.randrange(1, 7)
                )
                for _ in range(6)
            }
            return TruncSeries.from_terms(terms, trunc)

        for _ in range(20):
            p, q, r = (rand_series(rng.randrange(5, 14)) for _ in range(3))
            assert p * q == q * p
            assert ((p * q) * r).agrees_through(p * (q * r))
            assert ((p + q) * r).agrees_through(p * r + q * r)

        u = binomial_series(9, F(-2, 9), 200).integrate()
        t = TruncSeries.monomial(1, 1, 200)
        assert u.compose(revert(u)).agrees_through(t, 200)
        terms = {1: F(1)}
        for e in range(2, 121):
            if rng.random() < 0.7:
                terms[e] = F(rng.randrange(-9, 10), rng.randrange(1, 8))
        dense = TruncSeries.from_terms(terms, 120)
        assert revert(dense, "lagrange") == revert(dense, "newton")
        assert dense.compose(revert(dense)).agrees_through(
            TruncSeries.monomial(1, 1, 120), 120
        )

        for entry in gen300.values():
            curve = entry["curve"]
            for exp in (entry["online"], entry["reversion"], entry["ode"]):
                # reconstructing re-runs the support and leading-term checks
                Expansion(curve, exp.x_series, exp.y_series, exp.method, exp.order)
            g = curve.genus_if_hyperelliptic
            resid = hyperelliptic_residual(entry["ode"].x_series, curve.family, g)
            assert resid.is_zero()
            x, y = entry["reversion"].x_series, entry["reversion"].y_series
            rhs = x.power(curve.b)
            rhs = rhs - x if curve.family == "minusx" else rhs - 1
            assert (y * y).agrees_through(rhs)

        text = table300.dumps()
        assert BHTable.loads(text).dumps() == text
        c.detail("axioms, reversion, sparsity, residual, cache round-trip")


def test_criterion_8_normalization_guard(gen300):
    with criterion(8, "normalization regression guard") as c:
        x = gen300["cyclo:a=2,b=5"]["reversion"].x_series
        y = gen300["cyclo:a=2,b=5"]["reversion"].y_series
        a11 = ap_invariant(11)
        for n, slot in ((10, x.coeff(8)), (20, x.coeff(18))):
            adopted = n * factorial(n - 2) * slot
            misread = n * factorial(n) * slot
            frac = F(a11 ** (n // 10), 11)
            assert (adopted - frac).denominator == 1
            assert (misread - frac).denominator != 1
        # the D-side misread is only caught from weight 20 on
        k = F(pow(24, -1, 11))
        adopted = 20 * factorial(15) * y.coeff(15)
        misread = 20 * factorial(20) * y.coeff(15)
        frac = k * F(a11**2, 11)
        assert (adopted - frac).denominator == 1
        assert (misread - frac).denominator != 1
        c.detail("factorial misreads break the decomposition; adopted one holds")
