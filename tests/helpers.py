"""Independent oracles for the test suite.

Everything in this module is deliberately written from scratch on plain
dicts and Fractions, without importing the package, so that agreement
between an oracle and the library is evidence rather than tautology.
"""

from __future__ import annotations

import io
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial


def oracle_bernoulli(count: int) -> list[Fraction]:
    """B_2 .. B_{2*count} from the defining recurrence
    sum_{k=0}^{m} C(m+1, k) B_k = 0, B_0 = 1."""
    values = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        s = sum(comb(m + 1, k) * values[k] for k in range(m))
        values.append(Fraction(-s, m + 1))
    return [values[2 * n] for n in range(1, count + 1)]


def oracle_sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1) if limit >= 0 else bytearray()
    if limit < 2:
        return []
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = 0
    return [i for i in range(2, limit + 1) if flags[i]]


def brute_mod_inverse(x: int, m: int) -> int | None:
    for y in range(m):
        if x * y % m == 1:
            return y
    return None


class NegativeValuationError(ValueError):
    """The rational has p in its denominator, so it has no residue mod p**k."""


def rational_residue(q: Fraction | int, p: int, k: int = 1) -> int:
    """The residue of a p-integral rational modulo p**k, in [0, p**k), for
    a prime p.

    The denominator is inverted mod p**k, so q may have any prime-to-p
    denominator.  A rational with negative p-valuation has no residue and
    raises NegativeValuationError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q = Fraction(q)
    if q.denominator % p == 0:
        raise NegativeValuationError(f"{q} has a factor {p} in its denominator")
    pk = p**k
    return q.numerator % pk * pow(q.denominator, -1, pk) % pk


def table_text(table) -> str:
    """The text table.dump writes, as one string."""
    out = io.StringIO()
    table.dump(out)
    return out.getvalue()


def bump(expansion, name: str, k: int, by):
    """expansion with `by` added to slot k of its x (or y) grid."""
    grid = list(getattr(expansion, name))
    grid[k] += by
    return replace(expansion, **{name: tuple(grid)})


# -- dict-based series arithmetic (exponent -> Fraction, zero terms absent) --


def n_mul(p: dict, q: dict, trunc: int) -> dict:
    out: dict[int, Fraction] = {}
    for i, a in p.items():
        for j, b in q.items():
            k = i + j
            if k <= trunc:
                out[k] = out.get(k, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v}


def n_pow(p: dict, n: int, trunc: int) -> dict:
    val = min(p, default=0)
    out = {0: Fraction(1)}
    for k in range(n):
        # factors still to come can lower an exponent by -val each, so
        # intermediates must be kept wider than the final cutoff
        cap = trunc - (n - 1 - k) * min(val, 0)
        out = n_mul(out, p, cap)
    return out


def n_compose(outer: dict, inner: dict, trunc: int) -> dict:
    assert all(e >= 1 for e in inner), "inner must vanish at 0"
    out: dict[int, Fraction] = {}
    for e in sorted(outer):
        assert e >= 0, "oracle composition handles power series only"
        term = n_pow(inner, e, trunc)
        for k, v in term.items():
            out[k] = out.get(k, Fraction(0)) + outer[e] * v
    return {k: v for k, v in out.items() if v}


def n_revert(s: dict, trunc: int) -> dict:
    """Compositional inverse by undetermined coefficients; s = t + ..."""
    assert s.get(1) == 1
    g = {1: Fraction(1)}
    for n in range(2, trunc + 1):
        coeff = n_compose(s, g, n).get(n, Fraction(0))
        if coeff:
            g[n] = -coeff
    return g


def n_inv_val1(s: dict, trunc: int) -> dict:
    """1/s for s with valuation exactly 1 and s_1 = 1, through t**trunc."""
    assert s.get(1) == 1
    h = {-1: Fraction(1)}
    for n in range(0, trunc + 1):
        # [t**(n+1)](s*h) must vanish; h[n] is still unset while we scan,
        # so acc collects every term except s_1*h_n and h_n = -acc.
        acc = Fraction(0)
        for i, a in s.items():
            b = h.get(n + 1 - i)
            if b is not None:
                acc += a * b
        if acc:
            h[n] = -acc
    return h


def binom_frac(alpha: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, k) by the product formula."""
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / factorial(k)


def oracle_x_of_u(a: int, b: int, j: int, weight: int, order: int) -> dict:
    """x(u) for the curve with x = t**-a, u' = (1 - t**w)**(-j/a).

    A from-scratch pipeline: binomial integrand, termwise integral,
    reversion and Laurent inversion all on dicts.
    """
    alpha = Fraction(-j, a)
    integrand = {0: Fraction(1)}
    k = 0
    while (k + 1) * weight <= order + a:
        k += 1
        integrand[k * weight] = (-1) ** k * binom_frac(alpha, k)
    u = {e + 1: c / (e + 1) for e, c in integrand.items()}
    t_of_u = n_revert(u, order + a + 1)
    inv = n_inv_val1(t_of_u, order + a + 1)
    x = n_pow(inv, a, order)
    return {k: v for k, v in x.items() if k <= order}


def series_dict(ts) -> dict:
    """Nonzero terms of a TruncSeries as a plain dict (for comparisons)."""
    return dict(ts.terms())


def assert_dict_eq(d1: dict, d2: dict, through: int) -> None:
    for e in range(min(min(d1, default=0), min(d2, default=0)), through + 1):
        assert d1.get(e, Fraction(0)) == d2.get(e, Fraction(0)), (
            f"mismatch at exponent {e}: {d1.get(e)} vs {d2.get(e)}"
        )


def hyperelliptic_residual(x, family: str, g: int):
    """R(A) = A**(2g-2) A'**2 - 4 A**(2g+1) + 4*(A or 1), recomputed here."""
    a1 = x.derive()
    lead = a1 * a1
    if g >= 2:
        lead = x.power(2 * g - 2) * lead
    r = lead - x.power(2 * g + 1).scale(4)
    if family == "minusx":
        return r + x.scale(4)
    if r.trunc_order < 0:
        return r
    return r + 4
