"""Congruence verification over the weight-graded number tables.

Three classical-style statements are machine-checked for the curve
y**2 = x**5 - 1 (weight 10):

  * a von Staudt-Clausen analogue: subtracting a computed fractional
    contribution A_p**(N/(p-1)) / p (times 1/4! mod p on the D side) for
    each prime p <= N + 1 with p = 1 mod 5 and p - 1 | N leaves an
    integer;
  * a Kummer-style congruence mod p**a between the normalized numbers
    C_N / N at weights in arithmetic progression of step p - 1;
  * the p-integrality of C_N / N and D_N / N at primes p = 1 mod 5 with
    p - 1 not dividing N.

Congruence of rationals mod p**a always means: the p-adic valuation of
the difference is at least a.  Verifiers refuse tables computed on any
other curve rather than silently apply an invariant A_p outside its
proven ground.  The same decomposition engine, run with contribution -1/p
at every prime with p - 1 | 2n, reproduces the classical von Staudt-Clausen
statement for Bernoulli numbers and anchors the machinery.

Each piece of number theory is done once.  The quotients C_N / N and
D_N / N are built once per table (BHTable keeps them), A_p once per prime
(ap_invariant is cached; a p it refuses is refused on every call), and
valuations at a p that came out of the sieve, or that ap_invariant has
already proved prime, skip padic_valuation's primality proof.

Valuations are read off a p-adic digit table, built once per (table, p):
for every weight, v_p(X_N / N) and its unit part mod p**k, from one
reduction of the numerator mod p**_DIGITS.  A Kummer combination is then
a sum of small integers modulo the precision its terms carry; a nonzero
sum gives its valuation exactly, and a zero sum, or a numerator that is
0 mod p**_DIGITS, sends the check to the exact combination instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .curves import CurveSpec
from .generator import BHTable, rational_pair
from .numtheory import (
    PrimeResidueClass,
    _int_valuation,
    _valuation,
    binomial,
    is_prime,
    mod_inverse,
    primes_in_class,
)

__all__ = [
    "MissingWeightError",
    "VerifierDomainError",
    "ap_invariant",
    "classical_vsc_bernoulli",
    "integrality_scan",
    "kummer_check",
    "kummer_triples",
    "vsc_decompose",
]

REPORT_VERSION = 1

# p-adic digits each digit table keeps per numerator: an algorithm
# constant, not an option; both paths give the same valuations.
_DIGITS = 8

_MAIN_CURVE = CurveSpec.cyclotomic(2, 5)


class VerifierDomainError(ValueError):
    """Input outside the proven ground of the statement being checked."""


class MissingWeightError(ValueError):
    """The table lacks weights the check needs; carries them in .weights."""

    def __init__(self, message: str, weights: list[int]):
        super().__init__(message)
        self.weights = weights


def _require_main_curve(table: BHTable, what: str) -> None:
    if table.curve != _MAIN_CURVE:
        raise VerifierDomainError(
            f"{what} is only proven for {_MAIN_CURVE}; refusing {table.curve}"
        )


def _require_weights(table: BHTable, needed: list[int], what: str, *args) -> None:
    missing = sorted(n for n in needed if n not in table.rows)
    if missing:  # what % args names the check, formatted only here
        raise MissingWeightError(
            f"{what % args} needs weights {missing} not present in the table "
            f"(available up to {table.order - 2})",
            missing,
        )


@lru_cache(maxsize=1024)
def ap_invariant(p: int) -> int:
    """A_p = (-1)**((p-1)/10) * C((p-1)/2, (p-1)/10) for p = 1 mod 5.

    The prime invariant entering the fractional contributions; the sign
    alternates with the parity of (p-1)/10.  Cached per p: a returned
    value also certifies that p is prime, and a refused p (which raises,
    so is never cached) is checked again on every call.
    """
    if not is_prime(p):
        raise VerifierDomainError(f"{p} is not prime")
    if p % 5 != 1:
        raise VerifierDomainError(f"A_p needs p = 1 mod 5, got {p}")
    e = (p - 1) // 10
    return (-1) ** e * binomial((p - 1) // 2, e)


# -- shared decomposition engine ----------------------------------------------


def _dividing_primes(n: int, cls: PrimeResidueClass) -> list[int]:
    """Primes p in cls with p - 1 dividing n, ascending: p = d + 1 over the
    divisors d of n, so no sieve up to n + 1 is run."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*small, *(n // d for d in small)})
    return [d + 1 for d in divisors if cls.contains(d + 1) and is_prime(d + 1)]


def _decompose(value: Fraction, parts: list[Fraction]) -> tuple[Fraction, bool]:
    """Subtract the per-prime fractional parts; return (remainder, integral?)."""
    remainder = value - sum(parts)
    return remainder, remainder.denominator == 1


@dataclass(frozen=True, slots=True)
class VscContribution:
    p: int
    exponent: int
    ap: int
    c_part: Fraction
    d_part: Fraction


@dataclass(frozen=True, slots=True)
class VscReport:
    weight: int
    contributions: tuple[VscContribution, ...]
    g_remainder: Fraction
    h_remainder: Fraction
    passed: bool

    def summary_line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"VSC N={self.weight} {flag} G={self.g_remainder} H={self.h_remainder}"

    def to_json_dict(self) -> dict:
        return {
            "format": "bhnum.report.vsc",
            "version": REPORT_VERSION,
            "weight": self.weight,
            "contributions": [
                {
                    "p": c.p,
                    "exponent": c.exponent,
                    "ap": str(c.ap),
                    "c_part": rational_pair(c.c_part),
                    "d_part": rational_pair(c.d_part),
                }
                for c in self.contributions
            ],
            "g_remainder": rational_pair(self.g_remainder),
            "h_remainder": rational_pair(self.h_remainder),
            "passed": self.passed,
        }


def vsc_decompose(table: BHTable, weight: int) -> VscReport:
    """Check the von Staudt-Clausen analogue at one weight.

    Relevant primes: p <= N + 1, p = 1 mod 5, p - 1 | N.  The C-side
    contribution is A_p**(N/(p-1)) / p, the D-side one carries the extra
    factor 1/4! inverted mod p.  Both remainders must be integers.
    """
    _require_main_curve(table, "the von Staudt-Clausen analogue")
    _require_weights(table, [weight], "vsc_decompose")
    contributions = []
    for p in _dividing_primes(weight, PrimeResidueClass(5, 1)):
        e = weight // (p - 1)
        ap = ap_invariant(p)
        ape = pow(ap, e)
        c_part = Fraction(ape, p)
        d_part = Fraction(mod_inverse(24, p) * ape, p)
        contributions.append(VscContribution(p, e, ap, c_part, d_part))
    g_rem, g_ok = _decompose(table.c(weight), [c.c_part for c in contributions])
    h_rem, h_ok = _decompose(table.d(weight), [c.d_part for c in contributions])
    return VscReport(weight, tuple(contributions), g_rem, h_rem, g_ok and h_ok)


@dataclass(frozen=True, slots=True)
class BernoulliVscReport:
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
    primes = _dividing_primes(index, PrimeResidueClass(1, 0))
    remainder, ok = _decompose(value, [Fraction(-1, p) for p in primes])
    return BernoulliVscReport(index, tuple(primes), remainder, ok)


# -- Kummer-style congruences --------------------------------------------------


@dataclass(frozen=True, slots=True)
class KummerReport:
    p: int
    depth: int
    index: int
    weights: tuple[int, ...]
    c_valuation: int | float  # an int, or math.inf when the value is 0
    d_valuation: int | float
    passed: bool
    table: BHTable = field(repr=False, compare=False)  # source of the exact sums

    @property
    def c_combination(self) -> Fraction:
        """The exact C-side combination, built on each call."""
        return self._exact(self.table.c_over_n)

    @property
    def d_combination(self) -> Fraction:
        """The exact D-side combination, built on each call."""
        return self._exact(self.table.d_over_n)

    def _exact(self, quotient) -> Fraction:
        coeffs = _kummer_coefficients(self.p, self.depth)
        return _combination(coeffs, [quotient(w) for w in self.weights])

    def summary_line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (
            f"KUMMER p={self.p} a={self.depth} n={self.index} {flag} "
            f"valC={self.c_valuation} valD={self.d_valuation}"
        )

    def to_json_dict(self) -> dict:
        return {
            "format": "bhnum.report.kummer",
            "version": REPORT_VERSION,
            "p": self.p,
            "depth": self.depth,
            "index": self.index,
            "weights": list(self.weights),
            "c_combination": rational_pair(self.c_combination),
            "d_combination": rational_pair(self.d_combination),
            "c_valuation": str(self.c_valuation),
            "d_valuation": str(self.d_valuation),
            "passed": self.passed,
        }


def _combination(coeffs: tuple[int, ...], values: list[Fraction]) -> Fraction:
    """sum(k * v), summed on integers over the lcm of the denominators:
    one reducing division instead of one per term."""
    den = lcm(*(v.denominator for v in values))
    num = sum(k * v.numerator * (den // v.denominator) for k, v in zip(coeffs, values))
    return Fraction(num, den)


@lru_cache(maxsize=1024)
def _kummer_coefficients(p: int, depth: int) -> tuple[int, ...]:
    """(-1)**r * C(a, r) * A_p**(a - r) for r = 0..a; ap_invariant validates p."""
    ap = ap_invariant(p)
    return tuple(
        (-1) ** r * binomial(depth, r) * pow(ap, depth - r) for r in range(depth + 1)
    )


def _digit(q: Fraction, p: int, units: dict) -> tuple[int, int, int] | None:
    """(v, u, k) with q = p**v * U, U a p-adic unit = u mod p**k, read off
    the numerator mod p**_DIGITS; None when that residue is 0.  units keeps
    each denominator's valuation and unit-part inverse mod p**_DIGITS."""
    r, den = q.numerator % p**_DIGITS, q.denominator
    if not r:
        return None
    if den not in units:
        b = _int_valuation(den, p)
        units[den] = b, pow(den // p**b, -1, p**_DIGITS)
    b, inverse = units[den]
    a = _int_valuation(r, p)
    k = _DIGITS - a
    return a - b, r // p**a * inverse % p**k, k


def _digits(table: BHTable, p: int) -> dict[int, tuple]:
    """weight N -> (_digit(C_N / N), _digit(D_N / N)), built once per (table, p)."""
    digits = table._digit_tables.get(p)
    if digits is None:
        units: dict[int, tuple[int, int]] = {}
        digits = table._digit_tables[p] = {
            n: (_digit(c, p, units), _digit(d, p, units))
            for n, (c, d) in table._quotients.items()
        }
    return digits


def _residue_valuation(coeffs: tuple[int, ...], terms: list, p: int) -> int | None:
    """v_p(sum c_r * X_r) off the digits of the X_r, or None if they cannot tell.

    The sum is p**m * sum c_r * p**(v_r - m) * U_r for the least v_r = m,
    and the inner sum is known mod p**min(v_r - m + k_r).
    """
    if None in terms:
        return None
    m = min(terms)[0]  # tuples order by v first
    s, prec = 0, _DIGITS
    for c, (v, u, k) in zip(coeffs, terms):
        s += c * p ** (v - m) * u
        prec = min(prec, v - m + k)
    s %= p**prec
    return m + _int_valuation(s, p) if s else None


def kummer_check(table: BHTable, p: int, depth: int, index: int) -> KummerReport:
    """Check the Kummer-style congruence mod p**depth at base weight 10*index.

    The alternating binomial combination sum_r (-1)**r * C(a, r) *
    A_p**(a-r) * X_W / W over the weights W = 10*n + r*(p-1), r = 0..a,
    must have p-adic valuation at least a, both for X = C and X = D.
    Inadmissible inputs raise: p must be a prime = 1 mod 5 with p - 1 not
    dividing 10*n, and 10*n - 2 >= a.

    Each valuation is read off the table's p-adic digits: once the power
    p**m of the least term valuation is taken out, the combination is a
    sum of small integers modulo the precision its terms carry, and a
    nonzero residue there is a unit times p**j, so v_p = m + j exactly.  A
    zero residue, or a term whose numerator is 0 mod p**_DIGITS, takes the
    exact combination instead.  The report builds the exact sums only when
    asked for them (JSON reports).
    """
    _require_main_curve(table, "the Kummer-style congruence")
    if depth < 1 or index < 1:
        raise VerifierDomainError("depth and index must be positive")
    coeffs = _kummer_coefficients(p, depth)  # validates p
    n10 = 10 * index
    if n10 % (p - 1) == 0:
        raise VerifierDomainError(
            f"p - 1 = {p - 1} divides 10n = {n10}; the congruence needs "
            "p - 1 not dividing 10n"
        )
    if n10 - 2 < depth:
        raise VerifierDomainError(f"10n - 2 = {n10 - 2} is below depth {depth}")
    weights = [n10 + r * (p - 1) for r in range(depth + 1)]
    _require_weights(table, weights, "kummer_check(p=%s, a=%s, n=%s)", p, depth, index)
    digits = _digits(table, p)
    vals = []
    for side, quotient in enumerate((table.c_over_n, table.d_over_n)):
        val = _residue_valuation(coeffs, [digits[w][side] for w in weights], p)
        if val is None:
            # ap_invariant has proved p prime.
            val = _valuation(_combination(coeffs, [quotient(w) for w in weights]), p)
        vals.append(val)
    c_val, d_val = vals
    return KummerReport(
        p, depth, index, tuple(weights), c_val, d_val,
        c_val >= depth and d_val >= depth, table,
    )


def kummer_triples(prime_limit: int, max_depth: int, max_weight: int):
    """Yield every (p, depth, index) kummer_check admits within max_weight.

    p runs over the primes = 1 mod 5 up to prime_limit, then depth over
    1..max_depth, then index n upward while the top weight 10*n +
    depth*(p - 1) stays within max_weight; the triples kummer_check would
    refuse are skipped.
    """
    for p in primes_in_class(prime_limit, PrimeResidueClass(5, 1)):
        for depth in range(1, max_depth + 1):
            for n in range(1, (max_weight - depth * (p - 1)) // 10 + 1):
                if (10 * n) % (p - 1) != 0 and 10 * n - 2 >= depth:
                    yield p, depth, n


# -- integrality ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IntegralityRow:
    p: int
    weight: int
    c_valuation: int | float  # an int, or math.inf when the value is 0
    d_valuation: int | float
    passed: bool

    def summary_line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (
            f"INTEGRALITY p={self.p} N={self.weight} {flag} "
            f"valC={self.c_valuation} valD={self.d_valuation}"
        )


@dataclass(frozen=True, slots=True)
class IntegralityReport:
    prime_limit: int
    rows: tuple[IntegralityRow, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "format": "bhnum.report.integrality",
            "version": REPORT_VERSION,
            "prime_limit": self.prime_limit,
            "rows": [
                {
                    "p": r.p,
                    "weight": r.weight,
                    "c_valuation": str(r.c_valuation),
                    "d_valuation": str(r.d_valuation),
                    "passed": r.passed,
                }
                for r in self.rows
            ],
            "passed": self.passed,
        }


def integrality_scan(table: BHTable, prime_limit: int) -> IntegralityReport:
    """Scan v_p(C_N / N) >= 0 and v_p(D_N / N) >= 0 over the table.

    Covers primes p <= prime_limit with p = 1 mod 5 and p - 1 not dividing
    N; rows come out sorted by (p, N) regardless of traversal order.  The
    valuations come from the digit table kummer_check reads (exact below
    _DIGITS); a numerator that is 0 mod p**_DIGITS is valued exactly.
    """
    _require_main_curve(table, "the integrality statement")
    if prime_limit < 1:
        raise VerifierDomainError("prime limit must be positive")
    rows = []
    for p in primes_in_class(prime_limit, PrimeResidueClass(5, 1)):
        digits = _digits(table, p)
        for n in table.weights():
            if n % (p - 1) == 0:
                continue
            # p is from the sieve; an entry without digits takes the exact path.
            c_digit, d_digit = digits[n]
            c_val = c_digit[0] if c_digit else _valuation(table.c_over_n(n), p)
            d_val = d_digit[0] if d_digit else _valuation(table.d_over_n(n), p)
            rows.append(IntegralityRow(p, n, c_val, d_val, c_val >= 0 and d_val >= 0))
    rows.sort(key=lambda r: (r.p, r.weight))
    return IntegralityReport(prime_limit, tuple(rows), all(r.passed for r in rows))
