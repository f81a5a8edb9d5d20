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

Each piece of number theory is done once: the quotients C_N / N and
D_N / N once per table (BHTable keeps them), A_p once per prime
(ap_invariant is cached; a p it refuses is refused on every call), and the
p-adic digit rows the valuations are read off (_Digits) once per (table,
p) and tier.  Valuations at a p that came out of the sieve, or that
ap_invariant has proved prime, skip padic_valuation's primality proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

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
    "kummer_sweep",
    "kummer_triples",
    "vsc_decompose",
]

REPORT_VERSION = 1

# p-adic digits per numerator: p**_DIGITS bounds the deep tier, and _LIMB,
# one 30-bit CPython digit, the first.  Algorithm constants, not options.
_DIGITS = 8
_LIMB = 2**30

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


class VscContribution(NamedTuple):
    p: int
    exponent: int
    ap: int
    c_part: Fraction
    d_part: Fraction


class VscReport(NamedTuple):
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
                {**c._asdict(), "ap": str(c.ap), "c_part": rational_pair(c.c_part),
                 "d_part": rational_pair(c.d_part)}
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
    primes = _dividing_primes(index, PrimeResidueClass(1, 0))
    remainder, ok = _decompose(value, [Fraction(-1, p) for p in primes])
    return BernoulliVscReport(index, tuple(primes), remainder, ok)


# -- Kummer-style congruences --------------------------------------------------


class KummerReport(NamedTuple):
    p: int
    depth: int
    index: int
    weights: tuple[int, ...]
    c_valuation: int | float  # an int, or math.inf when the value is 0
    d_valuation: int | float
    passed: bool
    table: BHTable  # source of the exact sums; equality, hash and repr skip it

    def __eq__(self, other):
        return isinstance(other, KummerReport) and self[:7] == other[:7]

    def __ne__(self, other):
        return not isinstance(other, KummerReport) or self[:7] != other[:7]

    def __hash__(self):
        return hash(self[:7])

    def __repr__(self):
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self[:7]))
        return f"KummerReport({shown})"

    c_combination = property(lambda self: self._exact(0), doc="The exact C-side sum.")
    d_combination = property(lambda self: self._exact(1), doc="The exact D-side sum.")

    def _exact(self, side: int) -> Fraction:
        values = [self.table._quotients[w][side] for w in self.weights]
        return _combination(_kummer_coefficients(self.p, self.depth), values)

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


class _Digits:
    """One prime's digit rows off the numerators mod p**prec: sides (C, then D)
    hold at N // 10 x = p**B * X_N / N mod p**P and p**P, with B the largest
    v_p of a denominator (0 for p**P where the numerator is 0 mod p**prec);
    log maps p**j to j - B, units a denominator to (v_p, unit inverse)."""

    def __init__(self, table: BHTable, p: int, prec: int, units: dict):
        qs = table._quotients  # N -> (C_N / N, D_N / N)
        for den in {q.denominator for cd in qs.values() for q in cd} - units.keys():
            b = _int_valuation(den, p)
            units[den] = b, pow(den // p**b, -1, p**_DIGITS)
        shift = max((b for b, _ in units.values()), default=0)
        self.prec, self.units, mod = prec, units, p**prec
        self.log = {p**j: j - shift for j in range(prec + shift)}
        scale = {d: (p ** (shift - b) * inv, p ** (prec + shift - b))
                 for d, (b, inv) in units.items()}
        size = max(qs, default=0) // 10 + 1
        self.sides = ([0] * size, [0] * size), ([0] * size, [0] * size)
        rows = [n // 10 for n in qs]
        for (x, mods), side in zip(self.sides, zip(*qs.values())):  # C, then D
            for i, q in zip(rows, side):
                r = q.numerator % mod  # a one-digit remainder on the first tier
                if r:
                    factor, top = scale[q.denominator]
                    x[i], mods[i] = r * factor % top, top


def _digits(table: BHTable, p: int, deep: bool = False) -> _Digits:
    """p's digit rows for table, mod the largest p**k below _LIMB (k at most
    _DIGITS) until deep asks for p**_DIGITS, which then replaces them."""
    digits = table._digit_tables.get(p)
    if digits is None or deep and digits.prec < _DIGITS:
        prec = _DIGITS if deep else 1
        while prec < _DIGITS and p ** (prec + 1) < _LIMB:
            prec += 1
        units = digits.units if digits else {}
        digits = table._digit_tables[p] = _Digits(table, p, prec, units)
    return digits


def _valuations(table: BHTable, p: int, coeffs: tuple, at: slice) -> list:
    """v_p(sum c_r * X_W / W), W = 10 * i for i in at, for X = C and X = D:
    p**-B times an integer sum known mod the least p**P of its terms, whose
    nonzero residue gives the valuation exactly.  A zero rereads the rows
    mod p**_DIGITS; a zero there takes the exact combination."""
    digits = _digits(table, p)
    vals = []
    for x, mods in digits.sides:
        m = min(mods[at])  # 0 if a term has no digits
        s = m and sum(map(mul, coeffs, x[at])) % m
        vals.append(digits.log[gcd(s, m)] if s else None)
    if None not in vals:
        return vals
    if digits.prec < _DIGITS:
        _digits(table, p, deep=True)
        return _valuations(table, p, coeffs, at)
    weights = range(10 * at.start, 10 * at.stop, 10 * at.step)
    for side, v in enumerate(vals):  # p is from a sieve or ap_invariant
        if v is None:
            exact = [table._quotients[w][side] for w in weights]
            vals[side] = _valuation(_combination(coeffs, exact), p)
    return vals


def _kummer(table: BHTable, p: int, depth: int, index: int) -> KummerReport:
    """The check at an admissible (p, depth, index) on weights the table has;
    its sums are built when the report is asked for them (JSON reports)."""
    step = (p - 1) // 10
    at = slice(index, index + depth * step + 1, step)
    c_val, d_val = _valuations(table, p, _kummer_coefficients(p, depth), at)
    weights = tuple(range(10 * index, 10 * at.stop, p - 1))
    passed = c_val >= depth and d_val >= depth
    return KummerReport(p, depth, index, weights, c_val, d_val, passed, table)


def kummer_check(table: BHTable, p: int, depth: int, index: int) -> KummerReport:
    """Check the Kummer-style congruence mod p**depth at base weight 10*index.

    The alternating binomial combination sum_r (-1)**r * C(a, r) *
    A_p**(a-r) * X_W / W over the weights W = 10*n + r*(p-1), r = 0..a,
    must have p-adic valuation at least a, both for X = C and X = D.
    Inadmissible inputs raise: p must be a prime = 1 mod 5 with p - 1 not
    dividing 10*n, and 10*n - 2 >= a.
    """
    _require_main_curve(table, "the Kummer-style congruence")
    if depth < 1 or index < 1:
        raise VerifierDomainError("depth and index must be positive")
    _kummer_coefficients(p, depth)  # validates p
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
    return _kummer(table, p, depth, index)


def kummer_triples(prime_limit: int, max_depth: int, max_weight: int):
    """Yield every (p, depth, index) kummer_check admits within max_weight:
    p over the primes = 1 mod 5 up to prime_limit, then depth over
    1..max_depth, then index n upward while the top weight 10*n +
    depth*(p - 1) stays within max_weight."""
    for p in primes_in_class(prime_limit, PrimeResidueClass(5, 1)):
        for depth in range(1, max_depth + 1):
            for n in range(1, (max_weight - depth * (p - 1)) // 10 + 1):
                if (10 * n) % (p - 1) != 0 and 10 * n - 2 >= depth:
                    yield p, depth, n


def kummer_sweep(table: BHTable, prime_limit: int, max_depth: int) -> list:
    """kummer_check at every kummer_triples(prime_limit, max_depth, top
    weight of table), in that order; the curve and the weights 10, 20, ...,
    top are checked once, not once per triple."""
    _require_main_curve(table, "the Kummer-style congruence")
    top = max(table.rows, default=0)
    _require_weights(table, range(10, top + 1, 10), "kummer_sweep")
    return [_kummer(table, *t) for t in kummer_triples(prime_limit, max_depth, top)]


# -- integrality ----------------------------------------------------------------


class IntegralityRow(NamedTuple):
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


class IntegralityReport(NamedTuple):
    prime_limit: int
    rows: tuple[IntegralityRow, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "format": "bhnum.report.integrality",
            "version": REPORT_VERSION,
            "prime_limit": self.prime_limit,
            "rows": [
                {**r._asdict(), "c_valuation": str(r.c_valuation),
                 "d_valuation": str(r.d_valuation)}
                for r in self.rows
            ],
            "passed": self.passed,
        }


def integrality_scan(table: BHTable, prime_limit: int) -> IntegralityReport:
    """Scan v_p(C_N / N) >= 0 and v_p(D_N / N) >= 0 over the table, at the
    primes p <= prime_limit with p = 1 mod 5 and p - 1 not dividing N, in
    rows sorted by (p, N), off the digit rows Kummer reads."""
    _require_main_curve(table, "the integrality statement")
    if prime_limit < 1:
        raise VerifierDomainError("prime limit must be positive")
    rows = []
    for p in primes_in_class(prime_limit, PrimeResidueClass(5, 1)):
        digits = _digits(table, p)  # gcd(0, 0) = 0 marks an entry without digits
        c_vals, d_vals = (list(map(digits.log.get, map(gcd, *s))) for s in digits.sides)
        for n in table.weights():
            if n % (p - 1):
                c_val, d_val = c_vals[n // 10], d_vals[n // 10]
                if c_val is None or d_val is None:
                    at = slice(n // 10, n // 10 + 1, 1)
                    c_val, d_val = _valuations(table, p, (1,), at)
                ok = c_val >= 0 and d_val >= 0
                rows.append(IntegralityRow(p, n, c_val, d_val, ok))
    return IntegralityReport(prime_limit, tuple(rows), all(r.passed for r in rows))
