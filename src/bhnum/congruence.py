"""Congruence verification over the weight-graded number tables.

Three classical-style statements are machine-checked on the table of a
curve of weight w whose y has pole order b, with A_p the curve's prime
invariant:

  * a von Staudt-Clausen analogue: subtracting a computed fractional
    contribution A_p**(N/(p-1)) / p (times 1/(b-1)! mod p on the D side)
    for each prime p <= N + 1 with p = 1 mod w and p - 1 | N leaves an
    integer;
  * a Kummer-style congruence mod p**a between the normalized numbers
    C_N / N at weights in arithmetic progression of step p - 1;
  * the p-integrality of C_N / N and D_N / N at primes p = 1 mod w with
    p - 1 not dividing N.

Every constant is read off the table's curve.  One map, _PROVEN, names the
proven ground: y**2 = x**5 - 1 (w = 10, D-side factor 1/4!) with its A_p,
ap_invariant.  Tables of any other curve are refused rather than checked
with an A_p outside its proven ground.  Congruence of rationals mod p**a
always means: the p-adic valuation of the difference is at least a.  The
tests anchor the decomposition engine on the classical von Staudt-Clausen
statement for Bernoulli numbers.

Each piece of number theory is done once: the quotients C_N / N and
D_N / N once per Residues, the value the Kummer and integrality checks
read in place of the table, A_p once per prime (ap_invariant is cached; a
p it refuses is refused on every call), and the residue rows (_rows) once
per (Residues, p) in a sweep, over the quotients' common denominator L,
mod p**(D + 1 + v_p(L)) for p's deepest check D; _exact values a sum that
is 0 there.  Valuations at a p from the sieve, or
proved prime by the A_p function, skip padic_valuation's primality proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, gcd, inf, isqrt, lcm, prod
from operator import add, mod, mul
from typing import NamedTuple

from .curves import CurveSpec
from .generator import REPORT_VERSION, BHTable, rational_pair
from .numtheory import _int_valuation, is_prime, primes_in_class

__all__ = [
    "MissingWeightError",
    "Residues",
    "VerifierDomainError",
    "ap_invariant",
    "integrality_scan",
    "kummer_check",
    "kummer_sweep",
    "kummer_triples",
    "vsc_decompose",
]


class VerifierDomainError(ValueError):
    """Input outside the proven ground of the statement being checked."""


class MissingWeightError(ValueError):
    """The table lacks weights the check needs; carries them in .weights."""

    def __init__(self, message: str, weights: list[int]):
        super().__init__(message)
        self.weights = weights


def _require_weights(present, top: int, needed: list[int], what: str, *args) -> None:
    missing = sorted(n for n in needed if n not in present)
    if missing:  # what % args names the check, formatted only here
        raise MissingWeightError(
            f"{what % args} needs weights {missing} not present in the table "
            f"(available up to {top})",
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
    return (-1) ** e * comb((p - 1) // 2, e)


# The proven ground: each curve the three statements are proven on, with its
# A_p function, which raises VerifierDomainError unless p is a prime = 1 mod w.
_PROVEN = {CurveSpec.cyclotomic(2, 5): ap_invariant}


def _ap_of(curve: CurveSpec, what: str):
    """The A_p function of curve; a curve off the proven ground is refused."""
    if curve not in _PROVEN:
        raise VerifierDomainError(
            f"{what} is only proven for {', '.join(map(str, _PROVEN))}; "
            f"refusing {curve}"
        )
    return _PROVEN[curve]


# -- shared decomposition engine ----------------------------------------------


def _dividing_primes(n: int, modulus: int, residue: int) -> list[int]:
    """Primes p = residue mod modulus with p - 1 dividing n, ascending: p =
    d + 1 over the divisors d of n, so no sieve up to n + 1 is run."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*small, *(n // d for d in small)})
    return [d + 1 for d in divisors if (d + 1) % modulus == residue and is_prime(d + 1)]


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

    Relevant primes: p <= N + 1, p = 1 mod w, p - 1 | N.  The C-side
    contribution is A_p**(N/(p-1)) / p, the D-side one carries the extra
    factor 1/(b-1)! inverted mod p.  Both remainders must be integers.
    """
    ap_of = _ap_of(table.curve, "the von Staudt-Clausen analogue")
    _require_weights(table.rows, table.order - 2, [weight], "vsc_decompose")
    contributions = []
    for p in _dividing_primes(weight, table.curve.weight, 1):
        e = weight // (p - 1)
        ap = ap_of(p)
        ape = pow(ap, e)
        c_part = Fraction(ape, p)
        d_part = Fraction(pow(factorial(table.curve.b - 1), -1, p) * ape, p)
        contributions.append(VscContribution(p, e, ap, c_part, d_part))
    g_rem, g_ok = _decompose(table.c(weight), [c.c_part for c in contributions])
    h_rem, h_ok = _decompose(table.d(weight), [c.d_part for c in contributions])
    return VscReport(weight, tuple(contributions), g_rem, h_rem, g_ok and h_ok)


# -- Kummer-style congruences --------------------------------------------------


class KummerReport(NamedTuple):
    p: int
    depth: int
    index: int
    weights: tuple[int, ...]
    c_valuation: int | float  # an int, or math.inf when the value is 0
    d_valuation: int | float
    passed: bool

    def sums(self, residues: Residues) -> tuple[Fraction, Fraction]:
        """The exact C- and D-side combinations, off the residues' quotients."""
        ap_of = _ap_of(residues.curve, "the Kummer-style congruence")
        coeffs = _kummer_coefficients(ap_of, self.p, self.depth)
        return tuple(
            _combination(coeffs, [residues.quotients[w][side] for w in self.weights])
            for side in (0, 1)
        )

    def summary_line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (
            f"KUMMER p={self.p} a={self.depth} n={self.index} {flag} "
            f"valC={self.c_valuation} valD={self.d_valuation}"
        )

    def to_json_dict(self, residues: Residues) -> dict:
        c_sum, d_sum = self.sums(residues)
        return {
            "format": "bhnum.report.kummer",
            "version": REPORT_VERSION,
            "p": self.p,
            "depth": self.depth,
            "index": self.index,
            "weights": list(self.weights),
            "c_combination": rational_pair(c_sum),
            "d_combination": rational_pair(d_sum),
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
def _kummer_coefficients(ap_of, p: int, depth: int) -> tuple[int, ...]:
    """(-1)**r * C(a, r) * A_p**(a - r) for r = 0..a; A_p = ap_of(p), which
    validates p."""
    ap = ap_of(p)
    return tuple(
        (-1) ** r * comb(depth, r) * pow(ap, depth - r) for r in range(depth + 1)
    )


class Residues:
    """What the Kummer and integrality checks read of one table: its curve
    and top weight (order - 2), the quotients N -> (C_N / N, D_N / N), in
    ascending N, their numerators nums = A_N = L * X_N / N over their
    common denominator den = L, C then D, each led by a 0 at N = 0, and
    rows, the residue rows _rows fills per prime.  Build one per table
    verified; the table itself holds nothing of this."""

    def __init__(self, table: BHTable):
        self.curve = table.curve
        self.top = table.order - 2
        self.quotients = {n: (c / n, d / n) for n, (c, d) in sorted(table.rows.items())}
        qs = [(Fraction(0),) * 2, *self.quotients.values()]
        self.den = lcm(*(q.denominator for cd in qs for q in cd))
        self.nums = [cd[s].numerator * (self.den // cd[s].denominator)
                     for s in (0, 1) for cd in qs]
        self.rows = {}


def _reduce(nums: list, moduli: list) -> list:
    """[[a % m for a in nums] for m in moduli], down a remainder tree: nums
    mod the product of all the moduli, then of each half, down to each one."""
    nums = list(map(mod, nums, repeat(prod(moduli))))
    if len(moduli) < 2:
        return [nums] * len(moduli)
    h = len(moduli) // 2
    return _reduce(nums, moduli[:h]) + _reduce(nums, moduli[h:])


def _rows(residues: Residues, depths: dict) -> dict:
    """residues.rows, p -> (digits, (C rows, D rows), m, log): the numerators
    A_N of both sides at N // w mod m = p**(digits + v) with v = v_p(L), and
    log: p**j -> j - v.  digits is one past the deepest check asked of p,
    depths[p] (0 for integrality).  What is missing is built in one batch."""
    memo = residues.rows
    todo = {p: d + 1 for p, d in depths.items() if p not in memo or d >= memo[p][0]}
    if not todo:
        return memo
    den, nums = residues.den, residues.nums
    size = len(nums) // 2
    vs = [_int_valuation(den, p) for p in todo]
    moduli = [p ** (k + v) for (p, k), v in zip(todo.items(), vs)]
    for (p, k), v, m, x in zip(todo.items(), vs, moduli, _reduce(nums, moduli)):
        memo[p] = k, (x[:size], x[size:]), m, {p**j: j - v for j in range(k + v)}
    return memo


def _exact(p: int, v: int, coeffs: tuple, nums: list) -> int | float:
    """v_p(sum c_r * A_r) - v, for a check side whose residues sum to 0 mod
    its rows' modulus; p is from the sieve or the A_p function, not proved again."""
    total = sum(map(mul, coeffs, nums))
    return _int_valuation(total, p) - v if total else inf


def _column(residues: Residues, p: int, depth: int, coeffs: tuple, step: int, ns: list) -> list:
    """Per side, v_p(sum c_r * X_W / W) with W = w * (n + r * step) for the
    ascending n in ns, off p's rows for a check of this depth: summed at C
    level over row slices and read off the gcd with the rows' modulus m.  A
    sum that is 0 mod m has valuation past the rows' digits; _exact takes it."""
    _, sides, m, log = _rows(residues, {p: depth})[p]
    lo, hi, v, span = ns[0], ns[-1] + 1, -log[1], step * len(coeffs)  # log[p**0] = -v
    cols = []
    for s, x in enumerate(sides):
        acc = None  # the sum; a coefficient 1 takes no product
        for r, c in enumerate(coeffs):
            row = x[lo + r * step : hi + r * step]
            term = row if c == 1 else map(mul, repeat(c % m), row)
            acc = term if acc is None else map(add, acc, term)
        col = list(map(log.get, map(gcd, acc, repeat(m))))
        at = s * len(x)  # where this side's A_N start in residues.nums
        cols.append([
            _exact(p, v, coeffs, residues.nums[at + n : at + n + span : step])
            if col[n - lo] is None else col[n - lo]
            for n in ns
        ])
    return cols


def _kummer(residues: Residues, ap_of, p: int, depth: int, ns: list) -> list:
    """The checks at (p, depth) on ascending admissible base indices, on
    weights the table has; JSON reports build the sums (KummerReport.sums)."""
    w = residues.curve.weight
    coeffs = _kummer_coefficients(ap_of, p, depth)
    c_vals, d_vals = _column(residues, p, depth, coeffs, (p - 1) // w, ns)
    return [
        KummerReport(p, depth, n, tuple(range(w * n, w * n + depth * (p - 1) + 1, p - 1)),
                     c_val, d_val, c_val >= depth and d_val >= depth)
        for n, c_val, d_val in zip(ns, c_vals, d_vals)
    ]


def kummer_check(residues: Residues, p: int, depth: int, index: int) -> KummerReport:
    """Check the Kummer-style congruence mod p**depth at base weight w*index.

    The alternating binomial combination sum_r (-1)**r * C(a, r) *
    A_p**(a-r) * X_W / W over the weights W = w*n + r*(p-1), r = 0..a,
    must have p-adic valuation at least a, both for X = C and X = D.
    Inadmissible inputs raise: p must be a prime = 1 mod w with p - 1 not
    dividing w*n, and w*n - 2 >= a.
    """
    ap_of = _ap_of(residues.curve, "the Kummer-style congruence")
    if depth < 1 or index < 1:
        raise VerifierDomainError("depth and index must be positive")
    _kummer_coefficients(ap_of, p, depth)  # validates p
    w = residues.curve.weight
    nw = w * index
    if nw % (p - 1) == 0:
        raise VerifierDomainError(
            f"p - 1 = {p - 1} divides {w}n = {nw}; the congruence needs "
            f"p - 1 not dividing {w}n"
        )
    if nw - 2 < depth:
        raise VerifierDomainError(f"{w}n - 2 = {nw - 2} is below depth {depth}")
    weights = [nw + r * (p - 1) for r in range(depth + 1)]
    _require_weights(residues.quotients, residues.top, weights,
                     "kummer_check(p=%s, a=%s, n=%s)", p, depth, index)
    return _kummer(residues, ap_of, p, depth, [index])[0]


def kummer_triples(curve: CurveSpec, prime_limit: int, max_depth: int, max_weight: int):
    """Yield every (p, depth, index) kummer_check admits on curve, of weight
    w, within max_weight: p over the primes = 1 mod w up to prime_limit,
    then depth over 1..max_depth, then index n upward while the top weight
    w*n + depth*(p - 1) stays within max_weight.  So depth*(p - 1) <
    max_weight: primes stop at max_weight + 1, depths at max_weight // (p - 1)."""
    w = curve.weight
    for p in primes_in_class(min(prime_limit, max_weight + 1), w, 1):
        for depth in range(1, min(max_depth, max_weight // (p - 1)) + 1):
            for n in range(1, (max_weight - depth * (p - 1)) // w + 1):
                if (w * n) % (p - 1) != 0 and w * n - 2 >= depth:
                    yield p, depth, n


def kummer_sweep(residues: Residues, prime_limit: int, max_depth: int) -> list:
    """kummer_check at every kummer_triples(residues.curve, prime_limit,
    max_depth, residues.top), in that order; the curve is checked once.
    Each (p, depth) runs as one column, after every prime's rows are built
    in one batch, one digit past its deepest check."""
    ap_of = _ap_of(residues.curve, "the Kummer-style congruence")
    columns = {}
    for p, depth, n in kummer_triples(residues.curve, prime_limit, max_depth, residues.top):
        columns.setdefault((p, depth), []).append(n)
    _rows(residues, dict(columns.keys()))  # p -> its deepest depth, the last key
    return [r for (p, depth), ns in columns.items()
            for r in _kummer(residues, ap_of, p, depth, ns)]


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


def integrality_scan(residues: Residues, prime_limit: int) -> IntegralityReport:
    """Scan v_p(C_N / N) >= 0 and v_p(D_N / N) >= 0 over the table, at the
    primes p <= prime_limit with p = 1 mod w and p - 1 not dividing N, in
    rows sorted by (p, N), off the residue rows Kummer reads."""
    _ap_of(residues.curve, "the integrality statement")
    if prime_limit < 1:
        raise VerifierDomainError("prime limit must be positive")
    w = residues.curve.weight
    weights = list(residues.quotients)
    primes = [p for p in primes_in_class(prime_limit, w, 1)
              if any(n % (p - 1) for n in weights)]
    _rows(residues, dict.fromkeys(primes, 0))
    rows = []
    for p in primes:
        ns = [n for n in weights if n % (p - 1)]
        c_vals, d_vals = _column(residues, p, 0, (1,), 1, [n // w for n in ns])
        for n, c_val, d_val in zip(ns, c_vals, d_vals):
            rows.append(IntegralityRow(p, n, c_val, d_val, c_val >= 0 and d_val >= 0))
    return IntegralityReport(prime_limit, tuple(rows), all(r.passed for r in rows))
