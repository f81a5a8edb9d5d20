"""Integer and rational building blocks: primality, primes in a residue
class, p-adic valuations (of integers, _int_valuation, for a known prime).

Everything here is deterministic and exact.  These routines sit underneath
congruence verification, where a probabilistic primality answer or a float
could silently corrupt a report.  Binomial coefficients and modular
inverses are CPython's own, math.comb and three-argument pow.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, isqrt

__all__ = [
    "is_prime",
    "padic_valuation",
    "primes_below",
    "primes_in_class",
]


# Sufficient witness set for a deterministic Miller-Rabin test of every
# n < 3.3e24, comfortably past the 2**64 bound enforced below.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PRIME_BOUND = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Larger inputs raise rather than fall back to a probabilistic answer.
    """
    if n >= _PRIME_BOUND:
        raise ValueError(f"is_prime is only certified below 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, limit + 1) if sieve[i]]


def primes_in_class(limit: int, modulus: int, residue: int) -> list[int]:
    """Primes p <= limit with p = residue mod modulus, ascending."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= residue < modulus:
        raise ValueError("residue must lie in [0, modulus)")
    return [p for p in primes_below(limit) if p % modulus == residue]


def _int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n and p >= 2; ValueError otherwise, where
    the division loop would never end."""
    if n == 0 or p < 2:
        raise ValueError(f"v_{p}({n}) is not a finite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(q: Fraction | int, p: int) -> int | float:
    """v_p(q) as an int; the zero input returns math.inf.

    p is proved prime on every call, so a composite p raises ValueError.
    The congruence verifiers take p from the sieve, or from an A_p they
    have already validated, and value integer sums with _int_valuation.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return inf
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)
