from fractions import Fraction
from math import inf

import pytest

from bhnum.numtheory import (
    _int_valuation,
    is_prime,
    padic_valuation,
    primes_below,
    primes_in_class,
)
from helpers import (
    NegativeValuationError,
    oracle_sieve,
    rational_residue,
)


def test_is_prime_small():
    assert is_prime(2)
    assert is_prime(11)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(21)
    assert is_prime(2**31 - 1)


def test_is_prime_matches_sieve():
    marked = set(oracle_sieve(10**5))
    for n in range(10**5 + 1):
        assert is_prime(n) == (n in marked), n


def test_is_prime_refuses_uncertified_range():
    with pytest.raises(ValueError):
        is_prime(1 << 64)
    # the last representable inputs still answer
    assert not is_prime((1 << 64) - 1)


def test_primes_below():
    assert primes_below(1) == []
    assert primes_below(2) == [2]
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_below(10**4) == oracle_sieve(10**4)


def test_primes_in_class():
    assert primes_in_class(50, 5, 1) == [11, 31, 41]
    assert primes_in_class(10, 5, 1) == []
    assert primes_in_class(100, 4, 1) == [
        5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97,
    ]
    assert primes_in_class(30, 1, 0) == primes_below(30)
    with pytest.raises(ValueError):
        primes_in_class(50, 0, 0)
    with pytest.raises(ValueError):
        primes_in_class(50, 5, 5)
    with pytest.raises(ValueError):
        primes_in_class(50, 5, -1)


def test_padic_valuation():
    assert padic_valuation(Fraction(403200, 11), 11) == -1
    assert padic_valuation(250, 5) == 3
    assert padic_valuation(Fraction(3, 4), 7) == 0
    assert padic_valuation(Fraction(3, 4), 2) == -2
    assert padic_valuation(0, 7) == inf
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 6)


def test_int_valuation_refuses_inputs_without_a_finite_valuation():
    # v_p(0) and v_1(n) have no finite value: the division loop would never
    # end, so both raise, as does any p below 2.
    assert _int_valuation(-250, 5) == 3
    assert _int_valuation(7, 2) == 0
    for n, p in ((0, 7), (0, 2), (12, 1), (12, 0), (12, -3)):
        with pytest.raises(ValueError):
            _int_valuation(n, p)


def test_rational_residue():
    assert rational_residue(Fraction(1, 6), 5) == 1
    assert rational_residue(Fraction(3600, 11), 31) == 6
    assert rational_residue(Fraction(1, 6), 5, 2) == 21
    assert rational_residue(7, 5) == 2
    # 21 * 6 = 126 = 1 mod 25, so 1/6 is 21 mod 5**2
    assert Fraction(1, 6) - 21 == Fraction(-125, 6)


def test_rational_residue_rejects_negative_valuation():
    with pytest.raises(NegativeValuationError):
        rational_residue(Fraction(1, 11), 11)
    with pytest.raises(ValueError):
        rational_residue(Fraction(1, 2), 5, 0)
