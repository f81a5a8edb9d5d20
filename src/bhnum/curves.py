"""Curve descriptors and their local expansion data at infinity.

Two families, each with a single point at infinity:

  cyclo   y**a = x**b - 1 with gcd(a, b) = 1, a, b >= 2;  weight w = a*b
  minusx  y**2 = x**(2g+1) - x with g >= 1;               weight w = 4*g

With t the local parameter at infinity, x = t**-a exactly and y =
sigma * t**-b * (1 - t**w)**(1/a) expanded binomially, where sigma = -1
for even a and +1 for odd a (for odd a only the +1 branch exists over the
rationals, so the even-a sign convention cannot be carried over; odd-a
curves are expanded on that branch).
For minusx read a = 2, b = 2g + 1 in these formulas; its weight 4g comes
from (1 - t**(4g))**(1/2) because the extra -x term retunes the binomial
step.

The distinguished exponent pair (i, j) with b*j - a*i = 1 makes
x**(i-1) dx / (a y**j) a differential with neither zero nor pole at
infinity; u(t) is its normalized integral, u = t + higher, and that u is
the variable every expansion of x and y is taken in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

__all__ = [
    "CurveError",
    "CurveSpec",
    "parse_curve",
]


class CurveError(ValueError):
    """Malformed or unsupported curve description."""


@dataclass(frozen=True, slots=True)
class CurveSpec:
    """y**a = x**b - 1 ('cyclo') or y**2 = x**b - x with odd b ('minusx').

    x has pole order a at infinity and y pole order b, for both families
    (minusx stores a = 2, b = 2g + 1).
    """

    family: str
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.family == "cyclo":
            if self.a < 2 or self.b < 2:
                raise CurveError("cyclo exponents must be at least 2")
            if gcd(self.a, self.b) != 1:
                raise CurveError(
                    f"cyclo exponents must be coprime, got a={self.a}, b={self.b}"
                )
        elif self.family == "minusx":
            if self.a != 2:
                raise CurveError("minusx curves are hyperelliptic, a must be 2")
            if self.b < 3 or self.b % 2 == 0:
                raise CurveError("minusx needs b = 2g + 1 with g >= 1")
        else:
            raise CurveError(f"unknown curve family {self.family!r}")

    @classmethod
    def cyclotomic(cls, a: int, b: int) -> "CurveSpec":
        return cls("cyclo", a, b)

    @classmethod
    def minus_x(cls, g: int) -> "CurveSpec":
        if g < 1:
            raise CurveError("minusx genus must be at least 1")
        return cls("minusx", 2, 2 * g + 1)

    @property
    def weight(self) -> int:
        """Step of the coefficient support pattern: a*b, or 4g for minusx."""
        if self.family == "cyclo":
            return self.a * self.b
        return 2 * (self.b - 1)

    @property
    def exponent_pair(self) -> tuple[int, int]:
        """(i, j) of the distinguished differential x**(i-1) dx / (a y**j):
        the unique pair with b*j - a*i = 1 and 1 <= j <= a - 1, which is
        (g, 1) on minusx."""
        j = pow(self.b, -1, self.a)
        return (self.b * j - 1) // self.a, j

    @property
    def y_leading_sign(self) -> int:
        return -1 if self.a % 2 == 0 else 1

    def __str__(self) -> str:
        if self.family == "cyclo":
            return f"cyclo:a={self.a},b={self.b}"
        return f"minusx:g={(self.b - 1) // 2}"


def parse_curve(text: str) -> CurveSpec:
    """Parse 'cyclo:a=2,b=5' or 'minusx:g=1' descriptors.

    Each key appears once, with a decimal integer in ASCII digits.
    """
    head, _, tail = text.strip().partition(":")
    fields = {}
    for part in tail.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise CurveError(f"repeated key {key!r} in curve descriptor {text!r}")
        try:
            if not re.fullmatch("-?[0-9]+", value):
                raise ValueError
            fields[key] = int(value)  # raises past the int digit limit too
        except ValueError:
            raise CurveError(f"cannot parse curve descriptor {text!r}") from None
    if head == "cyclo":
        if sorted(fields) != ["a", "b"]:
            raise CurveError(f"cyclo descriptor needs a= and b=, got {text!r}")
        return CurveSpec.cyclotomic(fields["a"], fields["b"])
    if head == "minusx":
        if sorted(fields) != ["g"]:
            raise CurveError(f"minusx descriptor needs g=, got {text!r}")
        return CurveSpec.minus_x(fields["g"])
    raise CurveError(f"unknown curve family in {text!r}")
