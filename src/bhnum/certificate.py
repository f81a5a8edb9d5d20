"""The certificate every table is computed under.

certify checks an expansion x(u), y(u) against the curve equation and the
differential du.  Both series live on one residue class mod the weight w:

    x = u**-a * X(v),   y = u**-b * Y(v),   v = u**w,

so the check runs on the v-grids Expansion holds, X_k = [u**(w*k - a)] x
and Y_k = [u**(w*k - b)] y; the w - 1 zero slots between them are not
stored.  Slot k is scaled by (w + 1)**k: X_1 = j / (w + 1) on every curve,
and the factor, mostly kept in the denominators of X_k and Y_k, then
drops out of them.  Each identity is homogeneous slot by slot, so only
the curve's v becomes (w + 1) * v.  Each v-series is a list of integer
numerators over one denominator; a product convolves the numerators and
divides out their content gcd with the denominator once, so the
denominator stays the lcm of the coefficients' own (fraction-free, in
the sense of Bareiss, Math. Comp. 22, 1968).

The grid and its scaling are this module's own code.  It shares nothing
with bhnum.generator's online kernel (_miller, _cross, _extend and the
X_m solve in expand_online): a fault there cannot hide from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .generator import Expansion

__all__ = ["ExpansionError", "certify"]


class ExpansionError(ValueError):
    """An expansion violated a structural invariant."""


def _grid(coeffs, w: int) -> tuple[list[int], int]:
    """coeffs with slot k scaled by (w + 1)**k, as numerators over their
    lcm denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    nums = (c.numerator * (den // c.denominator) for c in coeffs)
    return _reduced([v * (w + 1) ** k for k, v in enumerate(nums)], den)


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with their content gcd divided out."""
    g = gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def _mul(p, q, n: int) -> tuple[list[int], int]:
    """p * q through v**n, reduced by one content gcd.

    When p is q the product is a square, and each cross term f_k * f_l
    (k < l) is formed once and doubled.
    """
    f, den = p
    if p is q:
        nums = []
        for m in range(n + 1):
            h = (m + 1) // 2
            s = 2 * sum(map(mul, f[:h], reversed(f[m - h + 1 : m + 1])))
            nums.append(s + f[h] * f[h] if m % 2 == 0 else s)
        den *= den
    else:
        g, dg = q
        nums = [
            sum(map(mul, f[: m + 1], reversed(g[: m + 1]))) for m in range(n + 1)
        ]
        den *= dg
    return _reduced(nums, den)


def _powers(base, n: int, *exponents: int) -> list:
    """[base**e for e in exponents], e >= 1, through v**n.

    The powers share one memo, so every square and power is formed once:
    with b = 5 and i = 3, x**3 is x**2 * x, and x**2 is the square inside
    x**5 = (x**2)**2 * x.
    """
    memo = {1: base}
    return [_power(memo, e, n) for e in exponents]


def _power(memo: dict, e: int, n: int):
    """memo[1]**e through v**n, read from and stored into memo.

    Not a closure over memo: a closure that calls itself is a reference
    cycle, which keeps every power alive until the cyclic collector runs.
    """
    if e not in memo:
        if e % 2:
            memo[e] = _mul(_power(memo, e - 1, n), memo[1], n)
        else:
            half = _power(memo, e // 2, n)
            memo[e] = _mul(half, half, n)
    return memo[e]


def _combine(*terms) -> tuple[list[int], int]:
    """sum of c * s over (c, s) in terms, as numerators over one denominator."""
    den = lcm(*(d for _, (_, d) in terms))
    total = [0] * len(terms[0][1][0])
    for c, (nums, d) in terms:
        scale = c * (den // d)
        total = [t + scale * v for t, v in zip(total, nums)]
    return total, den


def certify(expansion: Expansion) -> int:
    """Check x(u), y(u) against the curve and the differential du.

    Two identities must vanish through the window their products certify:

        y**a - x**b + 1   (cyclo)   or   y**2 - x**b + x   (minusx)
        a * y**j + sigma**j * x**(i-1) * x'

    The first puts (x, y) on the curve; the second says du is the
    differential x**(i-1) dx / (a * y**j) up to the sign -sigma**j, which
    pins the normalization of u.  Whatever route produced the expansion,
    a failure raises ExpansionError naming the first nonzero slot.
    Returns the last exponent through which both identities were checked.

    On the v-grid, with n the last slot both X and Y know, slot k of the
    residuals is

        Y**a - X**b + v   (cyclo)   or   Y**2 - X**b + v*X   (minusx)

    at u**(w*k - a*b), and, since b*j = a*i + 1 and x**(i-1) * x' =
    (x**i)' / i,

        a * (Y**j)_k + sigma**j * (w*k - a*i) / i * (X**i)_k

    at u**(w*k - a*i - 1).  The slots between lie off the support pattern,
    and the grids have no place to hold them.  On the rescaled grid v reads
    (w + 1) * v and slot k comes out (w + 1)**k times its value; a failure
    reports the value itself.

    Together the identities pin every coefficient through slot n, so no
    expansion but the true one passes both.  If the second
    vanishes, Y**j and hence Y (its leading term is fixed) is what X makes
    it.  Let X be wrong first at slot m >= 1, by e, and Y follow.  Then
    (Y**j)_m moves by -sigma**j * (w*m - a*i) / a * e, so (Y**a)_m moves
    by -(w*m - a*i) / j * e (sigma**a = 1), and (X**b)_m by b * e; the
    v*X term moves only at m + 1.  Since b*j - a*i = 1 the curve residual
    starts at slot m with the coefficient -(w*m + 1) / j * e, which is
    never 0.

    x**b and x**i come off one chain of squares, and so do y**a and y**j
    (see _powers): 4 products on cyclo(2,5) and cyclo(3,4), 6 on
    cyclo(3,5).
    """
    c = expansion.curve
    a, b, w = c.a, c.b, c.weight
    i, j = c.exponent_pair
    n = len(expansion.x) - 1
    big_x, big_y = _grid(expansion.x, w), _grid(expansion.y, w)
    x_b, x_i = _powers(big_x, n, b, i)
    y_a, y_j = _powers(big_y, n, a, j)
    # the curve equation's + 1 (cyclo) or + x (minusx), on the v-grid
    if c.family == "minusx":
        tail = [0] + big_x[0][:n], big_x[1]
    else:
        tail = [0, 1, *[0] * n][: n + 1], 1
    on_curve = _combine((1, y_a), (-1, x_b), (w + 1, tail))
    dx = [(w * k - a * i) * v for k, v in enumerate(x_i[0])], x_i[1] * i
    normalized = _combine((a, y_j), (c.y_leading_sign**j, dx))
    for name, (nums, den), shift in (
        ("curve equation", on_curve, a * b),
        ("differential identity", normalized, a * i + 1),
    ):
        k = next((k for k, v in enumerate(nums) if v), None)
        if k is not None:
            r = Fraction(nums[k], den * (w + 1) ** k)
            # Sizes, not digits: str() of a residual past 4300 digits raises.
            raise ExpansionError(
                f"{expansion.method} expansion of {c} fails the {name} at "
                f"u^{w * k - shift} (residual coefficient: "
                f"{r.numerator.bit_length()}-bit numerator, "
                f"{r.denominator.bit_length()}-bit denominator)"
            )
    return w * (n + 1) - 1 - max(a * b, a * i + 1)
