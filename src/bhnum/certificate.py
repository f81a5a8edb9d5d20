"""The certificate every table is computed under.

certify checks an expansion x(u), y(u) against the curve equation and the
differential du.  Both series live on one residue class mod the weight w:

    x = u**-a * X(v),   y = u**-b * Y(v),   v = u**w,

so the check runs on the v-grids Expansion holds, X_k = [u**(w*k - a)] x
and Y_k = [u**(w*k - b)] y; the w - 1 zero slots between them are not
stored.  Slot k is scaled by (w + 1)**k: X_1 = j / (w + 1) on every curve,
and the factor, mostly kept in the denominators of X_k and Y_k, then
drops out of them.  Each identity is homogeneous slot by slot, so only
the curve's v becomes (w + 1) * v.  Slot k of every v-series is an
integer over D_k, the k-th rung of one denominator ladder (_ladder), so
a product term is only as large as its slots and no gcd is taken.

The grid and its scaling are this module's own code.  It shares nothing
with bhnum.generator's online kernel (_miller, _cross, _cofactors,
_append and the X_m solve): a fault there cannot hide from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .generator import Expansion

__all__ = ["ExpansionError", "certify"]


class ExpansionError(ValueError):
    """An expansion violated a structural invariant."""


def _ladder(grids, w: int) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The rungs D_k, the cofactor rows and the grids' numerators.

    D_0 = 1, as slot 0 is an integer in both grids (X_0 = 1, Y_0 = sigma),
    and D_m is the lcm of the denominators of slot m of each grid, scaled
    by (w + 1)**m, and of every D_k * D_(m-k).  Row m holds the integer
    cofactors D_m // (D_k * D_(m-k)) for k = 0 .. m // 2, which slot m of a
    product applies to f_k * g_(m-k) and to f_(m-k) * g_k.
    """
    scaled = [[q * (w + 1) ** k for k, q in enumerate(g)] for g in grids]
    rungs, rows = [1], [[1]]
    for m in range(1, len(scaled[0])):
        top, row = lcm(*(g[m].denominator for g in scaled)), [1]
        for k in range(1, m // 2 + 1):
            p = rungs[k] * rungs[m - k]
            q, r = divmod(top, p)
            if r:  # p brings in a factor f of its own: rescale the row so far
                f = p // gcd(top, p)
                top, row[1:], q = top * f, [v * f for v in row[1:]], top * f // p
            row.append(q)
        rungs.append(top)
        rows.append(row)
    return rungs, rows, [
        [q.numerator * (d // q.denominator) for q, d in zip(g, rungs)] for g in scaled
    ]


def _mul(p: list[int], q: list[int], rows: list[list[int]]) -> list[int]:
    """p * q through the last slot of rows, the ladder's cofactor rows.

    Terms k and m - k share a cofactor, applied once to their sum; when p
    is q the product is a square, and that sum is one term doubled.
    """
    out = []
    for m, row in enumerate(rows):
        h = (m + 1) // 2
        terms = map(mul, p[:h], reversed(q[m - h + 1 : m + 1]))
        if p is q:
            s = 2 * sum(map(mul, row, terms))
        else:
            swapped = map(mul, q[:h], reversed(p[m - h + 1 : m + 1]))
            s = sum(map(mul, row, map(add, terms, swapped)))
        out.append(s + row[h] * p[h] * q[h] if m % 2 == 0 else s)
    return out


def _powers(base, rows, *exponents: int) -> list:
    """[base**e for e in exponents], e >= 1, on the ladder rows (see _mul).

    The powers share one memo, so every square and power is formed once:
    with b = 5 and i = 3, x**3 is x**2 * x, and x**2 is the square inside
    x**5 = (x**2)**2 * x.
    """
    memo = {1: base}
    return [_power(memo, e, rows) for e in exponents]


def _power(memo: dict, e: int, rows):
    """memo[1]**e on the ladder rows, read from and stored into memo.

    Not a closure over memo: a closure that calls itself is a reference
    cycle, which keeps every power alive until the cyclic collector runs.
    """
    if e not in memo:
        if e % 2:
            memo[e] = _mul(_power(memo, e - 1, rows), memo[1], rows)
        else:
            half = _power(memo, e // 2, rows)
            memo[e] = _mul(half, half, rows)
    return memo[e]


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
    and the grids have no place to hold them.  Slot k is an integer over
    D_k (i * D_k in the second), (w + 1)**k times its value, since v reads
    (w + 1) * v on the rescaled grid; a failure reports the value itself.

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
    rungs, rows, (big_x, big_y) = _ladder((expansion.x, expansion.y), w)
    x_b, x_i = _powers(big_x, rows, b, i)
    y_a, y_j = _powers(big_y, rows, a, j)
    # the curve equation's + 1 (cyclo) or + x (minusx), on the v-grid
    if c.family == "minusx":
        tail = [0, *(v * (d // e) for v, d, e in zip(big_x, rungs[1:], rungs))]
    else:
        tail = [0, *rungs[1:2], *[0] * len(rungs)]  # v: D_1 over D_1, at slot 1
    on_curve = [ya - xb + (w + 1) * t for ya, xb, t in zip(y_a, x_b, tail)]
    sign = c.y_leading_sign**j
    normalized = [
        a * i * yj + sign * (w * k - a * i) * xi
        for k, (yj, xi) in enumerate(zip(y_j, x_i))
    ]
    for name, nums, scale, shift in (
        ("curve equation", on_curve, 1, a * b),
        ("differential identity", normalized, i, a * i + 1),
    ):
        k = next((k for k, v in enumerate(nums) if v), None)
        if k is not None:
            r = Fraction(nums[k], scale * rungs[k] * (w + 1) ** k)
            # Sizes, not digits: str() of a residual past 4300 digits raises.
            raise ExpansionError(
                f"{expansion.method} expansion of {c} fails the {name} at "
                f"u^{w * k - shift} (residual coefficient: "
                f"{r.numerator.bit_length()}-bit numerator, "
                f"{r.denominator.bit_length()}-bit denominator)"
            )
    return w * len(rungs) - 1 - max(a * b, a * i + 1)
