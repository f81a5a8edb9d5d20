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
integer over D_k, the k-th rung of one denominator ladder, so a product
term is only as large as its slots and no gcd is taken.  certify forms
it all slot by slot (_ladder, _slot), one row of cofactors at a time.

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


def _ladder(grids, w: int):
    """Yield m, row m, the rung D_m and slot m of each grid over D_m.

    D_0 = 1, as slot 0 is an integer in both grids (X_0 = 1, Y_0 = sigma),
    and D_m is the lcm of the denominators of slot m of each grid, scaled
    by (w + 1)**m, and of every D_k * D_(m-k).  Row m holds the integer
    cofactors D_m // (D_k * D_(m-k)) for k = 0 .. m // 2, which slot m of a
    product applies to f_k * g_(m-k) and to f_(m-k) * g_k.  It comes from
    the steps E_k = D_k / D_(k-1) alone: over L = D_1 * D_(m-1), c_1 = 1 and
    c_k = c_(k-1) * E_(m-k+1) / E_k, a step that does not divide scales L
    and the row so far, and the slot's own denominators lift L to D_m.
    """
    steps, rung = [], 1  # steps[k] = E_k; rung = D_(m-1)
    for m, slot in enumerate(zip(*grids)):
        slot = [q * (w + 1) ** m for q in slot]
        h = m // 2
        up, row = (steps[1], [1]) if m > 1 else (1, [])  # up = L / D_(m-1)
        for e, s in zip(steps[2 : h + 1], steps[m - 1 : m - h : -1]):
            c, r = divmod(row[-1] * s, e)
            if r:  # e brings in a factor f of its own
                f = e // gcd(e, r)
                up, row, c = up * f, [v * f for v in row], c * f + r * f // e
            row.append(c)
        low = rung * up
        rung = lcm(low, *(q.denominator for q in slot))
        lift = rung // low
        steps.append(up * lift)
        nums = [q.numerator * (rung // q.denominator) for q in slot]
        yield m, [1, *(v * lift for v in row)], rung, nums


def _chain(*exponents: int) -> tuple[list, list]:
    """Empty lists for f**e, each e >= 1, and the products that fill them.

    Each product is a (power, left, right) step, every power formed once
    and after its factors: with b = 5 and i = 3, x**2 = x * x, x**3 =
    x**2 * x, x**4 = x**2 * x**2 and x**5 = x**4 * x.
    """
    need = set()
    for e in exponents:
        while e > 1 and e not in need:
            need.add(e)
            e = e - 1 if e % 2 else e // 2
    powers, steps = {1: []}, []
    for e in sorted(need):
        left, right = (powers[e - 1], powers[1]) if e % 2 else (powers[e // 2],) * 2
        powers[e] = []
        steps.append((powers[e], left, right))
    return [powers[e] for e in exponents], steps


def _slot(p: list[int], q: list[int], row: list[int], m: int) -> int:
    """Slot m of p * q over D_m, from slots 0..m of p and q and row m.

    Terms k and m - k share a cofactor, applied once to their sum; when p
    is q the product is a square, and that sum is one term doubled.
    """
    h = (m + 1) // 2
    terms = map(mul, p[:h], reversed(q[m - h + 1 : m + 1]))
    if p is q:
        s = 2 * sum(map(mul, row, terms))
    else:
        swapped = map(mul, q[:h], reversed(p[m - h + 1 : m + 1]))
        s = sum(map(mul, row, map(add, terms, swapped)))
    return s + row[h] * p[h] * q[h] if m % 2 == 0 else s


def certify(expansion: Expansion) -> int:
    """Check x(u), y(u) against the curve and the differential du.

    Two identities must vanish through the window their products certify:

        y**a - x**b + 1   (cyclo)   or   y**2 - x**b + x   (minusx)
        a * y**j + sigma**j * x**(i-1) * x'

    The first puts (x, y) on the curve; the second says du is the
    differential x**(i-1) dx / (a * y**j) up to the sign -sigma**j, which
    pins the normalization of u.  Whatever route produced the expansion,
    a failure raises ExpansionError naming the first nonzero slot, of the
    curve equation if it fails anywhere, else of the second.  Returns the
    last exponent through which both identities were checked.

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
    expansion but the true one passes both.  If the second vanishes, Y**j
    and hence Y (its leading term is fixed) is what X makes it.  Let X be
    wrong first at slot m >= 1, by e, and Y follow.  Then (Y**j)_m moves
    by -sigma**j * (w*m - a*i) / a * e, so (Y**a)_m moves by
    -(w*m - a*i) / j * e (sigma**a = 1), and (X**b)_m by b * e; the v*X
    term moves only at m + 1.  Since b*j - a*i = 1 the curve residual
    starts at slot m with the coefficient -(w*m + 1) / j * e, which is
    never 0.

    x**b and x**i come off one chain of squares (_chain), as do y**a and
    y**j: 4 products on cyclo(2,5) and cyclo(3,4), 6 on cyclo(3,5).
    """
    c = expansion.curve
    a, b, w = c.a, c.b, c.weight
    i, j = c.exponent_pair
    (big_x, x_b, x_i), chain = _chain(1, b, i)
    (big_y, y_a, y_j), y_chain = _chain(1, a, j)
    chain += y_chain
    # the curve equation's + v*X (minusx) or + v (cyclo): slot m of v * P
    # is slot m - 1 of P, X or 1, lifted from D_(m-1) to D_m
    shifted = big_x if c.family == "minusx" else [1]
    sign, low, failure = c.y_leading_sign**j, 1, None
    for m, row, rung, (x_m, y_m) in _ladder((expansion.x, expansion.y), w):
        big_x.append(x_m)
        big_y.append(y_m)
        for power, p, q in chain:
            power.append(_slot(p, q, row, m))
        tail = shifted[m - 1] * (rung // low) if 0 < m <= len(shifted) else 0
        low = rung
        on_curve = y_a[m] - x_b[m] + (w + 1) * tail
        if on_curve:
            failure = "curve equation", on_curve, rung, m, a * b
            break
        if not failure:
            normalized = a * i * y_j[m] + sign * (w * m - a * i) * x_i[m]
            if normalized:
                failure = "differential identity", normalized, i * rung, m, a * i + 1
    if failure:
        name, value, over, k, shift = failure
        r = Fraction(value, over * (w + 1) ** k)
        # Sizes, not digits: str() of a residual past 4300 digits raises.
        raise ExpansionError(
            f"{expansion.method} expansion of {c} fails the {name} at "
            f"u^{w * k - shift} (residual coefficient: "
            f"{r.numerator.bit_length()}-bit numerator, "
            f"{r.denominator.bit_length()}-bit denominator)"
        )
    return w * len(expansion.x) - 1 - max(a * b, a * i + 1)
