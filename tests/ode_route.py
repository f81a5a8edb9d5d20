"""The ODE route: a second expansion of x(u), y(u) for hyperelliptic curves.

The test suite compares it with the online route of bhnum.generator and
the reversion route of tests/reversion_route.py (acceptance criterion 3,
test_methods_agree).  It never builds t(u): it solves the first-order
equation the curve forces on x(u) directly, on a kernel of its own:
Fraction coefficients over one shared denominator per series (_Coeffs),
J.C.P. Miller's power recurrence (_miller, _power) and a convolution
(_conv).  It takes none of these from bhnum.generator, so the online
route's kernel cannot hide a fault from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from bhnum.curves import CurveSpec
from bhnum.generator import Expansion, ExpansionError, certify

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Coeffs:
    """Series coefficients c_k = nums[k] / den over one shared denominator.

    append grows den by d // gcd(den, d) when a coefficient's denominator d
    brings in a new factor, and rescales the stored numerators then, so den
    stays the lcm of the denominators seen.
    """

    def __init__(self, coeffs=()) -> None:
        self.nums: list[int] = []
        self.den = 1
        for c in coeffs:
            self.append(c)

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return (Fraction(v, self.den) for v in self.nums)

    def append(self, c: Fraction) -> None:
        d = c.denominator
        scale = d // gcd(self.den, d)
        if scale > 1:
            self.den *= scale
            self.nums = [v * scale for v in self.nums]
        self.nums.append(c.numerator * (self.den // d))


def _miller(f: _Coeffs, p: _Coeffs, alpha: Fraction) -> Fraction:
    """Next coefficient of f**alpha by J.C.P. Miller's power recurrence.

    With p holding the first m coefficients of f**alpha and f at least m
    coefficients of f (f_m read as 0 when missing), returns

        P_m = sum_{k=1..m} ((alpha + 1) * k - m) * f_k * P_{m-k} / (m * f_0).
    """
    m = len(p)
    num, den = alpha.numerator, alpha.denominator
    step, lead = num + den, den * m
    total = sum(
        (step * k - lead) * fk * pk
        for k, fk, pk in zip(range(1, m + 1), f.nums[1 : m + 1], reversed(p.nums))
    )
    return Fraction(total, lead * f.nums[0] * p.den)


def _power(f: _Coeffs, alpha: Fraction) -> _Coeffs:
    """All the coefficients of f**alpha that f determines, for f_0 = 1."""
    p = _Coeffs([_ONE])
    while len(p) < len(f):
        p.append(_miller(f, p, alpha))
    return p


def _conv(f: _Coeffs, g: _Coeffs, m: int, lo: int = 0) -> Fraction:
    """[f*g]_m as a Fraction, from the terms f_k * g_{m-k} with lo <= k <= m - lo."""
    hi = m + 1 - lo
    total = sum(map(mul, f.nums[lo:hi], reversed(g.nums[lo:hi])))
    return Fraction(total, f.den * g.den)


def expand_by_ode(curve: CurveSpec, order: int) -> Expansion:
    """Expand x(u), y(u) through the first-order ODE the curve imposes.

    Writing A for x(u) and g for the genus, the curve forces

        A**(2g-2) * A'**2 = 4 * A**(2g+1) - 4 * c,   c = 1 (cyclo), A (minusx).

    With A = u**-2 * alpha(v), v = u**w and alpha_0 = 1 this reads, in the
    coefficients of v,

        R * delta**2 = 4 * P - 4 * v * C,   R = alpha**(2g-2), P = alpha**(2g+1),

    where delta_k = (w*k - 2) * alpha_k and C = 1 (cyclo) or alpha
    (minusx).  alpha_m enters slot m only through R_m, P_m and
    [delta**2]_m, with the total response -4 * (w*m + 1), so alpha_m =
    rho_m / (4 * (w*m + 1)) where rho_m is slot m evaluated with alpha_m
    = 0; R_m and P_m are Miller steps (see _miller).  Then y = A**(g-1) *
    A' / 2 = u**-b * alpha**(g-1) * delta / 2.  The route never builds
    t(u), keeps the window of expand_online, and ends in certify.
    """
    if curve.a != 2:
        raise ValueError(
            f"the ODE route needs a hyperelliptic model (a = 2), got {curve}"
        )
    if order < 1:
        raise ExpansionError("expansion order must be at least 1")
    g, b, w = (curve.b - 1) // 2, curve.b, curve.weight
    n = -(-(order + 1 + b) // w) - 1
    r_power, p_power = Fraction(2 * g - 2), Fraction(2 * g + 1)
    alpha, r, p = (_Coeffs([_ONE]) for _ in range(3))
    delta, d2 = _Coeffs([Fraction(-2)]), _Coeffs([Fraction(4)])
    c_last = _ONE  # C_{m-1}: C = alpha (minusx) or 1 (cyclo)
    for m in range(1, n + 1):
        # Evaluate slot m with alpha_m = 0 (alpha still stops at m - 1),
        # solve, then add alpha_m's share back: a Miller step of f**k is
        # linear in f_m with slope k, and delta_0 = -2, r_0 = 1, d2_0 = 4.
        r_m = _miller(alpha, r, r_power)
        p_m = _miller(alpha, p, p_power)
        d2_m = _conv(delta, delta, m, 1)
        rho = 4 * r_m + d2_m + _conv(r, d2, m, 1) - 4 * p_m + 4 * c_last
        alpha_m = rho / (4 * (w * m + 1))
        delta_m = (w * m - 2) * alpha_m
        alpha.append(alpha_m)
        delta.append(delta_m)
        r.append(r_m + r_power * alpha_m)
        p.append(p_m + p_power * alpha_m)
        d2.append(d2_m - 4 * delta_m)
        c_last = alpha_m if curve.family == "minusx" else _ZERO
    lift = _power(alpha, Fraction(g - 1))
    y = tuple(_conv(lift, delta, m) / 2 for m in range(n + 1))
    expansion = Expansion(curve, tuple(alpha), y, "ode", order)
    certify(expansion)
    return expansion
