"""The reversion route: x(u), y(u) by inverting the Abelian integral.

The test suite's oracle for the online route of bhnum.generator
(acceptance criterion 3 and test_online_matches_reversion).  It runs the
definition: u(t) is the normalized integral of the distinguished
differential, t(u) its compositional inverse, and x = t**-a, y = sigma *
t**-b * (1 - t**w)**(1/a) are pushed through t(u), on dense truncated
Laurent series that store every slot, the zeros off the support pattern
included.  from_dense turns such series into an Expansion's v-grids and
checks that every off-pattern slot is 0; truncseries_certificate, the
oracle of bhnum.certificate, checks an expansion on such series.

A series is stored as (base_exponent, coefficients, trunc_order): the
coefficient of t**(base_exponent + i) sits at index i, and the series is
known exactly modulo O(t**(trunc_order + 1)).  Canonical form strips
leading zero coefficients; the zero series stores no coefficients and sets
base_exponent = trunc_order + 1, so base + len(coefficients) - 1 ==
trunc_order holds for every instance.  That convention makes
base_exponent a valid valuation lower bound even for the zero series.

Truncation bookkeeping is deliberately pessimistic.  Every operation
returns the weakest order it can justify (a product is exact only through
min(trunc_a + val_b, trunc_b + val_a), a derivative loses one order, an
inverse of a series with valuation v loses 2v, and so on), and coeff()
refuses to read past trunc_order.  Exactness is never overstated; when an
algorithm genuinely knows a series to be an exact polynomial it widens the
window explicitly via _padded.

Coefficients are fractions.Fraction throughout.  Floats are rejected.

Products run on an integer-normalized kernel: it clears denominators once
per operand, convolves machine/big integers, and restores a single shared
denominator, so each output coefficient costs one gcd.  Reversion (see
revert) is Newton doubling (Brent and Kung, J. ACM 25, 1978).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from bhnum.curves import CurveError, CurveSpec
from bhnum.generator import Expansion, ExpansionError


class SeriesError(ValueError):
    """A series operation's precondition was violated."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise SeriesError(f"coefficients must be exact rationals, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class TruncSeries:
    base_exponent: int
    coefficients: tuple[Fraction, ...]
    trunc_order: int

    def __post_init__(self) -> None:
        if self.base_exponent + len(self.coefficients) - 1 != self.trunc_order:
            raise SeriesError(
                "inconsistent series: base %d + %d coefficients does not end at "
                "trunc order %d"
                % (self.base_exponent, len(self.coefficients), self.trunc_order)
            )
        if self.coefficients and self.coefficients[0] == 0:
            raise SeriesError("leading stored coefficient must be nonzero")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _make(base: int, coeffs: list[Fraction], trunc: int) -> "TruncSeries":
        """Canonicalize: strip leading zeros, collapse to the zero series."""
        i = 0
        while i < len(coeffs) and coeffs[i] == 0:
            i += 1
        if i == len(coeffs):
            return TruncSeries(trunc + 1, (), trunc)
        return TruncSeries(base + i, tuple(coeffs[i:]), trunc)

    @classmethod
    def zero(cls, trunc_order: int) -> "TruncSeries":
        return cls(trunc_order + 1, (), trunc_order)

    @classmethod
    def monomial(cls, exponent: int, coeff, trunc_order: int) -> "TruncSeries":
        if exponent > trunc_order:
            raise SeriesError("monomial exponent exceeds truncation order")
        c = _as_fraction(coeff)
        if c == 0:
            return cls.zero(trunc_order)
        coeffs = [c] + [_ZERO] * (trunc_order - exponent)
        return cls(exponent, tuple(coeffs), trunc_order)

    @classmethod
    def one(cls, trunc_order: int) -> "TruncSeries":
        return cls.monomial(0, _ONE, trunc_order)

    @classmethod
    def from_terms(cls, terms, trunc_order: int) -> "TruncSeries":
        """Series with the given {exponent: coefficient} terms.

        Every exponent must lie at or below trunc_order; claiming a term
        beyond the exactness window would be a caller bug.
        """
        items = [(e, _as_fraction(c)) for e, c in dict(terms).items() if c != 0]
        if not items:
            return cls.zero(trunc_order)
        hi = max(e for e, _ in items)
        if hi > trunc_order:
            raise SeriesError(f"term at t^{hi} exceeds truncation order {trunc_order}")
        lo = min(e for e, _ in items)
        coeffs = [_ZERO] * (trunc_order - lo + 1)
        for e, c in items:
            coeffs[e - lo] = c
        return cls._make(lo, coeffs, trunc_order)

    # -- accessors ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coefficients

    def coeff(self, exponent: int) -> Fraction:
        """Coefficient of t**exponent.  Reading past trunc_order raises."""
        if exponent > self.trunc_order:
            raise SeriesError(
                f"coefficient at t^{exponent} is beyond truncation order "
                f"{self.trunc_order}"
            )
        if exponent < self.base_exponent:
            return _ZERO
        return self.coefficients[exponent - self.base_exponent]

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        base = self.base_exponent
        return [(base + i, c) for i, c in enumerate(self.coefficients) if c]

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms())

    def first_difference(
        self, other: "TruncSeries", order: int | None = None
    ) -> int | None:
        """Lowest exponent at which the two series differ, or None.

        Only exponents through min of the truncation windows (and through
        order, if given) are compared.
        """
        bound = min(self.trunc_order, other.trunc_order)
        if order is not None:
            bound = min(bound, order)
        lo = min(self.base_exponent, other.base_exponent)
        for e in range(lo, bound + 1):
            if self.coeff(e) != other.coeff(e):
                return e
        return None

    def agrees_through(self, other: "TruncSeries", order: int | None = None) -> bool:
        """Coefficient-wise equality through min of the truncation windows."""
        return self.first_difference(other, order) is None

    # -- ring operations ------------------------------------------------

    def __neg__(self) -> "TruncSeries":
        return self.scale(-1)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            other = TruncSeries.monomial(0, other, self.trunc_order)
        trunc = min(self.trunc_order, other.trunc_order)
        lo = min(self.base_exponent, other.base_exponent)
        if lo > trunc:
            return TruncSeries.zero(trunc)
        coeffs = [_ZERO] * (trunc - lo + 1)
        for s in (self, other):
            for i, c in enumerate(s.coefficients):
                e = s.base_exponent + i
                if e > trunc:
                    break
                if c:
                    coeffs[e - lo] += c
        return TruncSeries._make(lo, coeffs, trunc)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other)

    def __rsub__(self, other) -> "TruncSeries":
        return (-self) + other

    def scale(self, c) -> "TruncSeries":
        c = _as_fraction(c)
        if c == 0 or self.is_zero():
            return TruncSeries.zero(self.trunc_order)
        return TruncSeries(
            self.base_exponent,
            tuple(c * x for x in self.coefficients),
            self.trunc_order,
        )

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            return self._mul(other)
        return self.scale(other)

    __rmul__ = scale

    def _mul(self, other: "TruncSeries", cap: int | None = None) -> "TruncSeries":
        # Exact through min(trunc_a + val_b, trunc_b + val_a); the unknown
        # tail of each factor shifts by the other's valuation.
        trunc = min(
            self.trunc_order + other.base_exponent,
            other.trunc_order + self.base_exponent,
        )
        if cap is not None:
            trunc = min(trunc, cap)
        if self.is_zero() or other.is_zero():
            return TruncSeries.zero(trunc)
        base = self.base_exponent + other.base_exponent
        if base > trunc:
            return TruncSeries.zero(trunc)
        return TruncSeries._make(base, _mul_int(self, other, base, trunc), trunc)

    def power(self, n: int, cap: int | None = None) -> "TruncSeries":
        """self**n by binary powering; negative n inverts first."""
        if n < 0:
            return self.invert().power(-n, cap=cap)
        if n == 0:
            return TruncSeries.one(self.trunc_order if cap is None else cap)
        result = None
        square = self
        while True:
            if n & 1:
                result = square if result is None else result._mul(square, cap=cap)
            n >>= 1
            if not n:
                return result
            square = square._mul(square, cap=cap)

    # -- shifts and reshaping --------------------------------------------

    def shift(self, d: int) -> "TruncSeries":
        """Multiply by t**d."""
        return TruncSeries(
            self.base_exponent + d, self.coefficients, self.trunc_order + d
        )

    def truncate(self, new_trunc: int) -> "TruncSeries":
        """Forget coefficients above new_trunc."""
        if new_trunc >= self.trunc_order:
            return self
        if new_trunc < self.base_exponent:
            return TruncSeries.zero(new_trunc)
        keep = new_trunc - self.base_exponent + 1
        return TruncSeries._make(
            self.base_exponent, list(self.coefficients[:keep]), new_trunc
        )

    def _padded(self, new_trunc: int) -> "TruncSeries":
        """Widen the exactness window by appending zero coefficients.

        Only valid when the caller knows the series is an exact polynomial
        (e.g. a Newton iterate treated as such); this is the one deliberate
        escape hatch from pessimistic bookkeeping.
        """
        if new_trunc <= self.trunc_order:
            return self
        if self.is_zero():
            return TruncSeries.zero(new_trunc)
        pad = (_ZERO,) * (new_trunc - self.trunc_order)
        return TruncSeries(
            self.base_exponent, self.coefficients + pad, new_trunc
        )

    # -- calculus ---------------------------------------------------------

    def derive(self) -> "TruncSeries":
        """Termwise derivative; exact one order less than the input."""
        trunc = self.trunc_order - 1
        if self.is_zero():
            return TruncSeries.zero(trunc)
        base = self.base_exponent
        coeffs = [(base + i) * c for i, c in enumerate(self.coefficients)]
        return TruncSeries._make(base - 1, coeffs, trunc)

    def integrate(self) -> "TruncSeries":
        """Termwise antiderivative with zero constant term.

        A nonzero coefficient on t**-1 has no Laurent antiderivative and
        raises.
        """
        if self.base_exponent <= -1 <= self.trunc_order and self.coeff(-1) != 0:
            raise SeriesError("series has a t^-1 term; no Laurent antiderivative")
        trunc = self.trunc_order + 1
        if self.is_zero():
            return TruncSeries.zero(trunc)
        base = self.base_exponent
        coeffs = [
            c / (base + i + 1) if base + i != -1 else _ZERO
            for i, c in enumerate(self.coefficients)
        ]
        return TruncSeries._make(base + 1, coeffs, trunc)

    # -- inversion and composition ----------------------------------------

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse, exact through trunc_order - 2*valuation.

        Newton iteration x <- x*(2 - U*x) on the normalized unit part U;
        each iterate is treated as the exact polynomial it is, so the
        quadratic convergence is legitimate rather than a bookkeeping leak.
        """
        if self.is_zero():
            raise SeriesError("cannot invert the zero series")
        v = self.base_exponent
        c0 = self.coefficients[0]
        unit = self.shift(-v).scale(1 / c0)
        n = unit.trunc_order
        inv = TruncSeries.one(0)
        m = 0
        while m < n:
            m = min(2 * m + 1, n)
            x = inv._padded(m)
            prod = unit.truncate(m)._mul(x, cap=m)
            inv = x._mul(2 - prod, cap=m)
        return inv.shift(-v).scale(1 / c0)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(t)), for inner with positive valuation.

        A Laurent self (negative base exponent) additionally requires
        inner to have valuation exactly 1, since composing t**-k with a
        higher-valuation series would leave the result's low-order window
        unknowable.  The walk over self's support reuses incremental gap
        powers of inner, so sparse outer series cost proportionally less.
        """
        if inner.is_zero():
            raise SeriesError("composition inner series must have a leading term")
        d = inner.base_exponent
        if d < 1:
            raise SeriesError("composition inner series must vanish at t=0")
        if self.base_exponent < 0 and d != 1:
            raise SeriesError(
                "Laurent composition requires an inner series of valuation 1"
            )
        support = self.terms()
        nonconst = [e for e, _ in support if e != 0]
        # Error sources: self's own tail enters at d*(trunc_self+1); inner's
        # tail first pollutes the k-th power at trunc_inner + d*(k-1).
        trunc = d * (self.trunc_order + 1) - 1
        if nonconst:
            trunc = min(trunc, inner.trunc_order + d * (min(nonconst) - 1))
        acc = TruncSeries.zero(trunc)
        gap_powers: dict[int, TruncSeries] = {}

        def gap_power(k: int) -> TruncSeries:
            if k not in gap_powers:
                gap_powers[k] = inner.power(k, cap=trunc)
            return gap_powers[k]

        cur = None
        cur_exp = 0
        for e, c in support:
            if e == 0:
                acc = acc + TruncSeries.monomial(0, c, trunc)
                continue
            if cur is None:
                cur = gap_power(e)
            else:
                cur = cur._mul(gap_power(e - cur_exp), cap=trunc)
            cur_exp = e
            acc = acc + cur.scale(c)
        return acc


# -- multiplication kernel -------------------------------------------------


def _integer_terms(s: TruncSeries) -> tuple[list[tuple[int, int]], int]:
    """s's nonzero terms as (exponent, integer numerator) over one denominator."""
    den = lcm(*(c.denominator for c in s.coefficients), 1)
    terms = [
        (s.base_exponent + i, c.numerator * (den // c.denominator))
        for i, c in enumerate(s.coefficients)
        if c
    ]
    return terms, den


def _mul_int(a: TruncSeries, b: TruncSeries, base: int, trunc: int):
    # Clear denominators once per operand, convolve plain integers, then
    # restore a single shared denominator.  Fraction construction at the end
    # performs the only gcd per output coefficient.
    za, den_a = _integer_terms(a)
    acc = [0] * (trunc - base + 1)
    if a is b:
        # A square: each cross term c_k * c_l (k < l) is formed once and
        # doubled, which halves the big-integer products.
        for n, (ea, ca) in enumerate(za):
            lim = trunc - ea
            for eb, cb in za[n + 1 :]:
                if eb > lim:
                    break
                acc[ea + eb - base] += ca * cb
        acc = [2 * v for v in acc]
        for ea, ca in za:
            if 2 * ea > trunc:
                break
            acc[2 * ea - base] += ca * ca
        den_b = den_a
    else:
        zb, den_b = _integer_terms(b)
        if len(za) > len(zb):
            za, zb = zb, za
        for ea, ca in za:
            lim = trunc - ea
            for eb, cb in zb:
                if eb > lim:
                    break
                acc[ea + eb - base] += ca * cb
    den = den_a * den_b
    return [Fraction(v, den) if v else _ZERO for v in acc]


def binomial_series(m: int, alpha, order: int) -> TruncSeries:
    """(1 - t**m)**alpha as a truncated series, exact through t**order."""
    if m < 1:
        raise SeriesError("binomial series exponent step must be positive")
    if order < 0:
        raise SeriesError("truncation order must be non-negative")
    alpha = _as_fraction(alpha)
    terms = {0: _ONE}
    term = _ONE
    k = 0
    while (k + 1) * m <= order:
        k += 1
        term *= Fraction(k - 1, k) - alpha / k
        terms[k * m] = term
    return TruncSeries.from_terms(terms, order)


# -- reversion ----------------------------------------------------------------


def revert(s: TruncSeries) -> TruncSeries:
    """Compositional inverse g with s(g(t)) = t, exact as deep as s itself.

    Requires s = t + higher-order terms with leading coefficient exactly 1.
    Runs the Newton doubling iteration g <- g - g'*(s(g) - t), treating
    each iterate as the exact polynomial it is.
    """
    if s.is_zero() or s.base_exponent != 1 or s.coefficients[0] != 1:
        raise SeriesError("reversion requires a series t + O(t^2)")
    n_max = s.trunc_order
    g = TruncSeries.monomial(1, 1, 1)
    m = 1
    while m < n_max:
        m = min(2 * m, n_max)
        gh = g._padded(m)
        err = s.truncate(m).compose(gh) - TruncSeries.monomial(1, 1, m)
        g = (gh - gh.derive()._mul(err, cap=m)).truncate(m)
    return g


# -- the route -------------------------------------------------------------------


def xy_of_t(curve: CurveSpec, order: int) -> tuple[TruncSeries, TruncSeries]:
    """(x(t), y(t)) at infinity, each exact through t**order."""
    x = TruncSeries.monomial(-curve.a, 1, order)
    y = (
        binomial_series(curve.weight, Fraction(1, curve.a), order + curve.b)
        .shift(-curve.b)
        .scale(curve.y_leading_sign)
    )
    return x, y


def differential_pullback(curve: CurveSpec, order: int) -> TruncSeries:
    """The distinguished differential written in t, as a series in t.

    Computed honestly from the x(t), y(t) expansions as
    x**(i-1) * dx/dt / (a * y**j); no closed form is assumed.  The result
    has valuation 0 and leading coefficient sigma = -y_leading_sign**j
    (+1 on even-a curves with odd j); u_series() integrates the
    sigma-normalized version.
    """
    i, j = curve.exponent_pair
    slack = 2 * (curve.a + curve.b * j) + 2
    x, y = xy_of_t(curve, order + slack)
    numer = x.power(i - 1) * x.derive()
    pulled = numer * y.power(j).invert() * Fraction(1, curve.a)
    return pulled.truncate(order)


def u_series(curve: CurveSpec, order: int) -> TruncSeries:
    """The normalized integral u(t) = t + higher, exact through t**order.

    u is the integral of (1 - t**w)**(-j/a) dt, the sign-normalized
    pullback of the distinguished differential.
    """
    if order < 1:
        raise CurveError("u series needs order at least 1")
    _, j = curve.exponent_pair
    integrand = binomial_series(curve.weight, Fraction(-j, curve.a), order - 1)
    return integrand.integrate()


def from_dense(curve, x, y, method, order) -> Expansion:
    """The Expansion of dense x(u), y(u), with the grids their windows cover.

    Every term of x must sit on u**(w*k - a) and every term of y on
    u**(w*k - b); one off that pattern raises ExpansionError naming its
    exponent.
    """
    a, b, w = curve.a, curve.b, curve.weight
    n = min((x.trunc_order + a + 1) // w, (y.trunc_order + b + 1) // w) - 1
    grids = []
    for name, s, pole in (("x", x, a), ("y", y, b)):
        for e, _ in s.terms():
            if (e + pole) % w:
                raise ExpansionError(
                    f"{name} series has a term at u^{e}, breaking the "
                    f"support pattern {-pole} mod {w}"
                )
        grids.append(tuple(s.coeff(w * k - pole) for k in range(n + 1)))
    return Expansion(curve, *grids, method, order)


def as_series(expansion) -> tuple[TruncSeries, TruncSeries]:
    """x(u), y(u) of an expansion as dense series over their windows."""
    c, w = expansion.curve, expansion.curve.weight
    top = w * len(expansion.x) - 1
    return tuple(
        TruncSeries.from_terms(
            {w * k - pole: q for k, q in enumerate(grid)}, top - pole
        )
        for grid, pole in ((expansion.x, c.a), (expansion.y, c.b))
    )


def expand_by_reversion(curve: CurveSpec, order: int) -> Expansion:
    """Expand x(u), y(u) by inverting the Abelian integral directly.

    The expansion reaches the grid window expand_online covers for the
    same order: x through u**(w*(n+1) - 1 - a), y through
    u**(w*(n+1) - 1 - b).
    """
    if order < 1:
        raise ExpansionError("expansion order must be at least 1")
    a, b, w = curve.a, curve.b, curve.weight
    top = w * -(-(order + 1 + max(a, b)) // w) - 1
    t_of_u = revert(u_series(curve, top + 1))
    t_inv = t_of_u.invert()
    x = t_inv.power(a)
    unit = binomial_series(w, Fraction(1, a), top).compose(t_of_u)
    y = (t_inv.power(b) * unit).scale(curve.y_leading_sign)
    return from_dense(curve, x, y, "reversion", order)


def truncseries_certificate(expansion):
    """The curve-equation and differential certificate on dense TruncSeries.

    This is the certificate as it ran before it moved to the v-grid, on
    series that store every slot, the zeros off the support pattern
    included, with each power from TruncSeries.power.  Returns ("window",
    last checked exponent) when both identities vanish, and otherwise
    (identity, exponent of the first nonzero slot, numerator bits,
    denominator bits) of the first identity that fails.
    """
    c = expansion.curve
    x, y = as_series(expansion)
    i, j = c.exponent_pair
    on_curve = y.power(c.a) - x.power(c.b)
    if c.family == "minusx":
        on_curve = on_curve + x
    elif on_curve.trunc_order >= 0:  # else the +1 sits above the window
        on_curve = on_curve + 1
    dx = x.power(i).derive().scale(Fraction(c.y_leading_sign**j, i))
    normalized = y.power(j).scale(c.a) + dx
    for name, residual in (
        ("curve equation", on_curve),
        ("differential identity", normalized),
    ):
        if not residual.is_zero():
            e = residual.base_exponent
            r = residual.coeff(e)
            return name, e, r.numerator.bit_length(), r.denominator.bit_length()
    return "window", min(on_curve.trunc_order, normalized.trunc_order)
