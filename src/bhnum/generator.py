"""Laurent expansions of x(u), y(u) and the number tables read off them.

x(u) and y(u) are the functional inverses attached to a curve: u(t) is the
normalized Abelian integral from curves.u_series, t(u) its compositional
inverse, and x, y are the local expansions x = t**-a, y = sigma * t**-b *
(1 - t**w)**(1/a) pushed through t(u).  Their Laurent coefficients carry
the generalized Bernoulli-Hurwitz numbers:

    C_N = N * (N - a)! * [u**(N - a)] x(u)
    D_N = N * (N - b)! * [u**(N - b)] y(u)

for N a positive multiple of the weight w.  The (N - a)! here is the
factorial matching the actual Laurent slot of weight N; see
extract_numbers.

Three expansion routes are provided.  expand_online is the production
route: t(u) solves t' = (1 - t**w)**(j/a), and writing t = u * tau(u**w)
turns that into power recurrences (J.C.P. Miller's, see _miller) that
produce tau, and from it x and y, one coefficient at a time, with the
sparse support built in.  expand_by_reversion runs the definition above,
inverting u(t) and composing; it is the test oracle and the route behind
hurwitz().  expand_by_ode never touches t: for hyperelliptic models
(a = 2) the curve equation forces

    A' ** 2 = 4 * (A**(2g+1) - c)        c = 1 (cyclo) or A (minusx)

on A = x(u) up to the factor A**(2g-2), and the coefficients of A solve a
linear recurrence degree by degree.

expand_checked, the route every table is computed by, certifies the online
expansion against the curve equation and the differential du (see
certify) and, for a = 2, requires coefficient-for-coefficient agreement
with the ODE route.

Coefficient support is sparse: x lives on exponents congruent to -a mod w
and y on -b mod w.  That symmetry is asserted on every expansion, never
assumed by the arithmetic.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path

from .curves import CurveSpec, parse_curve, u_series, xy_of_t
from .series import TruncSeries, binomial_series, conv_coeff, revert

__all__ = [
    "BHTable",
    "CacheError",
    "CrossCheckError",
    "Expansion",
    "ExpansionError",
    "UnsupportedMethodError",
    "bernoulli",
    "certify",
    "expand_by_ode",
    "expand_by_reversion",
    "expand_checked",
    "expand_online",
    "extract_numbers",
    "hurwitz",
]

TABLE_FORMAT = "bhnum.table"
TABLE_VERSION = 1

_ONE = Fraction(1)


class ExpansionError(ValueError):
    """An expansion violated a structural invariant."""


class UnsupportedMethodError(ValueError):
    """The requested expansion method does not apply to this curve."""


class CrossCheckError(RuntimeError):
    """Two independent computation routes disagreed."""


class CacheError(ValueError):
    """A table file is malformed or from an incompatible writer."""


@dataclass(frozen=True, slots=True)
class Expansion:
    """x(u), y(u) for a curve, each exact at least through u**order.

    Construction re-checks the leading terms and the support pattern, so a
    tampered or buggy expansion cannot flow further.
    """

    curve: CurveSpec
    x_series: TruncSeries
    y_series: TruncSeries
    method: str
    order: int

    def __post_init__(self) -> None:
        c = self.curve
        w = c.weight
        for name, s, pole, lead in (
            ("x", self.x_series, c.a, Fraction(1)),
            ("y", self.y_series, c.b, Fraction(c.y_leading_sign)),
        ):
            if s.trunc_order < self.order:
                raise ExpansionError(
                    f"{name} series is only exact through u^{s.trunc_order}, "
                    f"claimed order {self.order}"
                )
            if s.base_exponent != -pole or s.coeff(-pole) != lead:
                raise ExpansionError(
                    f"{name} series must start with {lead} * u^{-pole}"
                )
            for e, _ in s.terms():
                if (e + pole) % w != 0:
                    raise ExpansionError(
                        f"{name} series has a term at u^{e}, breaking the "
                        f"support pattern {-pole} mod {w}"
                    )


def expand_by_reversion(curve: CurveSpec, order: int) -> Expansion:
    """Expand x(u), y(u) by inverting the Abelian integral directly."""
    if order < 1:
        raise ExpansionError("expansion order must be at least 1")
    a, b, w = curve.a, curve.b, curve.weight
    depth = order + max(a, b) + 1
    t_of_u = revert(u_series(curve, depth))
    t_inv = t_of_u.invert()
    x = t_inv.power(a).truncate(order)
    unit = binomial_series(w, Fraction(1, a), order + b).compose(t_of_u)
    y = (t_inv.power(b) * unit).scale(curve.y_leading_sign).truncate(order)
    return Expansion(curve, x, y, "reversion", order)


def _miller(f: list[Fraction], p: list[Fraction], alpha: Fraction) -> Fraction:
    """Next coefficient of f**alpha by J.C.P. Miller's power recurrence.

    With p holding the first m coefficients of f**alpha and f at least
    m + 1 coefficients of f, returns

        P_m = sum_{k=1..m} ((alpha + 1) * k - m) * f_k * P_{m-k} / (m * f_0).

    (Knuth, TAOCP vol. 2, 4.7.)  The recurrence is what f * (f**alpha)' =
    alpha * f' * f**alpha says degree by degree, so P_m needs no
    coefficient of f beyond f_m; that is what lets callers feed f online.
    """
    m = len(p)
    num, den = alpha.numerator, alpha.denominator
    total = sum(
        ((num + den) * k - den * m) * f[k] * p[m - k]
        for k in range(1, m + 1)
        if f[k]
    )
    return total / (den * m * f[0])


def _power(f: list[Fraction], alpha: Fraction) -> list[Fraction]:
    """All the coefficients of f**alpha that f determines, for f_0 = 1."""
    p = [_ONE]
    while len(p) < len(f):
        p.append(_miller(f, p, alpha))
    return p


def expand_online(curve: CurveSpec, order: int) -> Expansion:
    """Expand x(u), y(u) by solving t' = (1 - t**w)**(j/a) online.

    du = (1 - t**w)**(-j/a) dt defines u, so t(u) solves that ODE with
    t = u + O(u**2).  Writing t = u * tau(v) with v = u**w gives, in the
    coefficients of v,

        T = tau**w,   Q = 1 - v*T,   P = Q**(j/a),   (1 + w*m) * tau_m = P_m,

    where T_{m-1} and then P_m are Miller steps on coefficients already
    known, Q_m = -T_{m-1} and tau_m = P_m / (1 + w*m).  So tau comes out
    one coefficient at a time, with no series inversion or composition.
    Then x = u**-a * tau**-a and y = sigma * u**-b * tau**-b * Q**(1/a).
    With tau known through v**n, x is exact through u**(-a + w*(n+1) - 1)
    and y through u**(-b + w*(n+1) - 1); n is the least that covers order,
    and the series keep that whole window.
    """
    if order < 1:
        raise ExpansionError("expansion order must be at least 1")
    a, b, w = curve.a, curve.b, curve.weight
    _, j = curve.exponent_pair
    n = -(-(order + 1 + max(a, b)) // w) - 1
    t_power, q_power = Fraction(w), Fraction(j, a)
    tau, big_t, q, p = [_ONE], [_ONE], [_ONE], [_ONE]
    for m in range(1, n + 1):
        if m > 1:
            big_t.append(_miller(tau, big_t, t_power))
        q.append(-big_t[m - 1])
        p.append(_miller(q, p, q_power))
        tau.append(p[m] / (1 + w * m))
    x_v = _power(tau, Fraction(-a))
    tau_b = _power(tau, Fraction(-b))
    q_root = _power(q, Fraction(1, a))
    y_v = [
        sum(tau_b[k] * q_root[m - k] for k in range(m + 1)) for m in range(n + 1)
    ]
    top = w * (n + 1) - 1
    x = TruncSeries.from_terms({w * k - a: c for k, c in enumerate(x_v)}, top - a)
    y = TruncSeries.from_terms({w * k - b: c for k, c in enumerate(y_v)}, top - b)
    return Expansion(curve, x, y.scale(curve.y_leading_sign), "online", order)


def expand_by_ode(curve: CurveSpec, order: int) -> Expansion:
    """Expand x(u), y(u) through the first-order ODE the curve imposes.

    Writing A for x(u) and g for the genus, A**(2g-2) * A'**2 -
    4*A**(2g+1) + 4*c vanishes identically (c = 1 for cyclo, c = A for
    minusx).  Each unknown coefficient of A enters the residual linearly
    at one degree, with a computed (never assumed) linear response; a
    vanishing response raises ExpansionError, since the route never
    borrows a coefficient from another route.  The final residual is
    checked to vanish through the full provable window.
    """
    if curve.a != 2:
        raise UnsupportedMethodError(
            "the ODE route needs a hyperelliptic model (a = 2), got "
            f"{curve}"
        )
    if order < 1:
        raise ExpansionError("expansion order must be at least 1")
    g = curve.genus_if_hyperelliptic
    w = curve.weight
    is_minusx = curve.family == "minusx"
    depth = order + 2 * g - 1
    terms: dict[int, Fraction] = {-2: Fraction(1)}

    def residual(a_ser: TruncSeries) -> TruncSeries:
        a1 = a_ser.derive()
        lead = a1 * a1
        if g >= 2:
            # Skipped for g = 1 rather than multiplied by a truncated 1,
            # which would needlessly narrow the window.
            lead = a_ser.power(2 * g - 2) * lead
        r = lead - a_ser.power(2 * g + 1).scale(4)
        if is_minusx:
            return r + a_ser.scale(4)
        if r.trunc_order < 0:
            return r  # the +4 constant sits above the window
        return r + 4

    e = w - 2
    while e <= depth:
        a_ser = TruncSeries.from_terms(terms, depth)
        a1 = a_ser.derive()
        m = e - 4 * g
        rho = residual(a_ser).coeff(m)
        # Response of the residual slot m to a unit bump of the coefficient
        # at u**e, assembled from single convolution slots (m - e = -4g).
        if g == 1:
            lam = 2 * e * a1.coeff(m - e + 1) - 12 * conv_coeff(a_ser, a_ser, m - e)
        else:
            a2 = a_ser * a_ser
            p1 = a2 if g == 2 else a_ser.power(2 * g - 2)
            podd = a_ser if g == 2 else a_ser.power(2 * g - 3)
            lam = 2 * e * conv_coeff(p1, a1, m - e + 1)
            lam += (2 * g - 2) * conv_coeff(podd, a1 * a1, m - e)
            lam -= 4 * (2 * g + 1) * conv_coeff(p1, a2, m - e)
        if is_minusx and m == e:
            lam += 4
        if lam == 0:
            raise ExpansionError(
                f"degenerate recurrence at u^{e} for {curve}: the linear "
                f"response vanishes (residual {rho})"
            )
        c = -rho / lam
        if c:
            terms[e] = c
        e += w

    a_ser = TruncSeries.from_terms(terms, depth)
    final = residual(a_ser)
    if not final.is_zero():
        raise ExpansionError(
            f"ODE residual does not vanish through u^{final.trunc_order}: "
            f"{final}"
        )
    y = a_ser.derive()
    if g >= 2:
        y = a_ser.power(g - 1) * y
    y = y.scale(Fraction(1, 2))
    return Expansion(curve, a_ser, y, "ode", order)


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
    """
    c = expansion.curve
    x, y = expansion.x_series, expansion.y_series
    i, j = c.exponent_pair
    on_curve = y.power(c.a) - x.power(c.b)
    if c.family == "minusx":
        on_curve = on_curve + x
    elif on_curve.trunc_order >= 0:  # else the +1 sits above the window
        on_curve = on_curve + 1
    dx = x.derive()
    if i > 1:
        dx = x.power(i - 1) * dx
    normalized = y.power(j).scale(c.a) + dx.scale(c.y_leading_sign**j)
    for name, residual in (
        ("curve equation", on_curve),
        ("differential identity", normalized),
    ):
        if not residual.is_zero():
            e = residual.base_exponent
            raise ExpansionError(
                f"{expansion.method} expansion of {c} fails the {name} at "
                f"u^{e} (residual coefficient {residual.coeff(e)})"
            )
    return min(on_curve.trunc_order, normalized.trunc_order)


def expand_checked(curve: CurveSpec, order: int) -> Expansion:
    """The expansion every table is computed from: online, then checked.

    The online expansion must pass certify.  Hyperelliptic curves (a = 2)
    also run the ODE route, which never builds t(u), and the two must
    agree coefficient for coefficient through their common window; a
    discrepancy raises CrossCheckError naming the series, the first
    differing exponent and both coefficients.  The method label records
    the routes that ran: "online+ode" or "online".
    """
    online = expand_online(curve, order)
    certify(online)
    if curve.a != 2:
        return online
    by_ode = expand_by_ode(curve, order)
    for name, ours, theirs in (
        ("x", online.x_series, by_ode.x_series),
        ("y", online.y_series, by_ode.y_series),
    ):
        e = ours.first_difference(theirs)
        if e is not None:
            raise CrossCheckError(
                f"{name}(u) differs between the online and ODE routes for "
                f"{curve} at u^{e}: {ours.coeff(e)} (online) vs "
                f"{theirs.coeff(e)} (ODE)"
            )
    return Expansion(curve, online.x_series, online.y_series, "online+ode", order)


# -- number tables -----------------------------------------------------------


@dataclass
class BHTable:
    """Exact table of (C_N, D_N) for N = w, 2w, ... up to order - 2.

    rows maps the weight N to the pair (C_N, D_N).  The order field
    records the expansion order the table was read from, which bounds the
    available weights; treat instances as immutable.
    """

    curve: CurveSpec
    order: int
    method: str
    rows: dict[int, tuple[Fraction, Fraction]] = field(default_factory=dict)

    def weights(self) -> list[int]:
        return sorted(self.rows)

    def c(self, weight: int) -> Fraction:
        return self.rows[weight][0]

    def d(self, weight: int) -> Fraction:
        return self.rows[weight][1]

    def c_over_n(self, weight: int) -> Fraction:
        return self.rows[weight][0] / weight

    def d_over_n(self, weight: int) -> Fraction:
        return self.rows[weight][1] / weight

    def restrict(self, max_weight: int) -> "BHTable":
        """Sub-table of the weights <= max_weight."""
        if max_weight > self.order - 2:
            raise ValueError(
                f"table only reaches weight {self.order - 2}, "
                f"cannot restrict to {max_weight}"
            )
        rows = {n: cd for n, cd in self.rows.items() if n <= max_weight}
        return BHTable(self.curve, max_weight + 2, self.method, rows)

    def to_json_dict(self) -> dict:
        return {
            "format": TABLE_FORMAT,
            "version": TABLE_VERSION,
            "curve": str(self.curve),
            "weight_step": self.curve.weight,
            "order": self.order,
            "method": self.method,
            "rows": [
                {
                    "weight": n,
                    "c": [str(self.rows[n][0].numerator), str(self.rows[n][0].denominator)],
                    "d": [str(self.rows[n][1].numerator), str(self.rows[n][1].denominator)],
                }
                for n in self.weights()
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BHTable":
        if not isinstance(doc, dict) or doc.get("format") != TABLE_FORMAT:
            raise CacheError("not a number-table document")
        if doc.get("version") != TABLE_VERSION:
            raise CacheError(f"unsupported table version {doc.get('version')!r}")
        try:
            curve = parse_curve(doc["curve"])
            order = doc["order"]
            method = doc["method"]
            rows = {}
            for row in doc["rows"]:
                n = row["weight"]
                cn, cd = (int(s) for s in row["c"])
                dn, dd = (int(s) for s in row["d"])
                rows[n] = (Fraction(cn, cd), Fraction(dn, dd))
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed table document: {exc}") from None
        table = cls(curve, order, method, rows)
        w = curve.weight
        expected = list(range(w, order - 1, w))
        if table.weights() != expected:
            raise CacheError(
                "table rows are not the full ladder of weight multiples "
                f"up to {order - 2}"
            )
        return table

    @classmethod
    def loads(cls, text: str) -> "BHTable":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CacheError(f"table file is not valid JSON: {exc}") from None
        return cls.from_json_dict(doc)

    def write(self, path: str | Path) -> None:
        """Atomic whole-file replace; a reader never sees a partial table."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self.dumps())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def read(cls, path: str | Path) -> "BHTable":
        return cls.loads(Path(path).read_text())


def extract_numbers(expansion: Expansion) -> BHTable:
    """Read the number table off an expansion.

    The weight-N numbers sit in the Laurent slots u**(N-a) of x and
    u**(N-b) of y; the normalization multiplies the slot coefficient by
    N * (N - a)! resp. N * (N - b)!, the factorial belonging to the slot
    that actually carries the coefficient.  Rows run over multiples of w
    up to order - 2, keeping a safety margin inside the exactness window.
    """
    c = expansion.curve
    w = c.weight
    rows: dict[int, tuple[Fraction, Fraction]] = {}
    n = w
    while n <= expansion.order - 2:
        cn = n * factorial(n - c.a) * expansion.x_series.coeff(n - c.a)
        dn = n * factorial(n - c.b) * expansion.y_series.coeff(n - c.b)
        rows[n] = (cn, dn)
        n += w
    return BHTable(c, expansion.order, expansion.method, rows)


# -- classical anchors ---------------------------------------------------------


def bernoulli(count: int) -> list[Fraction]:
    """[B_2, B_4, ..., B_{2*count}] from the expansion of 1/sin(u)**2.

    1/sin(u)**2 = 1/u**2 + sum (-1)**(n+1) * 2**(2n) * B_{2n} / (2n) *
    u**(2n-2) / (2n-2)! is the genus-zero instance of the x(u) machinery
    (the curve y**2 = x**2 - 1 with its integral u = arcsin-type); the
    list doubles as an independent oracle target for the series engine.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    order = 2 * count + 1
    sin_u = TruncSeries.from_terms(
        {
            k: Fraction((-1) ** (k // 2), factorial(k))
            for k in range(1, order + 1, 2)
        },
        order,
    )
    inv_sq = (sin_u * sin_u).invert()
    out = []
    for n in range(1, count + 1):
        slot = inv_sq.coeff(2 * n - 2)
        out.append(
            Fraction((-1) ** (n + 1) * 2 * n * factorial(2 * n - 2), 2 ** (2 * n))
            * slot
        )
    return out


def hurwitz(count: int) -> list[Fraction]:
    """[H_4, H_8, ..., H_{4*count}], the lemniscatic analogue of bernoulli().

    H_{4n} = C_{4n} / 2**(4n) read off the y**2 = x**3 - x table, whose
    x(u) is the Weierstrass pe-function with square period lattice.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    table = extract_numbers(expand_by_reversion(CurveSpec.minus_x(1), 4 * count + 2))
    return [table.c(4 * n) / 2 ** (4 * n) for n in range(1, count + 1)]
