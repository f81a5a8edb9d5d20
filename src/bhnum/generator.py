"""Laurent expansions of x(u), y(u) and the number tables read off them.

x and y are the coordinates of the curve near its point at infinity,
written in u, the normalized integral of the distinguished differential
(see bhnum.curves).  Their Laurent coefficients carry the generalized
Bernoulli-Hurwitz numbers:

    C_N = N * (N - a)! * [u**(N - a)] x(u)
    D_N = N * (N - b)! * [u**(N - b)] y(u)

for N a positive multiple of the weight w.  The (N - a)! here is the
factorial matching the actual Laurent slot of weight N; see
extract_numbers.

x lives on exponents congruent to -a mod w and y on -b mod w: with
v = u**w, x = u**-a * X(v) and y = u**-b * Y(v).  An Expansion holds X
and Y as their v-grids, so that support pattern is its representation.
expand_online solves the curve equation and the normalization of du for
X one v-slot at a time, on a grid rescaled by (w + 1)**k (see its
docstring).  Its kernel is J.C.P. Miller's power recurrence (_miller)
and a half-sum square (_cross), run in integers: slot k of each series
is a numerator over its own rung D_k (_cofactors, _append), and Fraction
appears only at read-out.

expand_checked, the route every table is computed by, certifies the online
expansion against the curve equation and du (bhnum.certificate, re-exported
here), slot by slot on integer numerators; the certificate shares no code
with the online kernel (_miller, _cross, _cofactors, _append and the X_m
solve), and it pins every coefficient.  BHTable.dump and write_json, the
only JSON writers, stream into an open file; no whole text is built.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count
from math import factorial, gcd, lgamma, log, prod
from operator import mul
from pathlib import Path

from .certificate import ExpansionError, certify
from .curves import CurveSpec, parse_curve

__all__ = [
    "BHTable",
    "CacheError",
    "Expansion",
    "ExpansionError",
    "bernoulli",
    "certify",
    "expand_checked",
    "expand_online",
    "extract_numbers",
    "hurwitz",
]

TABLE_FORMAT = "bhnum.table"
TABLE_VERSION = 1

_ONE = Fraction(1)


class CacheError(ValueError):
    """A table file is malformed or from an incompatible writer."""


@dataclass(frozen=True, slots=True)
class Expansion:
    """x(u), y(u) for a curve as their v-grids, exact at least through u**order.

    With v = u**w, x = u**-a * X(v) and y = u**-b * Y(v): x[k] = X_k, the
    coefficient of u**(w*k - a) in x, and y[k] = Y_k, that of u**(w*k - b)
    in y (sigma included), for k = 0..n.  Knowing both through v**n makes
    x exact through u**(w*(n + 1) - 1 - a) and y through
    u**(w*(n + 1) - 1 - b).  Construction re-checks the leading terms and
    that window, so a tampered or buggy expansion cannot flow further.
    """

    curve: CurveSpec
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    method: str
    order: int

    def __post_init__(self) -> None:
        c = self.curve
        a, b, w = c.a, c.b, c.weight
        for name, grid, pole, lead in (
            ("x", self.x, a, _ONE), ("y", self.y, b, c.y_leading_sign)
        ):
            if not grid or grid[0] != lead:
                raise ExpansionError(f"{name} must start with {lead} * u^{-pole}")
        n, m = len(self.x) - 1, len(self.y) - 1
        if n != m:
            raise ExpansionError(
                f"x grid ends at u^{w * n - a} (slot {n}) but y grid at "
                f"u^{w * m - b} (slot {m})"
            )
        top = w * (n + 1) - 1 - max(a, b)
        if self.order > top:
            raise ExpansionError(
                f"grids through slot {n} are exact only through u^{top}, "
                f"claimed order {self.order}"
            )


def _miller(f: list[int], p: list[int], e: int, row: list[int]) -> int:
    """The next coefficient of f**e by J.C.P. Miller's power recurrence
    (Knuth, TAOCP vol. 2, 4.7), less e * f_m, over m * L_m:

        P_m = e * f_m + sum_{k=1..m-1} ((e + 1) * k - m) * f_k * P_{m-k} / m

    for f_0 = p_0 = 1, p the first m coefficients of f**e and f through
    f_(m-1).  It is f * (f**e)' = e * f' * f**e degree by degree, so P_m
    needs no f beyond f_m, and f can be fed online.  Term k is over
    D_k * D_(m-k); row[k-1] lifts it to L_m.
    """
    m = len(p)
    weights = map(mul, count(e + 1 - m, e + 1), row)
    return sum(map(mul, weights, map(mul, f[1:m], reversed(p[1:]))))


def _cross(f: list[int], row: list[int]) -> int:
    """[f**2]_m less 2 * f_0 * f_m over L_m, m = len(row) + 1: each pair
    f_k * f_(m-k), 0 < k < m, formed once."""
    m = len(row) + 1
    h = (m + 1) // 2
    total = 2 * sum(map(mul, row, map(mul, f[1:h], reversed(f[m - h + 1 : m]))))
    if m % 2 == 0:
        total += row[h - 1] * f[h] * f[h]
    return total


def _rest(f: list[int], p: list[int], e: int, row: list[int]) -> int:
    """[f**e]_m at f_m = 0 over m * L_m, from f and (e > 2) p = f**e through m - 1."""
    if e == 1:
        return 0
    return len(f) * _cross(f, row) if e == 2 else _miller(f, p, e, row)


def _cofactors(steps: list[int]) -> tuple[int, list[int]]:
    """L_m // D_(m-1) and the row L_m // (D_k * D_(m-k)), 0 < k < m.

    steps[k-1] is E_k = D_k / D_(k-1), m = len(steps) + 1, and L_m is the lcm
    of the D_k * D_(m-k).  c_k = c_(k-1) * E_(m-k+1) / E_k, and a step that
    does not divide brings in a factor, which scales L_m and the row so far.
    """
    m = len(steps) + 1
    if m == 1:
        return 1, []
    up, row = steps[0], [1]
    for k in range(2, m // 2 + 1):
        num, e = row[-1] * steps[m - k], steps[k - 1]
        q, r = divmod(num, e)
        if r:
            f = e // gcd(e, r)
            up, row, q = up * f, [v * f for v in row], num * f // e
        row.append(q)
    return up, row + row[: m - 1 - len(row)][::-1]


def _append(series: list, steps: list, nums: list, over: int, up: int) -> None:
    """Append nums[t] / (over * L_m) to series[t] as slot m, over the lcm D_m
    of L_m and their denominators, L_m * over // gcd(over, *nums), and
    D_m / D_(m-1) to steps; up is L_m / D_(m-1).  No stored numerator moves.
    """
    g = gcd(over, *nums)
    for s, v in zip(series, nums):
        s.append(v // g)
    steps.append(up * (over // g))


def expand_online(curve: CurveSpec, order: int) -> Expansion:
    """Expand x(u), y(u) by solving for X online, one v-slot at a time.

    With v = u**w, x = u**-a * X(v) and y = sigma * u**-b * Y(v), the curve
    reads Y**a = Q with Q = X**b - v (cyclo) or X**b - v*X (minusx), and the
    normalization of du, a * y**j = -sigma**j * (x**i)' / i (see certify),
    reads (w*k - a*i) * [X**i]_k = -a*i * [Y**j]_k.  X_m enters slot m of
    it through [X**i]_m with slope i and through Q_m, Y_m and [Y**j]_m with
    slope b*j/a: in total i*(w*m + 1), never 0 as b*j - a*i = 1.  So X_m =
    -rho_m / (i*(w*m + 1)), with rho_m the slot at X_m = 0, in which each
    power is one step on coefficients already known (_rest): a half-sum
    square or a Miller step.

    The loop runs in integers, on the series a step reads: X, X**b, Y,
    and X**i or Y**j if a Miller step (a square reads only its base);
    Y**a's Miller step (cyclo) reads Q off X**b, bar v's term in Q_1.
    Slot k of each is a numerator over its rung D_k, so with X_m = 0 each
    value of slot m is a sum of slot-sized terms over m * L_m (a*Y_m too);
    X_m, Y_m and the stored powers, each moved by its slope times X_m, are
    then over m * L_m * a * i*(w*m + 1), and _append gives D_m.

    X_1 = j / (w + 1), and X_k and Y_k carry most of (w + 1)**k in their
    denominators, so the loop runs on X'_k = (w + 1)**k * X_k and Y'_k =
    (w + 1)**k * Y_k: v becomes (w + 1) * v in Q, the identity holds slot
    by slot as it is, and X'_1 = j; read-out undoes it.  With X and Y known
    through v**n, x is exact through u**(-a + w*(n+1) - 1) and y through
    u**(-b + w*(n+1) - 1); n is the least that covers order.
    """
    if order < 1:
        raise ExpansionError("expansion order must be at least 1")
    a, b, w = curve.a, curve.b, curve.weight
    i, j = curve.exponent_pair
    n = -(-(order + 1 + max(a, b)) // w) - 1
    minusx = curve.family == "minusx"
    x, x_b, y, x_i, y_j = [1], [1], [1], [1], [1]
    series, steps = [x, x_b, y] + [x_i] * (i > 2) + [y_j] * (j > 2), []
    for m in range(1, n + 1):
        # slot m at X_m = 0 over m * L_m; up = L_m / D_(m-1)
        up, row = _cofactors(steps)
        xi_m, xb_m = _rest(x, x_i, i, row), _rest(x, x_b, b, row)
        yj_m = _rest(y, y_j, j, row)
        tail = x[-1] * m * up if minusx else m == 1
        q_m = xb_m - (w + 1) * tail
        ay_m = q_m - _rest(y, x_b, a, row)
        if a > 2 and m > 1:  # cyclo: Q_k = X**b_k but Q_1 = X**b_1 - (w + 1)
            ay_m += ((a + 1) * (m - 1) - m) * y[m - 1] * (w + 1) * up
        rho = (w * m - a * i) * xi_m + a * i * yj_m + i * j * ay_m
        # X_m = -rho / slope; over m * L_m * c each power moves by slope * X_m
        slope = i * (w * m + 1)
        c, x_m, y_m = a * slope, -a * rho, slope * ay_m - b * rho
        nums = [x_m, c * xb_m + b * x_m, y_m]
        if i > 2:
            nums.append(c * xi_m + i * x_m)
        if j > 2:
            nums.append(c * yj_m + j * y_m)
        _append(series, steps, nums, m * c, up)
    sigma = curve.y_leading_sign
    scales = [d * (w + 1) ** k for k, d in enumerate(accumulate([1, *steps], mul))]
    xs, ys = map(Fraction, x, scales), (Fraction(sigma * v, d) for v, d in zip(y, scales))
    return Expansion(curve, tuple(xs), tuple(ys), "online", order)


def expand_checked(curve: CurveSpec, order: int) -> Expansion:
    """The expansion every table is computed from: online, then certified.

    A failure of certify raises ExpansionError naming the identity and the
    first bad exponent, so no table is read off an uncertified expansion.
    """
    online = expand_online(curve, order)
    certify(online)
    return online


# -- number tables -----------------------------------------------------------


def rational_pair(q: Fraction) -> list[str]:
    """q as [numerator, denominator] decimal strings, exact through JSON."""
    return [str(q.numerator), str(q.denominator)]


REPORT_VERSION = 1  # the "version" of every report and anchor document


def write_json(doc: dict, out) -> None:
    """Write doc to out chunk by chunk, as every JSON document bhnum writes."""
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


def _max_digits(order: int) -> int:
    """Decimal digits a number in a table of this order, or in a report on it,
    may need.

    C_N = N * (N - a)! * [u**(N - a)] x(u), and the Laurent coefficients
    decay, so every table number has at most about log10(N!) digits
    (checked on both curve families).  The slack of one digit per unit of
    order covers the verifiers' combinations: A_p**a with a*(p - 1) <= N
    adds at most 0.16*N digits.
    """
    return int(lgamma(max(order, 1) + 1) / log(10)) + order + 100


@contextmanager
def int_digits(order: int):
    """Lift CPython's int/str digit limit to _max_digits(order) in the block.

    CPython refuses int/str conversions past 4300 digits by default, which
    a table reaches near weight 1580.  The limit is process-wide; it is
    restored on exit, and never lowered: an unlimited (0) or higher
    setting stands.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    need = _max_digits(order)
    if saved and saved < need:
        sys.set_int_max_str_digits(need)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def _rational(pair, weight: int, max_digits: int) -> Fraction:
    """The Fraction a rational_pair wrote at weight; ValueError otherwise.

    A string longer than max_digits is refused before int() parses it,
    which takes time quadratic in its length.
    """
    if not (
        type(pair) is list
        and len(pair) == 2
        and all(type(s) is str and re.fullmatch("-?[0-9]+", s) for s in pair)
    ):
        raise ValueError(
            f"weight {weight}: expected a pair of decimal strings, got {pair!r}"
        )
    longest = max(map(len, pair))
    if longest > max_digits:
        raise ValueError(
            f"weight {weight}: a decimal string of {longest} characters "
            f"exceeds the {max_digits} the table's order allows"
        )
    num, den = map(int, pair)
    if den == 0:
        raise ValueError(f"weight {weight}: zero denominator")
    return Fraction(num, den)


def _field(doc, key: str, kind: type):
    """doc[key] if its type is exactly kind (so no bool for int); else TypeError."""
    value = doc[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


@dataclass
class BHTable:
    """Exact table of (C_N, D_N) for N = w, 2w, ... up to order - 2.

    rows maps every weight N of that ladder (construction checks it) to the
    pair (C_N, D_N).  The order field records the expansion order the table
    was read from, which bounds the weights; treat instances as immutable.
    """

    curve: CurveSpec
    order: int
    method: str
    rows: dict[int, tuple[Fraction, Fraction]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        w = self.curve.weight
        if sorted(self.rows) != list(range(w, self.order - 1, w)):
            raise ValueError("table rows are not the full ladder of weight "
                             f"multiples up to {self.order - 2}")

    def weights(self) -> list[int]:
        return sorted(self.rows)

    def c(self, weight: int) -> Fraction:
        return self.rows[weight][0]

    def d(self, weight: int) -> Fraction:
        return self.rows[weight][1]

    def restrict(self, max_weight: int) -> "BHTable":
        """Sub-table of the weights <= max_weight."""
        if max_weight > self.order - 2:
            raise ValueError(
                f"table only reaches weight {self.order - 2}, "
                f"cannot restrict to {max_weight}"
            )
        rows = {n: cd for n, cd in self.rows.items() if n <= max_weight}
        return BHTable(self.curve, max_weight + 2, self.method, rows)

    def dump(self, out) -> None:
        """Write the table file's text to out: one JSON document, keys sorted."""
        with int_digits(self.order):
            write_json({
                "format": TABLE_FORMAT,
                "version": TABLE_VERSION,
                "curve": str(self.curve),
                "weight_step": self.curve.weight,
                "order": self.order,
                "method": self.method,
                "rows": [
                    {"weight": n, "c": rational_pair(c), "d": rational_pair(d)}
                    for n, (c, d) in sorted(self.rows.items())
                ],
            }, out)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BHTable":
        """Validate a decoded table document; anything malformed is a CacheError."""
        if not isinstance(doc, dict) or doc.get("format") != TABLE_FORMAT:
            raise CacheError("not a number-table document")
        if doc.get("version") != TABLE_VERSION:
            raise CacheError(f"unsupported table version {doc.get('version')!r}")
        try:
            curve = parse_curve(_field(doc, "curve", str))
            order = _field(doc, "order", int)
            method = _field(doc, "method", str)
            raw_rows = _field(doc, "rows", list)
            if _field(doc, "weight_step", int) != curve.weight:
                raise ValueError(f"weight_step must be {curve.weight} on {curve}")
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed table document: {exc}") from None
        # The rows must be w, 2w, ..., order - 2, each once, which the
        # constructor checks; their count must match order before any
        # number is parsed, because order bounds every decimal string.
        w = curve.weight
        if order < w + 2:
            raise CacheError(f"table order {order} leaves no weight on {curve}; "
                             f"the least is {w + 2}")
        if (order - 2) // w != len(raw_rows):
            raise CacheError(f"table has {len(raw_rows)} rows; order {order} "
                             f"holds {(order - 2) // w}")
        max_digits = _max_digits(order)
        try:
            with int_digits(order):
                rows = {}
                for row in raw_rows:
                    n = _field(row, "weight", int)
                    c = _rational(row["c"], n, max_digits)
                    rows[n] = c, _rational(row["d"], n, max_digits)
                return cls(curve, order, method, rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed table document: {exc}") from None

    @classmethod
    def loads(cls, text: str) -> "BHTable":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise CacheError(f"table file is not valid JSON: {exc}") from None
        return cls.from_json_dict(doc)

    def write(self, path: str | Path) -> None:
        """Atomic whole-file replace; a reader never sees a partial table.
        The rows are dumped into a temporary file beside path as they are
        encoded, which then replaces path.  The file gets the mode a plain
        open() would give it, 0o666 less the umask (mkstemp makes it 0o600).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                self.dump(fh)
            umask = os.umask(0o077)  # the umask is only readable by setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def read(cls, path: str | Path) -> "BHTable":
        return cls.loads(Path(path).read_text())


def extract_numbers(expansion: Expansion) -> BHTable:
    """Read the number table off an expansion.

    The weight-N numbers sit in grid slot k = N / w, which holds the
    coefficients of u**(N-a) in x and u**(N-b) in y; the normalization
    multiplies them by N * (N - a)! resp. N * (N - b)!, the factorial
    belonging to the Laurent slot that actually carries the coefficient.
    Rows run over multiples of w up to order - 2, keeping a safety margin
    inside the exactness window.
    """
    c = expansion.curve
    a, b, w = c.a, c.b, c.weight
    x, y = expansion.x, expansion.y
    rows: dict[int, tuple[Fraction, Fraction]] = {}
    # (N - a)! and (N - b)!, carried from one row to the next
    fact_a, fact_b = factorial(w - a), factorial(w - b)
    for k, n in enumerate(range(w, expansion.order - 1, w), 1):
        rows[n] = (n * fact_a * x[k], n * fact_b * y[k])
        fact_a *= prod(range(n - a + 1, n + w - a + 1))
        fact_b *= prod(range(n - b + 1, n + w - b + 1))
    return BHTable(c, expansion.order, expansion.method, rows)


# -- classical anchors ---------------------------------------------------------


def bernoulli(count: int) -> list[Fraction]:
    """[B_2, B_4, ..., B_{2*count}] from the expansion of 1/sin(u)**2.

    1/sin(u)**2 = 1/u**2 + sum (-1)**(n+1) * 2**(2n) * B_{2n} / (2n) *
    u**(2n-2) / (2n-2)! is the genus-zero instance of the x(u) machinery
    (the curve y**2 = x**2 - 1, u of arcsin type).  It is u**-2 * f(v)**-2
    with v = u**2 and f = sin(u)/u = sum (-1)**k * v**k / (2k+1)!, so B_{2n}
    is slot n of f**-2, one chain of the online kernel's Miller steps.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    f, g, steps, rung = [1], [1], [], 1
    for m in range(1, count + 1):
        up, row = _cofactors(steps)
        top, f_m = factorial(2 * m + 1), (-1) ** m * m * rung * up  # over top * m * L_m
        _append([f, g], steps, [f_m, top * _miller(f, g, -2, row) - 2 * f_m], m * top, up)
        rung *= steps[-1]
    return [
        Fraction((-1) ** (n + 1) * 2 * n * factorial(2 * n - 2) * g[n], 4**n * d)
        for n, d in enumerate(accumulate(steps, mul), 1)
    ]


def hurwitz(count: int) -> list[Fraction]:
    """[H_4, H_8, ..., H_{4*count}], the lemniscatic analogue of bernoulli().

    H_{4n} = C_{4n} / 2**(4n) read off the y**2 = x**3 - x table, whose
    x(u) is the Weierstrass pe-function with square period lattice; the
    table comes from expand_checked, like every table compute writes.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    table = extract_numbers(expand_checked(CurveSpec.minus_x(1), 4 * count + 2))
    return [table.c(4 * n) / 2 ** (4 * n) for n in range(1, count + 1)]
