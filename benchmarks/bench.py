"""Compare the selectable kernels against each other.

Three head-to-head measurements:

  revert    Lagrange coefficient extraction vs Newton doubling, on the
            patterned integral series of a curve and on a dense random
            series of the same order.
  mul       Fraction-convolution vs integer-normalized multiplication,
            on a dense series square.
  pipeline  expand_online vs expand_by_reversion end to end on any
            curve, and expand_by_ode too where a = 2.

Run as: python3 benchmarks/bench.py [--order N] [--curve SPEC] [--repeat K]
"""

from __future__ import annotations

import argparse
import os
import random
import time
from fractions import Fraction

from bhnum.curves import parse_curve, u_series
from bhnum.generator import expand_by_ode, expand_by_reversion, expand_online
from bhnum.series import TruncSeries, revert


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def dense_random_series(order: int, seed: int = 7) -> TruncSeries:
    rng = random.Random(seed)
    terms = {1: Fraction(1)}
    for e in range(2, order + 1):
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return TruncSeries.from_terms(terms, order)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=302)
    ap.add_argument("--curve", default="cyclo:a=2,b=5")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    curve = parse_curve(args.curve)
    patterned = u_series(curve, args.order)
    dense = dense_random_series(min(args.order, 160))

    rows = []
    for mul_mode in ("int", "fraction"):
        os.environ["BHNUM_MUL"] = mul_mode
        for alg in ("lagrange", "newton"):
            rows.append(
                (
                    f"revert/{alg:8s} mul={mul_mode:8s} patterned@{args.order}",
                    best_of(args.repeat, lambda: revert(patterned, alg)),
                )
            )
            rows.append(
                (
                    f"revert/{alg:8s} mul={mul_mode:8s} dense@{dense.trunc_order}",
                    best_of(args.repeat, lambda: revert(dense, alg)),
                )
            )

    square_input = dense_random_series(min(args.order, 400), seed=11)
    for mul_mode in ("int", "fraction"):
        os.environ["BHNUM_MUL"] = mul_mode
        rows.append(
            (
                f"mul/{mul_mode:8s} dense square @{square_input.trunc_order}",
                best_of(args.repeat, lambda: square_input * square_input),
            )
        )

    os.environ["BHNUM_MUL"] = "int"
    rows.append(
        (
            f"pipeline/online    {curve}@{args.order}",
            best_of(args.repeat, lambda: expand_online(curve, args.order)),
        )
    )
    rows.append(
        (
            f"pipeline/reversion {curve}@{args.order}",
            best_of(args.repeat, lambda: expand_by_reversion(curve, args.order)),
        )
    )
    if curve.a == 2:
        rows.append(
            (
                f"pipeline/ode       {curve}@{args.order}",
                best_of(args.repeat, lambda: expand_by_ode(curve, args.order)),
            )
        )

    width = max(len(name) for name, _ in rows)
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds * 1000:9.2f} ms")


if __name__ == "__main__":
    main()
