"""Time series reversion and the expansion routes.

  revert    Newton reversion of the curve's integral u(t), the step the
            reversion route (the test oracle) spends most of its time in.
  pipeline  expand_online vs expand_by_reversion end to end on any
            curve, and expand_by_ode too where a = 2.
  certify   the curve-equation and differential certificate on the
            online expansion, the check every compute runs before it
            writes a table.

Run as: python3 benchmarks/bench.py [--order N] [--curve SPEC] [--repeat K]
"""

from __future__ import annotations

import argparse
import time

from bhnum.curves import parse_curve, u_series
from bhnum.generator import certify, expand_by_ode, expand_by_reversion, expand_online
from bhnum.series import revert


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=302)
    ap.add_argument("--curve", default="cyclo:a=2,b=5")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    curve = parse_curve(args.curve)
    patterned = u_series(curve, args.order)

    routes = [("online", expand_online), ("reversion", expand_by_reversion)]
    if curve.a == 2:
        routes.append(("ode", expand_by_ode))
    at = f"{curve}@{args.order}"
    rows = [(f"revert             {at}", best_of(args.repeat, lambda: revert(patterned)))]
    for name, expand in routes:
        rows.append(
            (
                f"pipeline/{name:<9s} {at}",
                best_of(args.repeat, lambda: expand(curve, args.order)),
            )
        )
    online = expand_online(curve, args.order)
    rows.append((f"certify            {at}", best_of(args.repeat, lambda: certify(online))))

    width = max(len(name) for name, _ in rows)
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds * 1000:9.2f} ms")


if __name__ == "__main__":
    main()
