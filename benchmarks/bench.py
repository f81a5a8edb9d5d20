"""Time the layers compute and verify run.

  pipeline  expand_online end to end on any curve.  The row also gives
            the bits of the kernel's top rung, the denominator of the
            last v-slot it solves on the grid rescaled by (w + 1)**k, and
            of the largest numerator it stores over its slot's rung; the
            certificate builds the same ladder.
  certify   the curve-equation and differential certificate on the
            online expansion, the one check every compute runs before
            it writes a table.  Its row also gives the number of v-grid
            products it forms and the bits of its largest operand, a
            numerator over its slot's rung of the denominator ladder.
  extract   extract_numbers, reading the C_N / D_N table off the online
            expansion.
  cache     BHTable.write of that table into a temporary directory, as
            compute runs it, and BHTable.read of the file it wrote.  The
            write row's note gives the bytes written and the tracemalloc
            peak of one extra, untimed write over those bytes.
  verify    each verifier on the table read off that expansion, as
            verify all runs it with --prime-limit at the top weight and
            --depth 3 (cyclo:a=2,b=5 only, the curve they are proven for):
            vsc_decompose per weight, one kummer_sweep and one
            integrality_scan.  Every repetition runs them in that order,
            and kummer builds one fresh Residues of the table, so it pays
            for the quotients C_N / N and D_N / N, their numerators over
            the common denominator L, and the residue rows: every
            numerator reduced once per prime down one remainder tree, mod
            p**(D + 1 + v_p(L)) for the prime's deepest check D.
            Integrality reads that Residues, the rows kummer built, and
            builds the primes kummer has no check at; A_p stays cached
            across repetitions, as it does across commands in one
            process.  The kummer row's note gives how many primes have
            rows and the most digits any keeps (after the last
            repetition), and how many check sides one sweep takes by the
            exact integer sum.
  verify/json  bhnum.cli.main running verify all --prime-limit <top weight>
            --depth 3 --format json --output <file> on that table, read
            from the file cache/write wrote: the whole JSON command, table
            read included.  Its note gives the bytes written.
  import    the median seconds of a fresh import of bhnum.cli with the
            standard library already loaded, as the benchmark's set-up
            imports it: every bhnum module it loads is compiled from
            source (the bytecode cache is looked up in an empty directory)
            and no bytecode is written.  Its note gives the number of
            modules.
  import/verify  the median seconds of the cold import of bhnum.congruence
            that follows it, the compile verify pays on its first call;
            the same note.

Run as: python3 benchmarks/bench.py [--order N] [--curve SPEC] [--repeat K] [--json]
With --json the rows print as one JSON document instead of a table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from math import prod

from bhnum import certificate, congruence, generator
from bhnum.certificate import certify
from bhnum.cli import main as cli_main
from bhnum.congruence import Residues, integrality_scan, kummer_sweep, vsc_decompose
from bhnum.curves import CurveSpec, parse_curve
from bhnum.generator import BHTable, expand_online, extract_numbers


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def kernel_shape(curve, order) -> str:
    """Bits of the online kernel's top rung and of its largest stored numerator."""
    real, kept = generator._append, [[], []]

    def spy(series, steps, nums, over, up):
        real(series, steps, nums, over, up)
        kept[:] = series, steps

    generator._append = spy
    try:
        expand_online(curve, order)
    finally:
        generator._append = real
    series, steps = kept
    bits = max((v.bit_length() for s in series for v in s), default=0)
    return f"top rung {prod(steps).bit_length()} bits, largest numerator {bits} bits"


def certificate_shape(expansion) -> str:
    """How many products certify forms on expansion, and its largest operand."""
    real = certificate._slot
    calls = bits = 0

    def counted(p, q, row, m):  # slot m of one product: p[m] and q[m] are new
        nonlocal calls, bits
        calls += 1
        bits = max(bits, p[m].bit_length(), q[m].bit_length())
        return real(p, q, row, m)

    certificate._slot = counted
    try:
        certify(expansion)
    finally:
        certificate._slot = real
    return f"{calls // len(expansion.x)} products, largest operand {bits} bits"


def write_shape(table, path) -> str:
    """The bytes one write of table to path leaves, and its tracemalloc peak
    over them."""
    tracemalloc.start()
    try:
        table.write(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    return f"{size} bytes written, peak {peak / size:.2f}x of them"


def import_rows(repeat: int) -> list[tuple[str, float, str]]:
    """The import rows: median seconds of a fresh, compiling import of
    bhnum.cli, then of bhnum.congruence on top of it.  The modules the rest
    of the run uses are put back after."""
    importlib.import_module("bhnum.congruence")  # its standard library, loaded untimed

    def ours():
        return [n for n in sys.modules if n == "bhnum" or n.startswith("bhnum.")]

    saved = {n: sys.modules[n] for n in ours()}
    settings = sys.pycache_prefix, sys.dont_write_bytecode
    stages = (("import", "bhnum.cli"), ("import/verify", "bhnum.congruence"))
    times = {stage: [] for stage, _ in stages}
    compiled = {}
    with tempfile.TemporaryDirectory() as empty:
        sys.pycache_prefix, sys.dont_write_bytecode = empty, True
        try:
            for _ in range(repeat):
                for name in ours():
                    del sys.modules[name]
                for stage, module in stages:
                    before = len(ours())
                    t0 = time.perf_counter()
                    importlib.import_module(module)
                    times[stage].append(time.perf_counter() - t0)
                    compiled[stage] = len(ours()) - before
        finally:
            sys.pycache_prefix, sys.dont_write_bytecode = settings
            for name in ours():
                del sys.modules[name]
            sys.modules.update(saved)
    return [(stage, statistics.median(times[stage]), f"{compiled[stage]} modules compiled")
            for stage, _ in stages]


def timed_rows(args, cache: str, report: str) -> list[tuple[str, float, str]]:
    """Every row but the import rows; the table goes to cache and verify/json's
    report to report."""
    curve = parse_curve(args.curve)
    online = expand_online(curve, args.order)
    seconds = best_of(args.repeat, lambda: expand_online(curve, args.order))
    rows = [("pipeline/online", seconds, kernel_shape(curve, args.order))]
    table = extract_numbers(online)
    for name, fn, note in (
        ("certify", lambda: certify(online), certificate_shape(online)),
        ("extract", lambda: extract_numbers(online), ""),
        ("cache/write", lambda: table.write(cache), write_shape(table, cache)),
        ("cache/read", lambda: BHTable.read(cache), ""),
    ):
        rows.append((name, best_of(args.repeat, fn), note))

    if curve == CurveSpec.cyclotomic(2, 5):
        top = max(table.weights())
        exact = []  # the p of each check side the timed sweeps take exactly

        held = []  # the Residues the last pass verified

        def sweep():
            held[:] = [Residues(table)]
            real = congruence._exact

            def counted(p, *args):
                exact.append(p)
                return real(p, *args)

            congruence._exact = counted
            try:
                return kummer_sweep(held[0], top, 3)
            finally:
                congruence._exact = real

        checks = (
            ("vsc", lambda: [vsc_decompose(table, n) for n in table.weights()]),
            ("kummer", sweep),
            ("integrality", lambda: integrality_scan(held[0], top)),
        )

        def verify_all() -> list[float]:
            return [best_of(1, check) for _, check in checks]

        passes = [verify_all() for _ in range(args.repeat)]
        digits = [rows[0] for rows in held[-1].rows.values()]  # p -> (digits, ...)
        notes = {"kummer": f"{len(digits)} primes with rows, at most {max(digits, default=0)} "
                           f"digits, {len(exact) // args.repeat} check sides exact"}
        for (name, _), times in zip(checks, zip(*passes)):
            rows.append((f"verify/{name}", min(times), notes.get(name, "")))

        argv = ["verify", "all", "--cache", cache, "--prime-limit", str(top),
                "--depth", "3", "--format", "json", "--output", report]

        def verify_json():
            if cli_main(argv):
                raise SystemExit(f"bhnum {' '.join(argv)} did not pass")

        seconds = best_of(args.repeat, verify_json)
        rows.append(("verify/json", seconds, f"{os.path.getsize(report)} bytes written"))
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=302)
    ap.add_argument("--curve", default="cyclo:a=2,b=5")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--json", action="store_true", help="print one JSON document")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        rows = timed_rows(args, os.path.join(tmp, "table.json"), os.path.join(tmp, "report.json"))
    rows.extend(import_rows(args.repeat))

    curve = parse_curve(args.curve)
    if args.json:
        print(json.dumps({
            "curve": str(curve), "order": args.order, "repeat": args.repeat,
            "rows": [{"stage": name, "seconds": seconds, "note": note}
                     for name, seconds, note in rows],
        }, indent=2))
        return
    for name, seconds, note in rows:
        print(f"{name:<18s} {curve}@{args.order}  {seconds * 1000:9.2f} ms  {note}".rstrip())


if __name__ == "__main__":
    main()
