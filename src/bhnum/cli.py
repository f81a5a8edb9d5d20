"""Command-line front end.

Subcommands: compute a number table into a JSON cache, verify congruence
statements against a cache, export a cache as CSV/JSON, and print the
classical Bernoulli/Hurwitz anchor sequences.

Exit codes: 0 success / all checks pass, 1 a verification check failed,
2 usage or configuration error (bad curve, missing, corrupt or unreadable
cache, weights not computed, sweep bounds below 1), 3 an internal check
tripped: the expansion failed its certificate (the curve equation or the
differential identity).
Reports are written as they are rendered and are byte-identical for
identical invocations: no timestamps or environment echoes.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from .curves import CurveSpec, parse_curve
from .generator import (
    REPORT_VERSION,
    BHTable,
    CacheError,
    ExpansionError,
    bernoulli,
    expand_checked,
    extract_numbers,
    hurwitz,
    int_digits,
    rational_pair,
    write_json,
)

__all__ = ["console_main", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _require_multiple(max_weight: int, curve: CurveSpec) -> None:
    if max_weight % curve.weight:
        raise ValueError(
            f"--max-weight must be a multiple of the curve weight {curve.weight}"
        )


def _same_file(a, b) -> bool:
    """Whether paths a and b name one file: one inode if both exist (a hard
    link too), else one resolved path."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _locate(args) -> tuple[CurveSpec | None, Path]:
    """The curve --curve names (None without it) and the table's path.

    A directory there is refused, and so is an --output that is the table
    file, by any path or hard link, so a report never replaces the table.
    --max-weight is checked here, positive first, then a multiple of the
    named curve's weight; with --cache alone _load_table checks the latter.
    """
    curve = None if args.curve is None else parse_curve(args.curve)
    if args.cache is not None:
        path = Path(args.cache)
    elif curve is not None:
        name = str(curve).replace(":", "_").replace(",", "_").replace("=", "")
        path = Path(os.environ.get("BHNUM_CACHE_DIR", ".bhnum-cache")) / f"{name}.json"
    else:
        raise ValueError("need --cache or --curve to locate the table")
    if path.is_dir():
        raise ValueError(f"table path {path} is a directory")
    if args.output and _same_file(args.output, path):
        raise ValueError(f"--output {args.output} is the table file {path}")
    if args.max_weight is not None:
        if args.max_weight < 1:
            raise ValueError("--max-weight must be positive")
        if curve is not None:
            _require_multiple(args.max_weight, curve)
    return curve, path


def _load_table(args) -> BHTable:
    curve, path = _locate(args)
    max_weight = args.max_weight
    if not path.exists():
        hint = ""
        if curve is not None and max_weight is not None:
            hint = f"; run: bhnum compute --curve {curve} --max-weight {max_weight}"
        raise CacheError(f"no table at {path}{hint}")
    table = BHTable.read(path)
    if curve is not None and table.curve != curve:
        raise CacheError(f"table at {path} is for {table.curve}, not {curve}")
    if max_weight is None:
        return table
    _require_multiple(max_weight, table.curve)  # --cache alone names no curve
    w, top = table.curve.weight, table.order - 2  # the table holds every w*k <= top
    if max_weight > top:
        missing = list(range(top - top % w + w, max_weight + 1, w))
        raise CacheError(
            f"table at {path} lacks weights {missing}; run: "
            f"bhnum compute --curve {table.curve} --max-weight {max_weight}"
        )
    return table.restrict(max_weight)


def _emit(args, summary, document, order: int) -> None:
    """Write the rendering --format asks for, and build only that one.

    document(out) writes the JSON document to out; summary() gives the text
    lines, written in batches as they come.  --output (else stdout) opens
    here, after every check has run.  Both run with the int/str digit limit
    lifted to what numbers up to the expansion order need, then restored.
    """
    dest = Path(args.output).open("w") if args.output else nullcontext(sys.stdout)
    with dest as out, int_digits(order):
        if args.format == "json":
            document(out)
        else:
            lines = iter(summary())
            while batch := list(islice(lines, 1024)):
                out.write("\n".join(batch) + "\n")


# -- subcommands ---------------------------------------------------------------


def cmd_compute(args) -> int:
    curve, path = _locate(args)
    expansion = expand_checked(curve, args.max_weight + 2)
    table = extract_numbers(expansion)
    table.write(path)
    line = (
        f"COMPUTE curve={curve} max_weight={args.max_weight} "
        f"rows={len(table.rows)} method={table.method} cache={path}"
    )

    def document(out):  # the table file just written, not a second encoding
        with path.open() as fh:
            out.writelines(fh)

    _emit(args, lambda: [line], document, table.order)
    return EXIT_OK


def cmd_verify(args) -> int:
    # The verifiers compile on verify's first call, before the table is read.
    from . import congruence

    for flag, value in (("--depth", args.depth), ("--prime-limit", args.prime_limit)):
        if value < 1:
            raise ValueError(f"{flag} must be positive")
    table = _load_table(args)
    which = args.check
    max_weight = max(table.weights(), default=0)
    # Kummer and integrality read one Residues of the table, as do the
    # Kummer reports' JSON sums.
    residues = None if which == "vsc" else congruence.Residues(table)
    # (tag, rows with .passed and .summary_line(), bounds, JSON reports,
    # the arguments of their to_json_dict)
    sections = []
    if which in ("vsc", "all"):
        rows = [congruence.vsc_decompose(table, n) for n in table.weights()]
        sections.append(("VSC", rows, "", rows, ()))
    if which in ("kummer", "all"):
        rows = congruence.kummer_sweep(residues, args.prime_limit, args.depth)
        bounds = f" (p<={args.prime_limit}, a<={args.depth})"
        sections.append(("KUMMER", rows, bounds, rows, (residues,)))
    if which in ("integrality", "all"):
        scan = congruence.integrality_scan(residues, args.prime_limit)
        sections.append(("INTEGRALITY", scan.rows, f" (p<={args.prime_limit})", [scan], ()))
    ok = all(row.passed for _, rows, *_ in sections for row in rows)

    def summary():
        for tag, rows, bounds, *_ in sections:
            yield from (row.summary_line() for row in rows)
            yield f"{tag}: {sum(row.passed for row in rows)}/{len(rows)} pass{bounds}"

    def document(out):
        write_json({
            "format": "bhnum.report",
            "version": REPORT_VERSION,
            "curve": str(table.curve),
            "check": which,
            "max_weight": max_weight,
            "passed": ok,
            "reports": [
                r.to_json_dict(*extra) for *_, reports, extra in sections for r in reports
            ],
        }, out)

    _emit(args, summary, document, table.order)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_export(args) -> int:
    table = _load_table(args)

    def summary():
        for n in table.weights():
            c, d = table.rows[n]
            yield f"{n}, {c}, {d}, {c / n}, {d / n}"

    _emit(args, summary, table.dump, table.order)
    return EXIT_OK


_ANCHORS = {"bernoulli": (2, bernoulli), "hurwitz": (4, hurwitz)}


def cmd_anchor(args) -> int:
    """bernoulli / hurwitz: the classical sequence as (index, value) rows."""
    if args.count < 1:
        raise ValueError("--count must be positive")
    step, sequence = _ANCHORS[args.command]
    values = [(step * k, v) for k, v in enumerate(sequence(args.count), 1)]

    def document(out):
        write_json({
            "format": f"bhnum.{args.command}",
            "version": REPORT_VERSION,
            "values": [{"index": i, "value": rational_pair(v)} for i, v in values],
        }, out)

    _emit(args, lambda: (f"{i}, {v}" for i, v in values), document, step * args.count + 2)
    return EXIT_OK


# -- wiring ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhnum",
        description="Exact generator and congruence verifier for "
        "generalized Bernoulli-Hurwitz numbers.",
        epilog="Environment: BHNUM_CACHE_DIR (default .bhnum-cache).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, curve_required):
        p.add_argument(
            "--curve",
            required=curve_required,
            help="curve descriptor, e.g. cyclo:a=2,b=5 or minusx:g=1",
        )
        p.add_argument("--cache", help="table file (default: per-curve path)")
        p.add_argument("--format", choices=("summary", "json"), default="summary")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("compute", help="expand, extract, and cache a number table")
    add_common(p, curve_required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check congruence statements against a table")
    p.add_argument("check", choices=("vsc", "kummer", "integrality", "all"))
    add_common(p, curve_required=False)
    p.add_argument("--max-weight", type=int, help="largest weight to use")
    p.add_argument("--prime-limit", type=int, default=100)
    p.add_argument("--depth", type=int, default=2, help="largest power p**a")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="print a cached table as CSV rows or JSON")
    add_common(p, curve_required=False)
    p.add_argument("--max-weight", type=int)
    p.set_defaults(func=cmd_export)

    for name, help_text in (
        ("bernoulli", "print B_2 .. B_{2*count}"),
        ("hurwitz", "print H_4 .. H_{4*count}"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--format", choices=("summary", "json"), default="summary")
        p.add_argument("--output")
        p.set_defaults(func=cmd_anchor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ExpansionError as exc:
        # Only the expansion itself raises this under compute: orders are
        # validated before it runs, so it is an internal check, not usage.
        print(f"internal expansion check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        # Every usage error the package raises (CurveError, CacheError,
        # VerifierDomainError, ...) is a ValueError; OSError covers cache
        # and output paths that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
