"""Command-line front end.

Subcommands: compute a number table into a JSON cache, verify congruence
statements against a cache, export a cache as CSV/JSON, and print the
classical Bernoulli/Hurwitz anchor sequences.

Exit codes: 0 success / all checks pass, 1 a verification check failed,
2 usage or configuration error (bad curve, missing cache, weights not
computed), 3 an internal check tripped: the curve-equation certificate or
the two-route cross-check.  Output is deterministic:
identical invocations produce byte-identical reports, with no timestamps
or environment echoes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .congruence import (
    REPORT_VERSION,
    MissingWeightError,
    VerifierDomainError,
    integrality_scan,
    kummer_check,
    kummer_triples,
    vsc_decompose,
)
from .curves import CurveError, CurveSpec, parse_curve
from .generator import (
    BHTable,
    CacheError,
    CrossCheckError,
    ExpansionError,
    bernoulli,
    expand_checked,
    extract_numbers,
    hurwitz,
)
from .series import SeriesError

__all__ = ["console_main", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CROSS_CHECK = 3


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated knobs shared by the table-facing subcommands."""

    curve: CurveSpec | None
    cache_path: Path
    max_weight: int | None

    def __post_init__(self) -> None:
        if self.max_weight is not None:
            if self.max_weight < 1:
                raise ValueError("--max-weight must be positive")
            if self.curve is not None and self.max_weight % self.curve.weight:
                raise ValueError(
                    f"--max-weight must be a multiple of the curve weight "
                    f"{self.curve.weight}"
                )


def _default_cache_dir() -> Path:
    return Path(os.environ.get("BHNUM_CACHE_DIR", ".bhnum-cache"))


def _cache_path_for(curve: CurveSpec) -> Path:
    name = str(curve).replace(":", "_").replace(",", "_").replace("=", "") + ".json"
    return _default_cache_dir() / name


def _resolve_config(args, need_curve: bool) -> RunConfig:
    curve = parse_curve(args.curve) if getattr(args, "curve", None) else None
    if need_curve and curve is None:
        raise ValueError("--curve is required")
    cache = getattr(args, "cache", None)
    if cache is not None:
        cache_path = Path(cache)
    elif curve is not None:
        cache_path = _cache_path_for(curve)
    else:
        raise ValueError("need --cache or --curve to locate the table")
    return RunConfig(curve, cache_path, getattr(args, "max_weight", None))


def _load_table(cfg: RunConfig):
    if not cfg.cache_path.exists():
        hint = ""
        if cfg.curve is not None and cfg.max_weight is not None:
            hint = (
                f"; run: bhnum compute --curve {cfg.curve} "
                f"--max-weight {cfg.max_weight}"
            )
        raise CacheError(f"no table at {cfg.cache_path}{hint}")
    table = BHTable.read(cfg.cache_path)
    if cfg.curve is not None and table.curve != cfg.curve:
        raise CacheError(
            f"table at {cfg.cache_path} is for {table.curve}, not {cfg.curve}"
        )
    if cfg.max_weight is None:
        return table
    missing = [
        n
        for n in range(table.curve.weight, cfg.max_weight + 1, table.curve.weight)
        if n not in table.rows
    ]
    if missing:
        raise CacheError(
            f"table at {cfg.cache_path} lacks weights {missing}; run: "
            f"bhnum compute --curve {table.curve} --max-weight {cfg.max_weight}"
        )
    return table.restrict(cfg.max_weight)


def _emit(doc: dict, text_lines: list[str], args) -> None:
    if args.format == "json":
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


# -- subcommands ---------------------------------------------------------------


def cmd_compute(args) -> int:
    cfg = _resolve_config(args, need_curve=True)
    if cfg.max_weight is None:
        raise ValueError("--max-weight is required")
    expansion = expand_checked(cfg.curve, cfg.max_weight + 2)
    table = extract_numbers(expansion)
    table.write(cfg.cache_path)
    line = (
        f"COMPUTE curve={cfg.curve} max_weight={cfg.max_weight} "
        f"rows={len(table.rows)} method={table.method} cache={cfg.cache_path}"
    )
    _emit(table.to_json_dict(), [line], args)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _resolve_config(args, need_curve=False)
    table = _load_table(cfg)
    which = args.check
    lines: list[str] = []
    reports: list[dict] = []
    ok = True

    if which in ("vsc", "all"):
        for n in table.weights():
            r = vsc_decompose(table, n)
            ok &= r.passed
            lines.append(r.summary_line())
            reports.append(r.to_json_dict())
        passed = sum(1 for d in reports if d.get("passed"))
        lines.append(f"VSC: {passed}/{len(table.weights())} pass")

    if which in ("kummer", "all"):
        before = len(reports)
        kummer_pass = 0
        max_w = max(table.weights(), default=0)
        for p, depth, n in kummer_triples(args.prime_limit, args.depth, max_w):
            r = kummer_check(table, p, depth, n)
            ok &= r.passed
            kummer_pass += r.passed
            lines.append(r.summary_line())
            reports.append(r.to_json_dict())
        count = len(reports) - before
        lines.append(f"KUMMER: {kummer_pass}/{count} pass (p<={args.prime_limit}, a<={args.depth})")

    if which in ("integrality", "all"):
        r = integrality_scan(table, args.prime_limit)
        ok &= r.passed
        for row in r.rows:
            lines.append(row.summary_line())
        lines.append(
            f"INTEGRALITY: {sum(1 for x in r.rows if x.passed)}/{len(r.rows)} "
            f"pass (p<={args.prime_limit})"
        )
        reports.append(r.to_json_dict())

    doc = {
        "format": "bhnum.report",
        "version": REPORT_VERSION,
        "curve": str(table.curve),
        "check": which,
        "max_weight": max(table.weights(), default=0),
        "passed": bool(ok),
        "reports": reports,
    }
    _emit(doc, lines, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_export(args) -> int:
    cfg = _resolve_config(args, need_curve=False)
    table = _load_table(cfg)
    lines = []
    for n in table.weights():
        lines.append(
            f"{n}, {table.c(n)}, {table.d(n)}, {table.c_over_n(n)}, "
            f"{table.d_over_n(n)}"
        )
    _emit(table.to_json_dict(), lines, args)
    return EXIT_OK


def _anchor_command(values, args, tag: str) -> int:
    lines = [f"{idx}, {val}" for idx, val in values]
    doc = {
        "format": f"bhnum.{tag}",
        "version": REPORT_VERSION,
        "values": [
            {"index": idx, "value": [str(v.numerator), str(v.denominator)]}
            for idx, v in values
        ],
    }
    _emit(doc, lines, args)
    return EXIT_OK


def cmd_bernoulli(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    vals = bernoulli(args.count)
    return _anchor_command(
        [(2 * (i + 1), v) for i, v in enumerate(vals)], args, "bernoulli"
    )


def cmd_hurwitz(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    vals = hurwitz(args.count)
    return _anchor_command(
        [(4 * (i + 1), v) for i, v in enumerate(vals)], args, "hurwitz"
    )


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
        p.add_argument(
            "--format", choices=("summary", "json"), default="summary"
        )
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("compute", help="expand, extract, and cache a number table")
    add_common(p, curve_required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check congruence statements against a table")
    p.add_argument(
        "check", choices=("vsc", "kummer", "integrality", "all")
    )
    add_common(p, curve_required=False)
    p.add_argument("--max-weight", type=int, help="largest weight to use")
    p.add_argument("--prime-limit", type=int, default=100)
    p.add_argument("--depth", type=int, default=2, help="largest power p**a")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="print a cached table as CSV rows or JSON")
    add_common(p, curve_required=False)
    p.add_argument("--max-weight", type=int)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bernoulli", help="print B_2 .. B_{2*count}")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("summary", "json"), default="summary")
    p.add_argument("--output")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("hurwitz", help="print H_4 .. H_{4*count}")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("summary", "json"), default="summary")
    p.add_argument("--output")
    p.set_defaults(func=cmd_hurwitz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CrossCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except ExpansionError as exc:
        # Only the expansion itself raises this under compute: orders are
        # validated before it runs, so it is an internal check, not usage.
        print(f"internal expansion check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except (
        CurveError,
        CacheError,
        SeriesError,
        VerifierDomainError,
        MissingWeightError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
