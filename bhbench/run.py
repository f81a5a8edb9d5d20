"""End-to-end and per-layer benchmark of the bhnum pipeline.

Run from the root of a checkout:

    python3 bhbench/run.py --workload compute-hyper --seed 1 --seconds 30 --trace 0

The benchmark drives the public entry point ``bhnum.cli.main`` in-process,
from one process and one thread, with the defaults users get: no ``BHNUM_*``
variable is read, and every cache goes to a private directory under
``.bhbench-tmp/`` in the checkout, which is removed at exit.

Workloads (curves and orders are fixed; ``--seed`` only shuffles the order
of the operations within a pass):

  compute-hyper  ``compute`` on cyclo:a=2,b=5 and minusx:g=2 at max weight
                 600 and minusx:g=1 at 300.  The only workload where the
                 ODE route and the two-route cross-check run; it mixes
                 sparse (w = 10, 8) and dense (w = 4) support.
  compute-a3     ``compute`` on cyclo:a=3,b=4 at 1008 and cyclo:a=3,b=5 at
                 1005: reversion only, at deep order, no cross-check.
  verify-deep    ``verify all --prime-limit 1000 --depth 3`` on the pinned
                 cyclo:a=2,b=5 table at max weight 1000 in
                 ``fixtures/``.  Cache read, the verifiers and number
                 theory; no series work.

With ``--trace 0`` it reports the end-to-end metrics: ``pass_s``, the
wall seconds of one pass over the workload's operations, as the sum of
each operation's median over the passes of the run; ``setup_s``, the median
of SETUP_REPS set-ups (fresh import of bhnum, reference and fixture load,
temporary directory); and ``peak_rss_mb``, the process's peak resident
memory.  A run starts passes while the next one is expected to end within
``--seconds``, and makes at least MIN_PASSES.  With
``--trace 1`` it alternates untraced and traced passes and reports
per-layer self times and counts from the traced passes (see tracer.py),
plus ``trace_overhead``, the traced over the untraced median pass time.
The traced pass must print exactly what the untraced pass printed.

Every operation is checked: exit code 0; for ``compute`` the canonical
rows of the written table (not the file bytes) against the SHA-256 pinned
in reference.json; for ``verify`` the ``VSC:``, ``KUMMER:`` and
``INTEGRALITY:`` totals lines against the pinned ones.  The canonical rows
are one line ``"<N> <C_N> <D_N>\\n"`` per weight, in increasing N, with the
numbers written as reduced fractions.  reference.json and the fixture were
produced by the code this benchmark was written against.

``--smoke`` runs the same workloads at max weight 40 (or the largest
multiple of the curve weight below it) in a few seconds.

Output: one line per metric with its unit, a JSON record line with the
machine (nproc, Python, gmpy2, load average at start) and every sample,
and last the result line ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 2, and no result line, if bhnum or the pinned inputs cannot be
loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

VERIFY_FLAGS = ("--prime-limit", "1000", "--depth", "3")

WORKLOADS = {
    "compute-hyper": ("compute", (("cyclo:a=2,b=5", 600), ("minusx:g=2", 600), ("minusx:g=1", 300))),
    "compute-a3": ("compute", (("cyclo:a=3,b=4", 1008), ("cyclo:a=3,b=5", 1005))),
    "verify-deep": ("verify", (("cyclo:a=2,b=5", 1000),)),
}
SMOKE_MAX_WEIGHT = 40
SETUP_REPS = 15
MIN_PASSES = 3

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

COMPUTE_SLUGS = ("cyclo_a2_b5", "minusx_g2", "minusx_g1", "cyclo_a3_b4", "cyclo_a3_b5")
_TIMED = (
    "series.revert", "series.compose", "series.invert", "series.power", "series.mul",
    "series.conv_coeff", "series.binomial_series", "curves.u_series",
    "generator.reversion", "generator.ode", "generator.crosscheck", "generator.extract",
    "generator.cache_write", "generator.cache_read",
    "congruence.vsc", "congruence.kummer", "congruence.integrality", "congruence.report_json",
    "numtheory.is_prime", "numtheory.padic_valuation", "numtheory.primes_in_class",
    "cli.emit",
)
_CALLS = {
    "series.revert_calls": "series.revert",
    "series.conv_coeff_calls": "series.conv_coeff",
    "numtheory.is_prime_calls": "numtheory.is_prime",
    "congruence.vsc_checks": "congruence.vsc",
    "congruence.kummer_checks": "congruence.kummer",
}
_COUNT_UNITS = {
    "generator.rows": "count",
    "generator.max_coeff_bits": "bits",
    "generator.cache_bytes": "bytes",
    "generator.ode_fallbacks": "count",
    "congruence.integrality_pairs": "count",
    "congruence.failed_checks": "count",
}
PER_LAYER = (
    tuple((name + "_s", "s") for name in _TIMED)
    + tuple((name, "count") for name in _CALLS)
    + tuple(_COUNT_UNITS.items())
    + tuple((f"cli.compute_s.{s}", "s") for s in COMPUTE_SLUGS)
    + (("trace_overhead", "ratio"),)
)
COUNT_METRICS = frozenset(_CALLS) | frozenset(_COUNT_UNITS)


class SetupError(RuntimeError):
    """bhnum or a pinned input could not be loaded."""


def slug(curve: str) -> str:
    return curve.replace(":", "_").replace(",", "_").replace("=", "")


def canonical_rows(doc: dict) -> tuple[int, str]:
    """(row count, SHA-256 of the canonical rows) of a table document."""
    lines = []
    for row in sorted(doc["rows"], key=lambda r: int(r["weight"])):
        c = Fraction(int(row["c"][0]), int(row["c"][1]))
        d = Fraction(int(row["d"][0]), int(row["d"][1]))
        lines.append(f"{int(row['weight'])} {c} {d}\n")
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


def totals_lines(stdout: str) -> list[str]:
    return [
        line
        for line in stdout.splitlines()
        if line.startswith(("VSC:", "KUMMER:", "INTEGRALITY:"))
    ]


@dataclass
class Op:
    """One ``bhnum`` invocation and what its result must be."""

    label: str
    argv: list[str]
    cache: Path
    expect: object  # pinned {"rows", "rows_sha256"} or pinned totals lines

    def check(self, code, stdout: str) -> str | None:
        if code != 0:
            return f"{self.label}: exit code {code}"
        if self.argv[0] == "verify":
            got = totals_lines(stdout)
            if got != self.expect:
                return f"{self.label}: totals {got} differ from pinned {self.expect}"
            return None
        try:
            rows, digest = canonical_rows(json.loads(self.cache.read_text()))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{self.label}: unreadable table {self.cache}: {exc}"
        if (rows, digest) != (self.expect["rows"], self.expect["rows_sha256"]):
            return f"{self.label}: table rows differ from the pinned reference"
        return None


def drop_bhnum() -> None:
    """Forget every imported bhnum module, so the next import runs afresh."""
    for name in [m for m in sys.modules if m == "bhnum" or m.startswith("bhnum.")]:
        del sys.modules[name]
    gc.collect()


def import_bhnum():
    """Import bhnum from this checkout's src/; returns bhnum.cli."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("bhnum.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import bhnum from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"bhnum was imported from {cli.__file__}, not from {src}")
    return cli


def build_ops(workload: str, smoke: bool, workdir: Path) -> list[Op]:
    kind, items = WORKLOADS[workload]
    ref = json.loads((HERE / "reference.json").read_text())
    ops = []
    for curve, max_weight in items:
        if smoke:
            w = sys.modules["bhnum"].parse_curve(curve).weight
            max_weight = min(max_weight, SMOKE_MAX_WEIGHT // w * w)
        if kind == "verify":
            fixture = ref["fixture"]
            cache = workdir / Path(fixture["file"]).name
            shutil.copyfile(HERE / fixture["file"], cache)
            got = canonical_rows(json.loads(cache.read_text()))
            if got != (fixture["rows"], fixture["rows_sha256"]):
                raise SetupError(f"fixture {fixture['file']} does not match its pinned digest")
            argv = ["verify", "all", "--cache", str(cache), "--max-weight", str(max_weight),
                    *VERIFY_FLAGS, "--format", "summary"]
            ops.append(Op("verify", argv, cache, ref["verify"][str(max_weight)]))
        else:
            cache = workdir / f"{slug(curve)}.json"
            argv = ["compute", "--curve", curve, "--max-weight", str(max_weight),
                    "--cache", str(cache), "--format", "summary"]
            expect = ref["tables"][f"{curve}@{max_weight}"]
            ops.append(Op(f"compute.{slug(curve)}", argv, cache, expect))
    return ops


def run_op(cli, op: Op):
    """(seconds, exit code, stdout) of one in-process ``bhnum`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = perf_counter() - t0
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return seconds, code, out.getvalue()


def run_pass(cli, ops: list[Op], tracer: Tracer | None = None):
    """Run each op once; returns ({label: seconds}, {label: stdout}, {label: problem})."""
    times = {}
    outs = {}
    problems = {}
    for op in ops:
        if tracer is None:
            seconds, code, stdout = run_op(cli, op)
        else:
            seconds, code, stdout = tracer.call("cli." + op.label, run_op, cli, op)
        times[op.label] = seconds
        outs[op.label] = stdout
        problem = op.check(code, stdout)
        if problem:
            problems[op.label] = problem
    return times, outs, problems


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    wall = tracer.durations()
    m = {name + "_s": self_s.get(name, 0.0) for name in _TIMED}
    m["generator.crosscheck_s"] = tracer.crosscheck_self_time()
    for metric, span in _CALLS.items():
        m[metric] = calls.get(span, 0)
    for name in _COUNT_UNITS:
        m[name] = tracer.counts[name]
    for s in COMPUTE_SLUGS:
        m[f"cli.compute_s.{s}"] = wall.get(f"cli.compute.{s}", 0.0)
    return m


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description="bhnum end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny orders (max weight 40)")
    return ap.parse_args(argv)


def another_pass(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Whether to start a pass: until ``minimum`` are done, then while the
    next one, at the median duration so far, would end within ``seconds``."""
    if len(durations) < minimum:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def measure(cli, ops, args, failures: list[str]):
    """Run passes for the requested time; returns (metrics, record).

    Each failed operation appends one reason to ``failures``.
    """
    rng = random.Random(args.seed)
    start = perf_counter()
    if not args.trace:
        samples = {op.label: [] for op in ops}
        durations = []
        while another_pass(start, args.seconds, durations, MIN_PASSES):
            order = ops[:]
            rng.shuffle(order)
            gc.collect()
            times, _, problems = run_pass(cli, order)
            for label, seconds in times.items():
                samples[label].append(seconds)
            durations.append(sum(times.values()))
            failures.extend(problems.values())
        # Per-operation medians, summed, so that one slow sample of one
        # operation does not decide the figure of the whole pass.
        pass_s = sum(statistics.median(v) for v in samples.values())
        return {"pass_s": pass_s}, {"op_s_samples": samples, "pass_s_samples": durations}

    plain, traced, layers = [], [], []
    while another_pass(start, args.seconds, [p + t for p, t in zip(plain, traced)], 1):
        order = ops[:]
        rng.shuffle(order)
        gc.collect()
        times, plain_out, problems = run_pass(cli, order)
        plain.append(sum(times.values()))
        failures.extend(problems.values())
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            times, traced_out, problems = run_pass(cli, order, tracer)
        finally:
            tracer.restore()
        traced.append(sum(times.values()))
        layers.append(layer_metrics(tracer))
        for label, text in traced_out.items():
            if text != plain_out[label]:
                problems.setdefault(label, f"{label}: traced stdout differs from untraced stdout")
        failures.extend(problems.values())
    metrics = {}
    for name, _ in PER_LAYER[:-1]:
        pick = statistics.median_low if name in COUNT_METRICS else statistics.median
        metrics[name] = pick([m[name] for m in layers])
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    out_dir = ROOT / ".bhbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    record = {
        "untraced_pass_s_samples": plain,
        "traced_pass_s_samples": traced,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, record


def set_up(args, tmp_root: Path):
    """Import bhnum, make the private cache directory and load the pinned
    inputs; repeated SETUP_REPS times.  Returns (cli, ops, times)."""
    times = []
    workdir = None
    for _ in range(SETUP_REPS):
        if workdir is not None:
            shutil.rmtree(workdir)
        cli = ops = None
        drop_bhnum()
        t0 = perf_counter()
        cli = import_bhnum()
        tmp_root.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=tmp_root))
        ops = build_ops(args.workload, args.smoke, workdir)
        times.append(perf_counter() - t0)
    return cli, ops, times


def main(argv=None) -> int:
    args = parse_args(argv)
    machine = machine_record()
    tmp_root = ROOT / ".bhbench-tmp" / f"run-{os.getpid()}"
    failures: list[str] = []
    try:
        try:
            cli, ops, setup_times = set_up(args, tmp_root)
        except (SetupError, OSError, KeyError, ValueError) as exc:
            print(f"benchmark set-up failed: {exc}", file=sys.stderr)
            return 2
        metrics, record = measure(cli, ops, args, failures)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass

    passes = len(record["traced_pass_s_samples" if args.trace else "pass_s_samples"])
    attempted = passes * len(ops) * (2 if args.trace else 1)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for problem in failures[:20]:
        print(f"FAIL {problem}", file=sys.stderr)

    print(f"# bhnum benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<34} {shown} {units[name]}")
    fail_rate = len(failures) / attempted
    print(f"{'fail_rate':<34} {fail_rate:>16.6f} ({len(failures)}/{attempted} operations)")
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        smoke=args.smoke,
        passes=passes,
        ops_per_pass=len(ops),
        setup_s_samples=setup_times,
        fail_rate=fail_rate,
        machine=machine,
    )
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
