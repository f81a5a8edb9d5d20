"""In-memory span recorder that wraps bhnum's public functions.

A Tracer replaces each target function at every name a bhnum module looks
it up by (for example both ``bhnum.numtheory.is_prime`` and
``bhnum.congruence.is_prime``), and each class attribute on its class, with
a wrapper that records a span (id, name, start, end, parent).  Spans stay in
memory; self times, call counts and the per-layer counts are derived from
them and from the wrapped calls' arguments and results.  ``restore`` puts
every original back, so untraced passes run the unmodified program.

Nothing here changes what the program computes or prints.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _table_bits(table) -> int:
    bits = 0
    for pair in table.rows.values():
        for q in pair:
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _observe_table(tracer, args, kwargs, table) -> None:
    tracer.counts["generator.rows"] += len(table.rows)
    bits = _table_bits(table)
    if bits > tracer.counts["generator.max_coeff_bits"]:
        tracer.counts["generator.max_coeff_bits"] = bits


def _observe_write(tracer, args, kwargs, result) -> None:
    tracer.counts["generator.cache_bytes"] += os.path.getsize(args[1])


def _observe_read(tracer, args, kwargs, table) -> None:
    # args[0] is the class: read is a classmethod.
    tracer.counts["generator.cache_bytes"] += os.path.getsize(args[1])
    _observe_table(tracer, args, kwargs, table)


def _observe_check(tracer, args, kwargs, report) -> None:
    if not report.passed:
        tracer.counts["congruence.failed_checks"] += 1


def _observe_integrality(tracer, args, kwargs, report) -> None:
    tracer.counts["congruence.integrality_pairs"] += len(report.rows)
    tracer.counts["congruence.failed_checks"] += sum(1 for r in report.rows if not r.passed)


# (span name, module, attribute path, observer).  The attribute path is
# looked up at patch time; a target the program no longer has is skipped and
# its metrics read 0.
TARGETS = (
    ("series.revert", "bhnum.series", "revert", None),
    ("series.compose", "bhnum.series", "TruncSeries.compose", None),
    ("series.invert", "bhnum.series", "TruncSeries.invert", None),
    ("series.power", "bhnum.series", "TruncSeries.power", None),
    # _mul is the one entry every product goes through: __mul__, power,
    # invert, compose and the reversion loops all call it.
    ("series.mul", "bhnum.series", "TruncSeries._mul", None),
    ("series.conv_coeff", "bhnum.series", "conv_coeff", None),
    ("series.binomial_series", "bhnum.series", "binomial_series", None),
    ("curves.u_series", "bhnum.curves", "u_series", None),
    ("generator.reversion", "bhnum.generator", "expand_by_reversion", None),
    ("generator.ode", "bhnum.generator", "expand_by_ode", None),
    ("generator.crosscheck", "bhnum.generator", "expand_checked", None),
    ("generator.extract", "bhnum.generator", "extract_numbers", _observe_table),
    ("generator.cache_write", "bhnum.generator", "BHTable.write", _observe_write),
    ("generator.cache_read", "bhnum.generator", "BHTable.read", _observe_read),
    ("congruence.vsc", "bhnum.congruence", "vsc_decompose", _observe_check),
    ("congruence.kummer", "bhnum.congruence", "kummer_check", _observe_check),
    ("congruence.integrality", "bhnum.congruence", "integrality_scan", _observe_integrality),
    ("congruence.report_json", "bhnum.congruence", "VscReport.to_json_dict", None),
    ("congruence.report_json", "bhnum.congruence", "KummerReport.to_json_dict", None),
    ("congruence.report_json", "bhnum.congruence", "IntegralityReport.to_json_dict", None),
    ("numtheory.is_prime", "bhnum.numtheory", "is_prime", None),
    ("numtheory.padic_valuation", "bhnum.numtheory", "padic_valuation", None),
    ("numtheory.primes_in_class", "bhnum.numtheory", "primes_in_class", None),
    ("cli.emit", "bhnum.cli", "_emit", None),
)

class _WarningCounter(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.counts["generator.ode_fallbacks"] += 1


class Tracer:
    """Records spans around bhnum calls between ``install`` and ``restore``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._handler = _WarningCounter(self)

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, observe, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent))
        if observe is not None:
            observe(self, args, kwargs, result)
        return result

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span; for the benchmark's own code."""
        return self._call(name, fn, None, args, {})

    def _wrap(self, name, fn, observe):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, observe, args, kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, path, observe in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in owner.__dict__:
                continue
            raw = owner.__dict__[attr]
            if owner is not module:
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, observe)))
                else:
                    self._set(owner, attr, self._wrap(name, raw, observe))
                continue
            wrapper = self._wrap(name, raw, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "bhnum" or mod_name.startswith("bhnum.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapper)
        logging.getLogger("bhnum.generator").addHandler(self._handler)

    def restore(self) -> None:
        logging.getLogger("bhnum.generator").removeHandler(self._handler)
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        by_id = self._self_by_id()
        out = defaultdict(float)
        for sid, name, _, _, _ in self.spans:
            out[name] += by_id[sid]
        return dict(out)

    def crosscheck_self_time(self) -> float:
        """Self seconds of expand_checked calls in which the ODE route ran.

        With a single route there is nothing to cross-check, and the few
        microseconds of dispatch are not counted as cross-check work.
        """
        names = {sid: name for sid, name, _, _, _ in self.spans}
        checked = {
            parent
            for _, name, _, _, parent in self.spans
            if name == "generator.ode" and names.get(parent) == "generator.crosscheck"
        }
        return sum((t for sid, t in self._self_by_id().items() if sid in checked), 0.0)

    def _self_by_id(self) -> dict[int, float]:
        child = defaultdict(float)
        for _, _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return {sid: (t1 - t0) - child[sid] for sid, _, t0, t1, _ in self.spans}

    def calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for _, name, _, _, _ in self.spans:
            out[name] += 1
        return dict(out)

    def durations(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out = defaultdict(float)
        for _, name, t0, t1, _ in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}
                    )
                    + "\n"
                )
