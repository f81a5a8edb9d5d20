import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bhnum import (
    CurveSpec,
    expand_by_ode,
    expand_by_reversion,
    expand_online,
    extract_numbers,
)

TOP_ORDER = 302

_CURVES = (
    CurveSpec.cyclotomic(2, 5),
    CurveSpec.minus_x(1),
    CurveSpec.minus_x(2),
)

_GEN300 = None


def build_gen300():
    """Expansions through u**302 by all three routes, plus the table.

    Built once per session and shared; per-step wall times are kept so the
    acceptance test can report them.  A plain function rather than only a
    fixture so the acceptance timer can include the generation cost.
    """
    global _GEN300
    if _GEN300 is None:
        out = {}
        for curve in _CURVES:
            entry = {"curve": curve, "seconds": {}}
            for route, expand in (
                ("online", expand_online),
                ("reversion", expand_by_reversion),
                ("ode", expand_by_ode),
            ):
                t0 = time.perf_counter()
                entry[route] = expand(curve, TOP_ORDER)
                entry["seconds"][route] = time.perf_counter() - t0
            entry["table"] = extract_numbers(entry["online"])
            out[str(curve)] = entry
        _GEN300 = out
    return _GEN300


@pytest.fixture(scope="session")
def gen300():
    return build_gen300()


@pytest.fixture(scope="session")
def table300(gen300):
    """Number table through weight 300 for y**2 = x**5 - 1."""
    return gen300["cyclo:a=2,b=5"]["table"]


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria", sep="-")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
