"""Property tests on the paths that take outside input.

Curve descriptors, table files and command lines come from users.  Each
input must either be accepted or be refused with the package's own error
(CurveError, CacheError, or an exit code from the command line); nothing
may escape as a traceback.  The runs are derandomized, so a failure
reproduces on the next run.
"""

import contextlib
import io
import json
import string

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from bhnum.cli import main  # noqa: E402
from bhnum.curves import CurveError, CurveSpec, parse_curve  # noqa: E402
from bhnum.generator import (  # noqa: E402
    BHTable,
    CacheError,
    expand_checked,
    extract_numbers,
)
from helpers import table_text  # noqa: E402

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_GOOD_TEXT = table_text(extract_numbers(expand_checked(CurveSpec.cyclotomic(2, 5), 62)))

# ASCII plus a few characters that str.isdigit() or int() would take for
# digits.  A fixed alphabet spares hypothesis its Unicode table build.
_CHARS = st.sampled_from(string.printable + "\u00b2\u0663\u0665\uff15\u00e9\x00")

# -- curve descriptors ---------------------------------------------------------

_CURVE_TEXT = st.sampled_from(
    ["cyclo:a=2,b=5", "cyclo:a=2,b=3", "cyclo:a=3,b=4", "minusx:g=1", "minusx:g=2"]
) | st.builds(
    # Near the grammar, so that the key and value checks are reached, not
    # only the family check.
    lambda head, parts: head + ":" + ",".join(f"{k}={v}" for k, v in parts),
    st.sampled_from(["cyclo", "minusx", "cubic", ""]),
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "g", " a", "c", ""]),
            st.integers(-3, 12).map(str) | st.text(_CHARS, max_size=4),
        ),
        max_size=4,
    ),
) | st.text(_CHARS, max_size=20)


@FUZZ
@given(_CURVE_TEXT)
def test_parse_curve_accepts_or_raises_curve_error(text):
    try:
        curve = parse_curve(text)
    except CurveError:
        return
    assert parse_curve(str(curve)) == curve


# -- table files -----------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(_CHARS, max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(_CHARS, max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Near misses for the values a table holds.
_NEAR = st.sampled_from(["0", "-0", " 7", "\u0663", "1.5", 0, 1.5, True, None])


def _paths(node, path=()):
    """Every position in a decoded JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


_GOOD_PATHS = list(_paths(json.loads(_GOOD_TEXT)))[1:]


@st.composite
def _mutated_tables(draw):
    """A valid table document with one value, anywhere in it, replaced."""
    doc = json.loads(_GOOD_TEXT)
    *outer, key = draw(st.sampled_from(_GOOD_PATHS))
    node = doc
    for k in outer:
        node = node[k]
    node[key] = draw(_NEAR | _JSON)
    return json.dumps(doc)


_TABLE_TEXT = (
    _mutated_tables()
    | st.integers(0, len(_GOOD_TEXT)).map(lambda k: _GOOD_TEXT[:k])
    | st.text(_CHARS, max_size=40)
)


@FUZZ
@given(_TABLE_TEXT)
def test_table_loads_accepts_or_raises_cache_error(text):
    try:
        table = BHTable.loads(text)
    except CacheError:
        return
    assert table_text(BHTable.loads(table_text(table))) == table_text(table)


# -- command lines ---------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BHNUM_CACHE_DIR", str(root / "cache"))
        yield root


def _reset(root):
    (root / "good.json").write_text(_GOOD_TEXT)
    (root / "corrupt.json").write_text(_GOOD_TEXT.replace('"11"', '"0"', 1))


# command: (flags every draw passes, flags a draw may add)
_FLAGS = {
    "compute": (["--curve", "--max-weight"], ["--cache", "--format", "--output"]),
    "verify": (["--cache"], ["--curve", "--max-weight", "--prime-limit", "--depth",
                             "--format", "--output"]),
    "export": (["--cache"], ["--curve", "--max-weight", "--format", "--output"]),
    "bernoulli": (["--count"], ["--format", "--output"]),
    "hurwitz": (["--count"], ["--format", "--output"]),
}


@st.composite
def _argvs(draw, root):
    """Command lines over every subcommand; weights and counts stay small.

    Values are drawn from valid and invalid ones alike, and now and then a
    flag of another subcommand rides along.
    """
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "verify":
        checks = ["vsc", "kummer", "integrality", "all", "none"]
        argv.append(draw(st.sampled_from(checks)))
    caches = ["good.json", "corrupt.json", "missing.json", "."]
    values = {
        "--curve": st.sampled_from(["cyclo:a=2,b=5", "minusx:g=1"]) | _CURVE_TEXT,
        "--cache": st.sampled_from([str(root / name) for name in caches]),
        "--max-weight": st.sampled_from(["12", "20", "24", "40", "60"])
        | st.integers(-2, 64).map(str),
        "--prime-limit": st.integers(-2, 80).map(str),
        "--depth": st.integers(-2, 4).map(str),
        "--count": st.integers(-2, 8).map(str),
        "--format": st.sampled_from(["summary", "json", "summary", "json", "xml"]),
        "--output": st.sampled_from([str(root / "report.txt")] * 3 + [str(root)]),
    }
    required, optional = _FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(optional), unique=True))
    foreign = []
    if draw(st.integers(0, 3)) == 0:
        foreign.append(draw(st.sampled_from(sorted(values))))
    for flag in dict.fromkeys(required + chosen + foreign):
        argv += [flag, draw(values[flag])]
    return argv


@settings(FUZZ, max_examples=80)
@given(st.data())
def test_cli_returns_an_exit_code(cli_root, data):
    _reset(cli_root)
    argv = data.draw(_argvs(cli_root))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
