import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bhnum
from bhnum import congruence
from bhnum.cli import main
from bhnum.congruence import (
    IntegralityReport,
    KummerReport,
    VscReport,
    vsc_decompose,
)
from bhnum.curves import CurveSpec
from bhnum.generator import BHTable, expand_online
from helpers import bump, table_text

MAIN_CURVE = "cyclo:a=2,b=5"


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BHNUM_CACHE_DIR", str(tmp_path))
    return tmp_path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def compute_main(capsys, max_weight=30):
    return run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", str(max_weight)
    )


def test_compute_writes_cache(cache_env, capsys):
    rc, out, err = compute_main(capsys)
    assert rc == 0
    assert err == ""
    assert out.startswith("COMPUTE curve=cyclo:a=2,b=5 max_weight=30 rows=3")
    assert "method=online " in out
    cache = cache_env / "cyclo_a2_b5.json"
    assert cache.exists()
    doc = json.loads(cache.read_text())
    assert doc["format"] == "bhnum.table"
    assert [r["weight"] for r in doc["rows"]] == [10, 20, 30]


def test_compute_json_prints_the_cache_text_serialized_once(
    cache_env, capsys, monkeypatch
):
    calls = []
    real = BHTable.dump

    def counted(table, out):
        calls.append(table)
        real(table, out)

    monkeypatch.setattr(BHTable, "dump", counted)
    rc, out, err = run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "30",
        "--format", "json",
    )
    assert (rc, err) == (0, "")
    assert out.encode() == (cache_env / "cyclo_a2_b5.json").read_bytes()
    assert len(calls) == 1


def test_compute_runs_without_the_dense_series_engine(tmp_path):
    # compute works on v-grids alone; the dense series engine belongs to
    # the tests' reversion oracle and must not come back into the package.
    probe = (
        "import json, sys, bhnum, bhnum.cli; rc = bhnum.cli.main(sys.argv[1:]); "
        "print(json.dumps([rc, 'bhnum.series' in sys.modules, "
        "hasattr(bhnum, 'TruncSeries')]))"
    )
    cache = tmp_path / "table.json"
    argv = ["compute", "--curve", MAIN_CURVE, "--max-weight", "30", "--cache", str(cache)]
    src = str(Path(bhnum.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [0, False, False]
    assert cache.exists()


def test_only_verify_loads_the_verifiers(tmp_path):
    # congruence and numtheory compile on verify's first call: compute,
    # export and the anchor sequences never load them.
    cache = str(tmp_path / "table.json")
    commands = [
        ["compute", "--curve", MAIN_CURVE, "--max-weight", "30", "--cache", cache],
        ["export", "--cache", cache],
        ["bernoulli", "--count", "5", "--format", "json"],
        ["hurwitz", "--count", "5"],
        ["verify", "all", "--cache", cache],
    ]
    probe = (
        "import json, sys, bhnum.cli\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    rc = bhnum.cli.main(argv)\n"
        "    seen.append([argv[0], rc, 'bhnum.congruence' in sys.modules,\n"
        "                 'bhnum.numtheory' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    src = str(Path(bhnum.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [
        ["compute", 0, False, False],
        ["export", 0, False, False],
        ["bernoulli", 0, False, False],
        ["hurwitz", 0, False, False],
        ["verify", 0, True, True],
    ]


def test_compute_rejects_misaligned_weight(cache_env, capsys):
    rc, out, err = run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "7"
    )
    assert rc == 2
    assert "multiple of the curve weight" in err
    # A weight below 1 is refused before the multiple check.
    for max_weight in ("0", "-10"):
        rc, out, err = run(
            capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", max_weight
        )
        assert (rc, out, err) == (2, "", "error: --max-weight must be positive\n")


def test_compute_refuses_a_directory_as_the_table_before_expanding(
    tmp_path, capsys, monkeypatch
):
    # The table path is checked before the expansion runs, so a directory
    # costs no compute, gets one fixed line and leaves no temporary file.
    target = tmp_path / "tables"
    target.mkdir()
    calls = []
    monkeypatch.setattr("bhnum.cli.expand_checked", lambda *args: calls.append(args))
    rc, out, err = run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "20",
        "--cache", str(target),
    )
    assert (rc, out, err) == (2, "", f"error: table path {target} is a directory\n")
    assert calls == []
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize(
    "command", [["verify", "vsc"], ["export"]], ids=["verify", "export"]
)
def test_cache_alone_rejects_misaligned_weight(cache_env, capsys, command):
    # With --cache and no --curve the weight step comes from the table.
    compute_main(capsys)
    cache = str(cache_env / "cyclo_a2_b5.json")
    rc, out, err = run(capsys, *command, "--cache", cache, "--max-weight", "15")
    assert (rc, out) == (2, "")
    assert err == "error: --max-weight must be a multiple of the curve weight 10\n"
    # A weight below 1 is refused before the table is looked for.
    missing = str(cache_env / "missing.json")
    for max_weight in ("0", "-10"):
        rc, out, err = run(capsys, *command, "--cache", missing, "--max-weight", max_weight)
        assert (rc, out, err) == (2, "", "error: --max-weight must be positive\n")


def test_export_rows(cache_env, capsys):
    compute_main(capsys)
    rc, out, err = run(capsys, "export", "--curve", MAIN_CURVE)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "10, 403200/11, 3600/11, 40320/11, 360/11"
    assert len(lines) == 3


def test_export_json_round_trips(cache_env, capsys):
    compute_main(capsys)
    rc, out, _ = run(capsys, "export", "--curve", MAIN_CURVE, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["curve"] == MAIN_CURVE
    row = doc["rows"][0]
    assert Fraction(int(row["c"][0]), int(row["c"][1])) == Fraction(403200, 11)


def test_verify_vsc_summary(cache_env, capsys):
    compute_main(capsys)
    rc, out, err = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "VSC N=10 pass G=36655 H=330"
    assert lines[-1] == "VSC: 3/3 pass"


def test_verify_all_passes_and_is_deterministic(cache_env, capsys):
    compute_main(capsys, max_weight=60)
    args = ("verify", "all", "--curve", MAIN_CURVE, "--prime-limit", "60")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "VSC: 6/6 pass" in out1
    assert "KUMMER:" in out1
    assert "INTEGRALITY:" in out1


def test_verify_json_document(cache_env, capsys):
    compute_main(capsys)
    rc, out, _ = run(
        capsys, "verify", "all", "--curve", MAIN_CURVE, "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["format"] == "bhnum.report"
    assert doc["curve"] == MAIN_CURVE
    assert doc["passed"] is True
    kinds = {r["format"] for r in doc["reports"]}
    assert "bhnum.report.vsc" in kinds
    assert "bhnum.report.integrality" in kinds


def test_verify_output_file(cache_env, tmp_path, capsys):
    compute_main(capsys)
    dest = tmp_path / "report.json"
    rc, out, _ = run(
        capsys,
        "verify", "vsc", "--curve", MAIN_CURVE,
        "--format", "json", "--output", str(dest),
    )
    assert rc == 0
    assert out == ""
    assert json.loads(dest.read_text())["passed"] is True


def test_a_refused_command_writes_no_output_file(cache_env, capsys):
    # --output is opened only when rendering starts, after every check, so
    # a command refused before that leaves no file behind.
    compute_main(capsys)
    dest = cache_env / "report.txt"
    rc, out, err = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--max-weight", "40",
        "--output", str(dest),
    )
    assert (rc, out) == (2, "") and "lacks weights [40]" in err
    assert not dest.exists()


def test_verify_restricts_to_max_weight(cache_env, capsys):
    compute_main(capsys)
    rc, out, _ = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--max-weight", "20"
    )
    assert rc == 0
    assert "VSC: 2/2 pass" in out


def test_verify_failure_exit_code(cache_env, capsys):
    compute_main(capsys)
    cache = cache_env / "cyclo_a2_b5.json"
    doc = json.loads(cache.read_text())
    doc["rows"][0]["c"] = [str(int(doc["rows"][0]["c"][0]) + 1), doc["rows"][0]["c"][1]]
    cache.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert rc == 1
    assert "FAIL" in out


def test_missing_cache_hint(cache_env, capsys):
    rc, out, err = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--max-weight", "20"
    )
    assert rc == 2
    assert "run: bhnum compute --curve cyclo:a=2,b=5 --max-weight 20" in err
    # A weight below 1 is refused before the table is looked for.
    for command in (("verify", "vsc"), ("export",)):
        for max_weight in ("0", "-10"):
            rc, out, err = run(
                capsys, *command, "--curve", MAIN_CURVE, "--max-weight", max_weight
            )
            assert (rc, out, err) == (2, "", "error: --max-weight must be positive\n")


def test_cache_beyond_computed_weights(cache_env, capsys):
    compute_main(capsys)
    rc, out, err = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--max-weight", "50"
    )
    assert rc == 2
    assert "lacks weights [40, 50]" in err
    # Order 37 tops out at weight 35, between two multiples of 10.
    table = BHTable.read(cache_env / "cyclo_a2_b5.json")
    short = cache_env / "order37.json"
    BHTable(table.curve, 37, table.method, table.rows).write(short)
    rc, out, err = run(capsys, "verify", "vsc", "--cache", str(short), "--max-weight", "50")
    assert rc == 2
    assert "lacks weights [40, 50]" in err


def test_corrupt_cache(cache_env, capsys):
    compute_main(capsys)
    (cache_env / "cyclo_a2_b5.json").write_text("{]")
    rc, out, err = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert rc == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("order", [-40, 11])
def test_cache_order_without_weights_is_a_usage_error(cache_env, capsys, order):
    # An order below w + 2 = 12 holds no weight; verify must not report
    # 0/0 totals off it and exit 0.
    compute_main(capsys)
    cache = cache_env / "cyclo_a2_b5.json"
    doc = json.loads(cache.read_text())
    doc.update(order=order, rows=[])
    cache.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "all", "--cache", str(cache))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and f"table order {order} " in err


def test_zero_denominator_cache_is_a_usage_error(cache_env, capsys):
    compute_main(capsys)
    cache = cache_env / "cyclo_a2_b5.json"
    doc = json.loads(cache.read_text())
    doc["rows"][0]["c"] = ["1", "0"]
    cache.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_unreadable_paths_are_usage_errors(cache_env, capsys):
    rc, out, err = run(capsys, "verify", "vsc", "--cache", str(cache_env))
    assert rc == 2 and err.startswith("error:")
    compute_main(capsys)
    rc, out, err = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--output", str(cache_env)
    )
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("spelling", ["t.json", "./t.json", "link.json", "hard.json"])
@pytest.mark.parametrize(
    "command",
    [["compute", "--curve", MAIN_CURVE, "--max-weight", "30"], ["verify", "vsc"], ["export"]],
    ids=["compute", "verify", "export"],
)
def test_output_naming_the_table_file_is_refused(
    tmp_path, capsys, monkeypatch, command, spelling
):
    # However it is spelled (link.json is a symlink to t.json, hard.json a
    # hard link), an --output that is the table file is refused before any
    # expansion or read, and the table keeps its bytes.
    monkeypatch.chdir(tmp_path)
    rc, _, _ = run(capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "30",
                   "--cache", "t.json")
    assert rc == 0
    (tmp_path / "link.json").symlink_to("t.json")
    os.link(tmp_path / "t.json", tmp_path / "hard.json")
    before = (tmp_path / "t.json").read_bytes()

    def untouched(*args):
        raise AssertionError("the table was expanded or read")

    monkeypatch.setattr("bhnum.cli.expand_checked", untouched)
    monkeypatch.setattr(BHTable, "read", untouched)
    rc, out, err = run(capsys, *command, "--cache", "t.json", "--output", spelling)
    assert (rc, out, err) == (2, "", f"error: --output {spelling} is the table file t.json\n")
    assert (tmp_path / "t.json").read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ("kummer", "--depth", "0"),
        ("kummer", "--depth", "-1"),
        ("kummer", "--prime-limit", "0"),
        ("all", "--prime-limit", "0"),
        ("all", "--depth", "0"),
    ],
)
def test_sweep_bounds_below_one_are_rejected(cache_env, capsys, monkeypatch, argv):
    compute_main(capsys)

    def no_check(*args):
        raise AssertionError("a check ran although the sweep bounds are invalid")

    for name in ("vsc_decompose", "kummer_sweep", "integrality_scan"):
        monkeypatch.setattr(f"bhnum.congruence.{name}", no_check)
    rc, out, err = run(capsys, "verify", *argv, "--curve", MAIN_CURVE)
    assert rc == 2
    assert out == ""
    assert err == f"error: {argv[1]} must be positive\n"


# SHA-256 of the stdout of `verify all --prime-limit 100 --depth 2` on the
# weight-100 table of cyclo(2,5), recorded while every command still built
# both renderings; building only the requested one must keep these bytes.
PINNED_VERIFY_ALL = {
    "summary": "50374fa0b9375e849d462b2ce4026341673ebeeda0a0f7b75eddc88b1255969a",
    "json": "34f39c40886d6d2db2e5dbd133eb7cb5654a516ec9e4ecb51e209a9661290221",
}


def test_verify_all_output_bytes_are_pinned(cache_env, capsys):
    compute_main(capsys, max_weight=100)
    for fmt, digest in PINNED_VERIFY_ALL.items():
        rc, out, _ = run(
            capsys,
            "verify", "all", "--curve", MAIN_CURVE,
            "--prime-limit", "100", "--depth", "2", "--format", fmt,
        )
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# The weight-1000 cyclo(2,5) table the benchmark verifies, and the SHA-256
# of its `verify all --prime-limit 1000 --depth 3` summary, recorded while
# every Kummer valuation was taken on the exact combination.
BENCH_FIXTURE = Path(__file__).parents[1] / "bhbench/fixtures/cyclo_a2_b5_w1000.json"
PINNED_BENCH_FIXTURE_SUMMARY = (
    "978140332c052a140d0d62819e2847fab8519c3727f55e6515b1837e453304d1"
)
# SHA-256 of `verify all --max-weight 300 --prime-limit 300 --depth 3
# --format json` on the same table, recorded with the per-denominator
# digit-table verifier that the shared-denominator residue rows replaced.
PINNED_BENCH_FIXTURE_JSON_300 = (
    "88cdab7f1667a0ff21780384b86074a91f00eedf655744dec982a22ecda62c6d"
)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--prime-limit", "1000", "--depth", "3"), PINNED_BENCH_FIXTURE_SUMMARY),
        (
            ("--max-weight", "300", "--prime-limit", "300", "--depth", "3",
             "--format", "json"),
            PINNED_BENCH_FIXTURE_JSON_300,
        ),
    ],
    ids=["summary", "json"],
)
def test_bench_fixture_reports_are_pinned_line_for_line(capsys, argv, digest):
    # Every line of every report, not just the totals: each valuation,
    # exact combination and remainder the verifiers print.
    rc, out, err = run(capsys, "verify", "all", "--cache", str(BENCH_FIXTURE), *argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 and byte count of `export --cache` on the same table, recorded
# while the table still kept the quotients C_N / N and D_N / N that the
# summary prints.
PINNED_BENCH_FIXTURE_EXPORT = {
    "summary": ("5f5fb5259b12fd045d3ef0d58a613eef54ca37f9c4596a4670f59c630f2fd8d1", 461219),
    "json": ("ef9b40e7723ed1780687ee7811e1d9118d10b179e92794cbf9aefc3f2f64cf07", 242498),
}


@pytest.mark.parametrize("fmt", list(PINNED_BENCH_FIXTURE_EXPORT))
def test_bench_fixture_export_is_pinned(capsys, fmt):
    rc, out, err = run(capsys, "export", "--cache", str(BENCH_FIXTURE), "--format", fmt)
    assert (rc, err) == (0, "")
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == PINNED_BENCH_FIXTURE_EXPORT[fmt]


def test_summary_mode_forms_no_kummer_combination(cache_env, capsys, monkeypatch):
    # Summary reports print only valuations, which the p-adic digits give;
    # the exact combinations are for JSON reports.
    def no_combination(*args):
        raise AssertionError("an exact Kummer combination was formed")

    compute_main(capsys, max_weight=100)
    monkeypatch.setattr(congruence, "_combination", no_combination)
    rc, out, _ = run(
        capsys,
        "verify", "all", "--curve", MAIN_CURVE,
        "--prime-limit", "100", "--depth", "2", "--format", "summary",
    )
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_ALL["summary"]
    rc, out, _ = run(
        capsys,
        "verify", "all", "--cache", str(BENCH_FIXTURE),
        "--prime-limit", "1000", "--depth", "3",
    )
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_BENCH_FIXTURE_SUMMARY


def test_summary_mode_builds_no_json(cache_env, capsys, monkeypatch):
    def no_json(self):
        raise AssertionError(f"{type(self).__name__}.to_json_dict in summary mode")

    # BHTable serializes through dump, which the table file needs; the
    # patch keeps a to_json_dict from coming back onto the summary path.
    for cls in (VscReport, KummerReport, IntegralityReport, BHTable):
        monkeypatch.setattr(cls, "to_json_dict", no_json, raising=False)
    rc, out, _ = compute_main(capsys, max_weight=60)
    assert rc == 0 and out.startswith("COMPUTE ")
    rc, out, _ = run(
        capsys, "verify", "all", "--curve", MAIN_CURVE, "--prime-limit", "60"
    )
    assert rc == 0
    assert "VSC: 6/6 pass" in out and "INTEGRALITY:" in out


def test_cache_curve_mismatch(cache_env, capsys):
    compute_main(capsys)
    rc, out, err = run(
        capsys,
        "verify", "vsc",
        "--curve", "minusx:g=1",
        "--cache", str(cache_env / "cyclo_a2_b5.json"),
    )
    assert rc == 2
    assert "is for cyclo:a=2,b=5" in err


def test_verify_refuses_minusx_tables(cache_env, capsys):
    rc, _, _ = run(capsys, "compute", "--curve", "minusx:g=1", "--max-weight", "8")
    assert rc == 0
    rc, out, err = run(capsys, "verify", "vsc", "--curve", "minusx:g=1")
    assert (rc, out) == (2, "")
    assert err == (
        "error: the von Staudt-Clausen analogue is only proven for "
        "cyclo:a=2,b=5; refusing minusx:g=1\n"
    )


def test_bad_curve_descriptor(cache_env, capsys):
    rc, out, err = run(
        capsys, "compute", "--curve", "cyclo:a=2,b=4", "--max-weight", "10"
    )
    assert rc == 2
    assert "error:" in err
    # An empty or blank --curve is a descriptor to parse, not an absent
    # flag, even where --cache alone would locate the table.
    assert compute_main(capsys)[0] == 0
    cache = str(cache_env / "cyclo_a2_b5.json")
    for curve in ("", " "):
        for argv in (
            ("compute", "--curve", curve, "--max-weight", "10"),
            ("verify", "all", "--curve", curve, "--cache", cache),
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, ""), argv
            assert "cannot parse curve descriptor" in err, argv


def test_bad_arguments_exit_code(cache_env, capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "compute", "--curve", MAIN_CURVE)[0] == 2


def test_certificate_failure_exit_code(cache_env, capsys, monkeypatch):
    curve = CurveSpec.cyclotomic(3, 4)
    good = expand_online(curve, 14)
    limit = sys.get_int_max_str_digits()
    # The second bump leaves a residual too long for str() to format.
    for by in (1, Fraction(BIG + 1, 7)):
        bad = bump(good, "x", len(good.x) - 1, by)
        monkeypatch.setattr("bhnum.generator.expand_online", lambda c, o: bad)
        rc, out, err = run(
            capsys, "compute", "--curve", str(curve), "--max-weight", "12"
        )
        assert rc == 3
        assert "fails the curve equation" in err
        assert not (cache_env / "cyclo_a3_b4.json").exists()
        assert sys.get_int_max_str_digits() == limit


# Past CPython's default 4300-digit int/str limit, so the tests spell the
# number out themselves instead of calling str().
BIG_TEXT = "1" + "0" * 5000
BIG = 10**5000


def wide_table():
    """A cyclo(2,5) table through weight 1600 whose VSC remainders are the
    integers N, except G = H = BIG at N = 1600.  Synthetic: a real
    expansion to weight 1600 takes seconds."""
    curve = CurveSpec.cyclotomic(2, 5)
    zero = BHTable(curve, 1602, "online", {n: (0, 0) for n in range(10, 1601, 10)})
    rows = {}
    for n in zero.weights():
        report = vsc_decompose(zero, n)
        k = BIG if n == 1600 else n
        rows[n] = (k - report.g_remainder, k - report.h_remainder)
    return BHTable(curve, 1602, "online", rows)


def test_tables_past_the_int_digit_limit(cache_env, capsys, monkeypatch):
    table = wide_table()
    monkeypatch.setattr("bhnum.cli.expand_checked", lambda curve, order: None)
    monkeypatch.setattr("bhnum.cli.extract_numbers", lambda expansion: table)
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "1600",
        "--format", "json",
    )
    assert (rc, err) == (0, "")
    assert out == table_text(table)
    assert len(json.loads(out)["rows"][-1]["c"][0]) > 5000
    assert BHTable.read(cache_env / "cyclo_a2_b5.json").rows == table.rows
    rc, out, err = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert (rc, err) == (0, "")
    assert f"VSC N=1600 pass G={BIG_TEXT} H={BIG_TEXT}" in out.splitlines()
    rc, out, err = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--format", "json"
    )
    assert rc == 0
    assert json.loads(out)["reports"][-1]["g_remainder"] == [BIG_TEXT, "1"]
    rc, out, err = run(capsys, "export", "--curve", MAIN_CURVE)
    last = out.splitlines()[-1]
    assert rc == 0 and last.startswith("1600, ") and len(last) > 4 * 5000
    assert sys.get_int_max_str_digits() == limit


def test_oversized_digit_string_in_cache_is_a_usage_error(cache_env, capsys):
    # A weight-30 table (order 32) needs a few dozen digits; the reader
    # refuses a 5000-digit string before parsing it.
    compute_main(capsys)
    cache = cache_env / "cyclo_a2_b5.json"
    doc = json.loads(cache.read_text())
    doc["rows"][0]["c"] = [BIG_TEXT, "1"]
    cache.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "exceeds" in err


def test_bernoulli_command(capsys):
    rc, out, err = run(capsys, "bernoulli", "--count", "3")
    assert rc == 0
    assert out.splitlines() == ["2, 1/6", "4, -1/30", "6, 1/42"]
    rc, out, _ = run(capsys, "bernoulli", "--count", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["values"][0] == {"index": 2, "value": ["1", "6"]}
    assert run(capsys, "bernoulli", "--count", "0")[0] == 2


def test_hurwitz_command(capsys):
    rc, out, err = run(capsys, "hurwitz", "--count", "2")
    assert rc == 0
    assert out.splitlines() == ["4, 1/10", "8, 3/10"]
    assert run(capsys, "hurwitz", "--count", "-1")[0] == 2
