import json
from fractions import Fraction

import pytest

from bhnum.cli import main
from bhnum.curves import CurveSpec
from bhnum.generator import Expansion, expand_by_ode, expand_online
from bhnum.series import TruncSeries

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
    assert "method=online+ode" in out
    cache = cache_env / "cyclo_a2_b5.json"
    assert cache.exists()
    doc = json.loads(cache.read_text())
    assert doc["format"] == "bhnum.table"
    assert [r["weight"] for r in doc["rows"]] == [10, 20, 30]


def test_compute_rejects_misaligned_weight(cache_env, capsys):
    rc, out, err = run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "7"
    )
    assert rc == 2
    assert "multiple of the curve weight" in err


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


def test_cache_beyond_computed_weights(cache_env, capsys):
    compute_main(capsys)
    rc, out, err = run(
        capsys, "verify", "vsc", "--curve", MAIN_CURVE, "--max-weight", "50"
    )
    assert rc == 2
    assert "lacks weights [40, 50]" in err


def test_corrupt_cache(cache_env, capsys):
    compute_main(capsys)
    (cache_env / "cyclo_a2_b5.json").write_text("{]")
    rc, out, err = run(capsys, "verify", "vsc", "--curve", MAIN_CURVE)
    assert rc == 2
    assert "not valid JSON" in err


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
    assert rc == 2
    assert "only proven for cyclo:a=2,b=5" in err


def test_bad_curve_descriptor(cache_env, capsys):
    rc, out, err = run(
        capsys, "compute", "--curve", "cyclo:a=2,b=4", "--max-weight", "10"
    )
    assert rc == 2
    assert "error:" in err


def test_bad_arguments_exit_code(cache_env, capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "compute", "--curve", MAIN_CURVE)[0] == 2


def _bump_top_x(good):
    terms = dict(good.x_series.terms())
    terms[max(terms)] += 1
    return Expansion(
        good.curve,
        TruncSeries.from_terms(terms, good.x_series.trunc_order),
        good.y_series,
        good.method,
        good.order,
    )


def test_cross_check_failure_exit_code(cache_env, capsys, monkeypatch):
    bad = _bump_top_x(expand_by_ode(CurveSpec.cyclotomic(2, 5), 12))
    monkeypatch.setattr("bhnum.generator.expand_by_ode", lambda c, o: bad)
    rc, out, err = run(
        capsys, "compute", "--curve", MAIN_CURVE, "--max-weight", "10"
    )
    assert rc == 3
    assert "cross-check failure" in err
    assert not (cache_env / "cyclo_a2_b5.json").exists()


def test_certificate_failure_exit_code(cache_env, capsys, monkeypatch):
    curve = CurveSpec.cyclotomic(3, 4)
    bad = _bump_top_x(expand_online(curve, 14))
    monkeypatch.setattr("bhnum.generator.expand_online", lambda c, o: bad)
    rc, out, err = run(
        capsys, "compute", "--curve", str(curve), "--max-weight", "12"
    )
    assert rc == 3
    assert "fails the curve equation" in err
    assert not (cache_env / "cyclo_a3_b4.json").exists()


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
