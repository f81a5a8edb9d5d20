"""Checks on the benchmark itself, at smoke size.

Run from the root of a checkout:  python3 -m pytest -q bhbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

FIXTURE = HERE / "fixtures" / "cyclo_a2_b5_w1000.json"


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bhbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_canonical_rows_ignore_header_and_spelling():
    doc = json.loads(FIXTURE.read_text())
    pinned = run.canonical_rows(doc)
    doc["engine"] = "some-engine"
    doc["rows_sha256"] = "0" * 64
    doc["rows"].reverse()
    num, den = doc["rows"][0]["c"]
    doc["rows"][0]["c"] = [str(3 * int(num)), str(3 * int(den))]
    assert run.canonical_rows(doc) == pinned
    doc["rows"][0]["d"] = ["1", "7"]
    assert run.canonical_rows(doc) != pinned


def test_pins_agree_with_the_fixture():
    ref = json.loads((HERE / "reference.json").read_text())
    doc = json.loads(FIXTURE.read_text())
    assert run.canonical_rows(doc) == (ref["fixture"]["rows"], ref["fixture"]["rows_sha256"])
    for max_weight in (40, 600):
        sub = dict(doc, rows=[r for r in doc["rows"] if r["weight"] <= max_weight])
        pin = ref["tables"][f"cyclo:a=2,b=5@{max_weight}"]
        assert run.canonical_rows(sub) == (pin["rows"], pin["rows_sha256"])


def test_checks_reject_wrong_results(tmp_path):
    compute = run.Op("compute.x", ["compute"], FIXTURE, {"rows": 100, "rows_sha256": "0" * 64})
    assert compute.check(0, "") is not None
    assert compute.check(2, "") is not None
    good = ["VSC: 1/1 pass"]
    verify = run.Op("verify", ["verify"], FIXTURE, good)
    assert verify.check(0, "VSC N=10 pass\nVSC: 1/1 pass\n") is None
    assert verify.check(0, "VSC: 0/1 pass\n") is not None
    assert verify.check(1, "VSC: 1/1 pass\n") is not None


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _ in run.PER_LAYER]
    for name in run.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    m = {name: v["value"] for name, v in first["metrics"].items()}
    assert m["generator.ode_fallbacks"] == 0
    assert m["congruence.failed_checks"] == 0
    if workload == "compute-hyper":
        assert m["generator.ode_s"] > 0 and m["generator.crosscheck_s"] > 0
        assert m["series.conv_coeff_calls"] > 0
    elif workload == "compute-a3":
        assert m["generator.ode_s"] == 0 and m["generator.crosscheck_s"] == 0
        assert m["generator.reversion_s"] > 0
    else:
        assert all(v == 0 for name, v in m.items() if name.startswith("series."))
        assert m["congruence.integrality_pairs"] > 0 and m["generator.cache_read_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bhbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("compute-hyper", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
