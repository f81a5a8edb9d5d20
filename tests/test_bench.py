import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bhnum

ROOT = Path(__file__).resolve().parents[1]


def test_bench_json_prints_every_row_as_one_document():
    # A smoke run of benchmarks/bench.py --json: one JSON document, one row
    # per stage in the order the table prints them, with the notes.
    src = str(Path(bhnum.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench.py"),
         "--order", "102", "--repeat", "1", "--json"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=300,
    )
    doc = json.loads(done.stdout)
    assert (doc["curve"], doc["order"], doc["repeat"]) == ("cyclo:a=2,b=5", 102, 1)
    rows = {row["stage"]: row for row in doc["rows"]}
    assert list(rows) == [
        "pipeline/online", "certify", "extract", "cache/write", "cache/read",
        "verify/vsc", "verify/kummer", "verify/integrality", "verify/json", "import",
        "import/verify",
    ]
    assert all(row["seconds"] >= 0 for row in doc["rows"])
    assert rows["certify"]["note"].startswith("4 products")
    note = rows["cache/write"]["note"]
    assert re.fullmatch(r"[1-9]\d* bytes written, peak \d+\.\d\dx of them", note)
    note = rows["verify/kummer"]["note"]
    assert re.fullmatch(r"\d+ primes with rows, at most \d+ digits, \d+ check sides exact", note)
    assert re.fullmatch(r"[1-9]\d* bytes written", rows["verify/json"]["note"])
    assert rows["import"]["note"] == "5 modules compiled"
    assert rows["import/verify"]["note"] == "2 modules compiled"
