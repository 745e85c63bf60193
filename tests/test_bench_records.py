"""The committed benchmark records (BENCH_<label>.json, written by
tools/bench_record.py) follow their schema, and the kernel workload's
request mix still matches the calls verify makes into polybernoulli."""
import json
import subprocess
import sys
from pathlib import Path

from jsonschema import validate

ROOT = Path(__file__).resolve().parent.parent


def test_bench_records_validate_against_schema():
    schema = json.loads((ROOT / "docs" / "schemas" / "bench-record.schema.json").read_text())
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        validate(record, schema)
        assert path.name == f"BENCH_{record['label']}.json"


def test_kernel_mix_matches_verify():
    # bench/kernel_mix.py exits 1 when workloads.KERNEL_MIX drifts from verify's call counts
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "kernel_mix.py")], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
