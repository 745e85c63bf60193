"""The committed benchmark records (BENCH_<label>.json, written by
tools/bench_record.py) follow their schema."""
import json
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
