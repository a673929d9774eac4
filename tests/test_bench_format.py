"""BENCH trend files: dated entries only."""

from __future__ import annotations

import datetime
import json
from pathlib import Path

import pytest

from benchmarks.bench_kernels import load_trend_entries

ROOT = Path(__file__).resolve().parent.parent

LEGACY = {
    "kernels": {"benchmark": "eqntott", "families": []},
    "end_to_end": {"benchmark": "eqntott", "warm_speedup": 290.7},
}


def test_trend_file_parses(tmp_path):
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(
        json.dumps({"entries": [{"date": "2026-08-07", "kernels": {}}]})
    )
    entries = load_trend_entries(path)
    assert entries == [{"date": "2026-08-07", "kernels": {}}]


def test_legacy_payload_is_not_converted(tmp_path):
    """A pre-trend payload (sections at top level) has no trend entries."""
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps(LEGACY))
    assert load_trend_entries(path) == []


def test_missing_or_corrupt_file_is_empty(tmp_path):
    assert load_trend_entries(tmp_path / "absent.json") == []
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_trend_entries(bad) == []


@pytest.mark.parametrize("name", ["BENCH_kernels.json", "BENCH_serve.json"])
def test_checked_in_entries_are_dated(name):
    payload = json.loads((ROOT / name).read_text())
    assert isinstance(payload.get("entries"), list) and payload["entries"]
    for entry in payload["entries"]:
        assert isinstance(entry["date"], str)
        datetime.date.fromisoformat(entry["date"])


def test_checked_in_file_is_trend_format():
    payload = json.loads((ROOT / "BENCH_kernels.json").read_text())
    assert isinstance(payload.get("entries"), list) and payload["entries"]
    # the modern families are part of the recorded kernel bench
    latest = payload["entries"][-1]["kernels"]["families"]
    recorded = {row["family"] for row in latest}
    assert {"perceptron", "TAGE"} <= recorded
