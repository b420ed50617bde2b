"""The decoder headline section of the benchmark regression gate.

Drives ``benchmarks/check_regression.py::main`` with the committed
``benchmarks/BENCH_decoder.json`` as the baseline and a small saved
candidate export, so no benchmark runs: a rate within tolerance
passes, a rate below the floor fails, and an export without the
headline entry is rejected outright.  The committed baseline names its
entry ``test_decode_speed_16_tags[reference]``; the candidates use the
unparametrized name the speed test records today.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    REPO_ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)

BASELINE = REPO_ROOT / "benchmarks" / "BENCH_decoder.json"


def _baseline_rate() -> float:
    for bench in json.loads(BASELINE.read_text())["benchmarks"]:
        if bench["name"].startswith("test_decode_speed_16_tags"):
            return float(bench["samples_per_second"])
    raise AssertionError("committed baseline has no headline entry")


def _gate(tmp_path: Path, benchmarks: list) -> int:
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({"benchmarks": benchmarks}))
    # Point the service, survival and signoff sections at files that
    # do not exist, so only the decoder headline is gated.
    missing = tmp_path / "missing.json"
    return check_regression.main([
        "--baseline", str(BASELINE), "--candidate", str(candidate),
        "--service-candidate", str(missing),
        "--survival", str(missing),
        "--signoff-candidate", str(missing)])


def _headline(rate: float) -> dict:
    return {"name": "test_decode_speed_16_tags",
            "samples_per_second": rate}


def test_rate_within_tolerance_passes(tmp_path):
    assert _gate(tmp_path, [_headline(0.9 * _baseline_rate())]) == 0


def test_rate_below_the_floor_fails(tmp_path):
    assert _gate(tmp_path, [_headline(0.5 * _baseline_rate())]) == 1


def test_candidate_without_headline_entry_is_rejected(tmp_path):
    other = {"name": "test_guard_passthrough_speed",
             "samples_per_second": 1e9}
    with pytest.raises(SystemExit):
        _gate(tmp_path, [other])
