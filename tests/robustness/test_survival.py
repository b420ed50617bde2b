"""The survival matrix: classification, determinism, and the flagship
acceptance cell.

The full scenario × config sweep runs in CI's chaos-service job; here
the suite pins the classification taxonomy, the registry's integrity,
matrix serialization, and the two cells the whole tentpole hangs on:
the flat baseline must decode identically well under both configs, and
``hallway_14`` must be lost at baseline yet decoded with the equalizer
pre-stage enabled.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.scenario import ScenarioSpec, build_capture
from repro.robustness.scenarios import SCENARIOS
from repro.robustness.survival import (DECODER_CONFIGS,
                                       classify_decode,
                                       run_survival_matrix)

_BY_NAME = {s.name: s for s in SCENARIOS}


def test_classification_taxonomy():
    assert classify_decode(6, 6, 0.95) == "decoded"
    assert classify_decode(6, 6, 0.84) == "degraded"
    assert classify_decode(5, 6, 0.95) == "degraded"
    assert classify_decode(2, 6, 0.10) == "confined"
    assert classify_decode(0, 6, 0.0) == "confined"


def test_registry_names_are_unique_and_cover_the_regimes():
    names = [s.name for s in SCENARIOS]
    assert len(names) == len(set(names))
    assert {"flat_6", "flat_14", "hallway_14"} <= set(names)
    kinds = {type(i).__name__
             for s in SCENARIOS for i in s.impairments}
    assert {"MultipathChannel", "TagMobility",
            "SweptInterferer"} <= kinds


def test_scenario_captures_are_deterministic():
    scenario = _BY_NAME["room_10"]
    a = build_capture(scenario)
    b = build_capture(scenario)
    np.testing.assert_array_equal(a.trace.samples, b.trace.samples)
    assert [t.tag_id for t in a.truths] == \
        [t.tag_id for t in b.truths]
    for ta, tb in zip(a.truths, b.truths):
        np.testing.assert_array_equal(ta.bits, tb.bits)


@pytest.fixture(scope="module")
def key_cells():
    """The two rows the acceptance criteria name, swept once."""
    return run_survival_matrix(
        scenarios=[_BY_NAME["flat_6"], _BY_NAME["hallway_14"]])


def test_flat_baseline_decodes_under_both_configs(key_cells):
    row = key_cells.cells["flat_6"]
    for config in DECODER_CONFIGS:
        assert row[config].classification == "decoded"
    # The equalizer refused to touch the flat channel.
    assert not row["equalizer"].equalizer_applied
    assert row["equalizer"].goodput == pytest.approx(
        row["baseline"].goodput)


def test_hallway_14_is_rescued_by_the_equalizer(key_cells):
    """The flagship cell: lost without the pre-stage, decoded with it."""
    row = key_cells.cells["hallway_14"]
    assert row["baseline"].classification in ("degraded", "confined")
    assert row["equalizer"].classification == "decoded"
    assert row["equalizer"].equalizer_applied
    assert row["equalizer"].goodput >= 0.85
    assert row["equalizer"].goodput > row["baseline"].goodput


def test_matrix_serializes_for_the_ci_artifact(key_cells):
    payload = key_cells.to_dict()
    rendered = json.loads(json.dumps(payload))
    assert rendered["configs"] == sorted(DECODER_CONFIGS)
    assert set(rendered["thresholds"]) == {"decoded_goodput",
                                           "confined_goodput"}
    cell = rendered["scenarios"]["hallway_14"]["equalizer"]
    assert set(cell) == {"classification", "matched", "n_tags",
                         "goodput", "error", "equalizer_applied"}


def test_failed_classification_captures_the_exception(monkeypatch):
    """A decode that raises is recorded, not propagated."""
    import repro.robustness.survival as survival
    from repro.types import SimulationProfile

    class _Boom:
        def __init__(self, *args, **kwargs):
            pass

        def decode_epoch(self, trace):
            raise RuntimeError("confinement broke")

    monkeypatch.setattr(survival, "LFDecoder", _Boom)
    cell = survival._decode_cell(
        ScenarioSpec(name="tiny", n_tags=2, bitrate_bps=10e3,
                     epoch_s=0.002),
        {}, SimulationProfile.fast())
    assert cell.classification == "failed"
    assert "RuntimeError" in cell.error
