"""Golden-digest equivalence: the stage graph decodes bit-identically.

``tests/golden/decode_digests.json`` was generated from the decode
path *before* the stage-graph extraction (and is regenerated only as a
deliberate act, see ``tests/golden/generate_digests.py``).  These
tests decode the same fixtures through every entry point — cold
``LFDecoder``, warm ``SessionDecoder``, ``BatchDecoder`` serial and
pooled, ``decode_chunked`` cold and sessioned — under every fidelity
mode, and require the stored digests bit-for-bit.

The observer variants re-run the cold decode with a recording
:class:`StageObserver` attached and require the *same* digest:
observation is a read-only tap, zero-cost to correctness.
"""

import json
from pathlib import Path

import pytest

from repro.core.fidelity import FidelityPolicy
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.core.session_decoder import SessionDecoder
from repro.core.stages import StageObserver

from ..golden.generate_digests import (GOLDEN_PATH, _build_capture,
                                       compute_digests, digest_result)

_GOLDEN = json.loads(GOLDEN_PATH.read_text())


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def fresh(self):
        return compute_digests()

    @pytest.mark.parametrize("key", sorted(_GOLDEN))
    def test_digest_matches_pre_refactor_pin(self, fresh, key):
        assert fresh[key] == _GOLDEN[key], (
            f"decode output changed for {key}; if intentional, "
            f"regenerate tests/golden/decode_digests.json")

    def test_every_entry_point_is_pinned(self, fresh):
        assert set(fresh) == set(_GOLDEN)


class _RecordingObserver(StageObserver):
    def __init__(self):
        self.events = []

    def on_stage_start(self, stage, ctx):
        self.events.append(("start", stage.name))

    def on_stage_end(self, stage, ctx, elapsed_s):
        self.events.append(("end", stage.name))
        assert elapsed_s >= 0.0

    def on_stream_fault(self, fault, ctx):
        self.events.append(("fault", fault.stage))


class TestObserverZeroCost:
    """An attached observer must not change decode output at all."""

    @pytest.fixture(scope="class")
    def fixture(self):
        profile, _, capture = _build_capture(6, seed=11,
                                             duration_s=0.008)
        return profile, capture

    @pytest.mark.parametrize("name,policy", [
        ("adaptive", None),
        ("force_full", FidelityPolicy(force_full=True)),
    ])
    def test_observed_cold_decode_matches_golden(self, fixture, name,
                                                 policy):
        profile, capture = fixture
        config = LFDecoderConfig(candidate_bitrates_bps=[10e3],
                                 profile=profile, fidelity=policy)
        decoder = LFDecoder(config, rng=1)
        observer = _RecordingObserver()
        decoder.add_observer(observer)
        digest = digest_result(decoder.decode_epoch(capture.trace))
        assert digest == _GOLDEN[f"cold/{name}"]
        assert observer.events  # the taps actually fired

    def test_observed_session_decode_matches_golden(self, fixture):
        profile, _ = fixture
        _, sim, capture = _build_capture(6, seed=11,
                                         duration_s=0.008)
        epochs = [capture] + [sim.run_epoch(0.008) for _ in range(2)]
        config = LFDecoderConfig(candidate_bitrates_bps=[10e3],
                                 profile=profile)
        warm = SessionDecoder(config, rng=1)
        warm.add_observer(_RecordingObserver())
        digest = "+".join(
            digest_result(r)
            for r in warm.decode_epochs([e.trace for e in epochs]))
        assert digest == _GOLDEN["session/adaptive"]

    def test_observer_sees_balanced_start_end_pairs(self, fixture):
        profile, capture = fixture
        config = LFDecoderConfig(candidate_bitrates_bps=[10e3],
                                 profile=profile)
        decoder = LFDecoder(config, rng=1)
        observer = _RecordingObserver()
        decoder.add_observer(observer)
        decoder.decode_epoch(capture.trace)
        starts = [n for kind, n in observer.events if kind == "start"]
        ends = [n for kind, n in observer.events if kind == "end"]
        # Every stage that started also ended (nesting reorders the
        # end events: the ``streams`` driver ends after its children).
        assert sorted(starts) == sorted(ends)
        # Epoch stages appear in graph order.
        epoch_names = [n for n in starts
                       if n in ("guard", "edge", "fold", "streams",
                                "fallback", "dedup")]
        assert epoch_names[:4] == ["guard", "edge", "fold", "streams"]

    def test_remove_observer_detaches_it(self, fixture):
        profile, capture = fixture
        config = LFDecoderConfig(candidate_bitrates_bps=[10e3],
                                 profile=profile)
        decoder = LFDecoder(config, rng=1)
        observer = _RecordingObserver()
        decoder.add_observer(observer)
        decoder.remove_observer(observer)
        decoder.decode_epoch(capture.trace)
        assert observer.events == []
