"""Per-stream fault isolation and session-cache quarantine tests."""

import sys
import time

import numpy as np
import pytest

from repro.analysis.throughput import match_streams
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.core.session import SessionConfig, SessionState
from repro.core.stages.tracking import TrackStage
from repro.phy.channel import ChannelModel
from repro.reader.simulator import NetworkSimulator
from repro.tags.base import FixedOffsetModel
from repro.tags.lf_tag import LFTag
from repro.types import TagConfig

from ..conftest import build_decoder, build_network


class TestThreeWayCollisionFallback:
    """Three tags on one grid: the parallelogram separator cannot split
    them (Section 3.4 handles two), so the decoder must surface an
    unresolvable-collision fault with the collider count — while every
    stream on *other* grids still decodes."""

    @pytest.fixture(scope="class")
    def capture(self, fast_profile):
        gen = np.random.default_rng(4)
        base = 0.11 + 0.02j
        unit = base / abs(base)
        coeffs = {
            0: base,
            1: complex(0.09 * np.exp(1j * np.deg2rad(75)) * unit),
            2: complex(0.10 * np.exp(1j * np.deg2rad(150)) * unit),
            3: complex(0.12 * np.exp(1j * np.deg2rad(40))),
        }
        channel = ChannelModel(coeffs, environment_offset=0.5 + 0.3j)
        tags = []
        for k in range(4):
            # Tags 0-2 share an offset and run drift-free so their bit
            # grids coincide exactly; tag 3 sits on its own grid.
            offset = 6e-4 if k < 3 else 1.45e-3
            drift = 0.0 if k < 3 else 20.0
            tags.append(LFTag(
                TagConfig(tag_id=k, bitrate_bps=10e3,
                          channel_coefficient=coeffs[k],
                          clock_drift_ppm=drift),
                offset_model=FixedOffsetModel(offset),
                profile=fast_profile,
                rng=np.random.default_rng(gen.integers(0, 2 ** 63))))
        sim = NetworkSimulator(
            tags, channel, profile=fast_profile, noise_std=0.008,
            rng=np.random.default_rng(gen.integers(0, 2 ** 63)))
        return sim.run_epoch(0.012)

    @pytest.fixture(scope="class")
    def result(self, capture, fast_profile):
        return build_decoder(fast_profile).decode_epoch(capture.trace)

    def test_unresolvable_fault_reports_three_colliders(self, result):
        faults = [f for f in result.degraded_streams
                  if f.error_type == "CollisionUnresolvableError"]
        assert faults
        assert all(f.stage == "separate" for f in faults)
        assert all(not f.expected for f in faults)
        assert any(f.n_colliders >= 3 for f in faults)
        assert result.degraded

    def test_collider_diagnosis_timed_into_detect(self, capture, result,
                                                  fast_profile,
                                                  monkeypatch):
        """The diagnosis sweep counts toward ``detect``: slowing it by
        a sleep grows that stage by the sleep, and leaves the reported
        collider counts alone."""
        from repro.core.stages import collision as collision_stage
        diagnose = collision_stage._diagnose_colliders
        sleep_s, calls = 0.2, []

        def slow_diagnosis(diffs, report):
            calls.append(1)
            time.sleep(sleep_s)
            return diagnose(diffs, report)

        base = build_decoder(fast_profile).decode_epoch(capture.trace)
        monkeypatch.setattr(collision_stage, "_diagnose_colliders",
                            slow_diagnosis)
        slowed = build_decoder(fast_profile).decode_epoch(capture.trace)
        assert calls
        grown = (slowed.stage_timings["detect"]
                 - base.stage_timings["detect"])
        assert grown >= 0.8 * sleep_s * len(calls)
        assert [f.n_colliders for f in slowed.degraded_streams] == \
            [f.n_colliders for f in result.degraded_streams]

    def test_other_grid_still_decodes(self, capture, result):
        matches = {m.tag_id: m for m in match_streams(capture, result)}
        assert matches[3].matched
        assert matches[3].bit_errors / max(matches[3].bits_sent, 1) \
            < 0.05


class TestResidualTiming:
    """Per-stream helpers count toward the bucket of the work they
    feed, not toward ``core.pipeline.residual_ms``: slowing one call
    site by a sleep grows that bucket by the sleep and leaves the
    decoded bits alone."""

    @pytest.fixture(scope="class")
    def captures(self, fast_profile):
        return {
            # Collisions, multilevel checks and a collinear split.
            "four_tags": build_network(4, fast_profile,
                                       seed=5).run_epoch(0.01),
            # Too noisy for the edge-based fold: the analog fallback
            # decodes it.
            "fallback": build_network(1, fast_profile, noise_std=0.03,
                                      seed=11).run_epoch(0.01),
        }

    @pytest.mark.parametrize("module, name, caller, bucket, capture", [
        ("collision", "hold_cluster_noise", None, "detect", "four_tags"),
        ("separation", "project_single_scaled", None, "separate",
         "four_tags"),
        ("folding", "project_single", None, "separate", "fallback"),
        ("context", "track_rng", "run", "detect", "four_tags"),
        ("context", "track_rng", "decode_collinear", "separate",
         "four_tags"),
    ])
    def test_call_timed_into_its_bucket(self, captures, fast_profile,
                                        monkeypatch, module, name, caller,
                                        bucket, capture):
        from repro.core import stages
        from repro.core.stages.context import DecodeContext
        owner = (DecodeContext if module == "context"
                 else getattr(stages, module))
        original = getattr(owner, name)
        sleep_s, calls = 0.05, []

        def slowed(*args, **kwargs):
            # ``caller`` picks one of several call sites of a method.
            if caller is None or sys._getframe(1).f_code.co_name == caller:
                calls.append(1)
                time.sleep(sleep_s)
            return original(*args, **kwargs)

        trace = captures[capture].trace
        base = build_decoder(fast_profile).decode_epoch(trace)
        monkeypatch.setattr(owner, name, slowed)
        slowed_result = build_decoder(fast_profile).decode_epoch(trace)
        assert calls
        grown = (slowed_result.stage_timings[bucket]
                 - base.stage_timings[bucket])
        assert grown >= 0.8 * sleep_s * len(calls)
        assert [s.bits.tolist() for s in slowed_result.streams] == \
            [s.bits.tolist() for s in base.streams]


class TestStreamFaultIsolation:
    def test_unexpected_exception_confined_to_one_stream(
            self, fast_profile, monkeypatch):
        sim = build_network(4, fast_profile, seed=2)
        capture = sim.run_epoch(0.01)
        decoder = build_decoder(fast_profile)
        clean = decoder.decode_epoch(capture.trace)
        clean_matched = sum(m.matched
                            for m in match_streams(capture, clean))
        assert clean_matched == 4

        original = TrackStage.run
        state = {"calls": 0}

        def sabotaged(self, ctx):
            state["calls"] += 1
            if state["calls"] == 2:
                raise RuntimeError("synthetic stage bug")
            return original(self, ctx)

        monkeypatch.setattr(TrackStage, "run", sabotaged)
        result = build_decoder(fast_profile).decode_epoch(capture.trace)
        faults = [f for f in result.degraded_streams
                  if f.error_type == "RuntimeError"]
        assert len(faults) == 1
        assert not faults[0].expected
        assert "synthetic stage bug" in faults[0].message
        assert result.degraded
        # The other hypotheses decoded despite the mid-epoch blow-up.
        matched = sum(m.matched for m in match_streams(capture, result))
        assert matched >= clean_matched - 1

    def test_routine_gate_failures_stay_expected(self, fast_profile):
        """A healthy multi-tag decode may abandon junk hypotheses, but
        those are expected faults and never flip ``degraded``."""
        sim = build_network(4, fast_profile, seed=5)
        capture = sim.run_epoch(0.01)
        result = build_decoder(fast_profile).decode_epoch(capture.trace)
        assert all(f.expected for f in result.degraded_streams)
        assert not result.degraded


class TestSessionQuarantine:
    def _tracked_state(self, max_invalidations=3):
        state = SessionState(SessionConfig(
            max_invalidations=max_invalidations))
        diffs = np.array([0.1 + 0.05j] * 8 + [-0.1 - 0.05j] * 8)
        tracker = state.observe(None, period_samples=250.0,
                                offset_samples=10.0,
                                differentials=diffs)
        state.end_epoch({})
        return state, tracker, diffs

    def test_repeated_invalidation_quarantines(self):
        state, tracker, _ = self._tracked_state(max_invalidations=3)
        for _ in range(2):
            state.note_invalidation(tracker)
            assert not tracker.quarantined
        state.note_invalidation(tracker)
        assert tracker.quarantined
        assert state.n_quarantined == 1

    def test_warm_success_resets_the_count(self):
        state, tracker, _ = self._tracked_state(max_invalidations=3)
        state.note_invalidation(tracker)
        state.note_invalidation(tracker)
        state.note_warm_success(tracker)
        state.note_invalidation(tracker)
        assert not tracker.quarantined

    def test_quarantined_tracker_is_invisible(self):
        state, tracker, diffs = self._tracked_state(max_invalidations=1)
        state.note_invalidation(tracker)
        assert tracker.quarantined
        state.begin_epoch()
        assert state.warm_hints() == []
        assert state.match(250.0, 10.0, diffs) is None

    def test_quarantined_tracker_dropped_and_stream_reseeds_cold(self):
        state, tracker, diffs = self._tracked_state(max_invalidations=1)
        state.note_invalidation(tracker)
        state.begin_epoch()
        # The stream decodes cold and re-registers as a fresh tracker.
        fresh = state.observe(None, period_samples=250.0,
                              offset_samples=10.0, differentials=diffs)
        assert fresh is not tracker
        state.end_epoch({})
        assert tracker not in state.trackers
        assert fresh in state.trackers
