"""Tests for the pipeline's internal helpers."""

import numpy as np
import pytest

from repro.core.stages import (dedup_streams, hold_cluster_noise,
                               project_single)
from repro.errors import DecodeError
from repro.types import DecodedStream


def make_stream(bits, offset, confidence=1.0, bitrate=10e3,
                period=250.0, collided=False):
    return DecodedStream(bits=np.asarray(bits, dtype=np.int8),
                         offset_samples=offset,
                         period_samples=period, bitrate_bps=bitrate,
                         collided=collided, confidence=confidence)


class TestProjectSingle:
    def test_projects_onto_edge_axis(self):
        e = 0.1 + 0.04j
        rng = np.random.default_rng(0)
        states = rng.integers(-1, 2, 200)
        diffs = states * e + (rng.normal(0, 0.002, 200)
                              + 1j * rng.normal(0, 0.002, 200))
        obs = project_single(diffs)
        # Up to a global sign, observations recover the states.
        sign = 1.0 if np.sum(obs * states) >= 0 else -1.0
        np.testing.assert_allclose(sign * obs, states, atol=0.15)

    def test_scale_normalized_to_unit(self):
        e = 0.05 - 0.02j   # scale must not depend on |e|
        states = np.array([1, -1, 0, 1, -1, 0, 1, -1] * 10)
        obs = project_single(states * e)
        strong = np.abs(obs) > 0.5
        assert np.median(np.abs(obs[strong])) == pytest.approx(1.0,
                                                               abs=0.05)

    def test_all_zero_rejected(self):
        with pytest.raises(DecodeError):
            project_single(np.zeros(20, dtype=complex))

    def test_empty_rejected(self):
        with pytest.raises(DecodeError):
            project_single(np.empty(0, dtype=complex))


class TestHoldClusterNoise:
    def test_estimates_hold_scatter(self):
        e = 0.1 + 0j
        rng = np.random.default_rng(1)
        states = np.array([1, -1] * 50 + [0] * 100)
        noise = (rng.normal(0, 0.004 / np.sqrt(2), 200)
                 + 1j * rng.normal(0, 0.004 / np.sqrt(2), 200))
        diffs = states * e + noise
        estimate = hold_cluster_noise(diffs)
        assert estimate == pytest.approx(0.004, rel=0.4)

    def test_degenerate_inputs(self):
        assert hold_cluster_noise(np.zeros(5, dtype=complex)) == 0.0
        assert hold_cluster_noise(
            np.full(5, 0.1 + 0j, dtype=complex)) == 0.0


class TestDedupStreams:
    def test_ghost_removed(self):
        bits = [1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0]
        real = make_stream(bits, 1000.0, confidence=1.0)
        ghost = make_stream(bits, 1004.0, confidence=0.8)
        kept = dedup_streams([ghost, real])
        assert kept == [real]

    def test_distinct_tag_same_phase_kept(self):
        """Same phase but different bits = a genuine second tag."""
        a = make_stream([1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1],
                        1000.0)
        b = make_stream([1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0],
                        1003.0)
        kept = dedup_streams([a, b])
        assert len(kept) == 2

    def test_different_rates_never_deduped(self):
        a = make_stream([1, 0, 1, 0], 1000.0, bitrate=10e3)
        b = make_stream([1, 0, 1, 0], 1000.0, bitrate=5e3,
                        period=500.0)
        assert len(dedup_streams([a, b])) == 2

    def test_phase_wraparound_gap(self):
        """Offsets one period apart are the same grid phase."""
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        a = make_stream(bits, 1000.0)
        b = make_stream(bits, 1252.0)  # ~one period later, same bits
        assert len(dedup_streams([a, b])) == 1

    def test_higher_confidence_wins(self):
        bits = [1, 0, 1, 1, 0, 0]
        weak = make_stream(bits, 1000.0, confidence=0.8)
        strong = make_stream(bits, 1002.0, confidence=1.0)
        kept = dedup_streams([weak, strong])
        assert kept[0].confidence == 1.0

    def test_empty(self):
        assert dedup_streams([]) == []
