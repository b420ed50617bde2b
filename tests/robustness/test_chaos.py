"""Chaos harness: randomized impairment cocktails against the decoder.

The acceptance bar for the hardened decode path: many seeded cocktails
on a dense (16-tag) epoch with *zero* uncaught exceptions, while a
clean capture decodes bit-identically to the unguarded decoder.
"""

import numpy as np
import pytest

from repro.core.session_decoder import SessionDecoder
from repro.robustness import impair_capture, random_cocktail
from repro.types import EpochResult

from ..conftest import build_decoder, build_network

N_COCKTAILS = 50


@pytest.fixture(scope="module")
def dense_capture(fast_profile):
    """One 16-tag epoch: the densest workload the suite decodes."""
    sim = build_network(16, fast_profile, seed=42)
    return sim.run_epoch(0.01)


def test_chaos_cocktails_never_raise(dense_capture, fast_profile):
    degraded = 0
    for seed in range(N_COCKTAILS):
        cocktail = random_cocktail(rng=1000 + seed)
        impaired = impair_capture(dense_capture, cocktail,
                                  rng=2000 + seed)
        decoder = build_decoder(fast_profile, seed=seed)
        result = decoder.decode_epoch(impaired.trace)
        assert isinstance(result, EpochResult)
        assert result.epoch_index == 0
        degraded += int(result.degraded)
    # The harness must actually be stressing the guard, not decoding
    # fifty effectively-clean captures.
    assert degraded > 0


def test_chaos_session_decoder_never_raises(dense_capture, fast_profile):
    """Warm-start caches survive an impaired epoch stream."""
    decoder = build_decoder(fast_profile, seed=3)
    session = SessionDecoder(config=decoder.config, rng=3)
    sim = build_network(16, fast_profile, seed=42)
    for epoch in range(8):
        capture = sim.run_epoch(0.01)
        if epoch % 2 == 1:
            capture = impair_capture(
                capture, random_cocktail(rng=300 + epoch),
                rng=400 + epoch)
        result = session.decode_epoch(capture.trace)
        assert isinstance(result, EpochResult)


def test_clean_capture_bit_identical_with_guard(dense_capture,
                                                fast_profile):
    """The guard's clean fast path must not perturb the decode at all:
    same streams, same bits, same offsets, to the last ulp."""
    guarded = build_decoder(fast_profile, seed=5).decode_epoch(
        dense_capture.trace)
    unguarded = build_decoder(
        fast_profile, seed=5,
        enable_trace_guard=False).decode_epoch(dense_capture.trace)
    assert guarded.n_streams == unguarded.n_streams
    for a, b in zip(guarded.streams, unguarded.streams):
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.offset_samples == b.offset_samples
        assert a.period_samples == b.period_samples
        assert a.confidence == b.confidence
    assert guarded.n_edges_detected == unguarded.n_edges_detected
    assert guarded.trace_health is not None
    assert guarded.trace_health.verdict == "clean"
    assert unguarded.trace_health is None
    # The guard adds no fault of its own; any degradation (e.g. an
    # unresolvable collision in a dense epoch) is identical both ways.
    assert [(f.stage, f.error_type, f.n_colliders)
            for f in guarded.degraded_streams] == \
        [(f.stage, f.error_type, f.n_colliders)
         for f in unguarded.degraded_streams]
    assert all(f.stage != "guard" for f in guarded.degraded_streams)
