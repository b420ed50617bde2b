"""The decode-path guard under frequency-selective impairments.

Multipath reshapes the waveform the guard inspects — echoes smear
edges, raise the apparent noise floor, and change the amplitude
statistics the saturation/flatline detectors key on.  These tests pin
the guard's contract in that regime: a clean multipath capture passes
through untouched (same object, caches intact), repairs of co-occurring
dropouts stay deterministic, rejection thresholds still fire, and the
truth-preserving ``impair_capture`` path composes with the guard so a
guarded decode of any multipath cocktail never raises through the
pipeline's confinement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SignalQualityError
from repro.robustness.guard import GuardConfig, sanitize_trace
from repro.robustness.impairments import (MultipathChannel,
                                          NonFiniteBurst, TagMobility,
                                          apply_impairments,
                                          impair_capture,
                                          random_cocktail)
from repro.types import IQTrace

from ..conftest import build_decoder, build_network


def _multipath_trace(seed=0, n=20_000, preset="hallway"):
    rng = np.random.default_rng(seed)
    base = 0.5 + 0.3j + 0.02 * (rng.normal(size=n)
                                + 1j * rng.normal(size=n))
    trace = IQTrace(samples=base, sample_rate_hz=2.5e6)
    return apply_impairments(
        trace, [MultipathChannel(preset=preset)], rng=seed)


@pytest.mark.parametrize("preset", ["room", "hallway", "exponential"])
def test_clean_multipath_trace_passes_unchanged(preset):
    trace = _multipath_trace(seed=3, preset=preset)
    out, health = sanitize_trace(trace)
    assert out is trace
    assert health.is_clean


def test_multipath_plus_nonfinite_repair_is_deterministic():
    def run():
        trace = _multipath_trace(seed=7)
        trace.samples[500:540] = np.nan
        marked = IQTrace(samples=trace.samples,
                         sample_rate_hz=trace.sample_rate_hz,
                         allow_nonfinite=True)
        return sanitize_trace(marked)

    out_a, health_a = run()
    out_b, health_b = run()
    assert health_a.verdict == health_b.verdict == "degraded"
    assert health_a.n_nonfinite == health_b.n_nonfinite == 40
    np.testing.assert_array_equal(out_a.samples, out_b.samples)
    assert np.all(np.isfinite(out_a.samples.real))


def test_multipath_does_not_mask_rejection():
    trace = _multipath_trace(seed=1)
    trace.samples[: int(0.8 * trace.samples.size)] = np.nan
    marked = IQTrace(samples=trace.samples,
                     sample_rate_hz=trace.sample_rate_hz,
                     allow_nonfinite=True)
    with pytest.raises(SignalQualityError) as excinfo:
        sanitize_trace(marked)
    assert excinfo.value.health.verdict == "rejected"


@pytest.mark.parametrize("seed", range(8))
def test_guarded_decode_confines_multipath_cocktails(
        fast_profile, seed):
    """Property: impair → guard → decode never raises, truth intact."""
    sim = build_network(3, fast_profile, seed=seed)
    capture = sim.run_epoch(0.01)
    cocktail = random_cocktail(seed)
    cocktail.append(MultipathChannel(preset="room"))
    impaired = impair_capture(capture, cocktail, rng=seed)
    assert impaired.truths == capture.truths
    decoder = build_decoder(fast_profile)
    result = decoder.decode_epoch(impaired.trace)
    # Confinement, not decoding prowess, is the contract here: the
    # decode returns a result object whatever the cocktail did.
    assert result is not None
    assert result.duration_s > 0


def test_guard_repairs_before_equalizer_sees_the_trace(fast_profile):
    """Pipeline ordering: guard output feeds the equalizer stage."""
    sim = build_network(3, fast_profile, seed=2)
    capture = sim.run_epoch(0.01)
    impaired = impair_capture(
        capture,
        [NonFiniteBurst(n_runs=1, max_run=30),
         MultipathChannel(preset="hallway"), TagMobility()],
        rng=4)
    decoder = build_decoder(fast_profile, enable_equalizer=True)
    result = decoder.decode_epoch(impaired.trace)
    assert result is not None
    # Whatever the equalizer decided, it saw finite samples: its
    # estimator rejects non-finite input with reason "nonfinite",
    # which can only happen if the guard failed to run first.
    report = result.equalizer
    assert report is None or report.reason != "nonfinite"
