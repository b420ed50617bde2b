"""Pure performance benchmark: decoder throughput in samples/second.

Not a paper artefact — this measures the *implementation*: how fast the
full pipeline chews through a 16-tag epoch.  Useful for tracking
regressions when the decoder changes.
"""

import pytest

from conftest import sixteen_tag_synth
from repro.core.pipeline import LFDecoder, LFDecoderConfig


@pytest.fixture(scope="module")
def sixteen_tag_capture():
    synth = sixteen_tag_synth()
    return synth.profile, synth.capture(0.010)


def test_decode_speed_16_tags(benchmark, sixteen_tag_capture):
    profile, capture = sixteen_tag_capture
    decoder = LFDecoder(LFDecoderConfig(
        candidate_bitrates_bps=[10e3], profile=profile), rng=1)

    result = benchmark(decoder.decode_epoch, capture.trace)
    assert result.n_streams >= 12
    samples_per_second = len(capture.trace) / benchmark.stats["mean"]
    benchmark.extra_info["samples_per_second"] = samples_per_second
    # Last-round per-stage wall-clock split, for attribution of any
    # regression (keys: edge/fold/extract/detect/separate/viterbi/
    # total).
    benchmark.extra_info["stage_timings"] = {
        name: float(seconds)
        for name, seconds in result.stage_timings.items()}
    # Last-round fidelity gate counters: how often each adaptive fast
    # path fired versus escalated.  check_regression.py reads these to
    # flag a dead fast path or a runaway escalation rate.
    benchmark.extra_info["fidelity_stats"] = {
        name: int(count)
        for name, count in result.fidelity_stats.items()}
    # Sanity floor only — absolute speed depends on the host; the
    # recorded samples_per_second in extra_info is the number to watch
    # across runs.
    assert samples_per_second > 10_000


def test_guard_passthrough_speed(benchmark, sixteen_tag_capture):
    """The trace guard's clean fast path runs in front of every decode
    (PR: hardened decode path); it must stay a negligible slice of the
    pipeline and return the capture untouched."""
    from repro.robustness.guard import sanitize_trace

    _, capture = sixteen_tag_capture
    out, health = benchmark(sanitize_trace, capture.trace)
    assert out is capture.trace
    assert health.verdict == "clean"
    samples_per_second = len(capture.trace) / benchmark.stats["mean"]
    benchmark.extra_info["samples_per_second"] = samples_per_second
    # The guard sweeps the capture a handful of times (finiteness,
    # rails, spread) — orders of magnitude cheaper than decoding it.
    assert samples_per_second > 1_000_000
