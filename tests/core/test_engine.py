"""Tests of the parallel batch-decode engine."""

import numpy as np
import pytest

from repro.core import ring as ring_module
from repro.core.engine import BatchDecoder, _decode_task
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.errors import ConfigurationError
from repro.phy.channel import ChannelModel, random_coefficients
from repro.reader.simulator import NetworkSimulator
from repro.tags.lf_tag import LFTag
from repro.types import SimulationProfile, TagConfig
from repro.utils.rng import spawn_seed_sequences

PROFILE = SimulationProfile.fast()


def make_capture(seed, n_tags=3, duration_s=0.006):
    gen = np.random.default_rng(seed)
    coeffs = random_coefficients(n_tags, rng=gen)
    channel = ChannelModel({k: coeffs[k] for k in range(n_tags)},
                           environment_offset=0.5 + 0.3j)
    tags = [LFTag(TagConfig(tag_id=k, bitrate_bps=10e3,
                            channel_coefficient=coeffs[k]),
                  profile=PROFILE,
                  rng=np.random.default_rng(gen.integers(0, 2 ** 63)))
            for k in range(n_tags)]
    sim = NetworkSimulator(tags, channel, profile=PROFILE,
                           noise_std=0.01, rng=gen)
    return sim.run_epoch(duration_s)


@pytest.fixture(scope="module")
def traces():
    return [make_capture(seed).trace for seed in (11, 12, 13)]


@pytest.fixture(scope="module")
def config():
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=PROFILE)


def _stream_fingerprint(result):
    return [(s.bits.tobytes(), round(s.offset_samples, 6),
             round(s.period_samples, 6)) for s in result.streams]


def test_results_ordered_and_indexed(traces, config):
    engine = BatchDecoder(config=config, seed=3, max_workers=1)
    results = engine.decode_epochs(traces)
    assert [r.epoch_index for r in results] == [0, 1, 2]
    assert all(r.n_streams >= 1 for r in results)


def test_same_seed_same_results_any_worker_count(traces, config):
    serial = BatchDecoder(config=config, seed=3,
                          max_workers=1).decode_epochs(traces)
    pooled = BatchDecoder(config=config, seed=3,
                          max_workers=2).decode_epochs(traces)
    assert [_stream_fingerprint(r) for r in serial] \
        == [_stream_fingerprint(r) for r in pooled]


def test_different_seeds_are_independent_per_task(traces, config):
    """Task results depend only on (root seed, index), not on what the
    engine decoded before them."""
    seqs = spawn_seed_sequences(3, len(traces))
    direct = [_decode_task(trace, i, np.random.default_rng(seqs[i]),
                           config)
              for i, trace in enumerate(traces)]
    batch = BatchDecoder(config=config, seed=3,
                         max_workers=1).decode_epochs(traces)
    assert [_stream_fingerprint(r) for r in direct] \
        == [_stream_fingerprint(r) for r in batch]


def test_matches_single_decoder_output(traces, config):
    """The batch engine decodes each epoch exactly like a standalone
    LFDecoder seeded with the same per-task sequence."""
    seqs = spawn_seed_sequences(7, len(traces))
    batch = BatchDecoder(config=config, seed=7,
                         max_workers=1).decode_epochs(traces)
    for i, trace in enumerate(traces):
        solo = LFDecoder(config, rng=np.random.default_rng(seqs[i]))
        assert _stream_fingerprint(solo.decode_epoch(trace)) \
            == _stream_fingerprint(batch[i])


def test_iter_decode_streams_in_order(traces, config):
    engine = BatchDecoder(config=config, seed=3, max_workers=1)
    indices = [r.epoch_index for r in engine.iter_decode(traces)]
    assert indices == [0, 1, 2]


def test_stage_timings_populated(traces, config):
    engine = BatchDecoder(config=config, seed=3, max_workers=1)
    results = engine.decode_epochs(traces)
    for result in results:
        assert set(result.stage_timings) >= {"edge", "fold", "total"}
        assert result.stage_timings["total"] > 0.0
        assert result.stage_timings["total"] >= \
            result.stage_timings["edge"]
    agg = engine.aggregate_timings(results)
    assert agg["total"] == pytest.approx(
        sum(r.stage_timings["total"] for r in results))


def test_transport_invariance(traces, config, monkeypatch):
    """Ring and inline transports decode identical bits.  A trace
    travels inline when it cannot ride the ring: on a host without
    shared memory, or when it is longer than the ring sized from the
    first trace."""
    serial = BatchDecoder(config=config, seed=3,
                          max_workers=1).decode_epochs(traces)
    fingerprints = [_stream_fingerprint(r) for r in serial]
    ring = BatchDecoder(config=config, seed=3,
                        max_workers=2).decode_epochs(traces)
    assert [_stream_fingerprint(r) for r in ring] == fingerprints

    short_first = [traces[0].slice(0, 2000)] + list(traces)
    serial = BatchDecoder(config=config, seed=3,
                          max_workers=1).decode_epochs(short_first)
    oversized = BatchDecoder(config=config, seed=3,
                             max_workers=2).decode_epochs(short_first)
    assert [_stream_fingerprint(r) for r in oversized] == \
        [_stream_fingerprint(r) for r in serial]

    monkeypatch.setattr(ring_module, "_shared_memory", None)
    inline = BatchDecoder(config=config, seed=3,
                          max_workers=2).decode_epochs(traces)
    assert [_stream_fingerprint(r) for r in inline] == fingerprints


def test_iter_decode_streams_lazily_from_generator(traces, config):
    """The sliding submission window keeps an unbounded input stream
    from piling up: with 2 workers at most ~2x2 tasks are in flight,
    so the first result arrives before the input is exhausted."""
    stream = traces * 2  # 6 epochs
    pulled = []

    def producer():
        for i, trace in enumerate(stream):
            pulled.append(i)
            yield trace

    engine = BatchDecoder(config=config, seed=3, max_workers=2)
    iterator = engine.iter_decode(producer())
    first = next(iterator)
    assert first.epoch_index == 0
    assert len(pulled) < len(stream), \
        "engine exhausted the input before yielding anything"
    rest = list(iterator)
    assert [r.epoch_index for r in rest] == [1, 2, 3, 4, 5]
    assert len(pulled) == len(stream)


def test_empty_batch(config):
    engine = BatchDecoder(config=config, seed=3, max_workers=1)
    assert engine.decode_epochs([]) == []


def test_invalid_worker_count(config):
    with pytest.raises(ConfigurationError):
        BatchDecoder(config=config, max_workers=0)
