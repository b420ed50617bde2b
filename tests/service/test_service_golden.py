"""End-to-end service decode pinned against the offline path.

The service's whole correctness story is one sentence: streaming a
chunked capture through :class:`DecodeService` yields the same bits as
:func:`repro.reader.batch.decode_chunked` run offline over the same
capture with an identically-seeded session.  These tests pin that
sentence with the golden-digest fixture (6 tags, seed 11 — the same
capture the cross-PR golden digests are generated from), and verify
the warm-state claims: strictly positive cache hit counters after a
multi-chunk stream, and shard-local sessions under multi-reader load.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.pipeline import LFDecoderConfig
from repro.core.session_decoder import SessionDecoder
from repro.reader.batch import chunk_trace, decode_chunked
from repro.service import (BLOCK, DecodeService, ServiceConfig,
                           merge_stream_results, stream_seed)

from ..golden.generate_digests import _build_capture, digest_result


@pytest.fixture(scope="module")
def capture():
    profile, _, cap = _build_capture(6, seed=11, duration_s=0.008)
    return profile, cap


@pytest.fixture(scope="module")
def decoder_config(capture):
    profile, _ = capture
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=profile)


def _stream_through_service(trace, config, *, reader=0, antenna=0,
                            n_shards=2, chunk_samples=None,
                            service_seed=0, executor=None):
    """Chunk ``trace`` and stream it through a fresh service; returns
    (per-chunk outcomes, merged result, cache stats, metrics page).

    ``executor=None`` keeps ServiceConfig's default (the
    REPRO_SERVICE_EXECUTOR matrix), so the whole golden suite runs
    under whichever executor CI selects."""
    chunk_samples = chunk_samples or len(trace) // 3
    fs = trace.sample_rate_hz
    extra = {} if executor is None else {"executor": executor}

    async def run():
        outcomes = []
        service = DecodeService(ServiceConfig(
            n_shards=n_shards, overflow=BLOCK, decoder=config,
            seed=service_seed, **extra))
        service.add_result_handler(outcomes.append)
        async with service:
            for chunk in chunk_trace(trace, chunk_samples):
                shift = (chunk.start_time_s - trace.start_time_s) * fs
                await service.submit(reader, antenna, chunk,
                                     sample_offset=shift)
            await service.drain()
            return (outcomes,
                    merge_stream_results(outcomes, trace.duration_s),
                    service.cache_stats(),
                    service.render_metrics())

    return asyncio.run(run())


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_service_decode_is_bit_identical_to_offline(capture,
                                                    decoder_config,
                                                    executor):
    """Both executors must replay the offline decode bit-identically:
    the process executor rebuilds sessions in its children from the
    same stream seeds the thread executor (and the offline path) use."""
    _, cap = capture
    trace = cap.trace
    chunk_samples = len(trace) // 3

    offline = decode_chunked(
        trace, chunk_samples,
        session=SessionDecoder(decoder_config,
                               rng=stream_seed(0, 0, 0)))
    outcomes, merged, _, _ = _stream_through_service(
        trace, decoder_config, chunk_samples=chunk_samples,
        executor=executor)

    assert all(o.status in ("ok", "degraded") for o in outcomes)
    assert digest_result(merged) == digest_result(offline)
    assert merged.n_streams > 0           # and it actually decoded tags


def test_warm_caches_hit_across_chunks(capture, decoder_config):
    _, cap = capture
    _, _, cache, page = _stream_through_service(cap.trace,
                                                decoder_config)
    # Chunks 2 and 3 of the stream must reuse chunk 1's warm state:
    # strictly positive hit counters are the acceptance criterion.
    assert cache.get("fold_hits", 0) > 0
    assert cache.get("kmeans_hits", 0) > 0
    # The stage observer exported per-stage latency series too.
    assert "lf_stage_latency_seconds_bucket" in page
    assert "lf_samples_decoded_total" in page


def test_result_merge_is_submission_order_independent(capture,
                                                      decoder_config):
    _, cap = capture
    outcomes, merged, _, _ = _stream_through_service(cap.trace,
                                                     decoder_config)
    reordered = merge_stream_results(list(reversed(outcomes)),
                                     cap.trace.duration_s)
    assert digest_result(reordered) == digest_result(merged)


def test_streams_route_to_distinct_warm_sessions(capture,
                                                 decoder_config):
    """Two readers through one service: each stream decodes through
    its own session, bit-identical to its own offline replay."""
    _, cap = capture
    trace = cap.trace
    chunk_samples = len(trace) // 2
    fs = trace.sample_rate_hz
    readers = [0, 1]

    async def run():
        per_reader = {r: [] for r in readers}
        service = DecodeService(ServiceConfig(
            n_shards=2, overflow=BLOCK, decoder=decoder_config))
        service.add_result_handler(
            lambda o: per_reader[o.frame.reader_id].append(o))
        async with service:
            # Interleave the two readers' chunk submissions.
            for chunk in chunk_trace(trace, chunk_samples):
                shift = (chunk.start_time_s - trace.start_time_s) * fs
                for reader in readers:
                    await service.submit(reader, 0, chunk,
                                         sample_offset=shift)
            await service.drain()
        return per_reader

    per_reader = asyncio.run(run())
    for reader in readers:
        offline = decode_chunked(
            trace, chunk_samples,
            session=SessionDecoder(decoder_config,
                                   rng=stream_seed(0, reader, 0)))
        merged = merge_stream_results(per_reader[reader],
                                      trace.duration_s)
        assert digest_result(merged) == digest_result(offline), \
            f"reader {reader} diverged from its offline replay"


def _page_values(page):
    """Each family's type, and the value of every counter and gauge
    series and every histogram ``_count`` series of a metrics page."""
    kinds, values = {}, {}
    for line in page.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            kinds[name] = kind
        elif line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            if kinds.get(name) in ("counter", "gauge") \
                    or name.endswith("_count"):
                values[series] = float(value)
    return kinds, values


def test_executors_export_equal_metrics(capture, decoder_config):
    """Both executors count the same decodes into the same series:
    equal counters and gauges, equal observation counts per
    histogram label set (the observed seconds differ run to run)."""
    _, cap = capture
    pages = [_stream_through_service(cap.trace, decoder_config,
                                     executor=executor)[3]
             for executor in ("thread", "process")]
    thread_kinds, thread_values = _page_values(pages[0])
    process_kinds, process_values = _page_values(pages[1])
    assert thread_kinds == process_kinds
    assert len(thread_kinds) == 14
    assert thread_values == process_values
    assert any(series.startswith("lf_stage_latency_seconds_count")
               for series in thread_values)
