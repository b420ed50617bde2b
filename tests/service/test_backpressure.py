"""Backpressure and supervision behaviour of the streaming service.

A gate-controlled fake decoder (injected through the
``ServiceConfig.decoder_factory`` seam) freezes the shard worker
mid-decode so the tests can hold the service at a known queue state:
bounded depth under 2x-style overload, monotone shed counters, exact
terminal accounting (every submitted chunk reaches exactly one of
ok/degraded/failed/shed), closed-loop blocking under the ``block``
policy, inline fallback when the ring is full, and the retry →
cold-respawn ladder for failing streams.  With the gate open and a
fixed decode time, the same decoder gives the shard a known capacity
to overload.

No real decoding happens here; the golden end-to-end test
(``test_service_golden.py``) covers the decode math.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service import (BLOCK, SHED_OLDEST, ChaosWorkerKill,
                           ChunkResult, DecodeService, ServiceConfig,
                           STATUS_FAILED, STATUS_OK, STATUS_SHED,
                           capture_thread_exceptions)
from repro.types import EpochResult, IQTrace


def _trace(n: int = 64, fs: float = 1e6, t0: float = 0.0) -> IQTrace:
    return IQTrace(samples=np.ones(n, dtype=np.complex128),
                   sample_rate_hz=fs, start_time_s=t0)


class _GatedDecoder:
    """decode_epoch blocks on ``gate``, then takes ``decode_s``;
    raises while ``failing``."""

    def __init__(self, gate: threading.Event):
        self.gate = gate
        self.decode_s = 0.0
        self.failing = False
        self.calls = 0
        self.builds = 1

    def decode_epoch(self, trace, sample_offset=0.0):
        self.calls += 1
        self.gate.wait(timeout=30.0)
        time.sleep(self.decode_s)
        if self.failing:
            raise RuntimeError("injected decode failure")
        return EpochResult(duration_s=trace.duration_s)


class _Harness:
    """One-shard service around a single shared gated decoder."""

    def __init__(self, **config_kwargs):
        self.gate = threading.Event()
        self.decoder = _GatedDecoder(self.gate)
        self.built = 0

        def factory(stream_key, seed):
            self.built += 1
            return self.decoder

        config_kwargs.setdefault("n_shards", 1)
        config_kwargs.setdefault("queue_depth", 2)
        # The gate/counter seams are in-process shared state: pin the
        # thread executor so the REPRO_SERVICE_EXECUTOR matrix cannot
        # move them into a child process, away from the asserting
        # test.
        config_kwargs.setdefault("executor", "thread")
        self.config = ServiceConfig(decoder_factory=factory,
                                    **config_kwargs)
        self.service = DecodeService(self.config)
        self.results: list = []
        self.service.add_result_handler(self.results.append)

    def by_status(self, status: str) -> list:
        return [r for r in self.results if r.status == status]


def test_queue_depth_is_bounded_and_oldest_sheds_first():
    async def run():
        h = _Harness(overflow=SHED_OLDEST, queue_depth=2)
        shed_series = []
        async with h.service:
            for i in range(10):
                await h.service.submit(0, 0, _trace(), meta={"i": i})
                snap = h.service.snapshot()
                assert max(snap.queue_depths.values()) <= 2
                shed_series.append(snap.shed)
            h.gate.set()
            await h.service.drain()
            snap = h.service.snapshot()
        # Shed counter only ever grows.
        assert shed_series == sorted(shed_series)
        assert snap.shed > 0
        # Exact accounting: every chunk reached one terminal state.
        assert snap.submitted == 10
        assert snap.completed == 10
        assert snap.decoded + snap.failed + snap.shed == 10
        # Exactly one result per submitted chunk, meta echoed back.
        assert sorted(r.frame.meta["i"] for r in h.results) == \
            list(range(10))
        # Shed frames are older than every decoded frame that was
        # queued behind them (freshest data wins under overload).
        shed_seqs = {r.frame.seq for r in h.by_status(STATUS_SHED)}
        ok_seqs = {r.frame.seq for r in h.by_status(STATUS_OK)}
        assert max(shed_seqs) < max(ok_seqs)
        # No decoded chunk lost its result record.
        assert all(r.result is not None for r in h.by_status(STATUS_OK))
        assert all(r.result is None for r in h.by_status(STATUS_SHED))

    asyncio.run(run())


def test_shed_frames_release_their_ring_space():
    async def run():
        h = _Harness(overflow=SHED_OLDEST, queue_depth=2)
        async with h.service:
            for _ in range(20):
                await h.service.submit(0, 0, _trace())
            h.gate.set()
            await h.service.drain()
            # Every region retired — shed or decoded alike — so a
            # long-running service cannot leak ring space.
            assert h.service._workers[0].ring.live_frames == 0

    asyncio.run(run())


def test_block_policy_applies_producer_backpressure():
    async def run():
        h = _Harness(overflow=BLOCK, queue_depth=2)
        async with h.service:
            await h.service.submit(0, 0, _trace())
            # Wait for the worker to pop it into the (gated) decode so
            # the queue state below is deterministic: 1 in flight...
            while h.decoder.calls < 1:
                await asyncio.sleep(0.005)
            # ...plus 2 queued fit without blocking.
            for _ in range(2):
                await h.service.submit(0, 0, _trace())
            # The 4th must wait for room: a short wait_for times out.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    h.service.submit(0, 0, _trace()), timeout=0.3)
            h.gate.set()
            await h.service.drain()
            snap = h.service.snapshot()
        assert snap.shed == 0          # blocking never sheds
        assert snap.decoded == snap.submitted

    asyncio.run(run())


class _KillWhileProducerWaits:
    """The first decode dies with ``ChaosWorkerKill``, but only once a
    producer has found the queue full and is waiting for room."""

    def __init__(self, producer_waits: threading.Event):
        self.producer_waits = producer_waits
        self.calls = 0

    def decode_epoch(self, trace, sample_offset=0.0):
        self.calls += 1
        if self.calls == 1:
            assert self.producer_waits.wait(timeout=30.0)
            raise ChaosWorkerKill("die while the producer waits")
        return EpochResult(duration_s=trace.duration_s)


def test_block_policy_respawns_a_worker_that_dies_while_producer_waits():
    """The worker thread dies while the producer waits for room in a
    full queue.  Nothing else will call in, so the wait itself must
    respawn the thread, or the queue never drains."""
    producer_waits = threading.Event()
    decoder = _KillWhileProducerWaits(producer_waits)
    service = DecodeService(ServiceConfig(
        n_shards=1, queue_depth=1, overflow=BLOCK, executor="thread",
        decoder_factory=lambda key, seed: decoder))
    worker = service._workers[0]
    has_room = worker.has_room

    def has_room_watched() -> bool:
        room = has_room()
        if not room:
            producer_waits.set()
        return room

    async def run():
        async with service:
            await service.submit(0, 0, _trace())
            while decoder.calls < 1:     # frame 0 is in the decode...
                await asyncio.sleep(0.005)
            await service.submit(0, 0, _trace())  # ...frame 1 fills
            worker.has_room = has_room_watched
            for _ in range(4):
                await asyncio.wait_for(service.submit(0, 0, _trace()),
                                       timeout=10.0)
            assert await asyncio.wait_for(service.drain(), timeout=10.0)

    with capture_thread_exceptions() as escapes:
        asyncio.run(run())
    stats = service.snapshot()
    assert stats.submitted == 6
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    assert (stats.failed, stats.shed) == (1, 0)
    assert escapes.escapes and escapes.unexpected == []


def test_overload_at_twice_capacity_sheds_below_the_ceiling():
    """One shard decoding a chunk per 20 ms, offered one per 10 ms,
    sheds what it cannot decode (16 of 40 on a 2-core host).  Shedding
    more than three in four would mean the overload itself ate the
    decode capacity."""
    decode_s, n_chunks = 0.02, 40

    async def run():
        h = _Harness(overflow=SHED_OLDEST, queue_depth=4)
        h.decoder.decode_s = decode_s
        h.gate.set()
        depths = []
        async with h.service:
            start = time.perf_counter()
            for i in range(n_chunks):
                delay = start + i * decode_s / 2 - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                await h.service.submit(0, 0, _trace())
                depths.append(max(h.service.snapshot()
                                  .queue_depths.values()))
            await h.service.drain()
            return depths, h.service.snapshot()

    depths, snap = asyncio.run(run())
    assert snap.submitted == n_chunks
    assert snap.decoded + snap.failed + snap.shed == n_chunks
    assert max(depths) <= 4
    assert snap.shed_fraction <= 0.75


def test_ring_full_falls_back_to_inline_transport():
    async def run():
        # Ring fits exactly one 64-sample chunk; while it is live the
        # next chunks must travel inline rather than fail or block.
        h = _Harness(overflow=SHED_OLDEST, queue_depth=4,
                     ring_samples=64)
        async with h.service:
            for _ in range(3):
                await h.service.submit(0, 0, _trace(64))
            h.gate.set()
            await h.service.drain()
            snap = h.service.snapshot()
            page = h.service.render_metrics()
        assert snap.inline_fallbacks >= 1
        assert snap.decoded == 3       # inline chunks decode fine
        inline = [r for r in h.results if r.frame.frame_id < 0]
        assert len(inline) == snap.inline_fallbacks
        # The metrics page counts the same fallbacks.
        exported = sum(float(line.rsplit(" ", 1)[1])
                       for line in page.splitlines()
                       if line.startswith("lf_ring_inline_fallbacks_total{"))
        assert exported == snap.inline_fallbacks

    asyncio.run(run())


def test_failing_stream_retries_then_respawns_cold():
    async def run():
        h = _Harness(overflow=SHED_OLDEST, queue_depth=8,
                     max_attempts=2, respawn_after=2)
        h.gate.set()                   # never block, always fail
        h.decoder.failing = True
        async with h.service:
            for _ in range(4):
                await h.service.submit(0, 0, _trace())
            await h.service.drain()
            snap = h.service.snapshot()
            page = h.service.render_metrics()
        failed = h.by_status(STATUS_FAILED)
        assert snap.failed == 4 and len(failed) == 4
        # Each chunk used its full retry budget...
        assert all(r.attempts == 2 for r in failed)
        assert all("injected decode failure" in r.error
                   for r in failed)
        # ...and after every `respawn_after` consecutive failures the
        # stream's session was rebuilt cold through the factory.
        assert h.built >= 3            # initial + >= 2 respawns
        assert "lf_session_respawns_total" in page
        assert 'kind="stream_session"' in page

    asyncio.run(run())


def test_lru_eviction_caps_live_sessions():
    async def run():
        h = _Harness(overflow=SHED_OLDEST, queue_depth=8,
                     max_sessions=2)
        h.gate.set()
        async with h.service:
            # 4 distinct streams through a 2-session cap.
            for reader in range(4):
                await h.service.submit(reader, 0, _trace())
            await h.service.drain()
            worker = h.service._workers[0]
            assert len(worker.pool._sessions) <= 2
        assert h.built == 4            # each stream built once

    asyncio.run(run())


def test_submit_before_start_is_an_error():
    async def run():
        h = _Harness()
        from repro.errors import ServiceError
        with pytest.raises(ServiceError):
            await h.service.submit(0, 0, _trace())

    asyncio.run(run())


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(n_shards=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(queue_depth=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(overflow="drop_newest")
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_attempts=0)
