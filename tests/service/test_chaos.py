"""Service-layer fault injection: the chaos injector and its ladders.

A counting fake decoder behind :func:`chaos_service_config` lets each
test pin one fault family — stalls, crashes, worker kills, shm
corruption, clock skew — and assert the service's supervision ladder
(retry → cold respawn → shed) keeps the terminal invariants: exact
accounting (submitted == decoded + failed + shed), bounded queues, and
zero exceptions escaping a worker thread other than the deliberate
kills.  The last test runs every named cocktail against the real
decoder, under the executor ``REPRO_SERVICE_EXECUTOR`` selects.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service import (CHAOS_COCKTAILS, ChaosConfig,
                           ChaosCrashError, ChaosInjector, ChaosWorkerKill,
                           DecodeService, SHED_OLDEST, ServiceConfig,
                           capture_thread_exceptions,
                           chaos_service_config)
from repro.service.__main__ import decoder_config, render_traffic
from repro.types import EpochResult, IQTrace


def _trace(n: int = 64, fs: float = 1e6, t0: float = 0.0) -> IQTrace:
    return IQTrace(samples=np.ones(n, dtype=np.complex128),
                   sample_rate_hz=fs, start_time_s=t0)


class _CountingDecoder:
    """Records every call and whether its samples were NaN-scribbled."""

    def __init__(self):
        self.calls = 0
        self.saw_nan = 0
        self._lock = threading.Lock()

    def decode_epoch(self, trace, sample_offset=0.0):
        with self._lock:
            self.calls += 1
            if not np.all(np.isfinite(trace.samples.real)):
                self.saw_nan += 1
        return EpochResult(duration_s=trace.duration_s)


class _Harness:
    """One-shard chaos-wrapped service over a shared fake decoder."""

    def __init__(self, chaos: ChaosConfig, **config_kwargs):
        self.decoder = _CountingDecoder()
        config_kwargs.setdefault("n_shards", 1)
        config_kwargs.setdefault("queue_depth", 4)
        config_kwargs.setdefault("overflow", SHED_OLDEST)
        # The harness counts decoder calls through in-process shared
        # state, so it pins the thread executor regardless of the
        # REPRO_SERVICE_EXECUTOR matrix; process-executor chaos runs
        # through its own cross-process harness.
        config_kwargs.setdefault("executor", "thread")
        base = ServiceConfig(
            decoder_factory=lambda key, seed: self.decoder,
            **config_kwargs)
        self.config, self.injector = chaos_service_config(base, chaos)
        self.service = DecodeService(self.config)
        self.results: list = []
        self.service.add_result_handler(self.results.append)

    def by_status(self, status: str) -> list:
        return [r for r in self.results if r.status == status]


async def _pump(h: _Harness, n_chunks: int) -> None:
    async with h.service:
        for i in range(n_chunks):
            await h.service.submit(reader_id=0, antenna=0,
                                   trace=_trace(t0=i * 1e-4),
                                   sample_offset=0.0)
            # Let the single worker keep up so nothing sheds and
            # every chunk actually reaches the chaos decoder.  Drain
            # rather than poll the depth: a kill can leave frames
            # queued behind a dead worker thread, and a depth poll
            # never respawns it (submit does on entry and, under the
            # block policy, while it waits for room; drain does while
            # work remains).
            if h.service.snapshot().queue_depths[0] >= 2:
                await h.service.drain()
        await h.service.drain()


def _accounting_exact(h: _Harness) -> bool:
    stats = h.service.snapshot()
    return stats.submitted == (stats.decoded + stats.failed
                               + stats.shed)


@pytest.mark.parametrize("kwargs", [
    dict(crash_rate=1.5), dict(kill_rate=-0.1),
    dict(stall_seconds=-1.0), dict(corrupt_max_run=0),
])
def test_invalid_chaos_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        ChaosConfig(**kwargs)


def test_cocktail_registry_is_active_and_valid():
    for name, cocktail in CHAOS_COCKTAILS.items():
        assert cocktail.active, name
    assert not ChaosConfig().active


def test_crashes_drive_retry_and_respawn_with_exact_accounting():
    h = _Harness(ChaosConfig(crash_rate=0.5, seed=3),
                 max_attempts=2, respawn_after=2)
    asyncio.run(_pump(h, 60))
    assert _accounting_exact(h)
    assert h.injector.counts()["crash"] > 0
    # Half the draws crash, so with 2 attempts some chunks fail
    # terminally and some succeed on retry.
    assert h.by_status("failed")
    assert h.by_status("ok")
    for outcome in h.by_status("failed"):
        assert "ChaosCrashError" in outcome.error


def test_kills_take_the_thread_down_but_accounting_survives():
    h = _Harness(ChaosConfig(kill_rate=0.3, seed=5))
    with capture_thread_exceptions() as escapes:
        asyncio.run(_pump(h, 40))
    assert _accounting_exact(h)
    assert h.injector.counts()["kill"] > 0
    # Every escape is the deliberate kill; nothing else got out.
    assert escapes.escapes
    assert escapes.unexpected == []
    killed = [r for r in h.by_status("failed")
              if "ChaosWorkerKill" in (r.error or "")]
    assert killed, "killed frames must still get a terminal verdict"
    # The service kept decoding after each kill (thread respawned).
    assert len(h.by_status("ok")) > 0


def test_corruption_scribbles_the_ring_in_place():
    h = _Harness(ChaosConfig(corrupt_rate=1.0, seed=1))
    asyncio.run(_pump(h, 10))
    assert _accounting_exact(h)
    assert h.injector.counts()["corrupt"] == h.decoder.calls
    # The decoder saw the NaNs through its zero-copy ring view.
    assert h.decoder.saw_nan == h.decoder.calls


def test_fault_draws_are_seed_deterministic():
    def run(seed: int):
        h = _Harness(ChaosConfig(crash_rate=0.4, stall_rate=0.2,
                                 stall_seconds=0.0, seed=seed))
        asyncio.run(_pump(h, 30))
        return (h.injector.counts(),
                [r.status for r in h.results])

    counts_a, statuses_a = run(7)
    counts_b, statuses_b = run(7)
    counts_c, _ = run(8)
    assert counts_a == counts_b
    assert statuses_a == statuses_b
    assert counts_a != counts_c


def test_skew_draws_are_deterministic_and_bounded():
    chaos = ChaosConfig(skew_rate=0.5, max_skew_seconds=0.25, seed=2)
    _, injector = chaos_service_config(ServiceConfig(), chaos)
    skews = [injector.skew_for(0, 0, seq) for seq in range(200)]
    _, injector2 = chaos_service_config(ServiceConfig(), chaos)
    assert skews == [injector2.skew_for(0, 0, s) for s in range(200)]
    hits = [s for s in skews if s]
    assert hits, "a 50% skew rate must fire within 200 draws"
    assert all(abs(s) <= 0.25 for s in hits)
    assert injector.counts()["skew"] == len(hits)


#: Chunks offered per cocktail: each of the first ``PACED`` is drained
#: before the next is offered, so every one reaches the decoder; the
#: last ``BURST`` arrive at once against the queue bound.
PACED, BURST = 32, 16


@pytest.fixture(scope="module")
def chunks():
    """One reader with two tags: its rendered chunks in capture order."""
    traffic = render_traffic(readers=1, tags=2, seed=0)
    return [pair for epoch in traffic[0] for pair in epoch]


@pytest.mark.parametrize("name", sorted(CHAOS_COCKTAILS))
def test_cocktail_keeps_all_invariants_on_the_real_decoder(name, chunks):
    cocktail = CHAOS_COCKTAILS[name]
    config, injector = chaos_service_config(
        ServiceConfig(n_shards=1, queue_depth=4, overflow=SHED_OLDEST,
                      decoder=decoder_config()), cocktail)
    service = DecodeService(config)
    depths = []

    async def run():
        async with service:
            for seq in range(PACED + BURST):
                chunk, offset = chunks[seq % len(chunks)]
                skew = injector.skew_for(0, 0, seq)
                if skew:
                    chunk = IQTrace(samples=chunk.samples,
                                    sample_rate_hz=chunk.sample_rate_hz,
                                    start_time_s=chunk.start_time_s + skew)
                await service.submit(0, 0, chunk, offset)
                depths.append(service.snapshot().queue_depths[0])
                if seq < PACED:
                    await service.drain()
            await service.drain()

    with capture_thread_exceptions() as escapes:
        asyncio.run(run())
    stats = service.snapshot()
    assert stats.submitted == PACED + BURST
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    assert max(depths) <= config.queue_depth
    assert escapes.unexpected == []
    assert stats.decoded > 0
    counts = injector.counts()
    own = [fault for fault in ChaosInjector.FAULTS
           if getattr(cocktail, f"{fault}_rate")]
    assert all(counts[fault] > 0 for fault in own), counts
