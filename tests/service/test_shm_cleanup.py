"""Shared-memory hygiene when a shard worker dies mid-frame.

The shard rings are backed by ``multiprocessing.shared_memory`` blocks
(files under ``/dev/shm`` on Linux).  A worker thread killed in the
middle of a decode — the chaos injector's ``ChaosWorkerKill``, or any
real non-Exception escape — must not leak the frame it was holding:
the ring region retires (``finally`` in ``_decode_frame``), the
submitter still gets a terminal ``failed`` verdict, and when the
service shuts down every backing segment is unlinked.  These tests pin
each link of that chain, ending with a filesystem-level check that no
``/dev/shm`` entry outlives the service.

A chaos injector's fault counters are cross-process cells whose named
semaphores sit in ``/dev/shm`` while the injector lives.  The chaos
tests therefore check twice: no ring block (``psm_*``) is left while
the service is still referenced, so shutdown itself unlinked them, and
no entry of any kind is left once the service and the injector are
released.  Each check looks only at the entries the test itself made,
named where they are made (the ``shm_made`` fixture), so another
process using ``/dev/shm`` meanwhile cannot fail it.
"""

from __future__ import annotations

import asyncio
import gc
import os
from pathlib import Path

import numpy as np
import pytest

from repro.service import (ChaosConfig, ChaosWorkerKill, DecodeService,
                           SHED_OLDEST, ServiceConfig,
                           capture_thread_exceptions,
                           chaos_service_config)
from repro.types import EpochResult, IQTrace

_SHM_DIR = Path("/dev/shm")


def _trace(n: int = 256) -> IQTrace:
    return IQTrace(samples=np.ones(n, dtype=np.complex128),
                   sample_rate_hz=1e6)


class _KillNthDecoder:
    """Dies with ChaosWorkerKill on the chosen call numbers."""

    def __init__(self, kill_calls):
        self.kill_calls = set(kill_calls)
        self.calls = 0

    def decode_epoch(self, trace, sample_offset=0.0):
        self.calls += 1
        if self.calls in self.kill_calls:
            raise ChaosWorkerKill("die mid-frame")
        return EpochResult(duration_s=trace.duration_s)


def _run_kill_service(n_chunks: int, kill_calls) -> tuple:
    decoder = _KillNthDecoder(kill_calls)
    # Thread executor pinned: these tests assert on the *shared*
    # decoder's call count and the worker-thread kill semantics; the
    # process-executor variants below cover the cross-process chain.
    config = ServiceConfig(
        n_shards=1, queue_depth=8, overflow=SHED_OLDEST,
        executor="thread",
        decoder_factory=lambda key, seed: decoder)
    service = DecodeService(config)
    results: list = []
    service.add_result_handler(results.append)

    async def run():
        async with service:
            for i in range(n_chunks):
                await service.submit(reader_id=0, antenna=0,
                                     trace=_trace(),
                                     sample_offset=0.0)
            await service.drain()
            # Inspect the ring while the service is still alive: the
            # dead worker's frame must already be retired.
            return [w.ring for w in service._workers]

    with capture_thread_exceptions() as escapes:
        rings = asyncio.run(run())
    return decoder, service, results, rings, escapes


def test_killed_worker_retires_its_frame_and_reports_failure():
    decoder, service, results, rings, escapes = _run_kill_service(
        6, kill_calls={2})
    stats = service.snapshot()
    assert stats.submitted == 6
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    failed = [r for r in results if r.status == "failed"]
    assert len(failed) == 1
    assert "ChaosWorkerKill" in failed[0].error
    # The dying worker retired its region: nothing is live, so the
    # ring's whole capacity is reusable.
    for ring in rings:
        assert ring.live_frames == 0
        assert ring.free_samples == ring.capacity
    assert escapes.unexpected == []


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_no_shm_segments_leak_after_worker_deaths(shm_made):
    decoder, service, results, rings, escapes = _run_kill_service(
        10, kill_calls={1, 4, 7})
    leaked = shm_made.left()
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"
    stats = service.snapshot()
    assert stats.submitted == stats.decoded + stats.failed + stats.shed


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_chaos_kill_cocktail_leaves_no_shm_behind(shm_made):
    base = ServiceConfig(n_shards=2, queue_depth=4,
                         overflow=SHED_OLDEST,
                         executor="thread",
                         decoder_factory=lambda key, seed:
                         _KillNthDecoder(()))
    config, injector = chaos_service_config(
        base, ChaosConfig(kill_rate=0.4, seed=11))
    service = DecodeService(config)

    async def run():
        async with service:
            for i in range(30):
                await service.submit(reader_id=i % 3, antenna=0,
                                     trace=_trace(),
                                     sample_offset=0.0)
            await service.drain()

    with capture_thread_exceptions() as escapes:
        asyncio.run(run())
    assert injector.counts()["kill"] > 0
    assert escapes.unexpected == []
    assert not shm_made.rings_left()
    del service, injector, config, escapes
    gc.collect()
    leaked = shm_made.left()
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"


# -- process executor: the same hygiene across a real process boundary --


def _never_killed(key, seed) -> _KillNthDecoder:
    """A plain decoder the chaos injector wraps; top-level so it
    pickles into each shard's child."""
    return _KillNthDecoder(())


def _run_process_chaos(n_chunks: int, chaos: ChaosConfig) -> tuple:
    """Chaos replay with ``executor="process"``; returns
    ``(service, results, injector, rings)`` captured pre-shutdown."""
    base = ServiceConfig(n_shards=2, queue_depth=8,
                         overflow=SHED_OLDEST, executor="process",
                         decoder_factory=_never_killed)
    config, injector = chaos_service_config(base, chaos)
    service = DecodeService(config)
    results: list = []
    service.add_result_handler(results.append)

    async def run():
        async with service:
            for i in range(n_chunks):
                await service.submit(reader_id=i % 3, antenna=0,
                                     trace=_trace(),
                                     sample_offset=0.0)
            await service.drain()
            return [(w.ring.live_frames, w.ring.free_samples,
                     w.ring.capacity) for w in service._workers]

    rings = asyncio.run(run())
    return service, results, injector, rings


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_killed_child_retires_in_flight_frame_without_leaking_slot(
        shm_made):
    """A chaos kill takes down a real child process mid-frame; the
    parent must retire the frame's ring slot, deliver the failed
    verdict, respawn the child, and keep accounting exact."""
    service, results, injector, rings = _run_process_chaos(
        30, ChaosConfig(kill_rate=0.3, seed=11))
    assert injector.counts()["kill"] > 0
    stats = service.snapshot()
    assert stats.submitted == 30
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    killed = [r for r in results
              if r.error and "ChaosWorkerKill" in r.error]
    assert len(killed) == injector.counts()["kill"]
    assert all(r.status == "failed" for r in killed)
    # Pre-shutdown ring snapshot: every killed child's in-flight frame
    # was retired by the parent — no slot leaked, full capacity free.
    for live, free, capacity in rings:
        assert live == 0
        assert free == capacity
    # The parent respawned a child per kill (exposed as
    # worker_process respawns in the shared registry).
    assert 'kind="worker_process"' in service.render_metrics()
    assert not shm_made.rings_left()
    del service, injector
    gc.collect()
    leaked = shm_made.left()
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_process_executor_reaps_children_and_shm_on_shutdown(shm_made):
    """After a clean stop no child process and no /dev/shm entry of
    the service survives."""
    import multiprocessing as mp

    children_before = {p.pid for p in mp.active_children()}
    service, results, injector, _ = _run_process_chaos(
        12, ChaosConfig(crash_rate=0.2, corrupt_rate=0.2, seed=5))
    stats = service.snapshot()
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    assert not shm_made.rings_left()
    del service, injector
    gc.collect()
    leaked = shm_made.left()
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"
    orphans = {p.pid for p in mp.active_children()} - children_before
    assert not orphans, f"orphaned shard children: {orphans}"
