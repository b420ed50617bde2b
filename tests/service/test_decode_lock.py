"""The service-wide decode lock: one thread-shard decode at a time.

Thread-executor shards share one interpreter, so the service holds a
single lock around each shard's decode call: two decodes interleaved
on the GIL each run slower than the pair run back to back.  These
tests pin the lock's contract with a probe decoder that sleeps inside
``decode_epoch`` and counts the decodes in flight:

* under ``executor="thread"`` at most one decode runs at a time, and
  while every shard has work pending no shard completes more than two
  frames in a row (the lock does not starve a shard);
* a ``ChaosWorkerKill`` (a ``BaseException``) raised while holding the
  lock releases it, so the other shards and the killed shard's later
  frames still decode;
* under ``executor="process"`` the children still decode in parallel.

Every test pins its executor: CI also runs the service suite with
``REPRO_SERVICE_EXECUTOR=process``.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import sys
import threading
import time
from typing import List

import numpy as np
import pytest

from repro.service import (BLOCK, ChaosWorkerKill, DecodeService,
                           ServiceConfig, capture_thread_exceptions)
from repro.service.router import shard_index
from repro.types import EpochResult, IQTrace

#: Sleep inside each probe decode, seconds.
_DECODE_S = 0.01
#: Chunks submitted per shard.
_PER_SHARD = 20


def _trace(t0: float = 0.0) -> IQTrace:
    return IQTrace(samples=np.ones(64, dtype=np.complex128),
                   sample_rate_hz=1e6, start_time_s=t0)


def _reader_per_shard(n_shards: int) -> List[int]:
    """The lowest reader id (antenna 0) routed to each shard."""
    first: dict = {}
    reader = 0
    while len(first) < n_shards:
        first.setdefault(shard_index(reader, 0, n_shards), reader)
        reader += 1
    return [first[shard] for shard in range(n_shards)]


class _OverlapProbe:
    """Counts decodes in flight across every shard.

    The counters are ``multiprocessing.Value`` cells from a spawn
    context, handed to each process-executor child as it starts, so
    decodes there tick the same cells the test reads (the idiom
    ``service/chaos.py`` uses).  ``completions`` — the shard of each
    finished decode, in order — is only filled in-process.
    """

    def __init__(self, n_shards: int):
        self.n_shards = n_shards
        spawn = mp.get_context("spawn")
        self._in_flight = spawn.Value("q", 0)
        self._peak = spawn.Value("q", 0)
        self.completions: List[int] = []

    @property
    def peak(self) -> int:
        return int(self._peak.value)

    def factory(self, key, seed):
        return _ProbeDecoder(self, shard_index(key[0], key[1],
                                               self.n_shards))

    def enter(self) -> None:
        with self._in_flight.get_lock():
            self._in_flight.value += 1
            self._peak.value = max(self._peak.value,
                                   self._in_flight.value)

    def leave(self, shard: int) -> None:
        with self._in_flight.get_lock():
            self._in_flight.value -= 1
            self.completions.append(shard)


class _ProbeDecoder:
    def __init__(self, probe: _OverlapProbe, shard: int):
        self._probe = probe
        self._shard = shard

    def decode_epoch(self, trace, sample_offset=0.0):
        self._probe.enter()
        try:
            time.sleep(_DECODE_S)
        finally:
            self._probe.leave(self._shard)
        return EpochResult(duration_s=trace.duration_s)


def _run_alternating(config: ServiceConfig, n_chunks: int):
    """Submit ``n_chunks`` round-robin over one reader per shard and
    drain; returns ``(service, results, drained)``."""
    service = DecodeService(config)
    results: list = []
    service.add_result_handler(results.append)
    readers = _reader_per_shard(config.n_shards)

    async def run():
        async with service:
            for i in range(n_chunks):
                await service.submit(readers[i % len(readers)], 0,
                                     _trace(t0=i * 1e-4))
            return await service.drain(timeout=30.0)

    drained = asyncio.run(run())
    return service, results, drained


def _longest_run(seq: List[int]) -> int:
    longest = run = 0
    previous = None
    for item in seq:
        run = run + 1 if item == previous else 1
        previous = item
        longest = max(longest, run)
    return longest


@pytest.mark.parametrize("n_shards", [2, 4])
def test_thread_shards_decode_one_at_a_time_without_starving(n_shards):
    probe = _OverlapProbe(n_shards)
    config = ServiceConfig(n_shards=n_shards, executor="thread",
                           overflow=BLOCK,
                           decoder_factory=probe.factory)
    interval = sys.getswitchinterval()
    # More shard threads than cores and a short switch interval: the
    # lock, not GIL scheduling luck, must keep decodes apart.
    sys.setswitchinterval(1e-4)
    try:
        service, results, drained = _run_alternating(
            config, n_shards * _PER_SHARD)
    finally:
        sys.setswitchinterval(interval)
    assert drained
    stats = service.snapshot()
    assert stats.decoded == stats.submitted == n_shards * _PER_SHARD
    assert probe.peak == 1
    # Until the first shard runs out of frames every shard has work
    # pending, so a plain lock must still hand decodes around.
    seq = probe.completions
    done = {shard: 0 for shard in range(n_shards)}
    cut = len(seq)
    for i, shard in enumerate(seq):
        done[shard] += 1
        if done[shard] == _PER_SHARD:
            cut = i
            break
    assert _longest_run(seq[:cut]) <= 2, seq


def test_worker_kill_releases_the_decode_lock():
    """Shard A's first decode dies with ``ChaosWorkerKill`` while
    shard B waits on the lock; the kill must not wedge the service."""
    readers = _reader_per_shard(2)
    killed = threading.Event()

    class _KillFirstOnShardA:
        def __init__(self, shard: int):
            self._shard = shard

        def decode_epoch(self, trace, sample_offset=0.0):
            if self._shard == 0 and not killed.is_set():
                killed.set()
                time.sleep(0.05)   # shard B queues up behind the lock
                raise ChaosWorkerKill("die holding the decode lock")
            return EpochResult(duration_s=trace.duration_s)

    config = ServiceConfig(
        n_shards=2, executor="thread", overflow=BLOCK,
        decoder_factory=lambda key, seed: _KillFirstOnShardA(
            shard_index(key[0], key[1], 2)))
    with capture_thread_exceptions() as escapes:
        service, results, drained = _run_alternating(config, 12)
    assert drained
    stats = service.snapshot()
    assert stats.submitted == 12
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    failed = [r for r in results if r.status == "failed"]
    assert len(failed) == 1
    assert failed[0].frame.reader_id == readers[0]
    assert failed[0].frame.seq == 0
    assert "ChaosWorkerKill" in failed[0].error
    # Shard B's frames and shard A's later frames all decoded.
    assert stats.decoded == 11
    assert escapes.unexpected == []


def test_process_shards_still_decode_in_parallel():
    probe = _OverlapProbe(2)
    config = ServiceConfig(n_shards=2, executor="process",
                           overflow=BLOCK,
                           decoder_factory=probe.factory)
    service, results, drained = _run_alternating(config,
                                                 2 * _PER_SHARD)
    assert drained
    stats = service.snapshot()
    assert stats.decoded == stats.submitted == 2 * _PER_SHARD
    assert probe.peak == 2
