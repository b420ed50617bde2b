"""The asyncio streaming decode service over the stage-graph decoder.

:class:`DecodeService` is the long-running, many-reader front end the
paper's fully-asymmetric design implies: tags transmit whenever they
like, so the reader side must *absorb* continuously arriving IQ and
decode everything, indefinitely, with bounded memory.  The dataflow::

    async submit(reader, antenna, chunk)
        │  frame + copy into the shard's shm ChunkRing
        ▼
    shard router (FNV-1a over (reader, antenna) — warm state stays
        │                   shard-local)
        ▼
    bounded shard queue ── overflow: shed oldest / block producer
        │
        ▼
    ShardWorker thread → per-stream SessionDecoder (warm caches,
        │                 retries, cold respawn, LRU eviction; thread
        │                 shards decode one at a time)
        ▼
    ChunkResult → result handlers + Prometheus-style metrics

One :class:`~repro.service.metrics.MetricsRegistry`
(:meth:`DecodeService.render_metrics`) exports, per shard: ingested,
completed (by status), shed and retried chunks, decoded samples,
session evictions and respawns, queue depth, live sessions, chunk
latency and decode-time histograms, a histogram of each decoded
chunk's ``stage_timings`` buckets and a counter of the faults in its
``degraded_streams``, and chunks carried inline because the shard's
ring was full (also in :meth:`DecodeService.snapshot`).  Warm-cache
hit/miss counters are summed by :meth:`DecodeService.cache_stats`, not
exported.

Decode output is **bit-identical to the offline path**: chunks of one
stream decode in submission order through a
:class:`~repro.core.session_decoder.SessionDecoder` seeded by
``(seed, reader, antenna)``, exactly how
:func:`repro.reader.batch.decode_chunked` runs a sessioned decode, and
:func:`merge_stream_results` reassembles per-chunk results with the
same merge ``decode_chunked`` uses (pinned by the golden-digest
service test).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import RingFullError, ServiceError
from ..reader.batch import merge_chunk_results
from ..types import EpochResult, IQTrace
from .config import BLOCK, PROCESS, ServiceConfig
from .framing import ChunkFrame
from .metrics import MetricsRegistry
from .process_worker import ProcessShardWorker
from .router import shard_index
from .worker import (STATUS_DEGRADED, STATUS_FAILED, STATUS_OK,
                     STATUS_SHED, ChunkResult, FifoLock, ShardWorker)


@dataclass
class ServiceStats:
    """One coherent snapshot of the service's counters."""

    submitted: int = 0
    completed: int = 0
    decoded: int = 0
    failed: int = 0
    shed: int = 0
    samples_decoded: int = 0
    inline_fallbacks: int = 0
    queue_depths: Dict[int, int] = field(default_factory=dict)

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.completed if self.completed else 0.0


class DecodeService:
    """Sharded async ingest over SessionDecoder worker shards.

    Use as an async context manager::

        async with DecodeService(config) as service:
            await service.submit(reader_id=0, antenna=0, trace=chunk,
                                 sample_offset=0.0)
            await service.drain()
            print(service.render_metrics())

    Result handlers (:meth:`add_result_handler`) fire exactly once per
    submitted chunk, on a worker thread — keep them cheap and
    thread-safe; anything heavy belongs behind your own queue.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        worker_cls = (ProcessShardWorker
                      if self.config.executor == PROCESS else ShardWorker)
        # One decode at a time across thread shards (see
        # repro.service.worker); process shards never take it.
        decode_lock = FifoLock()
        self._workers: List[ShardWorker] = [
            worker_cls(i, self.config, self.metrics, self._on_result,
                       decode_lock)
            for i in range(self.config.n_shards)]
        self._handlers: List[Callable[[ChunkResult], None]] = []
        self._seq: Dict[Tuple[int, int], int] = {}
        self._started = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._completion = asyncio.Event()
        self._submitted = 0
        self._completed = 0
        self._by_status = {STATUS_OK: 0, STATUS_DEGRADED: 0,
                           STATUS_FAILED: 0, STATUS_SHED: 0}
        self._samples_decoded = 0
        self._cache_stats: Dict[str, int] = {}
        self._inline_fallbacks = 0
        self._stats_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "DecodeService":
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        # Process shards boot their children first; one that cannot
        # boot raises here, and no shard is left running.
        try:
            for worker in self._workers:
                worker.prestart()
        except BaseException:
            for worker in self._workers:
                worker.stop(drain=False)
            raise
        for worker in self._workers:
            worker.start()
        self._started = True
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the workers (draining queued work first by default)."""
        if not self._started:
            return
        if drain:
            await self.drain()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.stop, drain)
        self._started = False

    async def __aenter__(self) -> "DecodeService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # -- ingest ------------------------------------------------------------

    async def submit(self, reader_id: int, antenna: int,
                     trace: IQTrace, sample_offset: float = 0.0,
                     meta: Optional[dict] = None) -> ChunkFrame:
        """Accept one IQ chunk for decoding; returns its frame.

        Chunks of one (reader, antenna) stream must be submitted in
        capture order — the warm session state is causal.  Under the
        ``block`` overflow policy this call awaits queue room (true
        backpressure); under ``shed_oldest`` it returns immediately
        and overload is absorbed by dropping the oldest queued frame.
        """
        if not self._started:
            raise ServiceError("service not started")
        worker = self._workers[
            shard_index(reader_id, antenna, self.config.n_shards)]
        worker.ensure_alive()
        if self.config.overflow == BLOCK:
            while not worker.has_room():
                # Completions set the event from worker threads; the
                # short timeout covers the clear/complete race, and a
                # worker thread that died while we wait is respawned
                # here, or its full queue would never drain.
                self._completion.clear()
                worker.ensure_alive()
                if worker.has_room():
                    break
                try:
                    await asyncio.wait_for(self._completion.wait(),
                                           timeout=0.1)
                except asyncio.TimeoutError:
                    pass
        key = (int(reader_id), int(antenna))
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        frame = ChunkFrame(
            reader_id=key[0], antenna=key[1], seq=seq,
            n_samples=len(trace),
            sample_rate_hz=trace.sample_rate_hz,
            start_time_s=trace.start_time_s,
            sample_offset=float(sample_offset),
            submitted_at=time.perf_counter(),
            meta=dict(meta or {}))
        try:
            frame.frame_id = worker.ring.write(trace.samples)
        except RingFullError:
            # Live frames hold the ring; carry this chunk inline so
            # ingest never blocks on the transport (the bounded queue,
            # not the ring, is the backpressure surface).
            frame.inline = np.array(trace.samples, dtype=np.complex128)
            worker.count_inline_fallback()
            with self._stats_lock:
                self._inline_fallbacks += 1
        with self._stats_lock:
            self._submitted += 1
        worker.enqueue(frame)
        return frame

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every accepted chunk reached a terminal state."""
        loop = asyncio.get_running_loop()
        done = await asyncio.gather(*[
            loop.run_in_executor(None, w.join_idle, timeout)
            for w in self._workers])
        return all(done)

    # -- results -----------------------------------------------------------

    def add_result_handler(
            self, handler: Callable[[ChunkResult], None]) -> None:
        """Register a per-chunk completion callback (worker thread!)."""
        self._handlers.append(handler)

    def _on_result(self, outcome: ChunkResult) -> None:
        with self._stats_lock:
            self._completed += 1
            self._by_status[outcome.status] = \
                self._by_status.get(outcome.status, 0) + 1
            if outcome.result is not None:
                self._samples_decoded += outcome.frame.n_samples
                for key, value in outcome.result.cache_stats.items():
                    self._cache_stats[key] = \
                        self._cache_stats.get(key, 0) + int(value)
        for handler in self._handlers:
            try:
                handler(outcome)
            except Exception:  # noqa: BLE001 — a broken handler must
                pass           # not take the worker loop down
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._completion.set)
            except RuntimeError:  # loop shut down mid-flight
                pass

    # -- observability -----------------------------------------------------

    def snapshot(self) -> ServiceStats:
        with self._stats_lock:
            return ServiceStats(
                submitted=self._submitted,
                completed=self._completed,
                decoded=(self._by_status[STATUS_OK]
                         + self._by_status[STATUS_DEGRADED]),
                failed=self._by_status[STATUS_FAILED],
                shed=self._by_status[STATUS_SHED],
                samples_decoded=self._samples_decoded,
                inline_fallbacks=self._inline_fallbacks,
                queue_depths={w.shard_id: w.queue_depth()
                              for w in self._workers})

    def render_metrics(self) -> str:
        """The live registry in Prometheus text exposition format."""
        return self.metrics.render()

    def cache_stats(self) -> Dict[str, int]:
        """Warm-cache hit/miss counters summed over the ``cache_stats``
        of every chunk decoded so far, on any shard, by live, evicted
        and respawned sessions alike."""
        with self._stats_lock:
            return dict(self._cache_stats)


def merge_stream_results(outcomes: Iterable[ChunkResult],
                         duration_s: float) -> EpochResult:
    """Reassemble one stream's chunk results into a capture-level
    :class:`~repro.types.EpochResult`.

    Exactly the merge :func:`repro.reader.batch.decode_chunked`
    applies — chunk-local stream offsets shifted by each frame's
    ``sample_offset`` into global coordinates, counters summed,
    boundary-duplicate streams collapsed — so a service decode of a
    chunked capture is comparable (bit-identically) with the offline
    result.  Shed and failed chunks contribute nothing; filter or
    assert on their absence first when exactness matters.
    """
    pairs = [(o.frame.sample_offset, o.result)
             for o in sorted(outcomes, key=lambda o: o.frame.seq)
             if o.result is not None]
    return merge_chunk_results(pairs, duration_s)
