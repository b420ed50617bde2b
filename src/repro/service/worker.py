"""Shard workers: per-stream warm SessionDecoders behind bounded queues.

One :class:`ShardWorker` is one daemon thread plus the warm state of
every stream routed to its shard.  The worker loop pops frames in FIFO
order, maps their samples (zero-copy from the shard's
:class:`~repro.core.ring.ChunkRing`, or inline when the ring had
no room), decodes them through the stream's
:class:`~repro.core.session_decoder.SessionDecoder` — so fold /
k-means / lattice caches stay warm chunk to chunk — and hands a
:class:`ChunkResult` to the service's completion callback.

Thread-executor shards share one interpreter lock, so they also share
one *decode lock* (a :class:`FifoLock` created by the service): only
one shard decodes at a time, and waiting shards take turns.  Left to
interleave, two decodes form a GIL convoy — numpy drops the GIL inside
its larger loops and the other shard then keeps it for up to the
switch interval — and each runs slower than the pair would back to
back.  Queueing, ring bookkeeping, shedding and result delivery stay
per shard, outside the lock.

The health model is the PR 3 supervision machinery scaled to a
long-running service:

* a decode that raises is retried up to ``max_attempts`` (same
  semantics as the batch engine's in-worker retry budget);
* a stream whose chunks keep failing has its session **respawned
  cold** after ``respawn_after`` consecutive failures (the service
  analogue of child respawn — inside each session, the PR 3 tracker
  quarantine already confines repeat warm-fit blowups);
* the worker thread itself is respawned by the service if its loop
  ever dies (it should not: per-chunk exceptions are all absorbed);
* per-stream sessions are LRU-evicted past ``max_sessions`` so tag
  churn cannot grow a shard's memory without bound.

Queue overflow (backpressure) is handled at ``enqueue`` time: under
the ``shed_oldest`` policy the oldest *queued* frame is dropped — its
ring region retired, its shed counter ticked, its submitter notified
with a ``status="shed"`` result — so the queue depth is bounded by
construction and the freshest data always decodes first when the
service is overloaded.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..core.ring import ChunkRing
from ..core.session_decoder import SessionDecoder
from ..types import EpochResult, IQTrace
from .config import ServiceConfig
from .framing import ChunkFrame
from .metrics import MetricsRegistry
from .router import stream_seed

#: Terminal states a submitted chunk can reach.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
STATUS_SHED = "shed"


@dataclass
class ChunkResult:
    """Terminal verdict for one submitted chunk.

    ``result`` carries the full :class:`~repro.types.EpochResult`
    (chunk-local coordinates, exactly what an offline
    ``decode_chunked`` sees per chunk) for decoded chunks and is
    ``None`` for shed or failed ones.  ``latency_s`` is
    ingest-to-completion wall clock (queue wait included and, under
    the thread executor, the wait for the service's decode lock);
    ``decode_s`` the decode call alone.
    """

    frame: ChunkFrame
    status: str
    result: Optional[EpochResult] = None
    attempts: int = 0
    error: Optional[str] = None
    latency_s: float = 0.0
    decode_s: float = 0.0
    shard: int = -1

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class Verdict:
    """What :meth:`SessionPool.decode` made of one frame.

    Plain picklable data: a process shard's child sends it back to the
    parent unchanged, and :meth:`ShardWorker._complete` counts every
    decode metric from it and from the :class:`EpochResult` it
    carries.  The parent also builds failed verdicts itself when no
    pool answered (a dead worker thread, a lost child); those leave
    ``live_sessions`` at ``None``.
    """

    status: str
    result: Optional[EpochResult] = None
    attempts: int = 0
    error: Optional[str] = None
    decode_s: float = 0.0
    #: Failed attempts the pool followed with another one.
    retries: int = 0
    #: Sessions the LRU cap evicted to make room for this stream.
    evicted: int = 0
    #: True when this frame's failure restarted its session cold.
    respawned: bool = False
    #: Warm sessions the pool held after the decode.
    live_sessions: Optional[int] = None


@dataclass
class _StreamSlot:
    """One stream's warm decoder plus its health counters."""

    decoder: object
    consecutive_failures: int = 0


class SessionPool:
    """The executor-agnostic half of a shard: warm sessions + retries.

    Everything that must live *next to the decoder state* — the
    per-stream LRU of warm :class:`SessionDecoder`\\ s, the retry
    budget, the consecutive-failure respawn ladder — is collected here
    so the thread executor can run it in-process and the process
    executor can run the **same code** inside each shard's child.

    The pool holds no metrics.  :meth:`decode` returns a
    :class:`Verdict` rather than a :class:`ChunkResult` because the
    frame's bookkeeping (latency, ring retire, metrics, completion
    callbacks) belongs to the shard worker in the service process.
    """

    def __init__(self, shard_id: int, config: ServiceConfig):
        self.shard_id = shard_id
        self.config = config
        self._sessions: "OrderedDict[Tuple[int, int], _StreamSlot]" = \
            OrderedDict()

    def decode(self, frame: ChunkFrame, samples: np.ndarray) -> Verdict:
        """Decode one frame's samples through its stream's warm
        session.  Never raises for an ordinary decode failure; a
        ``BaseException`` (chaos worker kill) escapes to the caller.
        """
        # allow_nonfinite: a corrupted shm region (chaos injection,
        # DMA gone wrong) must reach the decode path's guard stage —
        # which repairs or rejects it — rather than crash on trace
        # validation here and skip the caller's accounting.
        trace = IQTrace(samples=samples,
                        sample_rate_hz=frame.sample_rate_hz,
                        start_time_s=frame.start_time_s,
                        allow_nonfinite=True)
        slot, evicted = self._slot_for(frame.stream_key)
        attempts = retries = 0
        error: Optional[str] = None
        result: Optional[EpochResult] = None
        decode_s = 0.0
        respawned = False
        while attempts < self.config.max_attempts:
            attempts += 1
            start = time.perf_counter()
            try:
                result = slot.decoder.decode_epoch(
                    trace, sample_offset=frame.sample_offset)
                decode_s = time.perf_counter() - start
                break
            except Exception as exc:  # noqa: BLE001 — supervision
                decode_s = time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
                if attempts < self.config.max_attempts:
                    retries += 1
        if result is None:
            slot.consecutive_failures += 1
            if slot.consecutive_failures >= self.config.respawn_after:
                # Cold-restart a stream whose chunks keep failing.
                self._sessions[frame.stream_key] = _StreamSlot(
                    decoder=self._build_decoder(frame.stream_key))
                respawned = True
            status = STATUS_FAILED
        else:
            slot.consecutive_failures = 0
            status = STATUS_DEGRADED if result.degraded else STATUS_OK
        return Verdict(status, result, attempts, error, decode_s,
                       retries=retries, evicted=evicted,
                       respawned=respawned,
                       live_sessions=len(self._sessions))

    def _slot_for(self, key: Tuple[int, int]) -> Tuple[_StreamSlot, int]:
        """The stream's slot (built on first sight) and the number of
        sessions evicted to make room for it."""
        slot = self._sessions.get(key)
        if slot is not None:
            self._sessions.move_to_end(key)
            return slot, 0
        evicted = 0
        while len(self._sessions) >= self.config.max_sessions:
            self._sessions.popitem(last=False)
            evicted += 1
        slot = _StreamSlot(decoder=self._build_decoder(key))
        self._sessions[key] = slot
        return slot, evicted

    def _build_decoder(self, key: Tuple[int, int]):
        seed = stream_seed(self.config.seed, *key)
        if self.config.decoder_factory is not None:
            return self.config.decoder_factory(key, seed)
        return SessionDecoder(self.config.decoder, rng=seed,
                              session_config=self.config.session)


class FifoLock:
    """A mutex granted in arrival order: releasing it hands it to the
    longest waiter.

    ``threading.Lock`` promises no order: a thread that releases it
    and asks again before the woken waiter runs takes it back, so on a
    busy host one shard can win three decodes in a row while another
    waits.  Tickets make the handoff FIFO.  Only shard worker threads
    take this lock, and nothing interrupts them while they wait.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._next_ticket = 0
        self._serving = 0

    def __enter__(self) -> None:
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._cond.wait_for(lambda: self._serving == ticket)

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._serving += 1
            self._cond.notify_all()


class ShardWorker:
    """One shard: a worker thread, its queue, ring, and warm sessions.

    ``on_result`` is invoked on the worker thread (or, for shed
    frames, on the submitting thread) exactly once per enqueued frame.
    ``decode_lock`` is the service-wide lock held around each decode
    call, so thread shards decode one at a time, in turn.
    """

    def __init__(self, shard_id: int, config: ServiceConfig,
                 registry: MetricsRegistry,
                 on_result: Callable[[ChunkResult], None],
                 decode_lock: FifoLock):
        self.shard_id = shard_id
        self.config = config
        self._decode_lock = decode_lock
        self.ring = ChunkRing(config.ring_samples)
        self._on_result = on_result
        self._queue: Deque[ChunkFrame] = deque()
        self._cond = threading.Condition()
        self._stop = False
        self._idle = threading.Condition(self._cond)
        self._in_flight = 0
        # Thread executor: the pool (warm sessions, retries) lives
        # right here.  The process executor's subclass leaves this one
        # cold and runs a twin inside the child.
        self.pool = SessionPool(shard_id, config)
        self._m_ingested = registry.counter(
            "lf_chunks_ingested_total",
            "Chunks accepted onto a shard queue.")
        self._m_done = registry.counter(
            "lf_chunks_completed_total",
            "Chunks reaching a terminal status, by status.")
        self._m_shed = registry.counter(
            "lf_chunks_shed_total",
            "Chunks dropped (oldest first) by queue backpressure.")
        self._m_samples = registry.counter(
            "lf_samples_decoded_total",
            "IQ samples decoded to completion.")
        self._m_respawns = registry.counter(
            "lf_session_respawns_total",
            "Per-stream sessions restarted cold after repeated "
            "failures.")
        self._m_retries = registry.counter(
            "lf_chunk_retries_total",
            "Decode attempts beyond the first, per shard.")
        self._m_evictions = registry.counter(
            "lf_session_evictions_total",
            "Per-stream sessions evicted by the LRU cap.")
        self._m_sessions = registry.gauge(
            "lf_live_sessions", "Warm per-stream sessions held.")
        self._m_inline = registry.counter(
            "lf_ring_inline_fallbacks_total",
            "Chunks carried inline because the ring had no room.")
        self._m_depth = registry.gauge(
            "lf_queue_depth", "Frames waiting on the shard queue.")
        self._m_latency = registry.histogram(
            "lf_chunk_latency_seconds",
            "Ingest-to-completion latency per chunk.",
            buckets=config.latency_buckets)
        self._m_decode = registry.histogram(
            "lf_chunk_decode_seconds",
            "Decode call latency per chunk (queue wait excluded).",
            buckets=config.latency_buckets)
        self._m_stages = registry.histogram(
            "lf_stage_latency_seconds",
            "Seconds one decoded chunk spent in each stage_timings "
            "bucket.",
            buckets=config.latency_buckets)
        self._m_faults = registry.counter(
            "lf_stream_faults_total",
            "Stream faults in decoded chunks' degraded_streams, by "
            "stage.")
        self._shard_label = str(shard_id)
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def prestart(self) -> None:
        """Executor hook run by the service before any worker thread
        starts.  The process executor starts its child here and waits
        for it to boot, so a child that cannot start fails the
        service's start."""

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name=f"lf-shard-{self.shard_id}",
            daemon=True)
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        if drain:
            self.join_idle()
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        # Anything still queued after a no-drain stop is shed.
        while True:
            with self._cond:
                if not self._queue:
                    break
                frame = self._queue.popleft()
            self._shed(frame, reason="service stopped")
        self._shutdown_executor()
        self.ring.close()

    def _shutdown_executor(self) -> None:
        """Executor hook run by :meth:`stop` after the worker thread
        has exited and the queue is empty, before the ring closes.
        The process executor stops and reaps its child here."""

    def ensure_alive(self) -> bool:
        """Respawn the worker thread if its loop died.  True if it
        had to be respawned."""
        if self._thread is not None and self._thread.is_alive():
            return False
        if self._stop:
            return False
        self._m_respawns.inc(1.0, shard=self._shard_label,
                             kind="worker_thread")
        self.start()
        return True

    def join_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and nothing is in flight.

        A worker thread killed mid-frame (chaos injection, interpreter
        shutdown races) would leave queued frames stranded forever;
        the wait therefore ticks and respawns the thread whenever work
        remains but the loop is dead.
        """
        deadline = None if timeout is None else \
            time.perf_counter() + timeout
        while True:
            with self._cond:
                if not self._queue and not self._in_flight:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return False
                tick = 0.1 if remaining is None \
                    else min(remaining, 0.1)
                self._idle.wait(timeout=tick)
                work_remains = bool(self._queue or self._in_flight)
            if work_remains:
                self.ensure_alive()

    # -- ingest side -------------------------------------------------------

    def enqueue(self, frame: ChunkFrame) -> List[ChunkFrame]:
        """Queue a frame; returns the frames shed to make room.

        Under the ``block`` policy the caller must have reserved room
        via :meth:`wait_for_room` first (the async front end does);
        an over-full queue still sheds rather than growing unbounded.
        """
        shed: List[ChunkFrame] = []
        with self._cond:
            while len(self._queue) >= self.config.queue_depth:
                shed.append(self._queue.popleft())
            self._queue.append(frame)
            self._m_ingested.inc(1.0, shard=self._shard_label)
            self._m_depth.set(float(len(self._queue)),
                              shard=self._shard_label)
            self._cond.notify()
        for dropped in shed:
            self._shed(dropped, reason="queue full (oldest dropped)")
        return shed

    def count_inline_fallback(self) -> None:
        """Tick the shard's inline-transport counter (ring was full)."""
        self._m_inline.inc(1.0, shard=self._shard_label)

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def has_room(self) -> bool:
        with self._cond:
            return len(self._queue) < self.config.queue_depth

    def _shed(self, frame: ChunkFrame, reason: str) -> None:
        if frame.frame_id >= 0:
            self.ring.retire(frame.frame_id)
        self._m_shed.inc(1.0, shard=self._shard_label)
        self._m_done.inc(1.0, shard=self._shard_label,
                         status=STATUS_SHED)
        latency = time.perf_counter() - frame.submitted_at
        self._m_latency.observe(latency, shard=self._shard_label,
                                status=STATUS_SHED)
        self._on_result(ChunkResult(
            frame=frame, status=STATUS_SHED, error=reason,
            latency_s=latency, shard=self.shard_id))

    # -- worker loop -------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._stop and not self._queue:
                    return
                frame = self._queue.popleft()
                self._in_flight += 1
                self._m_depth.set(float(len(self._queue)),
                                  shard=self._shard_label)
            try:
                outcome = self._decode_frame(frame)
            except BaseException as exc:
                # A non-Exception escape (chaos worker kill, interpreter
                # teardown) is about to take this thread down.  The
                # frame's ring region was already retired inside
                # _decode_frame's finally; deliver its terminal verdict
                # so the service's accounting stays exact, then let the
                # thread die — ensure_alive()/join_idle() respawn it.
                self._on_result(self._complete(frame, Verdict(
                    STATUS_FAILED,
                    error=f"worker died: {type(exc).__name__}: {exc}")))
                raise
            finally:
                with self._cond:
                    self._in_flight -= 1
                    self._idle.notify_all()
            self._on_result(outcome)

    def _decode_frame(self, frame: ChunkFrame) -> ChunkResult:
        samples = (frame.inline if frame.frame_id < 0
                   else self.ring.view(frame.frame_id))
        try:
            # ``with`` releases the lock on a BaseException too (chaos
            # worker kill), so a dying shard cannot wedge the others.
            with self._decode_lock:
                verdict = self.pool.decode(frame, samples)
        finally:
            # Retire even when a BaseException (chaos worker kill)
            # aborts the decode: a dead shard must not leak its
            # frame's ring region — or, for shared-memory rings, the
            # /dev/shm backing it pins.
            if frame.frame_id >= 0:
                self.ring.retire(frame.frame_id)
        return self._complete(frame, verdict)

    def _complete(self, frame: ChunkFrame, verdict: Verdict
                  ) -> ChunkResult:
        """Terminal accounting shared by both executors: the one place
        a decode becomes metrics, counted in the service process from
        the verdict and the ``stage_timings`` / ``degraded_streams`` of
        the result it carries."""
        shard = self._shard_label
        latency = time.perf_counter() - frame.submitted_at
        result = verdict.result
        if result is not None:
            self._m_samples.inc(float(frame.n_samples), shard=shard)
            self._m_decode.observe(verdict.decode_s, shard=shard)
            for stage, seconds in result.stage_timings.items():
                if stage != "total":
                    self._m_stages.observe(seconds, stage=stage,
                                           shard=shard)
            for fault in result.degraded_streams:
                self._m_faults.inc(
                    1.0, stage=fault.stage,
                    expected=str(bool(fault.expected)).lower(),
                    shard=shard)
        if verdict.retries:
            self._m_retries.inc(float(verdict.retries), shard=shard)
        if verdict.evicted:
            self._m_evictions.inc(float(verdict.evicted), shard=shard)
        if verdict.respawned:
            self._m_respawns.inc(1.0, shard=shard,
                                 kind="stream_session")
        if verdict.live_sessions is not None:
            self._m_sessions.set(float(verdict.live_sessions),
                                 shard=shard)
        self._m_done.inc(1.0, shard=shard, status=verdict.status)
        self._m_latency.observe(latency, shard=shard,
                                status=verdict.status)
        return ChunkResult(frame=frame, status=verdict.status,
                           result=result, attempts=verdict.attempts,
                           error=verdict.error, latency_s=latency,
                           decode_s=verdict.decode_s,
                           shard=self.shard_id)
