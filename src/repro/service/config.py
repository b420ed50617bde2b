"""Configuration of the streaming decode service."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from ..core.pipeline import LFDecoderConfig
from ..core.session import SessionConfig
from ..errors import ConfigurationError
from .metrics import DEFAULT_BUCKETS

#: Overflow policies for a full shard queue.
SHED_OLDEST = "shed_oldest"
BLOCK = "block"

#: Shard executors: worker threads in the service process (one decode
#: at a time across shards, zero setup cost) or one long-lived child
#: process per shard (multi-core scaling; frames decode zero-copy from
#: the shard's shm ring mapped by name in the child).
THREAD = "thread"
PROCESS = "process"

#: Environment override for the default executor — how CI runs the
#: whole service suite once per executor without editing every test.
EXECUTOR_ENV = "REPRO_SERVICE_EXECUTOR"


def _default_executor() -> str:
    return os.environ.get(EXECUTOR_ENV, THREAD)


@dataclass
class ServiceConfig:
    """Every knob of :class:`~repro.service.service.DecodeService`.

    The service defaults are sized for a couple of readers on one box.
    Under the thread executor, shards set routing, queues and rings,
    and their decodes run one at a time; to use more cores, run
    ``executor="process"`` with ``n_shards`` up to the core count.
    Scale ``queue_depth`` with the jitter of the offered load.
    """

    #: Worker shards.  Each shard owns a queue, a ring and the warm
    #: per-stream SessionDecoders routed to it; every chunk of one
    #: (reader, antenna) stream lands on the same shard.  Thread
    #: shards take turns on one decode lock; process shards decode in
    #: parallel, one child each.
    n_shards: int = 2
    #: Shard executor: ``"thread"`` decodes in worker threads of the
    #: service process; ``"process"`` gives each shard a long-lived
    #: child process that maps the shard's shm ring by name and
    #: decodes frames zero-copy with warm sessions resident in the
    #: child.  Default honours ``REPRO_SERVICE_EXECUTOR``.
    executor: str = field(default_factory=_default_executor)
    #: Seconds a process-executor child may spend on one frame before
    #: the parent declares it hung, kills it, and resubmits the frame
    #: to a fresh child (``None`` = never; thread executor ignores it).
    child_timeout_s: Optional[float] = None
    #: Bounded per-shard queue depth (frames waiting to decode).
    queue_depth: int = 8
    #: What a full queue does to new work: ``"shed_oldest"`` drops the
    #: oldest *queued* frame (freshest data wins, shed counters tick),
    #: ``"block"`` makes ``submit`` await free room (closed-loop
    #: backpressure to the producer).
    overflow: str = SHED_OLDEST
    #: Per-shard ring capacity in complex128 samples (16 bytes each).
    ring_samples: int = 1 << 20
    #: Back the rings with multiprocessing.shared_memory blocks
    #: (``None`` = when the platform has them).
    use_shared_memory: Optional[bool] = None
    #: Decoder configuration shared by every stream's SessionDecoder.
    decoder: LFDecoderConfig = field(default_factory=LFDecoderConfig)
    #: Cross-epoch tracking configuration (``None`` = defaults).
    session: Optional[SessionConfig] = None
    #: Root seed; each stream's decoder RNG derives from
    #: (seed, reader_id, antenna) so results replay bit-identically.
    seed: int = 0
    #: Decode attempts per chunk before it is reported failed.
    max_attempts: int = 2
    #: Consecutive failed chunks on one stream before its session is
    #: respawned cold (the service-level analogue of the batch
    #: engine's worker respawn).
    respawn_after: int = 3
    #: Hard cap on live per-stream sessions per shard; the least
    #: recently used stream is evicted first (its tags re-warm on
    #: return) so tag churn cannot grow memory without bound.
    max_sessions: int = 64
    #: Latency histogram bucket bounds, seconds.
    latency_buckets: Sequence[float] = DEFAULT_BUCKETS
    #: Test seam: builds the per-stream decoder for a stream key.
    #: ``None`` builds a SessionDecoder from ``decoder``/``session``
    #: seeded by :func:`repro.service.router.stream_seed`.  A custom
    #: factory receives ``(stream_key, seed)`` and must return an
    #: object with ``decode_epoch(trace, sample_offset=...)``.
    decoder_factory: Optional[Callable[[Tuple[int, int], int],
                                       object]] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}")
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.executor not in (THREAD, PROCESS):
            raise ConfigurationError(
                f"executor must be {THREAD!r} or {PROCESS!r}, "
                f"got {self.executor!r}")
        if self.child_timeout_s is not None and self.child_timeout_s <= 0:
            raise ConfigurationError(
                f"child_timeout_s must be > 0, got {self.child_timeout_s}")
        if self.overflow not in (SHED_OLDEST, BLOCK):
            raise ConfigurationError(
                f"overflow must be {SHED_OLDEST!r} or {BLOCK!r}, "
                f"got {self.overflow!r}")
        if self.ring_samples < 1:
            raise ConfigurationError(
                f"ring_samples must be >= 1, got {self.ring_samples}")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.respawn_after < 1:
            raise ConfigurationError(
                f"respawn_after must be >= 1, got {self.respawn_after}")
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}")
