"""Streaming decode service: sharded async ingest over warm decoders.

The "millions of users" layer of the reproduction: a long-running
asyncio front end (:class:`DecodeService`) that absorbs continuously
arriving IQ chunks from many readers, routes them to per-shard workers
— threads, or one child process per shard
(``ServiceConfig.executor``) for multi-core scaling — whose
:class:`~repro.core.session_decoder.SessionDecoder` caches stay warm
chunk to chunk, sheds load under overload instead of growing memory,
and exports live Prometheus-style metrics, counted in the service
process from each chunk's verdict under either executor.

See ``docs/ARCHITECTURE.md`` (service layer) and ``docs/API.md`` for
the full reference; ``python -m repro.service`` replays simulated
multi-reader traffic through the service in closed loop.
"""

from .chaos import (CHAOS_COCKTAILS, ChaosConfig, ChaosCrashError,
                    ChaosInjector, ChaosWorkerKill,
                    capture_thread_exceptions, chaos_service_config)
from .config import (BLOCK, EXECUTOR_ENV, PROCESS, SHED_OLDEST, THREAD,
                     ServiceConfig)
from .framing import ChunkFrame
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .process_worker import ProcessShardWorker
from .router import shard_index, stream_seed
from .service import DecodeService, ServiceStats, merge_stream_results
from .worker import (STATUS_DEGRADED, STATUS_FAILED, STATUS_OK,
                     STATUS_SHED, ChunkResult, SessionPool, ShardWorker,
                     Verdict)

__all__ = [
    "CHAOS_COCKTAILS", "ChaosConfig", "ChaosCrashError",
    "ChaosInjector", "ChaosWorkerKill", "capture_thread_exceptions",
    "chaos_service_config",
    "BLOCK", "EXECUTOR_ENV", "PROCESS", "SHED_OLDEST", "THREAD",
    "ServiceConfig",
    "ChunkFrame",
    "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
    "MetricsRegistry",
    "ProcessShardWorker",
    "shard_index", "stream_seed",
    "DecodeService", "ServiceStats", "merge_stream_results",
    "STATUS_DEGRADED", "STATUS_FAILED", "STATUS_OK", "STATUS_SHED",
    "ChunkResult", "SessionPool", "ShardWorker", "Verdict",
]
