"""Quickstart: stream simulated multi-reader traffic through the service.

::

    PYTHONPATH=src python -m repro.service --seconds 5 --readers 2 \
        --executor process --n-shards 2

Renders each reader's traffic once — 10 ms epochs cut into two chunks,
with tag churn (a fresh tag population, with fresh tag ids, every
``EPOCHS_PER_GENERATION`` epochs) — then replays it cyclically through
a :class:`~repro.service.service.DecodeService` in closed loop
(``overflow="block"``: the bounded queues hold the producer back, so
nothing sheds) for ``--seconds``.  It prints the sustained decode rate,
the p99 chunk latency and the warm-cache hits, and with ``--metrics``
the live metrics page: the smallest end-to-end demonstration of
ingest → shard router → warm workers → metrics.  One run with
``--executor`` and ``--n-shards`` measures one cell of the executor
scaling table in ``docs/ARCHITECTURE.md``.

SIGTERM (and SIGINT) shut down gracefully: the replay stops offering
at the next epoch boundary, in-flight frames drain, shard children are
reaped, and every shared-memory ring is unlinked — ``/dev/shm`` is left
exactly as it was found.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from ..core.pipeline import LFDecoderConfig
from ..experiments.scenario import ScenarioSpec, ScenarioSynth
from ..reader.batch import chunk_trace
from ..types import IQTrace, SimulationProfile
from .config import BLOCK, PROCESS, THREAD, ServiceConfig, _default_executor
from .service import DecodeService

#: Tag populations per reader, and the epochs each one transmits.
GENERATIONS = 2
EPOCHS_PER_GENERATION = 3
EPOCH_S = 0.01
CHUNKS_PER_EPOCH = 2

#: One reader's epochs in capture order, each a list of
#: ``(chunk, sample_offset)`` pairs.
ReaderTraffic = List[List[Tuple[IQTrace, float]]]


def decoder_config() -> LFDecoderConfig:
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=SimulationProfile.fast())


def render_traffic(readers: int, tags: int,
                   seed: int) -> Dict[int, ReaderTraffic]:
    """Every reader's epochs, keyed by reader id ``0..readers-1``."""
    profile = SimulationProfile.fast()
    traffic = {}
    for reader in range(readers):
        epochs: ReaderTraffic = []
        for gen in range(GENERATIONS):
            spec = ScenarioSpec(
                name=f"r{reader}g{gen}", n_tags=tags, bitrate_bps=10e3,
                epoch_s=EPOCH_S, tag_id_base=gen * tags,
                seed=int(np.random.SeedSequence([seed, reader, gen])
                         .generate_state(1, dtype=np.uint32)[0]))
            synth = ScenarioSynth(spec, profile=profile)
            for k in range(EPOCHS_PER_GENERATION):
                trace = synth.capture(epoch_index=k).trace
                fs = trace.sample_rate_hz
                epochs.append([
                    (chunk, (chunk.start_time_s - trace.start_time_s) * fs)
                    for chunk in chunk_trace(
                        trace, len(trace) // CHUNKS_PER_EPOCH)])
        traffic[reader] = epochs
    return traffic


async def replay(service: DecodeService,
                 traffic: Dict[int, ReaderTraffic], seconds: float,
                 stop: threading.Event) -> float:
    """Offer one epoch per reader per round until ``seconds`` pass or
    ``stop`` is set, then drain; returns the wall seconds."""
    start = time.perf_counter()
    cursor = 0
    while time.perf_counter() - start < seconds and not stop.is_set():
        for reader, epochs in traffic.items():
            for chunk, offset in epochs[cursor % len(epochs)]:
                await service.submit(reader, 0, chunk, offset)
        cursor += 1
        # Let completions propagate when the producer never blocks.
        await asyncio.sleep(0)
    await service.drain()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Stream simulated multi-reader traffic through "
                    "the decode service.")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="replay duration (default 5)")
    parser.add_argument("--readers", type=int, default=2)
    parser.add_argument("--tags", type=int, default=4,
                        help="tags per reader (default 4)")
    parser.add_argument("--n-shards", "--shards", type=int, default=2,
                        dest="n_shards",
                        help="shards: queues, rings and routing; "
                             "thread shards decode one at a time, "
                             "process shards in parallel (default 2)")
    parser.add_argument("--executor", choices=[THREAD, PROCESS],
                        default=_default_executor(),
                        help="shard executor: worker threads or one "
                             "child process per shard (default: "
                             "$REPRO_SERVICE_EXECUTOR or 'thread')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--metrics", action="store_true",
                        help="print the Prometheus metrics page too")
    args = parser.parse_args(argv)

    print(f"rendering traffic: {args.readers} readers x {args.tags} "
          f"tags, {GENERATIONS} tag populations of "
          f"{EPOCHS_PER_GENERATION} epochs each")
    traffic = render_traffic(args.readers, args.tags, args.seed)
    service = DecodeService(ServiceConfig(
        n_shards=args.n_shards, executor=args.executor, overflow=BLOCK,
        decoder=decoder_config(), seed=args.seed))
    latencies: List[float] = []
    service.add_result_handler(lambda o: latencies.append(o.latency_s))

    # The first SIGTERM/SIGINT ends the replay at the next epoch
    # boundary; the service then drains and stops normally (rings
    # retired and unlinked, children reaped).
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(
                signum, lambda *_: stop.set())
        except (ValueError, OSError):  # pragma: no cover - no tty
            pass

    async def run() -> float:
        async with service:
            # Flushed: a supervisor may wait for this line to signal.
            print(f"replaying [{args.executor} x{args.n_shards}]: closed "
                  f"loop, {args.seconds:g}s", flush=True)
            return await replay(service, traffic, args.seconds, stop)

    try:
        wall = asyncio.run(run())
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    stats = service.snapshot()
    if args.metrics:
        print("\n" + service.render_metrics().rstrip())
    if stop.is_set():
        print("\nshutdown requested: replay stopped early, queues "
              "drained, workers reaped")
    p99 = float(np.percentile(latencies, 99)) if latencies else 0.0
    print(f"\n[{args.executor} x{args.n_shards}] "
          f"decoded {stats.decoded} chunks "
          f"({stats.samples_decoded:,} samples) in {wall:.1f}s -> "
          f"{stats.samples_decoded / wall:,.0f} samples/s, "
          f"p99 chunk latency {p99 * 1e3:.1f} ms")
    hits = {k: v for k, v in service.cache_stats().items()
            if k.endswith("_hits")}
    print(f"warm-cache hits: {hits}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
