"""Quickstart: run the streaming service against the simulator.

::

    PYTHONPATH=src python -m repro.service --seconds 5 --readers 2 \
        --executor process --n-shards 4

Renders a small pool of multi-reader traffic, streams it through a
:class:`~repro.service.service.DecodeService` in closed loop, and
prints the live metrics page plus a one-line summary — the smallest
end-to-end demonstration of ingest → shard router → warm workers →
metrics.  Use ``benchmarks/run_soak.py`` for the gated soak numbers.

SIGTERM (and SIGINT) shut down gracefully: the replay loop stops
offering, in-flight frames drain, shard children are reaped, and every
shared-memory ring is unlinked — ``/dev/shm`` is left exactly as it
was found.
"""

from __future__ import annotations

import argparse
import signal
import threading

from .config import PROCESS, THREAD, _default_executor
from .soak import SoakConfig, run_soak


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

    # Graceful shutdown: the first SIGTERM/SIGINT stops the replay
    # loop at the next epoch boundary; the soak then drains the
    # service normally (rings retired and unlinked, children reaped).
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(
                signum, lambda *_: stop.set())
        except (ValueError, OSError):  # pragma: no cover - no tty
            pass

    try:
        cfg = SoakConfig(n_readers=args.readers,
                         tags_per_reader=args.tags,
                         n_shards=args.n_shards,
                         executor=args.executor,
                         duration_s=args.seconds,
                         seed=args.seed,
                         overload=False)
        report = run_soak(cfg, log=print,
                          should_stop=stop.is_set)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    t = report.throughput
    if args.metrics:
        print("\n" + getattr(t, "metrics_text", "").rstrip())
    if stop.is_set():
        print("\nshutdown requested: replay stopped early, queues "
              "drained, workers reaped")
    print(f"\n[{args.executor} x{args.n_shards}] "
          f"decoded {t.decoded} chunks "
          f"({t.samples_decoded:,} samples) in {t.wall_s:.1f}s -> "
          f"{t.sustained_samples_per_second:,.0f} samples/s, "
          f"p99 chunk latency {t.p99_chunk_latency_s * 1e3:.1f} ms")
    hits = {k: v for k, v in t.cache_stats.items()
            if k.endswith("_hits")}
    print(f"warm-cache hits: {hits}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
