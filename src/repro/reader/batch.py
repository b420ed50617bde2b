"""Reader-side batch decoding: many captures (or one long one) at once.

This is the reader-facing facade over the core batch engine
(:class:`repro.core.engine.BatchDecoder`).  It covers the two shapes a
multi-epoch experiment takes:

* a *list of epoch captures* (e.g. every epoch of a throughput sweep)
  — :func:`decode_captures` decodes them concurrently and hands back
  ordered :class:`EpochResult` records with ``epoch_index`` set;
* *one long capture* that should be decoded in bounded-memory chunks —
  :func:`chunk_trace` splits the trace on bit-period-aligned
  boundaries and :func:`decode_chunked` decodes the chunks as a batch,
  translating every recovered stream's offset back into global sample
  coordinates.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.engine import BatchDecoder
from ..core.pipeline import LFDecoderConfig
from ..core.session_decoder import SessionDecoder
from ..core.stages import StatsAccumulator, dedup_streams
from ..errors import ConfigurationError
from ..types import EpochResult, IQTrace
from .epoch import EpochCapture


def decode_captures(captures: Sequence[EpochCapture],
                    config: Optional[LFDecoderConfig] = None,
                    seed: int = 0,
                    max_workers: Optional[int] = None
                    ) -> List[EpochResult]:
    """Decode every capture's trace; results ordered like the input.

    Each result's ``epoch_index`` matches its position in ``captures``
    (and therefore pairs with that capture's ground truth).
    """
    with BatchDecoder(config=config, seed=seed,
                      max_workers=max_workers) as engine:
        return engine.decode_epochs([c.trace for c in captures])


def chunk_trace(trace: IQTrace, chunk_samples: int,
                min_tail_fraction: float = 0.25) -> List[IQTrace]:
    """Split a long capture into decode-sized sub-traces.

    Chunks are ``chunk_samples`` long; a final partial chunk shorter
    than ``min_tail_fraction`` of that is folded into its predecessor
    instead of being emitted as a fragment too short to decode.  Chunk
    boundaries carry the original timebase (``start_time_s``), so
    per-chunk stream offsets can be mapped back to global coordinates.
    """
    if chunk_samples < 1:
        raise ConfigurationError(
            f"chunk_samples must be >= 1, got {chunk_samples}")
    n = len(trace)
    if n <= chunk_samples:
        return [trace]
    starts = list(range(0, n, chunk_samples))
    if len(starts) > 1 and (n - starts[-1]) < \
            min_tail_fraction * chunk_samples:
        starts.pop()
    chunks = []
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else n
        chunks.append(trace.slice(start, stop))
    return chunks


def decode_chunked(trace: IQTrace, chunk_samples: int,
                   config: Optional[LFDecoderConfig] = None,
                   seed: int = 0,
                   max_workers: Optional[int] = None,
                   session: Optional[SessionDecoder] = None
                   ) -> EpochResult:
    """Decode one long capture chunk-by-chunk and merge the results.

    Without a ``session``, every chunk decodes independently (and
    concurrently, when workers are available).  With one, chunks decode
    serially through the session's warm-start state — the right mode
    for one continuous capture, where every tag's offset phase persists
    across chunk boundaries (the comparator only re-randomizes it at
    carrier power-up), so tracker phase matching, cached k-means
    centroids, and cached collision bases all stay valid from chunk to
    chunk.  Pass a fresh
    :class:`~repro.core.session_decoder.SessionDecoder`
    (or one still warm from an earlier capture of the same tag
    population); its trackers and cache counters remain inspectable
    after the call.

    Either way stream offsets are shifted from chunk-local to global
    sample coordinates, the per-chunk edge/collision counters are
    summed, and duplicate streams straddling a chunk boundary are
    collapsed by the pipeline's ghost-stream filter.
    """
    chunks = chunk_trace(trace, chunk_samples)
    fs = trace.sample_rate_hz
    shifts = [(chunk.start_time_s - trace.start_time_s) * fs
              for chunk in chunks]
    if session is not None:
        results = [session.decode_epoch(chunk, sample_offset=shift)
                   for chunk, shift in zip(chunks, shifts)]
        return merge_chunk_results(zip(shifts, results), trace.duration_s)
    with BatchDecoder(config=config, seed=seed,
                      max_workers=max_workers) as engine:
        return merge_chunk_results(zip(shifts, engine.iter_decode(chunks)),
                                   trace.duration_s)


def merge_chunk_results(pairs: Iterable[Tuple[float, EpochResult]],
                        duration_s: float) -> EpochResult:
    """Merge per-chunk decode results into one capture-level result.

    ``pairs`` holds ``(shift, result)`` per chunk, in capture order,
    where ``shift`` is the chunk's start offset in samples relative to
    the capture.  Stream offsets move into global coordinates, the
    per-chunk edge/collision counters are summed, and duplicate
    streams straddling a chunk boundary are collapsed by the
    pipeline's ghost-stream filter.  This is the one merge shared by
    :func:`decode_chunked` and the streaming service's
    :func:`repro.service.service.merge_stream_results`.
    """
    merged = EpochResult(duration_s=duration_s)
    stats = StatsAccumulator()
    for shift, result in pairs:
        for stream in result.streams:
            stream.offset_samples += shift
        merged.streams.extend(result.streams)
        merged.n_edges_detected += result.n_edges_detected
        merged.n_collisions_detected += result.n_collisions_detected
        merged.n_collisions_resolved += result.n_collisions_resolved
        merged.n_spurious_edges += result.n_spurious_edges
        # Timings / cache counters / fidelity counters / faults /
        # trace health all merge through the one accumulator.  Faults
        # are *copied* into the merged coordinate frame, so per-chunk
        # results stay unmutated (their ``expected`` flags and
        # chunk-local offsets remain inspectable afterwards).
        stats.absorb_result(result, offset_shift=shift)
    merged.streams = dedup_streams(merged.streams)
    return stats.publish(merged)
