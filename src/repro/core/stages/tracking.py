"""Tracking stages: grid refinement, readout, and the stream driver.

:class:`StreamsStage` is the epoch-level driver that walks the fold
stage's hypotheses and runs each one through the stream-level chain
(tracking → collision → separation → anchor) with per-stream fault
confinement applied by the :class:`~repro.core.stages.context.
StageRunner`.  :class:`TrackStage` is the chain's first link: it
refines the hypothesis into a drift-tracking grid, reads the grid
differentials, and matches the stream against the session's trackers.

Rather than extracting each hypothesis's grid differentials inside its
own stream decode, :class:`StreamsStage` runs a struct-of-arrays
pre-pass over the whole epoch: every hypothesis's averaging windows
are planned up front (:func:`~repro.core.edges.refine_window_bounds`,
the same planner the per-stream path uses), packed into padded
length-class batches (:mod:`repro.core.kernels.soa`), and serviced
with **one** differential-gather kernel call per length class.  The
gather is purely elementwise, so the batched result is bit-identical
to the per-stream calls it replaces; a hypothesis whose grid
refinement fails is simply left out and :class:`TrackStage` recomputes
it, reproducing the exact per-stream fault.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .. import kernels
from ..edges import refine_window_bounds
from ..kernels.soa import pack_ragged
from ..streams import (StreamTrack, edge_position_array,
                       read_grid_differentials, sorted_union,
                       track_stream)
from .context import DecodeContext, StreamScope


def _batch_extract(ctx: DecodeContext
                   ) -> Dict[int, Tuple[StreamTrack, np.ndarray]]:
    """Grid differentials for every hypothesis, batched per length class.

    Returns ``{hypothesis_index: (track, diffs)}`` for every hypothesis
    whose grid refinement succeeded.  Failed refinements are omitted —
    the per-stream :class:`TrackStage` retries them under the runner's
    fault confinement so their faults surface exactly as before.
    """
    out: Dict[int, Tuple[StreamTrack, np.ndarray]] = {}
    if not ctx.hypotheses:
        return out
    n = len(ctx.trace)
    guard = ctx.edge_detector.config.guard
    epos = edge_position_array(ctx.edges)
    ctx.edge_positions = epos
    tracks: Dict[int, StreamTrack] = {}
    rows = []
    row_of = []  # rows[i] extracts hypothesis row_of[i]
    for i, hyp in enumerate(ctx.hypotheses):
        try:
            track = track_stream(hyp, ctx.edges, n)
        except Exception:  # noqa: BLE001 — TrackStage re-raises it
            continue
        tracks[i] = track
        grid = np.minimum(np.maximum(
            np.rint(track.grid_positions()).astype(np.int64), 0), n - 1)
        if grid.size == 0:
            out[i] = (track, np.empty(0, dtype=np.complex128))
            continue
        limits = sorted_union(epos, grid)
        lo_b, hi_b, lo_a, hi_a = refine_window_bounds(
            grid, limits, n, guard, ctx.refine_window(track))
        rows.append((lo_b, hi_b, lo_a, hi_a))
        row_of.append(i)
    if rows:
        csum = ctx.trace.prefix_sum()
        # Pad lanes get the trivial [0, 1) window: always non-empty,
        # never divides by zero, and sliced away on unpack.
        for batch in pack_ragged(rows, pad_values=(0, 1, 0, 1)):
            flat = kernels.edge_differentials(
                csum, *(col.ravel() for col in batch.columns))
            for r, diffs in batch.unpack(flat):
                idx = row_of[r]
                out[idx] = (tracks[idx], diffs)
    return out


class StreamsStage:
    """Decode every fold hypothesis through the stream stage chain."""

    name = "streams"
    #: Self-timed by the chain's stages (``extract`` / ``detect`` /
    #: ``separate`` / ``viterbi`` accumulate across hypotheses).
    timing_key = None

    def run(self, ctx: DecodeContext) -> None:
        with ctx.stats.stage("extract"):
            extracted = _batch_extract(ctx)
        for i, (hyp, source) in enumerate(zip(ctx.hypotheses,
                                              ctx.sources)):
            preferred = (ctx.session.hint_tracker(source)
                         if ctx.session is not None else None)
            scope = StreamScope(hypothesis=hyp, source=source,
                                preferred=preferred)
            if i in extracted:
                scope.track, scope.diffs = extracted[i]
            streams = ctx.runner.run_stream(ctx, scope)
            ctx.result.streams.extend(streams)


class TrackStage:
    """Refine the grid, read its differentials, match the session."""

    name = "track"
    timing_key = None  # times the grid readout into ``extract``

    def run(self, ctx: DecodeContext) -> None:
        scope = ctx.stream
        if scope.track is None or scope.diffs is None:
            # Not pre-extracted (grid refinement failed in the batch
            # pre-pass, or the driver was bypassed): the per-stream
            # path recomputes — and re-raises — exactly as before.
            scope.track = track_stream(scope.hypothesis, ctx.edges,
                                       len(ctx.trace))
            with ctx.stats.stage("extract"):
                scope.diffs = read_grid_differentials(
                    ctx.trace, scope.track, ctx.edges,
                    detector=ctx.edge_detector,
                    window_override=ctx.refine_window(scope.track))
        if ctx.session is not None:
            scope.tracker = ctx.session.match(
                scope.track.period_samples, scope.track.offset_samples,
                scope.diffs, preferred=scope.preferred)
        # Trust is per-stream and revocable: the first warm fit that
        # stops explaining the data drops every later stage of this
        # stream back onto the cold path.
        scope.trusted = scope.tracker is not None
