"""Fold stages: eye-pattern stream search (Section 3.2).

Two epoch-level stages live here:

* :class:`FoldStage` — the primary (rate, offset) hypothesis search
  over the detected edges, warm-started from the session's tracked
  streams when one is attached;
* :class:`AnalogFallbackStage` — the low-SNR fallback that folds the
  *analog* differential energy when the edge-based search produced no
  decodable stream at all (Figure 14's waterfall region).
"""

from __future__ import annotations

from typing import List

from ...errors import ConfigurationError, DecodeError
from ...types import DecodedStream
from ..folding import (analog_fold_search, find_stream_hypotheses,
                       find_stream_hypotheses_warm)
from ..streams import read_grid_differentials, track_from_analog
from .anchor import assemble_stream
from .context import DecodeContext
from .projection import project_single


class FoldStage:
    """Fold edge timestamps into per-stream (rate, offset) hypotheses."""

    name = "fold"
    timing_key = "fold"

    def run(self, ctx: DecodeContext) -> None:
        if ctx.session is not None:
            hypotheses, sources, hits, misses = \
                find_stream_hypotheses_warm(
                    ctx.edges, ctx.candidate_periods(),
                    ctx.session.warm_hints(),
                    config=ctx.config.folding_config)
            ctx.stats.bump("fold_hits", hits)
            ctx.stats.bump("fold_misses", misses)
        else:
            hypotheses = find_stream_hypotheses(
                ctx.edges, ctx.candidate_periods(),
                config=ctx.config.folding_config)
            sources = [None] * len(hypotheses)
        ctx.hypotheses = hypotheses
        ctx.sources = sources
        claimed = set()
        for hyp in hypotheses:
            claimed.update(hyp.edge_indices)
        ctx.result.n_spurious_edges = len(ctx.edges) - len(claimed)


class AnalogFallbackStage:
    """Low-SNR fallback: fold the analog differential energy.

    When individual edges are buried in noise the edge-based search
    finds nothing, but the eye-pattern fold of the *analog*
    differential energy (Section 3.2's original formulation) still
    accumulates a stream's periodic energy.  Only single streams
    are recovered this way — at SNRs where this path is needed,
    collision separation has no margin anyway.
    """

    name = "fallback"
    #: Self-timed: its work lands in the existing ``fold`` /
    #: ``extract`` / ``viterbi`` buckets, like the main path's.
    timing_key = None

    def run(self, ctx: DecodeContext) -> None:
        if ctx.result.streams or not ctx.config.enable_analog_fallback:
            return
        energy = ctx.edge_detector.differential_magnitude(ctx.trace) ** 2
        with ctx.stats.stage("fold"):
            hypotheses = analog_fold_search(energy,
                                            ctx.candidate_periods())
        streams: List[DecodedStream] = []
        for hyp in hypotheses:
            try:
                track = track_from_analog(hyp, energy)
                with ctx.stats.stage("extract"):
                    diffs = read_grid_differentials(
                        ctx.trace, track, ctx.edges,
                        detector=ctx.edge_detector,
                        window_override=ctx.refine_window(track))
                with ctx.stats.stage("separate"):
                    observations = project_single(diffs)
                stream = assemble_stream(ctx, observations, track,
                                         collided=False)
            except (DecodeError, ConfigurationError):
                continue
            if stream is not None:
                streams.append(stream)
        ctx.result.streams.extend(streams)
