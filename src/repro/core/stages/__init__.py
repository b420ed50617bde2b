"""Composable decode stages over a shared :class:`DecodeContext`.

Each module in this package implements one stage of the paper's
pipeline (Fig. 3) behind the small :class:`Stage` protocol; the
:class:`StageRunner` executes them with uniform timing, per-stream
fault confinement and :class:`StageObserver` dispatch.  The default
stage lists below are what :class:`repro.core.pipeline.LFDecoder`,
:class:`repro.core.session_decoder.SessionDecoder`,
:class:`repro.core.engine.BatchDecoder` and
:func:`repro.reader.batch.decode_chunked` all compose.
"""

from __future__ import annotations

from typing import List

from .anchor import AnchorStage, DedupStage, assemble_stream, \
    dedup_streams
from .collision import CollisionStage
from .context import (DecodeContext, Stage, StageObserver, StageRunner,
                      StreamScope, stream_fault)
from .edges import EdgeStage
from .equalizer import EqualizerStage
from .folding import AnalogFallbackStage, FoldStage
from .guard import GuardStage
from .projection import (hold_cluster_noise, looks_multilevel,
                         project_single, project_single_scaled)
from .separation import (SeparationStage, decode_collided,
                         decode_collinear)
from .stats import StatsAccumulator, worse_health
from .tracking import StreamsStage, TrackStage


def default_epoch_stages() -> List[Stage]:
    """The epoch-level stage list of the paper's pipeline, in order."""
    return [GuardStage(), EqualizerStage(), EdgeStage(), FoldStage(),
            StreamsStage(), AnalogFallbackStage(), DedupStage()]


def default_stream_stages() -> List[Stage]:
    """The per-stream-hypothesis stage chain, in order."""
    return [TrackStage(), CollisionStage(), SeparationStage(),
            AnchorStage()]


__all__ = [
    "AnalogFallbackStage", "AnchorStage", "CollisionStage",
    "DecodeContext", "DedupStage", "EdgeStage",
    "EqualizerStage", "FoldStage", "GuardStage", "SeparationStage",
    "Stage",
    "StageObserver", "StageRunner", "StatsAccumulator", "StreamScope",
    "StreamsStage", "TrackStage", "assemble_stream", "decode_collided",
    "decode_collinear", "dedup_streams", "default_epoch_stages",
    "default_stream_stages", "hold_cluster_noise", "looks_multilevel",
    "project_single", "project_single_scaled", "stream_fault",
    "worse_health",
]
