"""Chunk frames: what the service's ingest hands its shard workers.

Every accepted IQ chunk becomes a :class:`ChunkFrame` — its routing
identity plus either a region of the shard's
:class:`~repro.core.ring.ChunkRing` (the one shared-memory transport,
which the batch engine uses too; framing rules live there) or, when
the ring had no room, the samples themselves inline.  Under the
process executor only the frame header crosses the child's pipe; the
child maps the ring region zero-copy by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class ChunkFrame:
    """One IQ chunk accepted by the service, plus its routing identity.

    ``reader_id`` / ``antenna`` identify the stream the chunk belongs
    to (the shard key); ``seq`` is the submitter's per-stream sequence
    number.  ``sample_offset`` positions the chunk inside its capture
    in *samples* — the same value :func:`repro.reader.batch.decode_chunked`
    passes to ``SessionDecoder.decode_epoch`` so warm trackers match in
    global coordinates.

    ``frame_id`` ≥ 0 names a region in the shard's :class:`ChunkRing`;
    ``frame_id == -1`` means the samples travel inline (``inline`` holds
    the array) because the ring had no room.
    """

    reader_id: int
    antenna: int
    seq: int
    n_samples: int
    sample_rate_hz: float
    start_time_s: float
    sample_offset: float
    frame_id: int = -1
    inline: Optional[np.ndarray] = None
    #: ``time.perf_counter()`` at ingest, for end-to-end chunk latency.
    submitted_at: float = 0.0
    #: Metadata the submitter wants echoed back on the result (epoch
    #: index, truth handle, ...); the service never reads it.
    meta: dict = field(default_factory=dict)

    @property
    def stream_key(self) -> tuple:
        return (self.reader_id, self.antenna)
