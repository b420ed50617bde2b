"""The user-facing stateful decoder: an LFDecoder plus session state.

Split out of :mod:`repro.core.session` so the import graph stays
layered: ``session.py`` holds the warm-start *state* (trackers,
matching, eviction) and is imported by the stage modules' typing; this
module composes that state with the stage-graph decoder and therefore
sits *above* :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..types import EpochResult, IQTrace
from ..utils.rng import SeedLike
from .pipeline import LFDecoder
from .session import SessionConfig, SessionState


class SessionDecoder:
    """A decoder that stays warm across consecutive epochs.

    Drop-in upgrade over :class:`~repro.core.pipeline.LFDecoder` for
    sustained multi-epoch traffic: the first epoch decodes cold and
    seeds the session state; later epochs warm-start the fold search,
    the collision-detection k-means, and the separation basis recovery
    from the tracked per-stream state.  Every
    :class:`~repro.types.EpochResult` carries the per-stage cache
    hit/miss counters in ``cache_stats``.
    """

    def __init__(self, config=None, rng: SeedLike = None,
                 session_config: Optional[SessionConfig] = None):
        self.decoder = LFDecoder(config, rng=rng)
        self.state = SessionState(session_config)

    @property
    def config(self):
        return self.decoder.config

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Session-lifetime cache hit/miss totals."""
        return dict(self.state.totals)

    @property
    def fidelity_stats(self) -> Dict[str, int]:
        """Session-lifetime fidelity-gate totals."""
        return dict(self.state.fidelity_totals)

    @property
    def n_trackers(self) -> int:
        return self.state.n_trackers

    def add_observer(self, observer) -> None:
        """Attach a :class:`~repro.core.stages.context.StageObserver`
        to the underlying decoder (read-only, decode-invariant)."""
        self.decoder.add_observer(observer)

    def decode_epoch(self, trace: IQTrace,
                     sample_offset: float = 0.0) -> EpochResult:
        """Decode one epoch, warm-started from the session state.

        ``sample_offset`` positions the trace inside a longer capture
        (see :meth:`repro.core.pipeline.LFDecoder.decode_epoch`).
        """
        return self.decoder.decode_epoch(trace, session=self.state,
                                         sample_offset=sample_offset)

    def decode_epochs(self, traces: Iterable[IQTrace]
                      ) -> List[EpochResult]:
        """Decode consecutive epochs of one capture session, in order."""
        results = []
        for index, trace in enumerate(traces):
            result = self.decode_epoch(trace)
            result.epoch_index = index
            results.append(result)
        return results

    def reset(self) -> None:
        """Drop all session state (next epoch decodes cold)."""
        self.state = SessionState(self.state.config)
