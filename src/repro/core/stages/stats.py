"""Unified decode-statistics accounting for the stage graph.

Every cross-cutting counter the decode path produces — per-stage
wall-clock timings, warm-cache hit/miss counters, fidelity-gate
escalation counters, per-stream faults, and the trace-health verdict —
flows through one :class:`StatsAccumulator`.  The accumulator is the
single implementation of the merge semantics that used to be
re-implemented by hand in ``session.py``, ``engine.py`` and
``reader/batch.py``:

* int counter dicts add per key (:meth:`StatsAccumulator.merge_counts`);
* timing dicts add per stage (:func:`repro.utils.timing.merge_timings`);
* stream faults concatenate, *copied* (never aliased) with their
  offsets shifted into the merged coordinate frame;
* trace-health verdicts keep the most severe report, so a merged
  result's ``degraded`` property stays true whenever any part needed
  repair.

This module sits at the bottom of the decode-path import graph: it
must not import ``pipeline``, ``session`` or any stage module.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple

from ...types import EpochResult, StreamFault
from ...utils.timing import StageTimer, merge_timings

#: Counter keys every session epoch reports (hit/miss per warm stage).
CACHE_STAT_KEYS: Tuple[str, ...] = (
    "fold_hits", "fold_misses",
    "kmeans_hits", "kmeans_misses",
    "basis_hits", "basis_misses",
)

#: Severity order of trace-guard verdicts, for merging chunk health.
_HEALTH_SEVERITY = {"clean": 0, "degraded": 1, "rejected": 2}


def worse_health(current, candidate):
    """The more severe of two trace-health reports (``None`` loses)."""
    if candidate is None:
        return current
    if current is None:
        return candidate
    rank = _HEALTH_SEVERITY.get
    if rank(getattr(candidate, "verdict", "clean"), 0) > \
            rank(getattr(current, "verdict", "clean"), 0):
        return candidate
    return current


class StatsAccumulator:
    """Timings + cache counters + fidelity counters + faults, in one place.

    One accumulator lives on the :class:`~repro.core.stages.context.
    DecodeContext` for the duration of an epoch: stages time themselves
    through :meth:`stage`, bump warm-cache counters through
    :meth:`bump`, mutate :attr:`fidelity` directly (the same dict the
    Viterbi decoder's banded-path counters write into), and report
    abandoned streams through :meth:`note_fault`.  :meth:`publish`
    copies everything onto the epoch's :class:`EpochResult` exactly
    once, at the end.

    The same class also implements result *merging*:
    :meth:`absorb_result` folds a finished :class:`EpochResult` into
    the accumulator (used by chunked decoding), and the
    :meth:`merge_counts` / :meth:`merge_timing` utilities are the one
    implementation of counter-dict addition shared by the session
    lifetime totals and the engine aggregates.
    """

    def __init__(self, cache_enabled: bool = False,
                 fidelity: Optional[Dict[str, int]] = None):
        self._timer = StageTimer()
        self.cache: Optional[Dict[str, int]] = (
            {key: 0 for key in CACHE_STAT_KEYS} if cache_enabled
            else None)
        #: Fidelity-gate counters.  Deliberately a plain dict shared by
        #: reference with whoever mutates it (e.g. the Viterbi
        #: decoder's ``stats`` hook).
        self.fidelity: Dict[str, int] = (
            fidelity if fidelity is not None else {})
        self.faults: List[StreamFault] = []
        self.trace_health = None

    # -- in-epoch recording ------------------------------------------------

    def stage(self, name: str):
        """Context manager timing a block into stage ``name``."""
        return self._timer.stage(name)

    def add_time(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into a stage."""
        self._timer.add(name, seconds)

    @property
    def timings(self) -> Dict[str, float]:
        """Snapshot of accumulated wall-clock seconds per stage."""
        return self._timer.timings

    def bump(self, key: str, count: int = 1) -> None:
        """Increment a warm-cache counter (no-op for cold decodes)."""
        if self.cache is not None:
            self.cache[key] = self.cache.get(key, 0) + count

    def bump_fidelity(self, key: str, count: int = 1) -> None:
        """Increment a fidelity-gate counter."""
        self.fidelity[key] = self.fidelity.get(key, 0) + count

    def note_fault(self, fault: StreamFault) -> None:
        """Record one abandoned / degraded stream."""
        self.faults.append(fault)

    def note_health(self, health) -> None:
        """Record a trace-health report (most severe one wins)."""
        self.trace_health = worse_health(self.trace_health, health)

    # -- publishing --------------------------------------------------------

    def publish(self, result: EpochResult) -> EpochResult:
        """Copy the accumulated statistics onto ``result``."""
        result.stage_timings = self.timings
        result.fidelity_stats = dict(self.fidelity)
        if self.cache is not None:
            result.cache_stats = dict(self.cache)
        result.degraded_streams.extend(self.faults)
        if self.trace_health is not None:
            result.trace_health = worse_health(result.trace_health,
                                               self.trace_health)
        return result

    # -- merging -----------------------------------------------------------

    def absorb_result(self, result: EpochResult,
                      offset_shift: float = 0.0) -> None:
        """Fold a finished epoch's statistics into this accumulator.

        ``offset_shift`` translates the result's stream-fault offsets
        into the merged coordinate frame (chunk-local -> global sample
        positions).  Faults are *copied*, never aliased: absorbing a
        result leaves it untouched, so the same chunk result can be
        inspected (or re-merged) afterwards without double-shifting.
        """
        self.merge_timing(self._timer._elapsed, result.stage_timings)
        if result.cache_stats:
            if self.cache is None:
                self.cache = {key: 0 for key in CACHE_STAT_KEYS}
            self.merge_counts(self.cache, result.cache_stats)
        self.merge_counts(self.fidelity, result.fidelity_stats)
        for fault in result.degraded_streams:
            self.faults.append(dataclasses.replace(
                fault,
                offset_samples=fault.offset_samples + offset_shift))
        self.note_health(result.trace_health)

    @staticmethod
    def merge_counts(into: Dict[str, int],
                     update: Mapping[str, int]) -> Dict[str, int]:
        """Add one int counter dict into another (returns ``into``)."""
        for key, count in update.items():
            into[key] = into.get(key, 0) + int(count)
        return into

    @staticmethod
    def merge_timing(into: Dict[str, float],
                     update: Mapping[str, float]) -> Dict[str, float]:
        """Add one timing dict into another (returns ``into``)."""
        return merge_timings(into, dict(update))
