"""The end-to-end LF-Backscatter decoder (Section 3, Figure 3).

:class:`LFDecoder` turns one epoch's IQ trace into decoded per-tag bit
streams by composing the stage graph of :mod:`repro.core.stages`:

    guard -> edge detection -> eye-pattern folding -> per-stream chain
    (tracking -> collision detection -> parallelogram separation ->
    Viterbi -> anchor) -> analog fallback -> dedup.

Each stage is a module implementing the
:class:`~repro.core.stages.context.Stage` protocol over one shared
:class:`~repro.core.stages.context.DecodeContext`; this module only
assembles the graph, owns the long-lived helpers (edge detector,
Viterbi decoder, RNG) and publishes the epoch's statistics.  The
IQ-separation and error-correction stages can be disabled
independently to reproduce the ablation of Figure 9.

Observability: :meth:`LFDecoder.add_observer` attaches a
:class:`~repro.core.stages.context.StageObserver` whose callbacks fire
around every stage invocation.  Observers are read-only taps —
attaching one never changes decode output (pinned by the golden-digest
equivalence tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from .. import constants
from ..errors import ConfigurationError
from ..robustness.guard import GuardConfig
from ..types import EpochResult, IQTrace, SimulationProfile
from ..utils.rng import SeedLike, make_rng
from .edges import EdgeDetector, EdgeDetectorConfig
from .equalizer import EqualizerConfig
from .fidelity import FidelityPolicy
from .folding import FoldingConfig
from .stages import (DecodeContext, StageObserver, StageRunner,
                     StatsAccumulator, default_epoch_stages,
                     default_stream_stages)
from .stages.context import Stage
from .viterbi import ViterbiDecoder

if TYPE_CHECKING:  # typing only — session imports stay lazy
    from .session import SessionState


@dataclass
class LFDecoderConfig:
    """Configuration of the full decoding pipeline.

    ``candidate_bitrates_bps`` is the set of rates tags may use (all
    multiples of the base rate, Section 3.2); the reader knows this set
    by protocol, not by per-tag signalling.
    """

    candidate_bitrates_bps: Sequence[float] = (
        constants.DEFAULT_BITRATE_BPS,)
    profile: SimulationProfile = field(
        default_factory=SimulationProfile.paper)
    edge_config: Optional[EdgeDetectorConfig] = None
    folding_config: Optional[FoldingConfig] = None
    enable_iq_separation: bool = True
    enable_error_correction: bool = True
    min_header_score: float = 0.75
    p_flip: float = 0.5
    collision_guard_extra: int = constants.EDGE_WIDTH_SAMPLES
    #: Differential averaging windows grow with the bit period (longer
    #: bits leave more clean samples either side of an edge, Section
    #: 5.1 / Table 2), capped to keep dense traces tractable.
    refine_window_fraction: float = 0.8
    refine_window_cap: int = 2000
    #: Fold the analog differential energy when the edge-based search
    #: comes up empty (low-SNR operation, Figure 14's waterfall).
    enable_analog_fallback: bool = True
    preamble_bits: int = constants.PREAMBLE_BITS
    anchor_bit: int = constants.ANCHOR_BIT
    #: Run the trace guard (:func:`repro.robustness.guard.sanitize_trace`)
    #: in front of the pipeline: repair impaired captures, reject
    #: unusable ones into an empty-but-honest result instead of letting
    #: NaNs crash k-means.  Clean captures pass through untouched (the
    #: decode is bit-identical with the guard on or off).
    enable_trace_guard: bool = True
    guard_config: Optional[GuardConfig] = None
    #: Run the blind equalizer (:func:`repro.core.equalizer.equalize`)
    #: between the guard and edge detection: estimate the FIR channel
    #: from the capture itself and invert it when frequency-selective.
    #: Off by default — decodes with the stage disabled are
    #: bit-identical to a build without it (pinned by golden digests).
    enable_equalizer: bool = False
    equalizer_config: Optional[EqualizerConfig] = None
    #: Multi-fidelity decode policy (see
    #: :class:`repro.core.fidelity.FidelityPolicy`).  ``None`` uses the
    #: default adaptive policy; ``FidelityPolicy(force_full=True)``
    #: forces full fidelity everywhere and reproduces the pre-adaptive
    #: decoder bit-identically.
    fidelity: Optional[FidelityPolicy] = None

    def __post_init__(self) -> None:
        if not self.candidate_bitrates_bps:
            raise ConfigurationError("need at least one candidate bitrate")
        for rate in self.candidate_bitrates_bps:
            self.profile.validate_bitrate(rate)
        if not 0.0 <= self.min_header_score <= 1.0:
            raise ConfigurationError(
                "min_header_score must be in [0, 1]")


class LFDecoder:
    """Decodes concurrent laissez-faire streams from raw IQ captures."""

    def __init__(self, config: Optional[LFDecoderConfig] = None,
                 rng: SeedLike = None,
                 observers: Sequence[StageObserver] = ()):
        self.config = config or LFDecoderConfig()
        self._rng = make_rng(rng)
        self.edge_detector = EdgeDetector(self.config.edge_config)
        self.fidelity = self.config.fidelity or FidelityPolicy()
        self.viterbi = ViterbiDecoder(
            p_flip=self.config.p_flip,
            banded=(self.fidelity.active
                    and self.fidelity.banded_viterbi),
            band_margin=self.fidelity.viterbi_band_margin)
        self._runner = StageRunner(default_epoch_stages(),
                                   default_stream_stages(),
                                   observers=observers)

    # -- stage-graph surface ----------------------------------------------

    @property
    def epoch_stages(self) -> Sequence[Stage]:
        """The epoch-level stage list this decoder composes."""
        return self._runner.epoch_stages

    @property
    def stream_stages(self) -> Sequence[Stage]:
        """The per-stream stage chain this decoder composes."""
        return self._runner.stream_stages

    @property
    def observers(self) -> List[StageObserver]:
        return list(self._runner.observers)

    def add_observer(self, observer: StageObserver) -> None:
        """Attach a read-only :class:`StageObserver` to every decode."""
        self._runner.observers.append(observer)

    def remove_observer(self, observer: StageObserver) -> None:
        self._runner.observers.remove(observer)

    # -- decoding ----------------------------------------------------------

    def candidate_periods(self) -> List[float]:
        """Candidate bit periods in samples, shortest (fastest) first."""
        fs = self.config.profile.sample_rate_hz
        return sorted(fs / rate
                      for rate in set(self.config.candidate_bitrates_bps))

    def decode_epoch(self, trace: IQTrace,
                     session: Optional["SessionState"] = None,
                     sample_offset: float = 0.0) -> EpochResult:
        """Run the full stage graph over one epoch's capture.

        The returned :class:`EpochResult` carries a wall-clock breakdown
        in ``stage_timings`` (keys ``guard``, ``equalize``, ``edge``,
        ``fold``, ``extract``, ``detect``, ``separate``, ``viterbi`` and
        ``total``; a bucket appears only when its stage ran, so
        ``equalize`` needs the equalizer enabled and ``guard`` the trace
        guard); each stage accumulates across every stream hypothesis
        of the epoch.  Some per-stream work runs outside every bucket
        and shows only in ``total`` (see ARCHITECTURE.md, "The fidelity
        ladder").

        ``session``, when given, is cross-epoch warm-start state (see
        :mod:`repro.core.session`): the fold search verifies cached
        (rate, offset) pairs before sweeping, k-means stages restart
        from cached centroids, and two-way separation tries the cached
        lattice basis first.  Cache hit/miss counters land in the
        result's ``cache_stats``.  Most callers should go through
        :class:`repro.core.session_decoder.SessionDecoder` instead of
        passing the state by hand.

        ``sample_offset`` is this trace's global sample position inside
        a longer capture being decoded chunk-by-chunk: tags keep
        toggling straight through chunk boundaries, so tracker phases
        are kept in global coordinates and stay matchable from one
        chunk to the next.  Leave it zero for independent epochs.
        """
        stats = StatsAccumulator(cache_enabled=session is not None,
                                 fidelity=self.fidelity.new_stats())
        # The banded-Viterbi escalation counters write into the same
        # dict the accumulator publishes.
        self.viterbi.stats = stats.fidelity
        if session is not None:
            session.begin_epoch(sample_offset)
        t0 = time.perf_counter()
        ctx = DecodeContext(trace, self.config, self._rng,
                            self.edge_detector, self.viterbi,
                            self.fidelity, stats, session=session,
                            sample_offset=sample_offset)
        ctx.runner = self._runner
        self._runner.run_epoch(ctx)
        stats.add_time("total", time.perf_counter() - t0)
        result = stats.publish(ctx.result)
        if session is not None and stats.cache is not None:
            session.end_epoch(stats.cache,
                              fidelity_stats=stats.fidelity)
        return result
