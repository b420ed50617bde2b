"""Multi-fidelity decode policy: confidence-gated escalation.

The decoder's hot stages — collision detection (the 3-vs-9 k-means
model selection), the multilevel projection check, and Viterbi error
correction — all pay full fidelity on every stream, yet most streams
most of the time are unambiguous: a lone tag's differentials are
collinear to the eye, its projection is cleanly trimodal, and its
observations sit far from every decision boundary.  The
:class:`FidelityPolicy` lets each stage start cheap and *escalate to
the full-fidelity computation only when its confidence gate fails*:

* **pre-gate** (collision detection): planarity of the differential
  scatter is computed first (one 2x2 eigendecomposition); a scatter
  whose planarity sits clearly below the collision threshold skips the
  cluster-count sweep entirely.  The gate only fires *strictly inside*
  the single-tag region, so the fast path can never flip a verdict the
  full detector would have reached.
* **subsample front door** (cluster-count selection): model selection
  runs on a capped, deterministically-seeded subsample of the edge
  differentials with k-means++ seeding shared across the candidate-k
  sweep; when the inertia-improvement margin between candidates falls
  inside the confidence gap, the full set is refitted cold.
* **dispersion gate** (multilevel projection check): the fraction of
  projected observations that sit off the {-1, 0, +1} lattice is
  computed vectorized; a cleanly trimodal projection skips the paired
  k-means fits (and the expensive collinear-split attempts their false
  positives trigger).
* **banded Viterbi**: observations that all clear the emission decision
  band make the thresholded state path *provably* the Viterbi optimum,
  so the trellis recursion is skipped; any observation inside the band
  (or an invalid thresholded path) falls back to the exact decoder.

Every gate decision is counted in a ``fidelity_stats`` dict (one
counter pair per gate) that lands on
:attr:`repro.types.EpochResult.fidelity_stats`, so the speed/quality
trade stays observable: a fast path that silently stopped firing shows
up as an escalation-rate regression, not as an unexplained slowdown.

``FidelityPolicy(force_full=True)`` disables every fast path and
reproduces the full-fidelity decoder bit-for-bit — the same code paths
run, consuming the same RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..errors import ConfigurationError

#: Counter keys every fidelity-policy epoch reports.  Keys come in
#: (fast, escalation) pairs per gate; ``viterbi_exact`` counts both
#: genuine band fallbacks and decodes run with the band disabled.
FIDELITY_STAT_KEYS: Tuple[str, ...] = (
    "pregate_fast", "pregate_escalations",
    "subsample_fast", "subsample_escalations",
    "multilevel_fast", "multilevel_escalations",
    "viterbi_banded", "viterbi_exact",
    "bounded_lloyd_runs",
)

#: (fast, escalation) counter pairs used for the escalation rate.
_GATE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("pregate_fast", "pregate_escalations"),
    ("subsample_fast", "subsample_escalations"),
    ("multilevel_fast", "multilevel_escalations"),
    ("viterbi_banded", "viterbi_exact"),
)


@dataclass(frozen=True)
class FidelityPolicy:
    """Per-stage budgets and escalation thresholds for adaptive decoding.

    The default policy is the adaptive fast path; ``force_full=True``
    turns every gate off and reproduces the full-fidelity decoder
    bit-identically.
    """

    #: Hard off-switch: run every stage at full fidelity, consuming the
    #: exact RNG stream of the pre-policy decoder.
    force_full: bool = False

    # -- collision-detection pre-gate -------------------------------------
    pregate: bool = True
    #: The fast path fires only when planarity is below this fraction
    #: of the effective collision threshold; the [margin, 1.0) band is
    #: low-confidence and escalates to the full detector.
    pregate_margin: float = 0.5
    #: Relaxed margin used when session warm state already vouches for
    #: the stream (a matched single-tag tracker): warm evidence buys a
    #: wider fast-path band.
    pregate_margin_warm: float = 0.75

    # -- subsampled cluster-count selection -------------------------------
    #: Model selection runs on at most this many differentials; 0
    #: disables subsampling (but keeps the shared seeding).
    subsample_cap: int = 384
    #: Seed of the deterministic subsample draw (independent of the
    #: decoder RNG so the drawn subset is reproducible run to run).
    subsample_seed: int = 24601
    #: Escalate to a full-set refit when the inertia-improvement ratio
    #: lands within this factor of the acceptance threshold (compared
    #: in log space); must be > 1.
    confidence_gap: float = 2.0

    # -- multilevel projection dispersion gate ----------------------------
    dispersion_gate: bool = True
    #: A projected observation farther than this from every ideal level
    #: in {-1, 0, +1} counts as off-lattice.
    dispersion_eps: float = 0.2
    #: Skip the multilevel k-means check when the off-lattice fraction
    #: is at or below this; anything above escalates.
    dispersion_fraction: float = 0.02

    # -- banded Viterbi ---------------------------------------------------
    banded_viterbi: bool = True
    #: Extra width (observation units) added to the provably-safe
    #: emission decision band; observations inside the widened band
    #: force the exact trellis recursion.
    viterbi_band_margin: float = 1e-9

    # -- bound-based Lloyd ------------------------------------------------
    #: Warm (single-restart) k-means switches to the Hamerly
    #: bound-based Lloyd iteration at or above this point count; below
    #: it the batched brute-force iteration is faster.
    bounded_min_points: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 < self.pregate_margin < 1.0:
            raise ConfigurationError(
                "pregate_margin must be in (0, 1)")
        if not 0.0 < self.pregate_margin_warm < 1.0:
            raise ConfigurationError(
                "pregate_margin_warm must be in (0, 1)")
        if self.subsample_cap < 0:
            raise ConfigurationError("subsample_cap must be >= 0")
        if 0 < self.subsample_cap < 32:
            raise ConfigurationError(
                "subsample_cap below 32 cannot support the 9-cluster "
                "candidate")
        if self.confidence_gap <= 1.0:
            raise ConfigurationError("confidence_gap must be > 1")
        if self.dispersion_eps <= 0:
            raise ConfigurationError("dispersion_eps must be positive")
        if not 0.0 <= self.dispersion_fraction < 1.0:
            raise ConfigurationError(
                "dispersion_fraction must be in [0, 1)")
        if self.viterbi_band_margin < 0:
            raise ConfigurationError(
                "viterbi_band_margin must be >= 0")
        if self.bounded_min_points < 2:
            raise ConfigurationError(
                "bounded_min_points must be >= 2")

    @property
    def active(self) -> bool:
        """True when any fast path may fire."""
        return not self.force_full

    def new_stats(self) -> Dict[str, int]:
        """A zeroed per-epoch counter dict (one entry per stat key)."""
        return {key: 0 for key in FIDELITY_STAT_KEYS}


def merge_fidelity_stats(into: Dict[str, int],
                         update: Mapping[str, int]) -> Dict[str, int]:
    """Accumulate one fidelity counter dict into another.

    Thin compatibility alias over the one counter-merge implementation
    in :mod:`repro.core.stages.stats` (imported lazily: the stage
    package sits above this module in the import graph).
    """
    from .stages.stats import StatsAccumulator
    return StatsAccumulator.merge_counts(into, update)


def escalation_rate(stats: Mapping[str, int]) -> float:
    """Fraction of gate decisions that escalated to full fidelity.

    Sums every (fast, escalation) counter pair; returns 1.0 when no
    gate ever fired (an all-zero stats dict means the fast paths are
    dead, which the benchmark sanity ceiling should flag, not excuse).
    """
    fast = sum(int(stats.get(f, 0)) for f, _ in _GATE_PAIRS)
    escalated = sum(int(stats.get(e, 0)) for _, e in _GATE_PAIRS)
    decisions = fast + escalated
    if decisions == 0:
        return 1.0
    return escalated / decisions
