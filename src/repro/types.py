"""Core datatypes shared across the LF-Backscatter reproduction.

The types here are intentionally thin: an :class:`IQTrace` is a validated
wrapper around a complex numpy array, a :class:`TagConfig` pins down one
tag's transmit behaviour, and :class:`DecodedStream` /
:class:`EpochResult` carry decoder output back to callers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import constants
from .errors import ConfigurationError, SignalError


@dataclass(frozen=True)
class SimulationProfile:
    """Sampling-scale profile binding sample rate to decoder expectations.

    The decoder's maths is expressed in samples-per-bit, so any profile
    that preserves the paper's 250x oversampling ratio exercises the
    identical code paths.  ``paper()`` matches Section 4.1's setup;
    ``fast()`` is a 10x smaller clone used by quick unit tests.
    """

    sample_rate_hz: float = constants.READER_SAMPLE_RATE_HZ
    base_rate_bps: float = constants.BASE_RATE_BPS
    default_bitrate_bps: float = constants.DEFAULT_BITRATE_BPS
    edge_width_samples: int = constants.EDGE_WIDTH_SAMPLES

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        if self.base_rate_bps <= 0:
            raise ConfigurationError("base_rate_bps must be positive")
        if self.default_bitrate_bps < self.base_rate_bps:
            raise ConfigurationError(
                "default bitrate must be at least the base rate")
        if self.edge_width_samples < 1:
            raise ConfigurationError("edge_width_samples must be >= 1")

    @classmethod
    def paper(cls) -> "SimulationProfile":
        """The paper's reference setup: 25 Msps reader, 100 kbps tags."""
        return cls()

    @classmethod
    def fast(cls) -> "SimulationProfile":
        """A 10x-scaled profile with the same 250x oversampling ratio."""
        return cls(sample_rate_hz=2.5e6, base_rate_bps=10.0,
                   default_bitrate_bps=10e3)

    def samples_per_bit(self, bitrate_bps: Optional[float] = None) -> float:
        """Reader samples spanned by one bit at ``bitrate_bps``."""
        rate = self.default_bitrate_bps if bitrate_bps is None else bitrate_bps
        return constants.samples_per_bit(rate, self.sample_rate_hz)

    def validate_bitrate(self, bitrate_bps: float) -> None:
        """Raise unless ``bitrate_bps`` is a positive multiple of base rate.

        Section 3.2: "the rate selected by the sensor is not arbitrary,
        but it is a multiple of a base rate".
        """
        if bitrate_bps <= 0:
            raise ConfigurationError(
                f"bitrate must be positive, got {bitrate_bps}")
        multiple = bitrate_bps / self.base_rate_bps
        if abs(multiple - round(multiple)) > 1e-9:
            raise ConfigurationError(
                f"bitrate {bitrate_bps} is not a multiple of the base rate "
                f"{self.base_rate_bps}")


@dataclass
class IQTrace:
    """A complex baseband capture from the reader front end.

    ``samples`` holds I in the real part and Q in the imaginary part,
    exactly how the decoder consumes a USRP capture.

    ``allow_nonfinite`` relaxes the constructor's finiteness check so a
    *raw* capture with dropouts or dead-ADC runs (NaN/Inf samples) can
    be represented at all; such traces must pass through
    :func:`repro.robustness.guard.sanitize_trace` before decoding —
    the decoder's maths assumes finite samples.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0
    allow_nonfinite: bool = False

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise SignalError(
                f"IQ trace must be 1-D, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise SignalError("IQ trace must not be empty")
        if not np.iscomplexobj(self.samples):
            self.samples = self.samples.astype(np.complex128)
        if not self.allow_nonfinite and (
                not np.all(np.isfinite(self.samples.real))
                or not np.all(np.isfinite(self.samples.imag))):
            raise SignalError("IQ trace contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise SignalError(
                f"sample rate must be positive, got {self.sample_rate_hz}")
        self._cache: Dict[object, object] = {}

    def __len__(self) -> int:
        return int(self.samples.size)

    # -- derived-array memoisation ----------------------------------------
    #
    # Every decoder stage sweeps the same capture: the edge detector, the
    # analog fallback, and every read_grid_differentials call all need the
    # trace's prefix sum (and the coarse |dS| sweep).  Recomputing a
    # full-capture cumsum per call dominated profiles, so derived arrays
    # are memoised on the trace itself.  The cache assumes ``samples`` is
    # not mutated in place after construction (decoder code never does).

    def cached(self, key, builder):
        """Memoise ``builder()`` on this trace under ``key``."""
        try:
            return self._cache[key]
        except KeyError:
            value = builder()
            self._cache[key] = value
            return value

    def prefix_sum(self) -> np.ndarray:
        """Length n+1 prefix sum of ``samples`` (leading zero).

        ``prefix_sum()[b] - prefix_sum()[a]`` is the sum over ``[a, b)``
        — the O(1) windowed-mean primitive behind the Section 3.1
        differential sweeps.  Computed once per trace and shared by the
        edge detector and the grid readers.
        """
        return self.cached(
            "prefix_sum",
            lambda: np.concatenate([[0], np.cumsum(self.samples)]))

    def __getstate__(self):
        # Derived arrays are cheap to rebuild and can dwarf the capture
        # itself; never ship them across process boundaries.
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    @property
    def duration_s(self) -> float:
        """Trace duration in seconds."""
        return self.samples.size / self.sample_rate_hz

    @property
    def i(self) -> np.ndarray:
        """In-phase channel."""
        return self.samples.real

    @property
    def q(self) -> np.ndarray:
        """Quadrature channel."""
        return self.samples.imag

    def time_axis(self) -> np.ndarray:
        """Per-sample timestamps in seconds."""
        return (self.start_time_s
                + np.arange(self.samples.size) / self.sample_rate_hz)

    def slice(self, start: int, stop: int) -> "IQTrace":
        """Return a sub-trace covering samples ``[start, stop)``."""
        if not 0 <= start < stop <= self.samples.size:
            raise SignalError(
                f"invalid slice [{start}, {stop}) for trace of length "
                f"{self.samples.size}")
        return IQTrace(
            samples=self.samples[start:stop],
            sample_rate_hz=self.sample_rate_hz,
            start_time_s=self.start_time_s + start / self.sample_rate_hz,
            allow_nonfinite=self.allow_nonfinite)


@dataclass(frozen=True)
class TagConfig:
    """Static configuration of one simulated backscatter tag.

    ``channel_coefficient`` is the complex coefficient h_i of Equation 1:
    the IQ vector the tag contributes when its antenna is reflecting.
    ``clock_drift_ppm`` models the Moo's crystal (Section 4.1) and
    ``mean_offset_s`` / comparator jitter the capacitor start-up spread
    (Section 3.2, Figure 4).
    """

    tag_id: int
    bitrate_bps: float = constants.DEFAULT_BITRATE_BPS
    channel_coefficient: complex = 0.1 + 0.05j
    clock_drift_ppm: float = constants.DEFAULT_CLOCK_DRIFT_PPM
    mean_offset_s: float = 0.0

    def __post_init__(self) -> None:
        if self.tag_id < 0:
            raise ConfigurationError(f"tag_id must be >= 0, got {self.tag_id}")
        if self.bitrate_bps <= 0:
            raise ConfigurationError(
                f"bitrate must be positive, got {self.bitrate_bps}")
        if abs(self.channel_coefficient) == 0:
            raise ConfigurationError(
                "channel coefficient must be non-zero (a zero coefficient "
                "means the tag is invisible to the reader)")
        if self.clock_drift_ppm < 0:
            raise ConfigurationError("clock drift must be >= 0 ppm")

    def with_coefficient(self, coefficient: complex) -> "TagConfig":
        """Copy of this config with a different channel coefficient."""
        return dataclasses.replace(self, channel_coefficient=coefficient)


class EdgePolarity:
    """Edge state labels used throughout the decoder (Section 3.5).

    RISING / FALLING are real antenna transitions; HOLD_HIGH / HOLD_LOW
    are the "no edge" states that remember the previous edge direction
    (the paper's "-+" and "--" Viterbi states).
    """

    RISING = "rise"
    FALLING = "fall"
    HOLD_HIGH = "hold_high"
    HOLD_LOW = "hold_low"

    ALL: Tuple[str, ...] = (RISING, FALLING, HOLD_HIGH, HOLD_LOW)


@dataclass
class DetectedEdge:
    """A single edge extracted from the combined IQ signal (Section 3.1).

    ``position`` is the sample index at the centre of the transition and
    ``differential`` the complex IQ differential vector S(t+) - S(t-).
    """

    position: int
    differential: complex
    strength: float = 0.0

    def __post_init__(self) -> None:
        if self.position < 0:
            raise SignalError(f"edge position must be >= 0, got "
                              f"{self.position}")
        if self.strength == 0.0:
            self.strength = abs(self.differential)


@dataclass
class StreamHypothesis:
    """A (rate, offset) stream candidate from eye-pattern folding (§3.2)."""

    offset_samples: float
    period_samples: float
    score: float = 0.0
    edge_indices: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.period_samples <= 0:
            raise SignalError("stream period must be positive")
        if self.offset_samples < 0:
            raise SignalError("stream offset must be >= 0")

    def grid_positions(self, n_samples: int) -> np.ndarray:
        """Bit-boundary sample positions of this stream within a trace."""
        n_slots = int((n_samples - self.offset_samples)
                      // self.period_samples) + 1
        k = np.arange(max(n_slots, 0))
        positions = self.offset_samples + k * self.period_samples
        return positions[positions < n_samples]


@dataclass
class DecodedStream:
    """One decoded tag stream within an epoch."""

    bits: np.ndarray
    offset_samples: float
    period_samples: float
    bitrate_bps: float
    tag_id: Optional[int] = None
    collided: bool = False
    edge_vector: complex = 0j
    confidence: float = 1.0

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=np.int8)
        if self.bits.ndim != 1:
            raise SignalError("decoded bits must be a 1-D array")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise SignalError("decoded bits must be 0/1")

    @property
    def n_bits(self) -> int:
        return int(self.bits.size)

    def payload_bits(self, preamble_bits: int = constants.PREAMBLE_BITS,
                     anchor_bits: int = 1) -> np.ndarray:
        """Bits after stripping the preamble and anchor header."""
        header = preamble_bits + anchor_bits
        return self.bits[header:]


@dataclass
class StreamFault:
    """One stream hypothesis the decoder abandoned mid-epoch.

    Expected decode failures (header gate, unresolvable collision) and
    unexpected exceptions alike are captured here instead of aborting
    the epoch: the remaining streams still decode, and the caller sees
    *which* grid hypothesis degraded and why.
    """

    offset_samples: float
    period_samples: float
    stage: str
    error_type: str
    message: str
    #: Colliders estimated on the failed grid (0 = not a collision).
    n_colliders: int = 0
    #: True for routine abandonments (junk hypotheses failing the
    #: header gate and the like) that do not signal data loss; False
    #: for genuine degradation — unresolvable collisions, unexpected
    #: exceptions caught by per-stream fault isolation.
    expected: bool = True


@dataclass
class EpochResult:
    """Everything the decoder recovered from one reader epoch."""

    streams: List[DecodedStream] = field(default_factory=list)
    n_edges_detected: int = 0
    n_collisions_detected: int = 0
    n_collisions_resolved: int = 0
    n_spurious_edges: int = 0
    duration_s: float = 0.0
    #: Wall-clock seconds spent in each pipeline stage ("edge", "fold",
    #: "extract", "detect", "separate", "viterbi", plus "total"), filled by
    #: :meth:`LFDecoder.decode_epoch` so throughput regressions are
    #: attributable to a stage rather than to the pipeline as a whole.
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: Warm-cache hit/miss counters per stage (``fold_hits``,
    #: ``fold_misses``, ``kmeans_hits``, ``kmeans_misses``,
    #: ``basis_hits``, ``basis_misses``), filled when the epoch was
    #: decoded through a :class:`repro.core.session_decoder.SessionDecoder`;
    #: empty for cold (stateless) decodes.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Fidelity-gate counters for the adaptive decode path (see
    #: :data:`repro.core.fidelity.FIDELITY_STAT_KEYS`): one
    #: (fast, escalation) pair per confidence gate plus the bound-based
    #: Lloyd run count, filled by :meth:`LFDecoder.decode_epoch`.  An
    #: all-zero dict under the default policy means the fast paths
    #: never fired — a perf regression the benchmark ceiling flags.
    fidelity_stats: Dict[str, int] = field(default_factory=dict)
    #: Position of this epoch within a batch decode (see
    #: :class:`repro.core.engine.BatchDecoder`); 0 for single decodes.
    epoch_index: int = 0
    #: Stream hypotheses abandoned mid-decode (per-stream fault
    #: isolation): each record names the grid, the stage that failed
    #: and the error, while the other streams of the epoch decoded on.
    degraded_streams: List[StreamFault] = field(default_factory=list)
    #: Trace-guard report for this epoch's capture (a
    #: :class:`repro.robustness.guard.TraceHealth`), set whenever the
    #: decoder's sanitize front-end ran; ``None`` when the guard was
    #: disabled.  A clean capture yields a report with ``verdict ==
    #: "clean"`` and an untouched trace.
    trace_health: Optional[object] = None
    #: Blind-equalizer report for this epoch (a
    #: :class:`repro.core.equalizer.EqualizerReport`), set whenever the
    #: opt-in equalizer pre-stage ran; ``None`` when the stage was
    #: disabled (the default).  ``applied`` is False when the channel
    #: read as flat and the capture passed through untouched.
    equalizer: Optional[object] = None

    @property
    def degraded(self) -> bool:
        """True when any part of this epoch decoded less than cleanly.

        Routine stream abandonments (``StreamFault.expected``) do not
        count — junk fold hypotheses failing the header gate are part
        of a healthy decode.
        """
        if any(not fault.expected for fault in self.degraded_streams):
            return True
        health = self.trace_health
        return health is not None and \
            getattr(health, "verdict", "clean") != "clean"

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    def total_payload_bits(self) -> int:
        """Sum of payload bits across all decoded streams."""
        return int(sum(s.payload_bits().size for s in self.streams))

    def stream_by_tag(self, tag_id: int) -> Optional[DecodedStream]:
        """The decoded stream attributed to ``tag_id``, if any."""
        for stream in self.streams:
            if stream.tag_id == tag_id:
                return stream
        return None


@dataclass
class ThroughputReport:
    """Aggregate goodput accounting for one experiment run."""

    scheme: str
    n_tags: int
    bits_correct: int
    bits_sent: int
    elapsed_s: float
    per_tag_bits: Dict[int, int] = field(default_factory=dict)

    @property
    def throughput_bps(self) -> float:
        """Aggregate goodput in bits per second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.bits_correct / self.elapsed_s

    @property
    def goodput_fraction(self) -> float:
        """Fraction of transmitted bits recovered correctly."""
        if self.bits_sent <= 0:
            return 0.0
        return self.bits_correct / self.bits_sent


def bits_from_string(text: str) -> np.ndarray:
    """Parse a bit string like ``"10110"`` into an int8 array."""
    if not text:
        raise ConfigurationError("bit string must not be empty")
    invalid = set(text) - {"0", "1"}
    if invalid:
        raise ConfigurationError(
            f"bit string may only contain 0/1, found {sorted(invalid)}")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(
        np.int8) - ord("0")


def bits_to_string(bits: Sequence[int]) -> str:
    """Render a bit array as a compact string."""
    arr = np.asarray(bits, dtype=np.int8)
    if arr.ndim != 1:
        raise ConfigurationError("bits must be 1-D")
    if not np.all((arr == 0) | (arr == 1)):
        raise ConfigurationError("bits must be 0/1")
    return "".join("1" if b else "0" for b in arr)
