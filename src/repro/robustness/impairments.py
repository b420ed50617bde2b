"""Composable, seed-deterministic trace impairments (fault injection).

Each :class:`Impairment` is a small frozen dataclass that rewrites a
complex sample array the way one concrete receiver pathology would:

* :class:`SampleDropout` — the capture chain dropped buffers; the
  affected runs read as zeros (the USRP driver's overflow behaviour).
* :class:`NonFiniteBurst` — dead ADC / DMA corruption; runs of NaN or
  ``inf`` samples.
* :class:`AdcSaturation` — front-end overload; I/Q pinned at the rails
  for whole runs.
* :class:`DcOffsetStep` — the reader re-tuned or an interferer's
  carrier leaked in; the baseband mean jumps mid-capture.
* :class:`CarrierPhaseJump` — reader PLL re-lock; every sample after
  the jump is rotated by a fixed phase.
* :class:`TruncateEpoch` — the carrier shut down early; the tail of
  the epoch is simply missing.
* :class:`BurstInterferer` — a foreign transmitter keyed up for a few
  hundred microseconds; an additive complex tone burst.

The frequency-selective family (this file's second generation) models
the channel itself rather than the capture chain:

* :class:`MultipathChannel` — the whole capture convolved with a
  sparse FIR echo profile (:mod:`repro.phy.multipath` presets):
  dense-reflector room, hallway, or a randomized exponential decay.
* :class:`TagMobility` — bulk fast mobility; a slow complex envelope
  (Doppler-style phase drift plus pattern fading) multiplies the
  capture, expressed in cycles/sample so no sample rate is needed.
* :class:`SweptInterferer` — a frequency-hopping neighbour; an
  additive chirp sweeping through the band during a run.

Impairments draw every random choice (positions, run lengths, phases)
from the generator handed to :func:`apply_impairments`, so a cocktail
is exactly reproducible from ``(capture, impairments, seed)`` — the
property the chaos harness relies on.  Ground truth is never touched:
:func:`impair_capture` returns a new
:class:`~repro.reader.epoch.EpochCapture` whose ``truths`` are the
original records, so a degraded decode can still be scored bit-by-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..reader.epoch import EpochCapture
from ..types import IQTrace
from ..utils.rng import SeedLike, make_rng


def _draw_runs(rng: np.random.Generator, n_samples: int, n_runs: int,
               max_run: int) -> List[Tuple[int, int]]:
    """Random (start, stop) runs inside ``[0, n_samples)``."""
    runs: List[Tuple[int, int]] = []
    for _ in range(n_runs):
        length = int(rng.integers(1, max(max_run, 1) + 1))
        length = min(length, n_samples)
        start = int(rng.integers(0, max(n_samples - length, 0) + 1))
        runs.append((start, start + length))
    return runs


@dataclass(frozen=True)
class Impairment:
    """Base class: one deterministic rewrite of a sample array."""

    def apply(self, samples: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
        """Return the impaired samples (may modify ``samples`` in place;
        callers pass a private copy)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SampleDropout(Impairment):
    """Zero runs where the capture chain dropped buffers."""

    n_runs: int = 2
    max_run: int = 200

    def apply(self, samples, rng):
        for start, stop in _draw_runs(rng, samples.size, self.n_runs,
                                      self.max_run):
            samples[start:stop] = 0.0
        return samples


@dataclass(frozen=True)
class NonFiniteBurst(Impairment):
    """Runs of NaN (or infinite) samples from a dead ADC / bad DMA."""

    n_runs: int = 2
    max_run: int = 100
    use_inf: bool = False

    def apply(self, samples, rng):
        value = complex(np.inf, np.inf) if self.use_inf \
            else complex(np.nan, np.nan)
        for start, stop in _draw_runs(rng, samples.size, self.n_runs,
                                      self.max_run):
            samples[start:stop] = value
        return samples


@dataclass(frozen=True)
class AdcSaturation(Impairment):
    """Pin I and Q at the rails for whole runs (front-end overload)."""

    n_runs: int = 2
    max_run: int = 300
    #: Rail level relative to the capture's own peak |I|/|Q|.
    level_factor: float = 1.0

    def apply(self, samples, rng):
        finite = samples[np.isfinite(samples.real)
                         & np.isfinite(samples.imag)]
        if finite.size == 0:
            return samples
        rail = self.level_factor * max(
            float(np.max(np.abs(finite.real))),
            float(np.max(np.abs(finite.imag))), 1e-12)
        for start, stop in _draw_runs(rng, samples.size, self.n_runs,
                                      self.max_run):
            chunk = samples[start:stop]
            samples[start:stop] = (np.sign(chunk.real) * rail
                                   + 1j * np.sign(chunk.imag) * rail)
        return samples


@dataclass(frozen=True)
class DcOffsetStep(Impairment):
    """Add a complex DC step from a random position onward."""

    magnitude: float = 0.2

    def apply(self, samples, rng):
        at = int(rng.integers(0, samples.size))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        samples[at:] += self.magnitude * np.exp(1j * phase)
        return samples


@dataclass(frozen=True)
class CarrierPhaseJump(Impairment):
    """Rotate everything after a random position (reader PLL re-lock)."""

    max_radians: float = float(np.pi)

    def apply(self, samples, rng):
        at = int(rng.integers(0, samples.size))
        angle = rng.uniform(-self.max_radians, self.max_radians)
        samples[at:] *= np.exp(1j * angle)
        return samples


@dataclass(frozen=True)
class TruncateEpoch(Impairment):
    """Cut the capture short (carrier shut down early).

    Keeps at least ``min_keep_fraction`` of the samples so the result
    is still a decodable (if shorter) epoch.
    """

    min_keep_fraction: float = 0.5

    def apply(self, samples, rng):
        keep_min = max(int(self.min_keep_fraction * samples.size), 2)
        keep = int(rng.integers(keep_min, samples.size + 1))
        return samples[:keep]


@dataclass(frozen=True)
class BurstInterferer(Impairment):
    """Additive complex tone burst from a foreign transmitter."""

    amplitude: float = 0.3
    max_run: int = 2000
    #: Tone frequency as a fraction of the sample rate.
    max_cycles_per_sample: float = 0.05

    def apply(self, samples, rng):
        (start, stop), = _draw_runs(rng, samples.size, 1, self.max_run)
        n = stop - start
        freq = rng.uniform(-self.max_cycles_per_sample,
                           self.max_cycles_per_sample)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tone = self.amplitude * np.exp(
            1j * (2.0 * np.pi * freq * np.arange(n) + phase))
        samples[start:stop] += tone
        return samples


@dataclass(frozen=True)
class MultipathChannel(Impairment):
    """Convolve the capture with a sparse FIR echo profile.

    ``preset`` picks the geometry (``"room"``, ``"hallway"`` or
    ``"exponential"``); the tap layout is drawn from the cocktail's
    generator, so the same seed reproduces the same channel.  Explicit
    ``delays_samples``/``gains`` override the preset entirely (and use
    no randomness).
    """

    preset: str = "room"
    #: Scales preset delay spreads; should match the capture's
    #: samples-per-bit for the presets to read as intended.
    samples_per_bit: int = 250
    delays_samples: Tuple[int, ...] = ()
    gains: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if self.preset not in ("room", "hallway", "exponential"):
            raise ConfigurationError(
                f"unknown multipath preset {self.preset!r}")
        if bool(self.delays_samples) != bool(self.gains):
            raise ConfigurationError(
                "explicit taps need both delays_samples and gains")

    def _profile(self, rng: np.random.Generator) -> "MultipathProfile":
        from ..phy.multipath import MultipathProfile
        if self.delays_samples:
            return MultipathProfile(
                delays_samples=tuple(self.delays_samples),
                gains=tuple(self.gains))
        if self.preset == "room":
            return MultipathProfile.dense_reflector_room(
                self.samples_per_bit, rng=rng)
        if self.preset == "hallway":
            return MultipathProfile.hallway(self.samples_per_bit,
                                            rng=rng)
        max_delay = max(int(0.25 * self.samples_per_bit), 4)
        return MultipathProfile.exponential(
            n_echoes=min(8, max_delay), max_delay_samples=max_delay,
            echo_amplitude=0.45, decay=1.0, rng=rng)

    def apply(self, samples, rng):
        from ..phy.multipath import apply_multipath
        finite = np.isfinite(samples.real) & np.isfinite(samples.imag)
        profile = self._profile(rng)
        if np.all(finite):
            return apply_multipath(samples, profile)
        # Echoes of a NaN burst would smear non-finite values across
        # the delay spread; convolve the finite content instead and
        # re-impose the original non-finite runs afterwards.
        patched = samples.copy()
        patched[~finite] = samples[finite].mean() if finite.any() \
            else 0.0
        out = apply_multipath(patched, profile)
        out[~finite] = samples[~finite]
        return out


@dataclass(frozen=True)
class TagMobility(Impairment):
    """Multiply by a slow Doppler-drift + fading envelope.

    Rates are in cycles per sample (sample-rate agnostic); the
    defaults correspond to tens-of-Hz Doppler and a few-Hz fade at the
    fast profile's 2.5 Msps.
    """

    max_doppler_cycles_per_sample: float = 4e-5
    fade_depth: float = 0.4
    fade_cycles_per_sample: float = 8e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.fade_depth < 1.0:
            raise ConfigurationError(
                "fade_depth must be in [0, 1)")

    def apply(self, samples, rng):
        n = samples.size
        doppler = rng.uniform(-self.max_doppler_cycles_per_sample,
                              self.max_doppler_cycles_per_sample)
        phase0 = rng.uniform(0.0, 2.0 * np.pi)
        fade0 = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n)
        envelope = (1.0 - self.fade_depth * np.sin(
            2.0 * np.pi * self.fade_cycles_per_sample * t
            + fade0) ** 2) * np.exp(
            1j * (2.0 * np.pi * doppler * t + phase0))
        # Non-finite samples (from an earlier cocktail ingredient)
        # stay non-finite through the multiply; the warning is noise.
        with np.errstate(invalid="ignore"):
            samples *= envelope
        return samples


@dataclass(frozen=True)
class SweptInterferer(Impairment):
    """Additive linear chirp sweeping through the band during a run."""

    amplitude: float = 0.3
    max_run: int = 4000
    #: Sweep start/end frequency bounds, as fractions of sample rate.
    max_cycles_per_sample: float = 0.1

    def apply(self, samples, rng):
        (start, stop), = _draw_runs(rng, samples.size, 1, self.max_run)
        n = stop - start
        f0 = rng.uniform(-self.max_cycles_per_sample,
                         self.max_cycles_per_sample)
        f1 = rng.uniform(-self.max_cycles_per_sample,
                         self.max_cycles_per_sample)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n)
        inst_phase = 2.0 * np.pi * (f0 * t
                                    + (f1 - f0) * t ** 2
                                    / (2.0 * max(n, 1)))
        samples[start:stop] += self.amplitude * np.exp(
            1j * (inst_phase + phase))
        return samples


def apply_impairments(trace: IQTrace,
                      impairments: Sequence[Impairment],
                      rng: SeedLike = None) -> IQTrace:
    """Apply ``impairments`` in order to a copy of ``trace``.

    The returned trace is constructed with ``allow_nonfinite=True`` so
    NaN/Inf bursts survive into it; the original trace is untouched.
    """
    gen = make_rng(rng)
    samples = np.array(trace.samples, dtype=np.complex128, copy=True)
    for impairment in impairments:
        samples = impairment.apply(samples, gen)
        if samples.size == 0:
            raise ConfigurationError(
                f"impairment {impairment!r} consumed the whole trace")
    return IQTrace(samples=samples, sample_rate_hz=trace.sample_rate_hz,
                   start_time_s=trace.start_time_s, allow_nonfinite=True)


def impair_capture(capture: EpochCapture,
                   impairments: Sequence[Impairment],
                   rng: SeedLike = None) -> EpochCapture:
    """Impaired copy of an epoch capture, ground truth preserved."""
    trace = apply_impairments(capture.trace, impairments, rng=rng)
    return EpochCapture(trace=trace, truths=list(capture.truths),
                        epoch_index=capture.epoch_index)


#: The candidate impairments :func:`random_cocktail` samples from, each
#: paired with its inclusion probability: the flat-channel faults, then
#: the frequency-selective ones.  Parameters are drawn per cocktail so
#: two cocktails with the same ingredient still differ.
_COCKTAIL_MENU = (
    ("dropout", 0.5),
    ("nonfinite", 0.5),
    ("saturation", 0.4),
    ("dc_step", 0.4),
    ("phase_jump", 0.3),
    ("truncate", 0.25),
    ("interferer", 0.4),
    ("multipath", 0.35),
    ("mobility", 0.3),
    ("swept", 0.3),
)


def random_cocktail(rng: SeedLike = None,
                    max_run_samples: int = 400) -> List[Impairment]:
    """A randomized impairment cocktail for chaos testing.

    Draws a subset of the impairment menu with randomized parameters.
    The same seed always produces the same cocktail; an empty draw is
    re-rolled into a single dropout so every cocktail perturbs the
    trace at least once.
    """
    gen = make_rng(rng)
    cocktail: List[Impairment] = []
    for name, probability in _COCKTAIL_MENU:
        if gen.random() >= probability:
            continue
        if name == "dropout":
            cocktail.append(SampleDropout(
                n_runs=int(gen.integers(1, 4)),
                max_run=int(gen.integers(10, max_run_samples))))
        elif name == "nonfinite":
            cocktail.append(NonFiniteBurst(
                n_runs=int(gen.integers(1, 4)),
                max_run=int(gen.integers(5, max_run_samples // 2 + 6)),
                use_inf=bool(gen.random() < 0.3)))
        elif name == "saturation":
            cocktail.append(AdcSaturation(
                n_runs=int(gen.integers(1, 3)),
                max_run=int(gen.integers(20, max_run_samples))))
        elif name == "dc_step":
            cocktail.append(DcOffsetStep(
                magnitude=float(gen.uniform(0.05, 0.5))))
        elif name == "phase_jump":
            cocktail.append(CarrierPhaseJump())
        elif name == "truncate":
            cocktail.append(TruncateEpoch(
                min_keep_fraction=float(gen.uniform(0.5, 0.9))))
        elif name == "interferer":
            cocktail.append(BurstInterferer(
                amplitude=float(gen.uniform(0.05, 0.6)),
                max_run=int(gen.integers(100, 5 * max_run_samples))))
        elif name == "multipath":
            cocktail.append(MultipathChannel(
                preset=str(gen.choice(
                    ["room", "hallway", "exponential"]))))
        elif name == "mobility":
            cocktail.append(TagMobility(
                max_doppler_cycles_per_sample=float(
                    gen.uniform(5e-6, 8e-5)),
                fade_depth=float(gen.uniform(0.1, 0.6))))
        elif name == "swept":
            cocktail.append(SweptInterferer(
                amplitude=float(gen.uniform(0.05, 0.5)),
                max_run=int(gen.integers(500, 10 * max_run_samples))))
    if not cocktail:
        cocktail.append(SampleDropout(
            n_runs=1, max_run=int(gen.integers(10, max_run_samples))))
    return cocktail
