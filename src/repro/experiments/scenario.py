"""One scenario synthesis path for every experiment substrate.

Before this module the repo had three bespoke ways to turn "a scenario"
into an :class:`~repro.reader.epoch.EpochCapture`: each
``experiments/fig*.py`` hand-rolled its own network construction, the
robustness survival matrix had :mod:`repro.robustness.scenarios`, and
the service soak pre-rendered its own epoch pools.  All three followed
the same RNG discipline — draw channel coefficients, then one child
generator per tag, then the simulator's noise generator — but each
re-implemented it, so a new workload (the signoff suite's SNR × tags ×
drift sweeps) had no single substrate to build on.

:class:`ScenarioSpec` names a channel condition declaratively — tag
count, per-tag bitrates, SNR or noise floor, clock drift, multipath
preset, impairment cocktail — and :class:`ScenarioSynth` renders it
with the canonical draw order, so a spec plus a seed *is* the capture:

>>> spec = ScenarioSpec(n_tags=4, snr_db=12.0, drift_ppm=200.0)
>>> capture = ScenarioSynth(spec).capture()

The synthesizer is stateful on purpose: tags carry RNG state across
epochs (offset re-randomization, payload bits), so consecutive
``capture(epoch_index=k)`` calls reproduce a multi-epoch session
exactly the way a long-lived :class:`NetworkSimulator` would.
Single-shot consumers use :func:`build_capture`.

Draw order (the compatibility contract every consumer relies on):

1. coefficients — one ``random_coefficients`` draw, unless the spec
   pins them explicitly;
2. one ``integers(0, 2**63)`` draw per tag, seeding that tag's
   generator;
3. one ``integers(0, 2**63)`` draw for the simulator's noise generator
   — or, with ``spawn_sim_rng=False``, the scenario generator itself
   is handed to the simulator (the benchmark-fixture convention, whose
   captures predate this module and are pinned by committed
   baselines).

Impairments apply through the truth-preserving
:func:`repro.robustness.impairments.impair_capture`, seeded by the
spec (not the scenario generator), so the same impaired waveform
regenerates from the spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..phy.channel import ChannelModel, random_coefficients
from ..phy.noise import noise_std_for_snr
from ..reader.epoch import EpochCapture
from ..reader.simulator import NetworkSimulator
from ..tags.ask_tag import AskTag
from ..tags.lf_tag import LFTag
from ..types import SimulationProfile, TagConfig
from ..utils.rng import SeedLike, make_rng

__all__ = ["ScenarioSpec", "ScenarioSynth", "build_capture"]

#: Tag implementations a spec may request.
_TAG_KINDS = ("lf", "ask")

#: Named profiles a spec may pin (``None`` defers to the caller).
_PROFILES = {"fast": SimulationProfile.fast,
             "paper": SimulationProfile.paper}


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one reproducible channel condition.

    A spec is hashable and comparison-friendly so sweep grids can use
    specs (or their fields) as cell coordinates.  Everything stochastic
    about the rendered capture derives from ``seed`` (or an explicit
    generator handed to :class:`ScenarioSynth`).
    """

    name: str = "adhoc"
    n_tags: int = 6
    #: Uniform tag bitrate; ``None`` uses the profile's default rate.
    bitrate_bps: Optional[float] = None
    #: Per-tag bitrates (overrides ``bitrate_bps``; length must equal
    #: ``n_tags``) — the fig11 slow/fast coexistence shape.
    bitrates_bps: Optional[Tuple[float, ...]] = None
    #: Receiver noise floor (complex AWGN std).
    noise_std: float = 0.01
    #: Raw-sample SNR in dB; when set it overrides ``noise_std`` via
    #: the mean modulated power of the drawn coefficients.
    snr_db: Optional[float] = None
    #: Tag crystal quality (Section 4.1's tolerance axis).  ``None``
    #: keeps :class:`TagConfig`'s default crystal (150 ppm) — the
    #: regime every pre-existing experiment ran in.
    drift_ppm: Optional[float] = None
    #: Multipath preset name (``room`` / ``hallway`` / ``exponential``)
    #: — shorthand for a ``MultipathChannel`` impairment.
    channel_preset: Optional[str] = None
    #: Impairment cocktail applied to the clean capture, in order,
    #: after any ``channel_preset`` echo.
    impairments: Tuple = ()
    epoch_s: float = 0.01
    #: Seeds coefficients, tags, noise and impairments when no
    #: explicit generator is supplied.
    seed: int = 42
    #: First tag id (churned traffic generations offset this so a
    #: fresh population reads as new streams, not drift of old ones).
    tag_id_base: int = 0
    #: ``"lf"`` (comparator-jitter offsets) or ``"ask"`` (deterministic
    #: start offset — the Figure 14 baseline tag).
    tag_kind: str = "lf"
    #: Start offset for ``ask`` tags, in seconds (``None``: 0).
    start_offset_s: Optional[float] = None
    #: Pin coefficients instead of drawing them (skips draw step 1).
    coefficients: Optional[Tuple[complex, ...]] = None
    #: Pin the population entropy instead of drawing it (skips draw
    #: steps 2-3): one integer seed per tag, plus one trailing seed
    #: for the simulator when ``spawn_sim_rng`` is set.  Sweep cells
    #: use this to reproduce legacy shared-generator draw orders in
    #: engine workers — the parent pre-draws the integers in the
    #: canonical order and ships a fully self-contained spec.
    population_seeds: Optional[Tuple[int, ...]] = None
    #: Minimum pairwise coefficient separation for the draw (``None``
    #: uses :func:`random_coefficients`'s default).
    min_separation: Optional[float] = None
    environment_offset: complex = 0.5 + 0.3j
    #: ``True`` (default): the simulator gets its own child generator.
    #: ``False``: it shares the scenario generator — the
    #: benchmark-fixture convention, kept for its pinned baselines.
    spawn_sim_rng: bool = True
    #: Impairment randomness seed (``None``: reuse ``seed``).
    impairment_seed: Optional[int] = None
    #: Pin the simulation profile by name (``fast`` / ``paper``);
    #: ``None`` defers to the profile handed to the synthesizer.
    profile_name: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.n_tags < 1:
            raise ConfigurationError(
                f"need at least one tag, got {self.n_tags}")
        if self.epoch_s <= 0:
            raise ConfigurationError("epoch_s must be positive")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")
        if self.tag_kind not in _TAG_KINDS:
            raise ConfigurationError(
                f"tag_kind must be one of {_TAG_KINDS}, "
                f"got {self.tag_kind!r}")
        if self.bitrates_bps is not None \
                and len(self.bitrates_bps) != self.n_tags:
            raise ConfigurationError(
                f"bitrates_bps has {len(self.bitrates_bps)} entries "
                f"for {self.n_tags} tags")
        if self.coefficients is not None \
                and len(self.coefficients) != self.n_tags:
            raise ConfigurationError(
                f"coefficients has {len(self.coefficients)} entries "
                f"for {self.n_tags} tags")
        if self.population_seeds is not None:
            want = self.n_tags + (1 if self.spawn_sim_rng else 0)
            if len(self.population_seeds) != want:
                raise ConfigurationError(
                    f"population_seeds needs {want} entries "
                    f"({self.n_tags} tags"
                    + (" + simulator" if self.spawn_sim_rng else "")
                    + f"), got {len(self.population_seeds)}")
        if self.profile_name is not None \
                and self.profile_name not in _PROFILES:
            raise ConfigurationError(
                f"unknown profile {self.profile_name!r}; available: "
                f"{sorted(_PROFILES)}")

    # -- derived views -----------------------------------------------------

    def tag_rates(self, profile: SimulationProfile) -> Tuple[float, ...]:
        """The per-tag bitrates this spec resolves to."""
        if self.bitrates_bps is not None:
            return tuple(self.bitrates_bps)
        rate = self.bitrate_bps if self.bitrate_bps is not None \
            else profile.default_bitrate_bps
        return (rate,) * self.n_tags

    def all_impairments(self) -> Tuple:
        """Preset echo (if any) followed by the explicit cocktail."""
        extra: Tuple = ()
        if self.channel_preset is not None:
            from ..robustness.impairments import MultipathChannel
            extra = (MultipathChannel(preset=self.channel_preset),)
        return extra + tuple(self.impairments)

    def resolve_profile(self, profile: Optional[SimulationProfile]
                        ) -> SimulationProfile:
        if self.profile_name is not None:
            return _PROFILES[self.profile_name]()
        return profile or SimulationProfile.fast()


class ScenarioSynth:
    """Renders a :class:`ScenarioSpec` into epoch captures.

    Construction performs every population-level draw (coefficients,
    tag generators, simulator generator) in the canonical order; each
    :meth:`capture` call then renders one epoch, advancing the tags'
    internal state exactly as a long-lived reader deployment would.
    """

    def __init__(self, spec: ScenarioSpec,
                 profile: Optional[SimulationProfile] = None,
                 rng: SeedLike = None):
        self.spec = spec
        self.profile = spec.resolve_profile(profile)
        gen = make_rng(rng) if rng is not None \
            else np.random.default_rng(spec.seed)
        self.gen = gen

        if spec.coefficients is not None:
            coeffs = list(spec.coefficients)
        elif spec.min_separation is not None:
            coeffs = random_coefficients(
                spec.n_tags, min_separation=spec.min_separation,
                rng=gen)
        else:
            coeffs = random_coefficients(spec.n_tags, rng=gen)
        self.coefficients = tuple(coeffs)

        if spec.snr_db is not None:
            power = float(np.mean([abs(c) ** 2 for c in coeffs]))
            self.noise_std = noise_std_for_snr(power, spec.snr_db)
        else:
            self.noise_std = spec.noise_std

        rates = spec.tag_rates(self.profile)
        for rate in rates:
            self.profile.validate_bitrate(rate)
        base = spec.tag_id_base
        self.channel = ChannelModel(
            {base + k: coeffs[k] for k in range(spec.n_tags)},
            environment_offset=spec.environment_offset)
        if spec.population_seeds is not None:
            tag_seeds = list(spec.population_seeds[:spec.n_tags])
            self.tags = [self._make_tag(base + k, rates[k], coeffs[k],
                                        np.random.default_rng(
                                            tag_seeds[k]))
                         for k in range(spec.n_tags)]
            sim_rng = np.random.default_rng(
                spec.population_seeds[spec.n_tags]) \
                if spec.spawn_sim_rng else gen
        else:
            self.tags = [self._make_tag(base + k, rates[k], coeffs[k],
                                        np.random.default_rng(
                                            gen.integers(0, 2 ** 63)))
                         for k in range(spec.n_tags)]
            sim_rng = np.random.default_rng(gen.integers(0, 2 ** 63)) \
                if spec.spawn_sim_rng else gen
        self.sim = NetworkSimulator(self.tags, self.channel,
                                    profile=self.profile,
                                    noise_std=self.noise_std,
                                    rng=sim_rng)

    def _make_tag(self, tag_id: int, rate: float, coeff: complex,
                  rng: np.random.Generator):
        kwargs = {}
        if self.spec.drift_ppm is not None:
            kwargs["clock_drift_ppm"] = self.spec.drift_ppm
        config = TagConfig(tag_id=tag_id, bitrate_bps=rate,
                           channel_coefficient=coeff, **kwargs)
        if self.spec.tag_kind == "ask":
            return AskTag(config,
                          start_offset_s=self.spec.start_offset_s or 0.0,
                          profile=self.profile, rng=rng)
        return LFTag(config, profile=self.profile, rng=rng)

    def capture(self, duration_s: Optional[float] = None,
                epoch_index: int = 0) -> EpochCapture:
        """Render one epoch (impairments applied, truth preserved)."""
        capture = self.sim.run_epoch(
            self.spec.epoch_s if duration_s is None else duration_s,
            epoch_index=epoch_index)
        impairments = self.spec.all_impairments()
        if not impairments:
            return capture
        from ..robustness.impairments import impair_capture
        seed = self.spec.impairment_seed
        if seed is None:
            seed = self.spec.seed
        return impair_capture(capture, impairments, rng=seed)


def build_capture(spec: ScenarioSpec,
                  profile: Optional[SimulationProfile] = None,
                  rng: SeedLike = None,
                  duration_s: Optional[float] = None,
                  epoch_index: int = 0) -> EpochCapture:
    """Render a spec's capture in one shot (fresh synthesizer)."""
    return ScenarioSynth(spec, profile=profile, rng=rng).capture(
        duration_s=duration_s, epoch_index=epoch_index)
