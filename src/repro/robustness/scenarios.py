"""Named, reproducible channel scenarios for the survival sweep.

Each entry is a :class:`~repro.experiments.scenario.ScenarioSpec`
naming one deterministic impaired epoch: the tag population, the
simulation seed, and the impairment cocktail (applied through the
truth-preserving :func:`repro.robustness.impairments.impair_capture`,
with the spec's own seed).  The registry spans the regimes the ROADMAP
calls for — flat baselines, dense-reflector rooms, cluttered spaces,
corridor propagation, fast mobility, swept interference and a mixed
cocktail — at tag densities where the edge-differential front end
ranges from comfortable to broken.

:mod:`repro.robustness.survival` sweeps this registry against decoder
configurations and classifies each cell; tests and benchmarks
regenerate any single cell with
:func:`repro.experiments.scenario.build_capture`.
"""

from __future__ import annotations

from typing import Tuple

from ..experiments.scenario import ScenarioSpec
from .impairments import MultipathChannel, SweptInterferer, TagMobility

__all__ = ["SCENARIOS"]


def _hallway(n_tags: int, name: str, blurb: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name, description=blurb, n_tags=n_tags, bitrate_bps=10e3,
        impairments=(MultipathChannel(preset="hallway"),))


#: The registry the survival sweep iterates, in presentation order.
SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="flat_6", n_tags=6, bitrate_bps=10e3,
        description="Flat channel, light load — the paper's regime."),
    ScenarioSpec(
        name="flat_14", n_tags=14, bitrate_bps=10e3,
        description="Flat channel at high tag density."),
    ScenarioSpec(
        name="room_10", n_tags=10, bitrate_bps=10e3, seed=7,
        impairments=(MultipathChannel(preset="room"),),
        description="Dense-reflector room: many weak early echoes "
                    "(~15% of a bit period)."),
    ScenarioSpec(
        name="clutter_14", n_tags=14, bitrate_bps=10e3,
        impairments=(MultipathChannel(preset="exponential"),),
        description="Cluttered space at high density: exponential "
                    "power-delay profile, ~25% of a bit period."),
    _hallway(6, "hallway_6",
             "Corridor propagation, light load: strong late echoes "
             "(~60% of a bit period)."),
    _hallway(14, "hallway_14",
             "Corridor propagation at high density — the regime the "
             "equalizer pre-stage exists for."),
    ScenarioSpec(
        name="mobility_10", n_tags=10, bitrate_bps=10e3,
        impairments=(TagMobility(),),
        description="Fast bulk mobility: Doppler-style phase drift "
                    "plus pattern fading."),
    ScenarioSpec(
        name="swept_10", n_tags=10, bitrate_bps=10e3,
        impairments=(SweptInterferer(amplitude=0.2, max_run=6000),),
        description="Frequency-hopping neighbour sweeping through "
                    "the band."),
    ScenarioSpec(
        name="mixed_12", n_tags=12, bitrate_bps=10e3,
        impairments=(MultipathChannel(preset="room"), TagMobility(),
                     SweptInterferer(amplitude=0.25, max_run=4000)),
        description="Room multipath + mobility + swept interference "
                    "at once."),
)

