"""The default scenario draw order is pinned by digest.

``perfbench`` builds every benchmark input through
:class:`~repro.experiments.scenario.ScenarioSynth` at default seeding,
so the order in which a synthesizer draws its population
(coefficients, then one integer per tag, then one for the simulator)
and renders its epochs is part of the benchmark's contract: a change
that moves it moves every benchmark input.  This test renders
benchmark-shaped specs, two epochs each, and hashes the samples and the
ground truth against the committed digest.
"""

import hashlib

import numpy as np

from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
from repro.types import SimulationProfile

#: Flat, two multipath presets at an SNR, and a drifting population
#: with an id offset: the spec shapes of perfbench's three workloads.
SPECS = (
    ScenarioSpec(name="flat", n_tags=6, bitrate_bps=10e3,
                 epoch_s=0.01, seed=1001),
    ScenarioSpec(name="room", n_tags=8, bitrate_bps=10e3, snr_db=10.0,
                 channel_preset="room", epoch_s=0.01, seed=1002),
    ScenarioSpec(name="hallway", n_tags=4, bitrate_bps=10e3,
                 snr_db=14.0, channel_preset="hallway", epoch_s=0.01,
                 seed=1003),
    ScenarioSpec(name="drift", n_tags=6, bitrate_bps=10e3,
                 drift_ppm=40.0, tag_id_base=12, epoch_s=0.01,
                 seed=1004),
)

#: sha256 of every rendered sample and truth field, in spec order.
DIGEST = ("5f420dd05d53f35f05b3cedf2ec02e10"
          "ea0a8c8c4da94e95fc2ec57572dc9209")


def _digest() -> str:
    h = hashlib.sha256()
    for spec in SPECS:
        synth = ScenarioSynth(spec, profile=SimulationProfile.fast())
        for epoch in range(2):
            capture = synth.capture(epoch_index=epoch)
            h.update(capture.trace.samples.tobytes())
            for truth in capture.truths:
                h.update(np.array(
                    [truth.tag_id, truth.offset_samples,
                     truth.period_samples, truth.nominal_bitrate_bps,
                     truth.coefficient.real, truth.coefficient.imag],
                    dtype=np.float64).tobytes())
                h.update(truth.bits.tobytes())
    return h.hexdigest()


def test_default_draw_order_renders_the_pinned_captures():
    assert _digest() == DIGEST
