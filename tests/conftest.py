"""Shared fixtures for the LF-Backscatter test suite.

Everything runs on the fast profile (2.5 Msps / 10 kbps — the same 250x
oversampling ratio as the paper's setup) with short epochs so the whole
suite stays quick while exercising the identical decoder code paths.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.phy.channel import ChannelModel, random_coefficients
from repro.reader.simulator import NetworkSimulator
from repro.tags.lf_tag import LFTag
from repro.types import SimulationProfile, TagConfig

if os.environ.get("REPRO_STAGE_OBSERVER"):
    # Observer-attached test mode: every decoder the suite constructs
    # in this process gets a counting StageObserver, so a full run
    # under this flag proves observation is zero-cost to correctness
    # (CI runs the chaos + equivalence suites both ways).  Child
    # processes start from a fresh interpreter that never imports
    # this file, so their decoders run unobserved, and their results
    # must match the observed in-process ones all the same.
    from repro.core.stages import StageObserver

    class _CountingObserver(StageObserver):
        def __init__(self) -> None:
            self.stage_starts = 0
            self.stage_ends = 0
            self.stream_faults = 0

        def on_stage_start(self, stage, ctx):
            self.stage_starts += 1

        def on_stage_end(self, stage, ctx, elapsed_s):
            self.stage_ends += 1

        def on_stream_fault(self, fault, ctx):
            self.stream_faults += 1

    _original_init = LFDecoder.__init__

    def _observed_init(self, *args, **kwargs):
        _original_init(self, *args, **kwargs)
        self.add_observer(_CountingObserver())

    LFDecoder.__init__ = _observed_init


@pytest.fixture(scope="session")
def fast_profile() -> SimulationProfile:
    return SimulationProfile.fast()


def build_network(n_tags: int, profile: SimulationProfile,
                  bitrate_bps: float = 10e3,
                  noise_std: float = 0.01,
                  seed: int = 0) -> NetworkSimulator:
    """A standard n-tag network used across integration tests."""
    gen = np.random.default_rng(seed)
    coeffs = random_coefficients(n_tags, rng=gen)
    channel = ChannelModel({k: coeffs[k] for k in range(n_tags)},
                           environment_offset=0.5 + 0.3j)
    tags = [LFTag(TagConfig(tag_id=k, bitrate_bps=bitrate_bps,
                            channel_coefficient=coeffs[k]),
                  profile=profile,
                  rng=np.random.default_rng(gen.integers(0, 2 ** 63)))
            for k in range(n_tags)]
    return NetworkSimulator(tags, channel, profile=profile,
                            noise_std=noise_std,
                            rng=np.random.default_rng(
                                gen.integers(0, 2 ** 63)))


def build_decoder(profile: SimulationProfile,
                  bitrates=(10e3,), seed: int = 1,
                  **config_kwargs) -> LFDecoder:
    """A decoder matching :func:`build_network`'s defaults."""
    config = LFDecoderConfig(candidate_bitrates_bps=list(bitrates),
                             profile=profile, **config_kwargs)
    return LFDecoder(config, rng=seed)


@pytest.fixture()
def single_tag_capture(fast_profile):
    """One clean single-tag epoch plus its truth."""
    sim = build_network(1, fast_profile, seed=11)
    return sim.run_epoch(0.01)


@pytest.fixture()
def four_tag_capture(fast_profile):
    """A four-tag epoch (usually collision-free at these seeds)."""
    sim = build_network(4, fast_profile, seed=5)
    return sim.run_epoch(0.01)
