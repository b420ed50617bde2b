"""Frequency-selective and mobile impairments: determinism and truth.

The new channel-level ingredients (:class:`MultipathChannel`,
:class:`TagMobility`, :class:`SweptInterferer`) must honour the same
contracts the flat-channel menu does — seed-determinism, composability
through ``apply_impairments``/``impair_capture``, truth preservation —
and random cocktails must actually draw them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.multipath import MultipathProfile, apply_multipath
from repro.robustness.impairments import (MultipathChannel,
                                          NonFiniteBurst,
                                          SweptInterferer, TagMobility,
                                          apply_impairments,
                                          impair_capture,
                                          random_cocktail)
from repro.types import IQTrace

from ..conftest import build_network

SELECTIVE = (MultipathChannel, TagMobility, SweptInterferer)


@pytest.fixture()
def trace():
    rng = np.random.default_rng(0)
    base = 0.5 + 0.3j + 0.02 * (rng.normal(size=20_000)
                                + 1j * rng.normal(size=20_000))
    return IQTrace(samples=base, sample_rate_hz=2.5e6)


@pytest.mark.parametrize("impairment", [
    MultipathChannel(preset="room"),
    MultipathChannel(preset="hallway"),
    MultipathChannel(preset="exponential"),
    MultipathChannel(delays_samples=(0, 40), gains=(1.0, 0.5j)),
    TagMobility(),
    SweptInterferer(),
])
def test_selective_impairments_seed_deterministic(trace, impairment):
    out_a = apply_impairments(trace, [impairment], rng=123)
    out_b = apply_impairments(trace, [impairment], rng=123)
    np.testing.assert_array_equal(out_a.samples, out_b.samples)
    seedless = (isinstance(impairment, MultipathChannel)
                and impairment.delays_samples)
    if not seedless:
        out_c = apply_impairments(trace, [impairment], rng=124)
        assert not np.array_equal(out_a.samples, out_c.samples)


@pytest.mark.parametrize("impairment", [
    MultipathChannel(preset="hallway"), TagMobility(),
    SweptInterferer(),
])
def test_selective_impairments_change_something(trace, impairment):
    out = apply_impairments(trace, [impairment], rng=5)
    assert not np.array_equal(out.samples, trace.samples)
    assert out.samples is not trace.samples


def test_explicit_taps_need_both_fields():
    with pytest.raises(ConfigurationError):
        MultipathChannel(delays_samples=(0, 10))
    with pytest.raises(ConfigurationError):
        MultipathChannel(preset="attic")


def test_multipath_skips_nonfinite_runs(trace):
    cocktail = [NonFiniteBurst(n_runs=2, max_run=50),
                MultipathChannel(preset="hallway")]
    out = apply_impairments(trace, cocktail, rng=9)
    bad = ~np.isfinite(out.samples.real)
    # The NaN burst survives (it is re-imposed after convolution)
    # but does not smear across the echo delay spread.
    assert 0 < bad.sum() <= 2 * 50
    finite = out.samples[~bad]
    assert np.all(np.isfinite(finite.real))


def test_explicit_multipath_matches_phy_convolution(trace):
    profile = MultipathProfile(delays_samples=(0, 32, 64),
                               gains=(1.0, 0.4, 0.2j))
    expected = apply_multipath(trace.samples, profile)
    out = apply_impairments(
        trace,
        [MultipathChannel(delays_samples=(0, 32, 64),
                          gains=(1.0, 0.4, 0.2j))],
        rng=0)
    np.testing.assert_allclose(out.samples, expected)


def test_impair_capture_preserves_truth_under_multipath(fast_profile):
    sim = build_network(4, fast_profile, seed=5)
    capture = sim.run_epoch(0.01)
    pristine = capture.trace.samples.copy()
    impaired = impair_capture(
        capture,
        [MultipathChannel(preset="hallway"), TagMobility()],
        rng=3)
    assert impaired.truths == capture.truths
    assert impaired.trace is not capture.trace
    np.testing.assert_array_equal(capture.trace.samples, pristine)


def test_selective_ingredients_actually_appear():
    hits = set()
    for seed in range(60):
        for ingredient in random_cocktail(seed):
            if isinstance(ingredient, SELECTIVE):
                hits.add(type(ingredient).__name__)
    assert hits == {"MultipathChannel", "TagMobility",
                    "SweptInterferer"}
