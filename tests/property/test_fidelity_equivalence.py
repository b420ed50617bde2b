"""Property tests for the multi-fidelity fast paths.

Every fast path in the fidelity ladder carries an equivalence claim:
the bound-based Lloyd iteration follows the brute-force trajectory
bit-for-bit, the banded Viterbi only answers when the thresholded path
is provably optimal, and a decoder with every gate forced off
reproduces the pre-policy pipeline exactly.  These tests check the
claims directly rather than trusting the derivations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import kmeans, kmeans_bounded
from repro.core.fidelity import FidelityPolicy
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.core.viterbi import RISE, ViterbiDecoder
from repro.phy.channel import ChannelModel, random_coefficients
from repro.reader.simulator import NetworkSimulator
from repro.tags.lf_tag import LFTag
from repro.types import SimulationProfile, TagConfig


def _blobs(seed, n_points, k, spread):
    gen = np.random.default_rng(seed)
    centres = gen.normal(size=k) + 1j * gen.normal(size=k)
    labels = gen.integers(0, k, size=n_points)
    noise = spread * (gen.normal(size=n_points)
                      + 1j * gen.normal(size=n_points))
    return centres[labels] + noise, centres


class TestBoundedLloydEquivalence:
    @given(seed=st.integers(0, 2 ** 31 - 1),
           n_points=st.integers(30, 400),
           k=st.integers(1, 9),
           spread=st.floats(0.01, 0.8))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_warm_restart(self, seed, n_points, k,
                                            spread):
        """Hamerly-bounded Lloyd == brute-force Lloyd from the same
        warm start: identical labels, centroids and inertia."""
        pts, centres = _blobs(seed, n_points, k, spread)
        # Perturbed true centres stand in for a previous epoch's fit.
        warm = centres + 0.05 * np.exp(1j * np.arange(k))
        reference = kmeans(pts, k, init_centroids=warm,
                           bounded_min_points=10 ** 9)
        bounded = kmeans_bounded(pts, k, warm)
        np.testing.assert_array_equal(bounded.labels, reference.labels)
        np.testing.assert_array_equal(bounded.centroids,
                                      reference.centroids)
        assert bounded.inertia == reference.inertia

    def test_kmeans_dispatches_to_bounded_above_threshold(self):
        pts, centres = _blobs(7, 2000, 3, 0.1)
        via_kmeans = kmeans(pts, 3, init_centroids=centres,
                            bounded_min_points=1024)
        direct = kmeans_bounded(pts, 3, np.asarray(centres))
        np.testing.assert_array_equal(via_kmeans.labels, direct.labels)
        np.testing.assert_array_equal(via_kmeans.centroids,
                                      direct.centroids)


class TestBandedViterbiEquivalence:
    @given(seed=st.integers(0, 2 ** 31 - 1),
           n_slots=st.integers(1, 80),
           sigma=st.floats(0.02, 0.45),
           pinned=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_decoder(self, seed, n_slots, sigma, pinned):
        """The banded decoder (with its exact fallback) returns the
        same state path as the always-exact decoder on arbitrary
        observation noise."""
        gen = np.random.default_rng(seed)
        ideal = gen.choice([-1.0, 0.0, 1.0], size=n_slots)
        obs = ideal + sigma * gen.normal(size=n_slots)
        initial = RISE if pinned else None
        exact = ViterbiDecoder(sigma=sigma, banded=False)
        banded = ViterbiDecoder(sigma=sigma, banded=True)
        np.testing.assert_array_equal(
            banded.decode_states(obs, initial_state=initial),
            exact.decode_states(obs, initial_state=initial))


@pytest.fixture(scope="module")
def six_tag_capture():
    profile = SimulationProfile.fast()
    gen = np.random.default_rng(11)
    coeffs = random_coefficients(6, rng=gen)
    channel = ChannelModel({k: coeffs[k] for k in range(6)},
                           environment_offset=0.5 + 0.3j)
    tags = [LFTag(TagConfig(tag_id=k, bitrate_bps=10e3,
                            channel_coefficient=coeffs[k]),
                  profile=profile,
                  rng=np.random.default_rng(gen.integers(0, 2 ** 63)))
            for k in range(6)]
    sim = NetworkSimulator(tags, channel, profile=profile,
                           noise_std=0.01, rng=gen)
    return profile, sim.run_epoch(0.008)


def _decode_streams(profile, capture, policy):
    decoder = LFDecoder(LFDecoderConfig(candidate_bitrates_bps=[10e3],
                                        profile=profile,
                                        fidelity=policy), rng=1)
    result = decoder.decode_epoch(capture.trace)
    return sorted(result.streams,
                  key=lambda s: (s.offset_samples, s.period_samples))


class TestForceFullReproducesLegacy:
    def test_force_full_reports_no_fast_path_hits(self, six_tag_capture):
        profile, capture = six_tag_capture
        decoder = LFDecoder(LFDecoderConfig(
            candidate_bitrates_bps=[10e3], profile=profile,
            fidelity=FidelityPolicy(force_full=True)), rng=1)
        result = decoder.decode_epoch(capture.trace)
        stats = result.fidelity_stats
        assert stats["pregate_fast"] == 0
        assert stats["subsample_fast"] == 0
        assert stats["multilevel_fast"] == 0
        assert stats["viterbi_banded"] == 0

    def test_adaptive_recovers_every_truth_the_full_decoder_does(
            self, six_tag_capture):
        """The adaptive ladder reorders internal RNG draws, so spurious
        ghost streams may differ — but every ground-truth payload the
        full decoder recovers error-free must also come back error-free
        from the adaptive decoder."""
        profile, capture = six_tag_capture
        full = _decode_streams(profile, capture,
                               FidelityPolicy(force_full=True))
        adaptive = _decode_streams(profile, capture, FidelityPolicy())

        def best_ber(streams, truth_bits):
            tb = np.asarray(truth_bits, dtype=np.int8)
            best = 1.0
            for s in streams:
                sb = np.asarray(s.bits, dtype=np.int8)
                n = min(sb.size, tb.size)
                if n == 0:
                    continue
                direct = np.count_nonzero(sb[:n] != tb[:n]) / n
                flipped = np.count_nonzero((1 - sb[:n]) != tb[:n]) / n
                best = min(best, direct, flipped)
            return best

        for truth in capture.truths:
            if best_ber(full, truth.bits) == 0.0:
                assert best_ber(adaptive, truth.bits) == 0.0, \
                    f"tag {truth.tag_id} lost by the adaptive ladder"
