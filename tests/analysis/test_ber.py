"""Tests for the Figure 14 BER machinery."""

import pytest

from repro.analysis.ber import (BerPoint, ber_sweep, fitted_ber_curve,
                                genie_lf_decode, snr_gap_db)
from repro.errors import ConfigurationError
from repro.types import SimulationProfile


class TestBerSweep:
    def test_ask_monotone_waterfall(self):
        points = ber_sweep([4.0, 8.0, 12.0], decoder="ask",
                           n_bits=200, n_trials=2,
                           profile=SimulationProfile.fast(), seed=0)
        bers = [p.ber for p in points]
        assert bers[0] > bers[-1]
        assert bers[-1] < 0.05

    def test_lf_worse_than_ask(self):
        """The core Figure 14 ordering: edge decoding needs more SNR."""
        profile = SimulationProfile.fast()
        snrs = [5.0, 9.0]
        lf = ber_sweep(snrs, decoder="lf", n_bits=300, n_trials=2,
                       profile=profile, seed=1)
        ask = ber_sweep(snrs, decoder="ask", n_bits=300, n_trials=2,
                        profile=profile, seed=1)
        for lf_p, ask_p in zip(lf, ask):
            assert lf_p.ber >= ask_p.ber * 0.8

    def test_high_snr_near_zero(self):
        points = ber_sweep([18.0], decoder="lf", n_bits=200,
                           n_trials=2,
                           profile=SimulationProfile.fast(), seed=2)
        assert points[0].ber < 0.02

    def test_genie_decode_clean(self):
        from repro.analysis.ber import _single_tag_capture
        import numpy as np
        profile = SimulationProfile.fast()
        gen = np.random.default_rng(3)
        capture = _single_tag_capture(20.0, 100, profile,
                                      0.1 + 0.04j, gen)
        truth = capture.truths[0]
        bits = genie_lf_decode(capture.trace, truth.offset_samples,
                               truth.period_samples, truth.n_bits)
        errors = np.count_nonzero(bits[:truth.n_bits] != truth.bits)
        assert errors == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ber_sweep([5.0], decoder="fsk")
        with pytest.raises(ConfigurationError):
            ber_sweep([5.0], n_bits=5)


class TestCurveFit:
    def _points(self, pairs):
        return [BerPoint(snr_db=s, ber=b, bits_measured=1000)
                for s, b in pairs]

    def test_fit_recovers_slope(self):
        # log10(ber) = -0.5 - 0.2 * snr
        points = self._points([(s, 10 ** (-0.5 - 0.2 * s))
                               for s in (5, 7, 9, 11)])
        fit = fitted_ber_curve(points)
        assert fit["slope"] == pytest.approx(-0.2, abs=0.01)
        assert fit["intercept"] == pytest.approx(-0.5, abs=0.05)

    def test_saturated_points_excluded(self):
        points = self._points([(1, 0.5), (5, 0.1), (7, 0.04),
                               (9, 0.015)])
        fit = fitted_ber_curve(points)
        # The 0.5 point must not drag the slope.
        assert fit["slope"] < -0.1

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            fitted_ber_curve(self._points([(5, 0.1)]))

    def test_gap_computation(self):
        lf = self._points([(s, 10 ** (-0.2 * (s - 4))) for s in
                           (6, 8, 10, 12)])
        ask = self._points([(s, 10 ** (-0.2 * s)) for s in
                            (6, 8, 10, 12)])
        gap = snr_gap_db(lf, ask)
        assert gap == pytest.approx(4.0, abs=0.2)

    def test_gap_validation(self):
        pts = self._points([(5, 0.1), (7, 0.05)])
        with pytest.raises(ConfigurationError):
            snr_gap_db(pts, pts, target_ber=2.0)
