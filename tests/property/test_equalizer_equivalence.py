"""The blind equalizer's direct-sum estimator against its FFT original.

The estimator once found anchor peaks and edge trains with per-sample
Python loops and built the refinement's normal equations from FFT
correlations of the whole capture.  It now uses vectorized local-maximum
tests and sums the correlations directly over the edge train's
nonzeros.  The original loop/FFT implementation lives on here as the
reference:

* peak lists, edge trains and the assembly of the Gram matrix and
  right-hand side from given correlations must match **exactly**;
* the correlations themselves, the refined taps and the equalized
  samples may differ only by rounding, bounded by :data:`RTOL`;
* the equalizer's verdict (``applied`` / ``reason``) must be identical.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import equalizer as eq
from repro.core.equalizer import EqualizerConfig
from repro.phy.multipath import MultipathProfile, apply_multipath
from repro.robustness.impairments import MultipathChannel, impair_capture
from repro.types import SimulationProfile

from ..conftest import build_network
from ..core.stages.test_equalizer import _piecewise_constant

#: Relative tolerance (to the largest magnitude of the compared array)
#: between the direct sums and the FFT reference.  Both are float64
#: evaluations of the same sums of at most a few hundred terms, so they
#: differ by ~1e-15; the margin covers the refinement's ridge-
#: regularized solve, whose condition number the ridge caps near 1e5.
RTOL = 1e-9


# -- reference implementations (the FFT / loop originals) ----------------


def _reference_edge_peaks(magnitude, window, guard, threshold,
                          max_peaks) -> List[int]:
    candidates = np.flatnonzero(magnitude >= threshold)
    taken: List[int] = []
    for idx in candidates[np.argsort(magnitude[candidates])[::-1]]:
        if len(taken) >= max_peaks:
            break
        lo = max(int(idx) - guard, 0)
        hi = min(int(idx) + guard + 1, magnitude.size)
        if magnitude[idx] < magnitude[lo:hi].max():
            continue
        if idx + window > magnitude.size:
            continue
        if any(abs(int(idx) - t) <= guard for t in taken):
            continue
        taken.append(int(idx))
    return taken


def _reference_edge_train(samples, guard=4):
    d = np.diff(samples)
    magnitude = np.abs(d)
    floor = float(np.median(magnitude))
    strong = float(np.quantile(magnitude, 0.999))
    threshold = max(3.0 * floor, 0.25 * strong, 1e-30)
    train = np.zeros_like(d)
    for idx in np.flatnonzero(magnitude >= threshold):
        lo = max(int(idx) - guard, 0)
        hi = min(int(idx) + guard + 1, magnitude.size)
        if magnitude[idx] >= magnitude[lo:hi].max():
            train[idx] = d[idx]
    return train


def _reference_support(initial):
    return sorted({int(s + o)
                   for s in np.flatnonzero(np.abs(initial) > 0)
                   for o in (-1, 0, 1) if s + o >= 0})


def _fft_correlations(train, d):
    n = 1 << int(np.ceil(np.log2(2 * d.size)))
    spectrum_a = np.fft.fft(train, n)
    autocorr = np.fft.ifft(np.conj(spectrum_a) * spectrum_a)
    crosscorr = np.fft.ifft(np.conj(spectrum_a) * np.fft.fft(d, n))
    return autocorr, crosscorr


def _reference_assembly(autocorr, crosscorr, support, ridge):
    n = autocorr.size
    k = len(support)
    gram = np.empty((k, k), dtype=np.complex128)
    for i, si in enumerate(support):
        for j, sj in enumerate(support):
            gram[i, j] = autocorr[(sj - si) % n]
    rhs = np.array([crosscorr[s % n] for s in support])
    gram += ridge * float(np.abs(np.diag(gram)).max()) * np.eye(k)
    return gram, rhs


def _reference_refine_taps(d, initial, x, cfg):
    support = _reference_support(initial)
    h = initial
    for _ in range(cfg.refine_iterations):
        cleaned = eq._wiener_deconvolve(x, h, cfg.noise_regularization)
        train = _reference_edge_train(cleaned)
        if np.count_nonzero(train) < cfg.min_peaks:
            break
        gram, rhs = _reference_assembly(*_fft_correlations(train, d),
                                        support, cfg.ridge)
        try:
            taps = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            break
        refined = np.zeros(support[-1] + 1, dtype=np.complex128)
        for lag, value in zip(support, taps):
            refined[lag] = value
        if abs(refined[0]) < 1e-12:
            break
        h = refined / refined[0]
    return eq._trim(h, cfg.refine_trim)


def _reference_initial(x, cfg):
    """``(d, initial)`` of the original estimator, ``None`` when it
    found too few anchors."""
    d = np.diff(x)
    magnitude = np.abs(d)
    threshold = max(cfg.peak_threshold * float(np.median(magnitude)),
                    cfg.strong_fraction
                    * float(np.quantile(magnitude, 0.999)), 1e-30)
    peaks = _reference_edge_peaks(magnitude, cfg.max_taps,
                                  cfg.peak_guard, threshold,
                                  cfg.max_peaks)
    if len(peaks) < cfg.min_peaks:
        return None
    windows = np.stack([d[p:p + cfg.max_taps] / d[p] for p in peaks])
    initial = np.median(windows.real, axis=0) \
        + 1j * np.median(windows.imag, axis=0)
    initial[0] = 1.0
    return d, eq._trim(initial, cfg.min_tap_ratio)


def _reference_equalize(x, cfg):
    """``(reason, estimate, samples_out)`` of the original equalizer,
    which refined every initial estimate longer than one tap."""
    found = _reference_initial(x, cfg)
    if found is None:
        return "too_few_peaks", None, x
    d, initial = found
    if initial.size > 1 and cfg.refine_iterations > 0:
        estimate = _reference_refine_taps(d, initial, x, cfg)
    else:
        estimate = initial
    if not np.any(np.flatnonzero(np.abs(estimate) > 0)
                  >= cfg.min_echo_lag):
        return "flat", estimate, x
    return "", estimate, eq._wiener_deconvolve(
        x, estimate, cfg.noise_regularization)


def _assert_close(actual, reference, scale=None):
    """Within :data:`RTOL` of ``scale`` (default: the reference's
    largest magnitude)."""
    assert actual.shape == reference.shape
    if scale is None:
        scale = float(np.abs(reference).max())
    assert float(np.abs(actual - reference).max()) <= RTOL * scale


# -- exact: peaks, edge trains, normal-equation assembly ----------------

#: A small alphabet makes plateaus and ties inside ±guard common.
_LEVELS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(magnitude=st.lists(_LEVELS, min_size=1, max_size=160),
       window=st.integers(1, 60), guard=st.integers(0, 8),
       threshold=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
       max_peaks=st.integers(1, 24))
def test_edge_peaks_match_reference(magnitude, window, guard, threshold,
                                    max_peaks):
    magnitude = np.asarray(magnitude)
    assert eq._edge_peaks(magnitude, window, guard, threshold,
                          max_peaks) == _reference_edge_peaks(
        magnitude, window, guard, threshold, max_peaks)


def test_edge_peaks_edge_cases():
    # No candidate above threshold.
    flat = np.ones(50)
    assert eq._edge_peaks(flat, 5, 3, 2.0, 10) == []
    # A plateau wider than the guard: the first local maximum in
    # argsort order blocks its neighbours, not the whole plateau.
    plateau = np.zeros(60)
    plateau[10:40] = 1.0
    for guard in (0, 2, 8):
        assert eq._edge_peaks(plateau, 5, guard, 0.5, 50) == \
            _reference_edge_peaks(plateau, 5, guard, 0.5, 50)
    # The strongest peak sits within ``window`` of the end.
    tail = np.zeros(40)
    tail[[5, 37]] = [1.0, 9.0]
    assert eq._edge_peaks(tail, 10, 2, 0.5, 5) == [5]


_STEPS = st.sampled_from([0, 0, 0, 1, -1, 1j, -1j, 2, 1 + 1j, -2j, 3])


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_STEPS, min_size=1, max_size=200),
       guard=st.integers(0, 6))
def test_edge_train_matches_reference(steps, guard):
    samples = np.concatenate([[0j], np.cumsum(np.asarray(steps,
                                                         complex))])
    reference = _reference_edge_train(samples, guard)
    positions, values = eq._edge_train(samples, guard)
    np.testing.assert_array_equal(positions, np.flatnonzero(reference))
    np.testing.assert_array_equal(values, reference[positions])


@st.composite
def _train_and_support(draw):
    n = draw(st.integers(8, 300))
    positions = np.asarray(sorted(draw(st.sets(
        st.integers(0, n - 1), min_size=1, max_size=40))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=positions.size) \
        + 1j * rng.normal(size=positions.size)
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    support = np.asarray(sorted(draw(st.sets(
        st.integers(0, min(n - 1, 80)), min_size=1, max_size=30))))
    return positions, values, d, support


@settings(max_examples=150, deadline=None)
@given(case=_train_and_support(),
       ridge=st.sampled_from([0.0, 1e-3, 0.5]))
def test_normal_equation_assembly_matches_reference(case, ridge):
    positions, values, d, support = case
    train = np.zeros_like(d)
    train[positions] = values
    autocorr, crosscorr = _fft_correlations(train, d)
    gram, rhs = eq._normal_equations(autocorr, crosscorr, support,
                                     ridge)
    ref_gram, ref_rhs = _reference_assembly(autocorr, crosscorr,
                                            list(support), ridge)
    np.testing.assert_array_equal(gram, ref_gram)
    np.testing.assert_array_equal(rhs, ref_rhs)


# -- rounding only: correlations, refined taps, equalized samples --------


@settings(max_examples=150, deadline=None)
@given(case=_train_and_support(),
       ridge=st.sampled_from([1e-3, 0.5]))
def test_direct_sum_correlations_match_fft(case, ridge):
    positions, values, d, support = case
    train = np.zeros_like(d)
    train[positions] = values
    gram, rhs = eq._normal_equations(
        *eq._train_correlations(positions, values, d, support),
        support, ridge)
    ref_gram, ref_rhs = _reference_assembly(
        *_fft_correlations(train, d), list(support), ridge)
    # FFT round-off scales with the signals' norms, not with each
    # correlation value (a lag with no overlapping terms reads ~1e-17
    # there and exactly 0 here): compare against the Cauchy-Schwarz
    # bound on every entry.
    norm_a = float(np.linalg.norm(values))
    _assert_close(gram, ref_gram, scale=norm_a ** 2)
    _assert_close(rhs, ref_rhs, scale=norm_a * float(np.linalg.norm(d)))


#: The synthetic channels of tests/core/stages/test_equalizer.py:
#: (waveform seed, FIR channel or None for flat).
_SYNTHETIC = {
    "flat_synthetic": (0, None),
    "echo_40_90": (0, MultipathProfile(delays_samples=(0, 40, 90),
                                       gains=(1.0, 0.45, 0.3))),
    "echo_60_150": (3, MultipathProfile(delays_samples=(0, 60, 150),
                                        gains=(1.0, 0.5, 0.35))),
}


def _capture(name):
    """A synthetic channel, or a 6-tag ``<preset>_<seed>`` capture
    (``flat`` for no multipath)."""
    if name in _SYNTHETIC:
        seed, channel = _SYNTHETIC[name]
        samples = _piecewise_constant(seed=seed)
        return samples if channel is None \
            else apply_multipath(samples, channel)
    preset, seed = name.rsplit("_", 1)
    capture = build_network(6, SimulationProfile.fast(),
                            seed=int(seed)).run_epoch(0.01)
    if preset != "flat":
        capture = impair_capture(
            capture, [MultipathChannel(preset=preset)], rng=int(seed))
    return capture.trace.samples


CAPTURES = ["flat_synthetic", "echo_40_90", "echo_60_150", "flat_42",
            "room_42", "room_7", "hallway_42", "hallway_7"]


@pytest.mark.parametrize("name", CAPTURES)
def test_initial_estimate_matches_reference(name, monkeypatch):
    cfg = EqualizerConfig()
    x = np.asarray(_capture(name), dtype=np.complex128)
    refined = []

    def spy(d, initial, x, cfg):
        refined.append(initial)
        return initial

    monkeypatch.setattr(eq, "_refine_taps", spy)
    report = eq.estimate_channel(x, cfg)
    # Unrefined (one tap, or shorter than min_echo_lag), the report
    # carries the initial estimate itself.
    initial = refined[0] if refined else report.impulse_response
    np.testing.assert_array_equal(initial, _reference_initial(x, cfg)[1])


# The flat synthetic capture has one-sample steps: its one-tap initial
# estimate is never refined.
@pytest.mark.parametrize("name", CAPTURES[1:])
def test_refined_taps_match_reference(name):
    cfg = EqualizerConfig()
    x = np.asarray(_capture(name), dtype=np.complex128)
    d, initial = _reference_initial(x, cfg)
    assert initial.size > 1
    _assert_close(eq._refine_taps(d, initial, x, cfg),
                  _reference_refine_taps(d, initial, x, cfg))


@pytest.mark.parametrize("name", CAPTURES)
def test_equalize_matches_reference(name):
    cfg = EqualizerConfig()
    x = np.asarray(_capture(name), dtype=np.complex128)
    out, report = eq.equalize(x, cfg)
    reason, estimate, ref_out = _reference_equalize(x, cfg)
    assert (report.applied, report.reason) == (reason == "", reason)
    if report.applied:
        _assert_close(report.impulse_response, estimate)
        _assert_close(out, ref_out)
    else:
        assert out is x
