"""Blind FIR channel estimation and inverse-filter equalization.

The edge-differential front end (Section 3.1) assumes each antenna
transition produces one sharp step in the combined IQ signal.  A
frequency-selective channel (:mod:`repro.phy.multipath`) convolves the
tag waveform with a sparse FIR response ``h``, turning every step into
a staircase of echoes — the fold search then sees several "edges" per
transition and the bit decisions collapse.  This module recovers the
flat-channel waveform without any training sequence:

1. **Initialize** ``ĥ`` from the capture itself.  The successive
   difference of a piecewise-constant signal through an FIR channel is
   a sparse train of *scaled copies of h* (one per true edge):
   ``d[n] = sum_e a_e · h[n - n_e]``.  Normalizing the window behind
   each strong differential peak by its lag-0 value and taking a
   per-lag median across many anchors keeps the common structure (the
   channel) and rejects contamination from neighbouring edges (which
   lands at lags that vary anchor to anchor).
2. **Refine** by alternating least squares: deconvolve the capture
   with the current estimate, re-detect the edge train in the cleaned
   signal, then re-fit the taps on the *original* differential by
   solving the normal equations restricted to the initial estimate's
   support (±1 lag).  The support restriction keeps the solve small
   and prevents the spurious-tap blow-up of unconstrained
   deconvolution; one or two rounds correct the magnitude bias the
   median introduces under heavy edge overlap.
3. **Invert** with a regularized frequency-domain (Wiener)
   deconvolution, ``X · conj(H) / (|H|² + λ)``.  Unlike a direct-form
   IIR inverse this is unconditionally stable — it handles the
   non-minimum-phase channels (echo energy above the direct path)
   that real reflective geometries produce.

The whole procedure is deterministic in the input samples (no RNG)
and conservative by construction: a flat-channel capture estimates
taps only at lags 1–2 (the intrinsic edge transition shape, present
with or without multipath), which the ``min_echo_lag`` guard
classifies as flat — the samples pass through untouched.  The stage
that wraps this module is additionally off by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["EqualizerConfig", "EqualizerReport", "estimate_channel",
           "equalize"]


@dataclass(frozen=True)
class EqualizerConfig:
    """Tuning of the blind estimate / inverse-filter pre-stage."""

    #: Longest channel impulse response the estimator models, in
    #: samples.  Longer delay spreads alias into the next edge window
    #: and go uncorrected.
    max_taps: int = 192
    #: Fewest differential peaks needed before an estimate is trusted;
    #: below this the stage passes the capture through.
    min_peaks: int = 10
    #: Most peaks averaged (strongest first).  The per-lag median gets
    #: more robust with every extra anchor, so this is set high and
    #: effectively bounded by the capture's edge count.
    max_peaks: int = 256
    #: A candidate peak must exceed this multiple of the median
    #: |differential| (the noise floor) to count as an edge.  Edge
    #: steps at the weakest modelled coefficients (~0.05) sit only a
    #: few multiples above the differential noise floor, so this stays
    #: low and the per-lag median absorbs the false anchors it admits.
    peak_threshold: float = 3.0
    #: A candidate must also exceed this fraction of the strongest
    #: differentials (the 99.9th percentile) — keeps anchors meaningful
    #: on captures whose noise floor is far below the edges.
    strong_fraction: float = 0.25
    #: An anchor must be the local |differential| maximum over this
    #: many samples either side (rejects an echo masquerading as the
    #: direct tap of its own edge).
    peak_guard: int = 8
    #: Taps of the initial median estimate below this fraction of the
    #: direct tap are zeroed before refinement.
    min_tap_ratio: float = 0.1
    #: Alternating least-squares refinement rounds (0 disables
    #: refinement and uses the raw median estimate).
    refine_iterations: int = 2
    #: Taps of the refined estimate below this fraction of the direct
    #: tap are zeroed.
    refine_trim: float = 0.08
    #: Ridge regularization of the restricted normal equations,
    #: relative to the largest diagonal entry.
    ridge: float = 1e-3
    #: Wiener regularization λ in ``conj(H) / (|H|² + λ)`` — trades
    #: residual echo against noise amplification.
    noise_regularization: float = 0.02
    #: Estimated taps below this lag are the intrinsic edge transition
    #: shape, not echoes; an estimate with no tap at or beyond this
    #: lag reads as a flat channel and is not applied.
    min_echo_lag: int = 4

    def __post_init__(self) -> None:
        if self.max_taps < 2:
            raise ConfigurationError("max_taps must be >= 2")
        if self.min_peaks < 1:
            raise ConfigurationError("min_peaks must be >= 1")
        if self.max_peaks < self.min_peaks:
            raise ConfigurationError(
                "max_peaks must be >= min_peaks")
        if self.peak_threshold <= 1.0:
            raise ConfigurationError(
                "peak_threshold must exceed 1.0")
        if not 0.0 <= self.strong_fraction < 1.0:
            raise ConfigurationError(
                "strong_fraction must be in [0, 1)")
        if not 0.0 < self.min_tap_ratio < 1.0:
            raise ConfigurationError(
                "min_tap_ratio must be in (0, 1)")
        if self.refine_iterations < 0:
            raise ConfigurationError(
                "refine_iterations must be >= 0")
        if self.noise_regularization <= 0:
            raise ConfigurationError(
                "noise_regularization must be positive")
        if self.min_echo_lag < 1:
            raise ConfigurationError("min_echo_lag must be >= 1")


@dataclass
class EqualizerReport:
    """What the pre-stage estimated (and whether it acted)."""

    #: True when the samples were rewritten through the inverse filter.
    applied: bool = False
    #: Why the stage passed through (``"flat"``, ``"too_few_peaks"``,
    #: ``"nonfinite"``) — empty when applied.
    reason: str = ""
    #: Differential peaks anchoring the initial estimate.
    n_peaks_used: int = 0
    #: Non-zero taps of the estimated response (1 = flat).
    n_taps: int = 0
    #: Last non-zero echo lag of the estimate, in samples.
    delay_spread_samples: int = 0
    #: Estimated echo power relative to the direct path.
    echo_energy: float = 0.0
    #: The estimated impulse response (``None`` when no estimate was
    #: formed); diagnostic only — nothing downstream reads it.
    impulse_response: Optional[np.ndarray] = field(
        default=None, repr=False)


def _edge_peaks(magnitude: np.ndarray, window: int, guard: int,
                threshold: float, max_peaks: int) -> List[int]:
    """Strong differential peaks usable as estimation anchors.

    A usable anchor is a local maximum over ``±guard`` samples above
    ``threshold`` whose trailing ``window`` fits inside the capture.
    Anchors need *not* be isolated from other edges: every anchor's
    window contains the true response at the same lags, while
    contamination from neighbouring edges lands at lags that vary
    anchor to anchor — the per-lag median across anchors keeps the
    former and rejects the latter.  Strongest anchors first (their
    lag-0 normalizer has the best SNR); of two equally strong local
    maxima within ``guard`` of each other (a plateau) only the first
    in that order is taken.
    """
    candidates = np.flatnonzero(magnitude >= threshold)
    order = candidates[np.argsort(magnitude[candidates])[::-1]]
    order = order[_local_maxima(magnitude, order, guard)
                  & (order + window <= magnitude.size)]
    blocked = np.zeros(magnitude.size, dtype=bool)
    taken: List[int] = []
    for idx in order.tolist():
        if len(taken) >= max_peaks:
            break
        if blocked[idx]:
            continue
        taken.append(idx)
        blocked[max(idx - guard, 0):idx + guard + 1] = True
    return taken


def _local_maxima(magnitude: np.ndarray, indices: np.ndarray,
                  guard: int) -> np.ndarray:
    """Mask of ``indices`` whose magnitude is the maximum (ties
    included) over ``±guard`` samples, the window clipped to the
    array."""
    window = indices[:, None] + np.arange(-guard, guard + 1)
    np.clip(window, 0, magnitude.size - 1, out=window)
    return magnitude[indices] >= magnitude[window].max(axis=1)


def _differential_threshold(magnitude: np.ndarray, factor: float = 3.0,
                            fraction: float = 0.25) -> float:
    """Edge threshold: ``factor`` x the median |differential| (the
    noise floor) and ``fraction`` x its 99.9th percentile."""
    # Both statistics of the sorted copy equal those of the array; one
    # sort costs less than the partition each would make.
    ordered = np.sort(magnitude)
    floor = float(np.median(ordered))
    strong = float(np.quantile(ordered, 0.999))
    return max(factor * floor, fraction * strong, 1e-30)


def _trim(h: np.ndarray, ratio: float) -> np.ndarray:
    """Zero taps below ``ratio`` of the direct tap, drop the tail."""
    out = h.copy()
    weak = np.abs(out) < ratio * np.abs(out[0])
    weak[0] = False
    out[weak] = 0.0
    nonzero = np.flatnonzero(np.abs(out) > 0)
    return out[:int(nonzero[-1]) + 1]


def _wiener_deconvolve(x: np.ndarray, h: np.ndarray,
                       lam: float) -> np.ndarray:
    """Regularized frequency-domain inverse, constant-padded.

    The capture starts and ends mid-carrier, so both ends are extended
    with a constant run of the boundary sample before the circular
    FFT — no synthetic edge enters the deconvolution and wrap-around
    leakage lands in the discarded padding.
    """
    pad = 4 * h.size
    left = np.full(pad, x[0], dtype=np.complex128)
    right = np.full(pad, x[-1], dtype=np.complex128)
    padded = np.concatenate([left, x, right])
    n = 1 << int(np.ceil(np.log2(padded.size + h.size)))
    spectrum = np.fft.fft(padded, n)
    response = np.fft.fft(h, n)
    gain = np.conj(response) / (np.abs(response) ** 2 + lam)
    out = np.fft.ifft(spectrum * gain)[pad:pad + x.size]
    return np.ascontiguousarray(out)


def _edge_train(samples: np.ndarray,
                guard: int = 4) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse complex edge impulses detected in a (cleaned) capture.

    Returns ``(positions, values)``: the ascending indices into the
    capture's successive difference that hold a local ``±guard``
    maximum above the edge threshold, and the difference there.
    """
    d = np.diff(samples)
    magnitude = np.abs(d)
    candidates = np.flatnonzero(
        magnitude >= _differential_threshold(magnitude))
    positions = candidates[_local_maxima(magnitude, candidates, guard)]
    return positions, d[positions]


def _sparse_xcorr(positions: np.ndarray, values: np.ndarray,
                  signal: np.ndarray, n_lags: int) -> np.ndarray:
    """``sum_q conj(values[q]) * signal[positions[q] + k]`` for every
    lag ``k < n_lags``, the signal read as zero past its end.

    A direct sum over the train's nonzeros: its cost is (edges x
    lags), independent of the capture length.  Elementwise/einsum
    arithmetic only — a BLAS product here would start the BLAS
    thread pool inside every pool worker.
    """
    padded = np.concatenate(
        [signal, np.zeros(n_lags, dtype=np.complex128)])
    window = padded[positions[:, None] + np.arange(n_lags)]
    return np.einsum("q,qk->k", np.conj(values), window)


def _train_correlations(positions: np.ndarray, values: np.ndarray,
                        d: np.ndarray, support: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Correlations of the edge train (``values`` at ``positions``)
    that the normal equations on ``support`` read.

    The autocorrelation covers lags ``0..span`` then ``-span..-1``
    (``span`` = the support's extent; negative lags by conjugate
    symmetry), the cross-correlation with ``d`` lags
    ``0..support[-1]`` — both circular layouts as
    :func:`_normal_equations` indexes them.
    """
    span = int(support[-1] - support[0])
    train = np.zeros_like(d)
    train[positions] = values
    autocorr = _sparse_xcorr(positions, values, train, span + 1)
    autocorr = np.concatenate([autocorr, np.conj(autocorr[:0:-1])])
    crosscorr = _sparse_xcorr(positions, values, d, int(support[-1]) + 1)
    return autocorr, crosscorr


def _normal_equations(autocorr: np.ndarray, crosscorr: np.ndarray,
                      support: np.ndarray, ridge: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Ridge-regularized normal equations restricted to ``support``.

    Both correlations are indexed by lag, circularly
    (``corr[lag % corr.size]``): ``gram[i, j]`` is the autocorrelation
    at ``support[j] - support[i]`` and ``rhs[i]`` the
    cross-correlation at ``support[i]``.
    """
    gram = autocorr[(support[None, :] - support[:, None])
                    % autocorr.size]
    gram[np.diag_indices_from(gram)] += \
        ridge * float(np.abs(np.diag(gram)).max())
    return gram, crosscorr[support % crosscorr.size]


def _refine_taps(d: np.ndarray, initial: np.ndarray, x: np.ndarray,
                 cfg: EqualizerConfig) -> np.ndarray:
    """Alternating LS refinement of ``initial`` on support ±1 lag.

    Each round deconvolves the capture with the current estimate,
    re-detects the edge train ``a`` in the cleaned signal, and
    re-fits ``h`` by solving the normal equations of
    ``d ≈ a ⊛ h`` restricted to the initial support — the Gram
    matrix is the edge train's autocorrelation at the support lag
    differences, the right-hand side its cross-correlation with ``d``
    at the support lags, both summed directly over the train's
    nonzeros.
    """
    nonzero = np.flatnonzero(np.abs(initial) > 0)
    support = np.unique(nonzero[:, None] + np.arange(-1, 2))
    support = support[support >= 0]
    h = initial
    for _ in range(cfg.refine_iterations):
        cleaned = _wiener_deconvolve(x, h, cfg.noise_regularization)
        positions, values = _edge_train(cleaned)
        if positions.size < cfg.min_peaks:
            break
        autocorr, crosscorr = _train_correlations(positions, values, d,
                                                  support)
        gram, rhs = _normal_equations(autocorr, crosscorr, support,
                                      cfg.ridge)
        try:
            taps = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            break
        refined = np.zeros(support[-1] + 1, dtype=np.complex128)
        refined[support] = taps
        if abs(refined[0]) < 1e-12:
            break
        h = refined / refined[0]
    return _trim(h, cfg.refine_trim)


def estimate_channel(samples: np.ndarray,
                     config: Optional[EqualizerConfig] = None
                     ) -> EqualizerReport:
    """Blind-estimate the FIR channel behind ``samples``.

    Returns a report whose ``impulse_response`` is the normalized
    estimate (direct tap == 1) when one could be formed; ``applied``
    is left False — :func:`equalize` decides whether to act on it.

    Refinement moves taps at most one lag past the initial estimate's
    support, so when the trimmed initial estimate is shorter than
    ``min_echo_lag`` the verdict can only be ``"flat"`` and refinement
    is skipped: ``impulse_response``, ``n_taps``,
    ``delay_spread_samples`` and ``echo_energy`` then describe the
    initial (median-anchor) estimate.
    """
    cfg = config or EqualizerConfig()
    report = EqualizerReport()
    x = np.asarray(samples, dtype=np.complex128)
    if x.size < 4 * cfg.max_taps:
        report.reason = "too_few_peaks"
        return report
    if not np.all(np.isfinite(x.real)) or \
            not np.all(np.isfinite(x.imag)):
        report.reason = "nonfinite"
        return report
    d = np.diff(x)
    magnitude = np.abs(d)
    threshold = _differential_threshold(magnitude, cfg.peak_threshold,
                                        cfg.strong_fraction)
    peaks = _edge_peaks(magnitude, cfg.max_taps, cfg.peak_guard,
                        threshold, cfg.max_peaks)
    report.n_peaks_used = len(peaks)
    if len(peaks) < cfg.min_peaks:
        report.reason = "too_few_peaks"
        return report
    # Each peak's trailing window (a column; one row per lag) is a
    # scaled copy of h; normalizing by the lag-0 value and taking a
    # per-lag median keeps the estimate robust to windows contaminated
    # by a nearby edge.  Rows are sorted first: same medians, and the
    # sort costs less than np.median's partition.
    anchors = np.asarray(peaks)
    windows = d[anchors + np.arange(cfg.max_taps)[:, None]] / d[anchors]
    initial = np.median(np.sort(windows.real, axis=1), axis=1) \
        + 1j * np.median(np.sort(windows.imag, axis=1), axis=1)
    initial[0] = 1.0
    initial = _trim(initial, cfg.min_tap_ratio)
    # An initial estimate shorter than min_echo_lag refines to taps
    # below min_echo_lag at most: certainly flat, so skip refining.
    if cfg.refine_iterations > 0 and initial.size > 1 \
            and initial.size >= cfg.min_echo_lag:
        estimate = _refine_taps(d, initial, x, cfg)
    else:
        estimate = initial
    nonzero = np.flatnonzero(np.abs(estimate) > 0)
    report.n_taps = int(nonzero.size)
    report.delay_spread_samples = int(nonzero[-1])
    report.echo_energy = float(np.sum(np.abs(estimate[1:]) ** 2))
    report.impulse_response = estimate
    if not np.any(nonzero >= cfg.min_echo_lag):
        # Taps below min_echo_lag are the intrinsic edge transition
        # shape — present on a flat channel too.  Nothing to undo.
        report.reason = "flat"
    return report


def equalize(samples: np.ndarray,
             config: Optional[EqualizerConfig] = None
             ) -> "Tuple[np.ndarray, EqualizerReport]":
    """Estimate the channel and, when selective, return the
    deconvolved samples.

    Always returns ``(samples_out, report)``; when ``report.applied``
    is False, ``samples_out`` **is** the input array, untouched — the
    caller can rely on object identity for the pass-through case.
    """
    cfg = config or EqualizerConfig()
    report = estimate_channel(samples, cfg)
    if report.reason or report.impulse_response is None:
        return samples, report
    x = np.asarray(samples, dtype=np.complex128)
    out = _wiener_deconvolve(x, report.impulse_response,
                             cfg.noise_regularization)
    report.applied = True
    return out, report
