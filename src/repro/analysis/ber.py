"""Bit-error-rate versus SNR sweeps (Section 5.4, Figure 14).

A single tag transmits across a range of SNRs; the same captures are
decoded two ways:

* **LF edge decoding** — IQ differentials at the bit boundaries
  (averaging windows bounded by the adjacent boundaries, where the
  signal is guaranteed constant), Viterbi error correction, anchor
  disambiguation;
* **conventional ASK** — whole-bit integration against on/off
  reference levels learned from the preamble.

Both decoders are given the stream timing ("genie timing"), isolating
the comparison to the *detection method* — which is what the paper's
Figure 14 measures ("LF-Backscatter relies on edge detection and
requires higher SNR than ASK modulation").  SNR is quoted in the
decision domain (raw-sample SNR plus the full-bit integration gain),
which is where the paper's 5-15 dB axis lives; the edge detector pays
about 3 dB for differencing two windows plus a little more for the
edge-guard exclusions, reproducing the ~4 dB gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines.ask import AskDecoder
from ..core.anchor import assemble_bits
from ..core.edges import EdgeDetector, EdgeDetectorConfig
from ..errors import ConfigurationError, DecodeError
from ..types import IQTrace, SimulationProfile
from ..utils.rng import SeedLike, make_rng
from ..utils.stats import ber_from_bits


@dataclass
class BerPoint:
    """One (SNR, BER) measurement."""

    snr_db: float
    ber: float
    bits_measured: int


def _single_tag_capture(snr_db: float, n_bits: int,
                        profile: SimulationProfile,
                        coefficient: complex,
                        rng: np.random.Generator):
    """One epoch of a lone ASK tag at the requested raw-sample SNR.

    Rendered through the unified scenario factory (pinned coefficient
    skips the draw; the per-tag and noise generators consume ``rng``
    in the canonical order, matching the pre-factory construction bit
    for bit).
    """
    from ..experiments.scenario import ScenarioSpec, ScenarioSynth
    spec = ScenarioSpec(
        name="ber_single_tag", n_tags=1, tag_kind="ask",
        coefficients=(coefficient,), snr_db=snr_db,
        start_offset_s=2.0 / profile.default_bitrate_bps)
    synth = ScenarioSynth(spec, profile=profile, rng=rng)
    header = synth.tags[0].header_bits()
    duration = (n_bits + header + 4) / profile.default_bitrate_bps
    return synth.capture(duration)


def genie_lf_decode(trace: IQTrace, offset_samples: float,
                    period_samples: float, n_bits: int) -> np.ndarray:
    """Edge-differential decode with known stream timing.

    Differentials are measured at every bit boundary with averaging
    windows bounded by the *adjacent boundaries* — between boundaries
    the antenna state is constant, so the windows are clean by
    construction; only the transition guard is excluded.  The result is
    projected, Viterbi-corrected, and anchor-disambiguated exactly as
    in the full pipeline.
    """
    # Use the production pipeline's averaging window (80% of the bit
    # period per side) so the measured gap reflects the deployed
    # decoder, not an idealized variant.
    period = int(round(period_samples))
    detector = EdgeDetector(EdgeDetectorConfig(
        max_refine_window=max(int(period * 0.8), 8)))
    grid = np.round(offset_samples
                    + np.arange(n_bits) * period_samples).astype(np.int64)
    grid = np.clip(grid, 0, len(trace) - 1)
    diffs = detector.refine_differentials(trace, grid, bounds=grid)
    from ..core.stages import project_single
    from ..core.viterbi import RISE, ViterbiDecoder
    from ..tags.base import build_frame
    observations = project_single(diffs)
    # Polarity from a matched filter against the known header's edge
    # pattern: the alternating preamble plus anchor produces the edge
    # template +1,-1,+1,... at the first boundaries.
    header = build_frame(np.empty(0, dtype=np.int8))
    template = np.empty(header.size, dtype=np.float64)
    level = 0
    for i, bit in enumerate(header):
        template[i] = 1.0 if (bit == 1 and level == 0) else (
            -1.0 if (bit == 0 and level == 1) else 0.0)
        level = int(bit)
    n_tpl = min(template.size, observations.size)
    correlation = float(np.dot(observations[:n_tpl], template[:n_tpl]))
    signed = observations if correlation >= 0 else -observations
    return ViterbiDecoder().decode_bits(signed, initial_state=RISE)


def decode_against_truth(capture, decoder: str) -> Dict[str, int]:
    """Genie-timing decode of a lone-tag capture, scored vs truth."""
    truth = capture.truths[0]
    try:
        if decoder == "ask":
            bits = AskDecoder().decode(
                capture.trace, truth.offset_samples,
                truth.period_samples, truth.n_bits)
        else:
            bits = genie_lf_decode(
                capture.trace, truth.offset_samples,
                truth.period_samples, truth.n_bits)
    except DecodeError:
        bits = np.empty(0, dtype=np.int8)
    ber = ber_from_bits(truth.bits, bits)
    return {"errors": int(round(ber * truth.n_bits)),
            "bits": truth.n_bits}


def ber_trial(trace, payload, rng, config) -> Dict[str, int]:
    """Engine-dispatched single-tag BER trial.

    The capture's entropy is fully pinned inside the payload's spec
    (coefficient + population seeds), so the trial is reproducible in
    any worker; ``rng`` is unused (genie decodes draw no randomness).
    """
    from ..experiments.scenario import ScenarioSynth
    profile = payload["profile"]
    synth = ScenarioSynth(payload["spec"], profile=profile)
    header = synth.tags[0].header_bits()
    duration = (payload["n_bits"] + header + 4) \
        / profile.default_bitrate_bps
    return decode_against_truth(synth.capture(duration),
                                payload["decoder"])


def ber_sweep(snr_db_values: Sequence[float],
              decoder: str = "lf",
              n_bits: int = 400,
              n_trials: int = 3,
              profile: Optional[SimulationProfile] = None,
              coefficient: complex = 0.1 + 0.04j,
              decision_domain: bool = True,
              rng: SeedLike = None,
              runner=None) -> List[BerPoint]:
    """Measure BER at each SNR for one decoding scheme.

    ``decoder`` is ``"lf"`` (edge-differential decoding) or ``"ask"``
    (matched filter).  With ``decision_domain=True`` (default, the
    Figure 14 convention) the SNR values are interpreted post
    integration: the raw-sample SNR of the capture is lowered by the
    full-bit averaging gain ``10*log10(samples_per_bit)``.

    Trials execute through the batch engine: each (SNR, trial) cell's
    capture entropy is pre-drawn from ``rng`` in the legacy serial
    order and pinned into a self-contained scenario spec, so results
    are identical to the old in-process loop for any worker count.
    Pass a :class:`~repro.experiments.sweep.SweepRunner` built over
    :func:`ber_trial` as ``runner`` to share one engine across sweeps.
    """
    if decoder not in ("lf", "ask"):
        raise ConfigurationError(
            f"decoder must be 'lf' or 'ask', got {decoder!r}")
    if n_bits < 10:
        raise ConfigurationError("need at least 10 bits per trial")
    from ..core.engine import TrialSpec
    from ..experiments.scenario import ScenarioSpec
    from ..experiments.sweep import SweepGrid, SweepRunner, results_of
    prof = profile or SimulationProfile.fast()
    gen = make_rng(rng)
    gain_db = 10.0 * math.log10(prof.samples_per_bit()) \
        if decision_domain else 0.0

    grid = SweepGrid()
    start_offset = 2.0 / prof.default_bitrate_bps
    for snr_db in snr_db_values:
        raw_snr = snr_db - gain_db
        trials = []
        for _ in range(n_trials):
            tag_seed = int(gen.integers(0, 2 ** 63))
            sim_seed = int(gen.integers(0, 2 ** 63))
            spec = ScenarioSpec(
                name="ber_single_tag", n_tags=1, tag_kind="ask",
                coefficients=(coefficient,), snr_db=raw_snr,
                start_offset_s=start_offset,
                population_seeds=(tag_seed, sim_seed))
            trials.append(TrialSpec(payload={
                "spec": spec, "profile": prof, "decoder": decoder,
                "n_bits": n_bits}))
        grid.add_cell({"snr_db": float(snr_db)}, trials)

    def _fold(cell, outcomes):
        results = results_of(outcomes)
        errors = sum(r["errors"] for r in results)
        total = sum(r["bits"] for r in results)
        return {"snr_db": cell.coords["snr_db"],
                "ber": errors / total, "bits_measured": total}

    rows = (runner or SweepRunner(ber_trial)).run(grid, _fold)
    return [BerPoint(snr_db=r["snr_db"], ber=r["ber"],
                     bits_measured=r["bits_measured"]) for r in rows]


def fitted_ber_curve(points: Sequence[BerPoint]
                     ) -> Dict[str, float]:
    """Fit ``log10(BER) = a + b * SNR_dB`` over the non-zero region.

    The paper overlays fitted curves on the measured points (Figure
    14); in the waterfall region BER falls close to exponentially in
    SNR dB, so a log-linear fit captures it with two parameters.
    """
    # Restrict to the waterfall: near 0.5 the curve saturates and near
    # zero the estimate is dominated by counting noise.
    xs = [p.snr_db for p in points if 0 < p.ber < 0.3]
    ys = [math.log10(p.ber) for p in points if 0 < p.ber < 0.3]
    if len(xs) < 2:
        raise ConfigurationError(
            "need at least two non-zero BER points to fit")
    b, a = np.polyfit(xs, ys, 1)
    return {"intercept": float(a), "slope": float(b)}


def snr_gap_db(lf_points: Sequence[BerPoint],
               ask_points: Sequence[BerPoint],
               target_ber: float = 1e-2) -> float:
    """SNR difference between the two schemes at equal target BER.

    Uses the fitted log-linear curves: the horizontal distance between
    them at ``target_ber``.  This is the paper's ~4 dB number.
    """
    if not 0 < target_ber < 1:
        raise ConfigurationError("target BER must be in (0, 1)")
    lf_fit = fitted_ber_curve(lf_points)
    ask_fit = fitted_ber_curve(ask_points)
    want = math.log10(target_ber)
    snr_lf = (want - lf_fit["intercept"]) / lf_fit["slope"]
    snr_ask = (want - ask_fit["intercept"]) / ask_fit["slope"]
    return snr_lf - snr_ask
