"""Figure 14: SNR vs BER, LF-Backscatter edge decoding vs plain ASK.

A lone tag is captured across a range of receiver SNRs; both decoders
score the same captures.  The expected shape: ASK's
whole-bit integration needs several dB less SNR for the same BER, the
gap is roughly constant through the waterfall region, and both schemes
reach zero measured errors by the mid-teens of dB.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.ber import ber_sweep, snr_gap_db
from ..errors import ConfigurationError
from ..types import SimulationProfile
from .common import ExperimentResult


def run(snr_db_values: Optional[List[float]] = None,
        n_bits: int = 300,
        n_trials: int = 3,
        profile: Optional[SimulationProfile] = None,
        seed: int = 1414,
        quick: bool = False) -> ExperimentResult:
    """Measure both BER curves and the SNR gap between them."""
    snrs = snr_db_values or [3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
    if quick:
        snrs = [5.0, 8.0, 11.0, 14.0]
        n_bits = 150
        n_trials = 2
    prof = profile or SimulationProfile.fast()
    lf_points = ber_sweep(snrs, decoder="lf", n_bits=n_bits,
                          n_trials=n_trials, profile=prof, seed=seed)
    ask_points = ber_sweep(snrs, decoder="ask", n_bits=n_bits,
                           n_trials=n_trials, profile=prof, seed=seed)
    rows = []
    for lf_p, ask_p in zip(lf_points, ask_points):
        rows.append({
            "snr_db": lf_p.snr_db,
            "lf_ber": lf_p.ber,
            "ask_ber": ask_p.ber,
            "bits_per_point": lf_p.bits_measured,
        })
    try:
        gap = snr_gap_db(lf_points, ask_points)
        gap_note = f"fitted SNR gap at BER 1e-2: {gap:.1f} dB"
    except ConfigurationError:
        gap = float("nan")
        gap_note = "not enough non-zero BER points to fit the gap"
    return ExperimentResult(
        experiment_id="fig14",
        description="BER vs raw-sample SNR: LF edge decoding vs "
                    "conventional ASK",
        rows=rows,
        paper_reference={
            "snr_gap_db": 4.0,
            "claim": "LF-Backscatter needs ~4 dB more SNR than ASK for "
                     "equal BER; both reach zero by ~15 dB (Figure 14)",
        },
        notes=gap_note)
