"""Figure 10: aggregate throughput vs per-tag bitrate (16 nodes).

Sixteen tags sweep their common bitrate upward until the time-domain
edge budget saturates: the paper sees throughput climb to ~200 kbps
per tag and crash by 250 kbps, where the 250-sample bit period can no
longer hold 16 tags' worth of 3-sample edges without constant
collisions.  The samples-per-bit at the crash point (~100) is profile
invariant, so the fast profile reproduces the same curve at one tenth
the absolute rates.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import TrialSpec
from ..core.pipeline import LFDecoderConfig
from ..types import SimulationProfile
from ..utils.rng import key_seed
from .common import ExperimentResult
from .sweep import SweepGrid, SweepRunner, results_of
from .trials import lf_epochs_trial

VARIANTS = (
    ("edge", False, False),
    ("edge_iq", True, False),
    ("edge_iq_error", True, True),
)


def run(n_tags: int = 16,
        rate_fractions: Optional[List[float]] = None,
        n_epochs: int = 2,
        profile: Optional[SimulationProfile] = None,
        seed: int = 1010,
        quick: bool = False) -> ExperimentResult:
    """Sweep per-tag bitrate as fractions of the profile default.

    ``rate_fractions`` are multiples of the profile's default bitrate
    (1.0 = the "100 kbps" reference point; 2.5 = the paper's 250 kbps
    crash region).
    """
    fractions = rate_fractions or [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    if quick:
        fractions = [0.5, 1.0, 2.5]
        n_tags = min(n_tags, 8)
    prof = profile or SimulationProfile.fast()

    # One cell per rate fraction; its three decoder-variant trials
    # share the cell's seed (identical captures, ablated configs) and
    # dispatch through the engine.
    grid = SweepGrid()
    for i, fraction in enumerate(fractions):
        rate = prof.default_bitrate_bps * fraction
        prof.validate_bitrate(rate)
        # Keep the per-epoch bit budget roughly constant across rates.
        duration = 130.0 / rate
        trials = []
        for name, iq, ec in VARIANTS:
            config = LFDecoderConfig(
                candidate_bitrates_bps=[rate], profile=prof,
                enable_iq_separation=iq, enable_error_correction=ec)
            trials.append(TrialSpec(seed=key_seed(seed, i), payload={
                "n_tags": n_tags, "rate": rate, "n_epochs": n_epochs,
                "duration": duration, "profile": prof,
                "decoder_config": config}))
        grid.add_cell({"rate_x": fraction,
                       "samples_per_bit": prof.samples_per_bit(rate)},
                      trials)

    def _fold(cell, outcomes):
        row = dict(cell.coords)
        for (name, _, _), result in zip(VARIANTS, results_of(outcomes)):
            row[f"{name}_x"] = result["throughput_bps"] \
                / prof.default_bitrate_bps
        return row

    rows = SweepRunner(lf_epochs_trial).run(grid, _fold)
    return ExperimentResult(
        experiment_id="fig10",
        description=f"Throughput vs per-tag bitrate, {n_tags} nodes "
                    "(x = multiples of the reference rate)",
        rows=rows,
        paper_reference={
            "claim": "aggregate throughput crashes past ~2x the "
                     "reference rate (200 kbps at 25 Msps) as edges "
                     "can no longer interleave; IQ recovery and error "
                     "correction matter most near the crash "
                     "(Figure 10)",
        })
