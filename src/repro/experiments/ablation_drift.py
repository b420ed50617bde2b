"""Ablation: decoder tolerance to tag clock drift (Section 4.1).

"Our decoding method can tolerate roughly 200 ppm of clock drift" — the
reason the Moo's 40,000 ppm internal DCO had to be replaced with a
crystal.  This ablation sweeps the crystal quality and measures decode
goodput: losses should be negligible through ~200 ppm and degrade
beyond the fold/tracker tolerance.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import TrialSpec
from ..core.pipeline import LFDecoderConfig
from ..types import SimulationProfile
from ..utils.rng import key_seed
from .common import ExperimentResult
from .scenario import ScenarioSpec
from .sweep import SweepGrid, SweepRunner, results_of
from .trials import scenario_decode_trial


def run(drift_values_ppm: Optional[List[float]] = None,
        n_tags: int = 4,
        n_epochs: int = 3,
        epoch_duration_s: float = 0.012,
        profile: Optional[SimulationProfile] = None,
        seed: int = 41,
        quick: bool = False) -> ExperimentResult:
    """Measure goodput across crystal drift magnitudes."""
    drifts = drift_values_ppm or [0.0, 200.0, 1000.0, 4000.0,
                                  16000.0, 40000.0]
    if quick:
        drifts = [0.0, 200.0, 40000.0]
        n_epochs = 2
    prof = profile or SimulationProfile.fast()
    rate = prof.default_bitrate_bps
    config = LFDecoderConfig(candidate_bitrates_bps=[rate], profile=prof)

    # Each (drift, epoch) trial renders a fresh population seeded
    # ``key_seed(seed, i, epoch)``; the runner seeds its decoder from
    # ``seed`` and the same position.
    grid = SweepGrid()
    for i, drift in enumerate(drifts):
        grid.add_cell({"drift_ppm": drift}, [
            TrialSpec(payload={
                "spec": ScenarioSpec(
                    name="ablation_drift", n_tags=n_tags,
                    bitrate_bps=rate, drift_ppm=drift,
                    seed=key_seed(seed, i, epoch)),
                "profile": prof, "decoder_config": config,
                "duration": epoch_duration_s, "epoch_index": epoch})
            for epoch in range(n_epochs)])

    def _fold(cell, outcomes):
        results = results_of(outcomes)
        correct = sum(r["bits_correct"] for r in results)
        sent = sum(r["bits_sent"] for r in results)
        return {"drift_ppm": cell.coords["drift_ppm"],
                "goodput_fraction": correct / sent if sent else 0.0}

    rows = SweepRunner(scenario_decode_trial, seed=seed).run(grid,
                                                             _fold)
    return ExperimentResult(
        experiment_id="ablation_drift",
        description="Decoder goodput vs tag clock drift",
        rows=rows,
        paper_reference={
            "claim": "the decoding method tolerates roughly 200 ppm of "
                     "clock drift (Section 4.1); the Moo's 40,000 ppm "
                     "DCO is unusable",
        },
        notes="our progressive edge tracker absorbs constant ppm "
              "offsets well beyond the paper's 200 ppm budget — the "
              "binding limit is per-bit phase walk vs the matching "
              "tolerance, reached near DCO-class drift")
