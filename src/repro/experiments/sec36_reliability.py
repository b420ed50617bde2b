"""Section 3.6's optional reliability layer, exercised end-to-end.

The Broadcast-ACK loop: tags retransmit CRC-16-framed messages each
epoch until acknowledged; fresh comparator offsets re-randomize the
collision pattern between retries, so deliveries converge within a few
epochs even under heavy concurrency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..core.engine import TrialSpec
from ..types import SimulationProfile
from .common import ExperimentResult
from .sweep import SweepGrid, SweepRunner, results_of


def reliability_trial(trace, payload: Dict[str, Any], rng,
                      config) -> Dict[str, float]:
    """One full Broadcast-ACK transfer (simulate every retry epoch)."""
    from ..link.reliability import ReliableLink, ReliableTransferConfig
    n = payload["n_tags"]
    link = ReliableLink(
        n,
        ReliableTransferConfig(message_bits=payload["message_bits"],
                               max_epochs=15),
        profile=payload["profile"], rng=rng)
    outcome = link.run()
    first = (outcome.per_epoch_deliveries[0] / n
             if outcome.per_epoch_deliveries else 0.0)
    return {"epochs_used": outcome.epochs_used,
            "delivery_ratio": outcome.delivery_ratio,
            "first_epoch_delivery": first}


def run(tag_counts: Optional[List[int]] = None,
        message_bits: int = 48,
        n_trials: int = 3,
        profile: Optional[SimulationProfile] = None,
        seed: int = 36,
        quick: bool = False) -> ExperimentResult:
    """Measure epochs-to-complete-delivery across network sizes."""
    counts = tag_counts or [2, 4, 8, 12]
    if quick:
        counts = [2, 4]
        n_trials = 2
    prof = profile or SimulationProfile.fast()

    # The runner seeds each transfer from ``seed`` and its (count,
    # trial) position.
    grid = SweepGrid()
    for n in counts:
        trials = [TrialSpec(payload={"n_tags": n,
                                     "message_bits": message_bits,
                                     "profile": prof})
                  for _ in range(n_trials)]
        grid.add_cell({"n_tags": n}, trials)

    def _fold(cell, outcomes):
        results = results_of(outcomes)
        return {
            "n_tags": cell.coords["n_tags"],
            "mean_epochs_to_complete": float(np.mean(
                [r["epochs_used"] for r in results])),
            "delivery_ratio": float(np.mean(
                [r["delivery_ratio"] for r in results])),
            "first_epoch_delivery": float(np.mean(
                [r["first_epoch_delivery"] for r in results])),
        }

    rows = SweepRunner(reliability_trial, seed=seed).run(grid, _fold)
    return ExperimentResult(
        experiment_id="sec36",
        description="Broadcast-ACK reliable transfer: epochs to full "
                    "delivery",
        rows=rows,
        paper_reference={
            "claim": "collision patterns differ across epochs, so "
                     "epoch-level retransmission converges "
                     "(Section 3.6)",
        })
