"""Section 5.2's scalability claim: many more tags at lower bitrates.

"One easy approach is to set bitrate to a lower number, say 10 kbps,
and allow LF-Backscatter RFIDs to concurrently transmit their ID.  In
this setting, we can not only support a few hundred tags..."

Two parts:

* **analytic** — edge-packing headroom (samples-per-bit / edge width)
  and the §3.3 collision model give the tag count at which three-way
  collisions stay below a budget, across bitrates;
* **empirical** — an actual decode of a large tag population at a
  reduced rate, showing goodput holds far past the 16-tag testbed.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.collision_prob import collision_probability_at_least
from ..core.engine import TrialSpec
from ..types import SimulationProfile
from .common import ExperimentResult
from .sweep import SweepGrid, SweepRunner, results_of
from .trials import lf_epochs_trial


def max_tags_for_collision_budget(samples_per_bit: float,
                                  budget: float = 0.01,
                                  window: float = 4.0,
                                  toggle_probability: float = 0.5,
                                  cap: int = 2000) -> int:
    """Largest n with P(a tag sees a >=3-way collision) below budget."""
    low, high = 1, cap
    while low < high:
        mid = (low + high + 1) // 2
        p = collision_probability_at_least(
            mid, 3, n_positions=samples_per_bit, window=window,
            toggle_probability=toggle_probability)
        if p <= budget:
            low = mid
        else:
            high = mid - 1
    return low


def run(rate_fractions: Optional[List[float]] = None,
        empirical_n_tags: int = 32,
        empirical_fraction: float = 0.1,
        profile: Optional[SimulationProfile] = None,
        seed: int = 52,
        quick: bool = False) -> ExperimentResult:
    """Tabulate supportable tag counts; spot-check one large network."""
    fractions = rate_fractions or [1.0, 0.5, 0.2, 0.1]
    if quick:
        fractions = [1.0, 0.1]
        empirical_n_tags = 24
    prof = profile or SimulationProfile.fast()

    rows = []
    for fraction in fractions:
        rate = prof.default_bitrate_bps * fraction
        spb = prof.samples_per_bit(rate)
        rows.append({
            "rate_x": fraction,
            "samples_per_bit": spb,
            "edge_slots": int(spb // prof.edge_width_samples),
            "max_tags_p3_below_1pct":
                max_tags_for_collision_budget(spb),
        })

    # Empirical spot check at the reduced rate, one engine trial the
    # runner seeds from ``seed``.
    rate = prof.default_bitrate_bps * empirical_fraction
    prof.validate_bitrate(rate)
    duration = 120.0 / rate
    grid = SweepGrid()
    grid.add_cell(
        {"rate_x": empirical_fraction},
        TrialSpec(payload={"n_tags": empirical_n_tags, "rate": rate,
                           "n_epochs": 2, "duration": duration,
                           "profile": prof}))
    goodput = SweepRunner(lf_epochs_trial, seed=seed).run(
        grid, lambda cell, outs:
        results_of(outs)[0])[0]["goodput_fraction"]
    rows.append({
        "rate_x": empirical_fraction,
        "samples_per_bit": prof.samples_per_bit(rate),
        "edge_slots": -1,
        "max_tags_p3_below_1pct": -1,
        "empirical_n_tags": empirical_n_tags,
        "empirical_goodput_fraction": goodput,
    })
    return ExperimentResult(
        experiment_id="sec52",
        description="Scalability at reduced bitrates (Section 5.2)",
        rows=rows,
        paper_reference={
            "claim": "at 10 kbps (a tenth of the reference rate) the "
                     "system can support a few hundred concurrently "
                     "transmitting tags (Section 5.2)",
        },
        notes="analytic rows: edge-packing and 3-way-collision "
              "headroom; final row: measured goodput of a real decode "
              f"with {empirical_n_tags} tags at "
              f"{empirical_fraction}x rate")
