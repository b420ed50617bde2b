"""Figure 11: coexistence of slow and fast tags.

Per the paper's setup ("we let two node transmit at each of the
following eight sets of bitrates starting from slow to fast"), each
trial pairs one slow tag with one reference-rate tag and measures both.
The claim to reproduce: slow tags are not adversely impacted by fast
ones — their loss rate is zero — because the eye-pattern fold separates
rates cleanly.  Rates are expressed as fractions of the profile's
reference rate (the fast profile divides the paper's absolute numbers
by 10 at identical samples-per-bit).
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


def pair_trial(trace, payload, rng, config) -> List[dict]:
    """Engine-dispatched slow+fast pair: render, decode, score both.

    The pair's capture is fully pinned in the payload's spec (its
    seed); ``rng`` seeds the decoder.
    """
    from ..analysis.throughput import match_streams
    from ..core.pipeline import LFDecoder
    from .scenario import ScenarioSynth
    profile = payload["profile"]
    synth = ScenarioSynth(payload["spec"], profile=profile)
    slow_rate = payload["spec"].bitrates_bps[0]
    capture = synth.capture(26.0 / slow_rate)
    decoder = LFDecoder(payload["decoder_config"], rng=rng)
    result = decoder.decode_epoch(capture.trace)
    matches = match_streams(capture, result)
    rows = []
    for match in sorted(matches, key=lambda m: m.tag_id):
        truth = capture.truth_for(match.tag_id)
        rows.append({
            "rate_x": truth.nominal_bitrate_bps
            / profile.default_bitrate_bps,
            "achieved_bps_x": (match.bits_correct / capture.duration_s)
            / profile.default_bitrate_bps,
            "upper_bound_x": (truth.n_bits / capture.duration_s)
            / profile.default_bitrate_bps,
            "loss_rate": match.bit_errors / match.bits_sent,
        })
    return rows


def run(rate_fractions: Optional[List[float]] = None,
        profile: Optional[SimulationProfile] = None,
        seed: int = 1111,
        quick: bool = False) -> ExperimentResult:
    """Run one slow+fast pair per rate fraction; score each node.

    The ``i``-th pair's capture is seeded ``key_seed(seed, i)``; the
    runner seeds its decoder from ``seed`` and the pair's position.
    """
    fractions = rate_fractions or [0.005, 0.01, 0.02, 0.05, 0.1,
                                   0.5, 1.0]
    if quick:
        fractions = [0.02, 0.1, 0.5]
    prof = profile or SimulationProfile.fast()

    grid = SweepGrid()
    for i, fraction in enumerate(fractions):
        slow_rate = prof.default_bitrate_bps * fraction
        prof.validate_bitrate(slow_rate)
        spec = ScenarioSpec(
            name="fig11_pair", n_tags=2,
            bitrates_bps=(slow_rate, prof.default_bitrate_bps),
            min_separation=0.03, seed=key_seed(seed, i))
        config = LFDecoderConfig(
            candidate_bitrates_bps=sorted(
                {slow_rate, prof.default_bitrate_bps}),
            profile=prof)
        grid.add_cell(
            {"fraction": fraction},
            TrialSpec(payload={"spec": spec, "profile": prof,
                               "decoder_config": config}))

    pair_rows_by_cell = SweepRunner(pair_trial, seed=seed).run(
        grid, lambda cell, outs: {"pair_rows": results_of(outs)[0]})

    rows = []
    node = 0
    for folded in pair_rows_by_cell:
        for row in folded["pair_rows"]:
            row["node"] = node
            node += 1
            rows.append(row)
    slow_losses = [r["loss_rate"] for r in rows if r["rate_x"] < 0.2]
    return ExperimentResult(
        experiment_id="fig11",
        description="Throughput per node with mixed bitrates "
                    "(x = multiples of the reference rate)",
        rows=[{k: r[k] for k in ("node", "rate_x", "achieved_bps_x",
                                 "upper_bound_x", "loss_rate")}
              for r in rows],
        paper_reference={
            "claim": "slow nodes are not adversely impacted by fast "
                     "nodes and have a loss rate of zero (Figure 11)",
        },
        notes=f"max slow-node loss rate: "
              f"{max(slow_losses) if slow_losses else 0.0:.3f}")
