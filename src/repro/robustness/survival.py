"""Survival matrix: scenario × decoder-config → how the decode fared.

For every :data:`repro.robustness.scenarios.SCENARIOS` entry and every
decoder configuration (the plain edge-differential front end versus
the blind-equalizer pre-stage), regenerate the scenario's exact
capture, decode it, score against ground truth and classify:

* ``decoded``  — every truth stream matched and goodput ≥ 0.85: the
  configuration handles the scenario.
* ``degraded`` — partial recovery; some information got through.
* ``confined`` — the decode *returned* (fault confinement held) but
  recovered essentially nothing (goodput < 0.3).
* ``failed``   — the decode raised; confinement itself broke.

The matrix is emitted as JSON for CI artifacts and gated informally by
``benchmarks/check_regression.py`` — the gate asserts that no cell is
``failed``, that flat baselines decode, and that at least one
multipath scenario is confined/degraded without the equalizer yet
decoded with it (the reason the pre-stage exists).

Run directly::

    PYTHONPATH=src python -m repro.robustness.survival --out matrix.json
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.throughput import match_streams, score_epoch
from ..core.pipeline import LFDecoder, LFDecoderConfig
from ..experiments.scenario import ScenarioSpec, build_capture
from ..types import SimulationProfile
from .scenarios import SCENARIOS

__all__ = ["DECODER_CONFIGS", "SurvivalCell", "SurvivalMatrix",
           "classify_decode", "run_survival_matrix"]

#: Goodput at or above which a full-match decode counts as decoded.
DECODED_GOODPUT = 0.85
#: Goodput below which a returned decode counts as confined.
CONFINED_GOODPUT = 0.30

#: The decoder configurations every scenario is swept against.
DECODER_CONFIGS: Dict[str, Dict[str, object]] = {
    "baseline": {},
    "equalizer": {"enable_equalizer": True},
}


@dataclass
class SurvivalCell:
    """One (scenario, decoder-config) outcome."""

    classification: str
    matched: int = 0
    n_tags: int = 0
    goodput: float = 0.0
    #: Exception summary when classification == "failed".
    error: str = ""
    #: Whether the equalizer pre-stage rewrote the samples.
    equalizer_applied: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "classification": self.classification,
            "matched": self.matched,
            "n_tags": self.n_tags,
            "goodput": round(self.goodput, 4),
            "error": self.error,
            "equalizer_applied": self.equalizer_applied,
        }


@dataclass
class SurvivalMatrix:
    """The full sweep, JSON-serializable for CI artifacts."""

    cells: Dict[str, Dict[str, SurvivalCell]] = field(
        default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "configs": sorted(DECODER_CONFIGS),
            "thresholds": {"decoded_goodput": DECODED_GOODPUT,
                           "confined_goodput": CONFINED_GOODPUT},
            "scenarios": {
                name: {cfg: cell.to_dict()
                       for cfg, cell in row.items()}
                for name, row in self.cells.items()},
        }

    def classification(self, scenario: str, config: str) -> str:
        return self.cells[scenario][config].classification


def classify_decode(matched: int, n_tags: int,
                    goodput: float) -> str:
    """Map a scored decode onto the survival taxonomy."""
    if matched >= n_tags and goodput >= DECODED_GOODPUT:
        return "decoded"
    if goodput < CONFINED_GOODPUT:
        return "confined"
    return "degraded"


def _decode_cell(scenario: ScenarioSpec,
                 config_kwargs: Dict[str, object],
                 profile: SimulationProfile) -> SurvivalCell:
    capture = build_capture(scenario, profile)
    decoder = LFDecoder(
        LFDecoderConfig(candidate_bitrates_bps=[10e3],
                        profile=profile, **config_kwargs),
        rng=1)
    try:
        result = decoder.decode_epoch(capture.trace)
    except Exception as exc:  # classification, not flow control
        return SurvivalCell(classification="failed",
                            n_tags=scenario.n_tags,
                            error=f"{type(exc).__name__}: {exc}")
    matched = len(match_streams(capture, result))
    goodput = float(score_epoch(capture, result).goodput_fraction)
    report = result.equalizer
    return SurvivalCell(
        classification=classify_decode(matched, scenario.n_tags,
                                       goodput),
        matched=matched, n_tags=scenario.n_tags, goodput=goodput,
        equalizer_applied=bool(report is not None
                               and getattr(report, "applied", False)))


def run_survival_matrix(scenarios: Sequence[ScenarioSpec] = SCENARIOS,
                        profile: Optional[SimulationProfile] = None
                        ) -> SurvivalMatrix:
    """Sweep scenarios × decoder configs into a survival matrix."""
    profile = profile or SimulationProfile.fast()
    matrix = SurvivalMatrix()
    for scenario in scenarios:
        row: Dict[str, SurvivalCell] = {}
        for config_name, kwargs in DECODER_CONFIGS.items():
            row[config_name] = _decode_cell(scenario, dict(kwargs),
                                            profile)
        matrix.cells[scenario.name] = row
    return matrix


def _format_table(matrix: SurvivalMatrix) -> str:
    configs = sorted(DECODER_CONFIGS)
    width = max(len(name) for name in matrix.cells) + 2
    lines = ["".join([f"{'scenario':<{width}}"]
                     + [f"{c:>22}" for c in configs])]
    for name, row in matrix.cells.items():
        entries = []
        for config in configs:
            cell = row[config]
            entries.append(
                f"{cell.classification} "
                f"({cell.matched}/{cell.n_tags} gp={cell.goodput:.2f})")
        lines.append("".join([f"{name:<{width}}"]
                             + [f"{e:>22}" for e in entries]))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep the survival matrix and emit JSON.")
    parser.add_argument("--out", default=None,
                        help="Write the matrix JSON here.")
    args = parser.parse_args(argv)
    matrix = run_survival_matrix()
    print(_format_table(matrix))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(matrix.to_dict(), handle, indent=2,
                      sort_keys=True)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
