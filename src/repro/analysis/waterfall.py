"""BER waterfalls and capacity surfaces for link-margin signoff.

Two sweep families, both dispatched through the sweep layer:

* :func:`ber_waterfall` — the Figure 14 shape as a machine-checkable
  table: LF and ASK BER side by side per SNR, plus the fitted SNR gap
  between the schemes.  Signoff gates on the waterfall being (noise-
  tolerantly) monotone and the gap staying in the paper's ballpark.
* :func:`capacity_surface` — decoded goodput across the
  SNR × tag-count × drift grid, the link-margin map a deployment
  actually cares about ("how many tags at what SNR with what crystal").

Every capture and decoder seed is a :func:`~repro.utils.rng.key_seed`
of the sweep's root and the cell's coordinates, so a cell's draws
never depend on which other cells the grid holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..types import SimulationProfile
from ..utils.rng import key_seed

__all__ = ["ber_waterfall", "capacity_surface"]


def ber_waterfall(snr_db_values: Sequence[float],
                  n_bits: int = 400,
                  n_trials: int = 3,
                  profile: Optional[SimulationProfile] = None,
                  seed: int = 14,
                  runner=None) -> Dict[str, object]:
    """LF vs ASK BER per SNR plus the fitted gap (Figure 14's axes).

    Returns ``{"rows": [{snr_db, lf_ber, ask_ber, bits_measured}...],
    "snr_gap_db": float | None}`` — the gap is ``None`` when either
    curve lacks enough non-zero points to fit (e.g. very quick grids).
    """
    from .ber import ber_sweep, snr_gap_db
    if not snr_db_values:
        raise ConfigurationError("need at least one SNR value")
    prof = profile or SimulationProfile.fast()
    curves = {}
    for decoder in ("lf", "ask"):
        curves[decoder] = ber_sweep(
            snr_db_values, decoder=decoder, n_bits=n_bits,
            n_trials=n_trials, profile=prof, seed=seed, runner=runner)
    rows = []
    for lf_point, ask_point in zip(curves["lf"], curves["ask"]):
        rows.append({
            "snr_db": lf_point.snr_db,
            "lf_ber": lf_point.ber,
            "ask_ber": ask_point.ber,
            "bits_measured": lf_point.bits_measured,
        })
    try:
        gap = float(snr_gap_db(curves["lf"], curves["ask"]))
    except ConfigurationError:
        gap = None
    return {"rows": rows, "snr_gap_db": gap}


def capacity_surface(snr_db_values: Sequence[float],
                     tag_counts: Sequence[int],
                     drift_values_ppm: Sequence[float],
                     bitrate_bps: Optional[float] = None,
                     epoch_s: float = 0.012,
                     n_trials: int = 2,
                     profile: Optional[SimulationProfile] = None,
                     seed: int = 520,
                     runner=None) -> List[dict]:
    """Decoded goodput over the SNR × tags × drift grid.

    Each cell renders ``n_trials`` independent scenario epochs through
    the unified factory, decodes them with default settings via the
    sweep layer, and reports goodput fraction and aggregate decoded
    rate (normalized to the per-tag bitrate).
    """
    from ..core.engine import TrialSpec
    from ..core.pipeline import LFDecoderConfig
    from ..experiments.scenario import ScenarioSpec
    from ..experiments.sweep import SweepGrid, SweepRunner, results_of
    from ..experiments.trials import scenario_decode_trial
    if not (snr_db_values and tag_counts and drift_values_ppm):
        raise ConfigurationError("every capacity axis needs values")
    prof = profile or SimulationProfile.fast()
    rate = bitrate_bps if bitrate_bps is not None \
        else prof.default_bitrate_bps
    prof.validate_bitrate(rate)
    config = LFDecoderConfig(candidate_bitrates_bps=[rate],
                             profile=prof)

    grid = SweepGrid()
    for i, snr_db in enumerate(snr_db_values):
        for j, n_tags in enumerate(tag_counts):
            for k, drift in enumerate(drift_values_ppm):
                trials = []
                for t in range(n_trials):
                    spec = ScenarioSpec(
                        name=f"capacity_s{i}_n{j}_d{k}_t{t}",
                        n_tags=int(n_tags), bitrate_bps=rate,
                        snr_db=float(snr_db), drift_ppm=float(drift),
                        epoch_s=epoch_s,
                        seed=key_seed(seed, i, j, k, t))
                    trials.append(TrialSpec(
                        seed=key_seed(spec.seed, 977),
                        payload={"spec": spec, "profile": prof,
                                 "decoder_config": config,
                                 "duration": epoch_s,
                                 "epoch_index": 0}))
                grid.add_cell({"snr_db": float(snr_db),
                               "n_tags": int(n_tags),
                               "drift_ppm": float(drift)}, trials)

    def _fold(cell, outcomes):
        results = results_of(outcomes)
        correct = sum(r["bits_correct"] for r in results)
        sent = sum(r["bits_sent"] for r in results)
        duration = epoch_s * len(results)
        return {
            **cell.coords,
            "goodput_fraction": correct / sent if sent else 0.0,
            "decoded_bps_x": (correct / duration) / rate,
            "offered_bps_x": (sent / duration) / rate,
        }

    return (runner or SweepRunner(scenario_decode_trial)).run(
        grid, _fold)
