"""Gradient-free decoder auto-tuning for link-margin signoff.

The decoder exposes a handful of scalar knobs — header-match
thresholds, fidelity-gate margins, the Viterbi band, equalizer
regularization, guard-interpolation windows — whose defaults were set
on the paper's clean testbed regime.  Other regimes (low SNR, heavy
drift, multipath) prefer different settings: the analog-fallback
ablation already showed ``min_header_score=0.6`` acquiring streams the
default 0.75 rejects at low SNR.

:func:`autotune` runs plain coordinate descent over a discrete knob
registry against a throughput-vs-BER objective, evaluated on a
*scenario family* (a tuple of pinned :class:`ScenarioSpec` s rendered
through the unified factory).  Every candidate evaluation dispatches
through the sweep layer, captures and decoder seeds are pinned per
spec (identical across candidates), and scores are cached, so a tune
is deterministic and re-runnable.

The objective is ``goodput_bps - ber_weight_bps * error_fraction``:
decoded-correct bits per second, charged one weight's worth of
throughput per unit of bit-error fraction.  The default weight (one
per-tag bitrate) makes "decode one more tag's worth of bits" and
"avoid a full-rate stream of errors" trade at par.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import SimulationProfile
from ..utils.rng import key_seed

__all__ = ["Knob", "DEFAULT_KNOBS", "SCENARIO_FAMILIES",
           "default_params", "build_decoder_config", "TuneResult",
           "autotune"]


@dataclass(frozen=True)
class Knob:
    """One tunable decoder parameter and its candidate settings.

    ``name`` is either a plain :class:`LFDecoderConfig` field or a
    dotted path into a sub-config: ``fidelity.*``
    (:class:`FidelityPolicy`), ``equalizer.*``
    (:class:`EqualizerConfig`), ``guard.*`` (:class:`GuardConfig`).
    """

    name: str
    values: Tuple


#: The signoff tuning surface.  Candidate lists bracket each default.
DEFAULT_KNOBS: Tuple[Knob, ...] = (
    Knob("min_header_score", (0.55, 0.6, 0.65, 0.7, 0.75)),
    Knob("refine_window_fraction", (0.6, 0.7, 0.8, 0.9)),
    Knob("collision_guard_extra", (1, 2, 3, 5)),
    Knob("fidelity.pregate_margin", (0.25, 0.5, 0.75, 0.9)),
    Knob("fidelity.viterbi_band_margin", (1e-09, 0.05, 0.1)),
    Knob("enable_equalizer", (False, True)),
    Knob("equalizer.noise_regularization", (0.005, 0.02, 0.05)),
    Knob("guard.max_interp_gap", (32, 64, 128)),
)

_SUB_CONFIGS = ("fidelity", "equalizer", "guard")


def _field_default(cls, field_name: str):
    for field in dataclasses.fields(cls):
        if field.name == field_name:
            if field.default is not dataclasses.MISSING:
                return field.default
            return field.default_factory()
    raise ConfigurationError(
        f"{cls.__name__} has no field {field_name!r}")


def default_params(knobs: Sequence[Knob] = DEFAULT_KNOBS
                   ) -> Dict[str, object]:
    """The decoder's stock settings for every knob in the registry."""
    from ..core.equalizer import EqualizerConfig
    from ..core.fidelity import FidelityPolicy
    from ..core.pipeline import LFDecoderConfig
    from ..robustness.guard import GuardConfig
    owners = {"fidelity": FidelityPolicy, "equalizer": EqualizerConfig,
              "guard": GuardConfig}
    params: Dict[str, object] = {}
    for knob in knobs:
        if "." in knob.name:
            prefix, field_name = knob.name.split(".", 1)
            if prefix not in owners:
                raise ConfigurationError(
                    f"unknown knob prefix {prefix!r} in {knob.name!r}")
            params[knob.name] = _field_default(owners[prefix],
                                               field_name)
        else:
            params[knob.name] = _field_default(LFDecoderConfig,
                                               knob.name)
    return params


def build_decoder_config(params: Dict[str, object],
                         candidate_bitrates_bps: Sequence[float],
                         profile: SimulationProfile):
    """Materialize an :class:`LFDecoderConfig` from a knob assignment."""
    from ..core.equalizer import EqualizerConfig
    from ..core.fidelity import FidelityPolicy
    from ..core.pipeline import LFDecoderConfig
    from ..robustness.guard import GuardConfig
    top: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {
        name: {} for name in _SUB_CONFIGS}
    for name, value in params.items():
        if "." in name:
            prefix, field_name = name.split(".", 1)
            nested[prefix][field_name] = value
        else:
            top[name] = value
    if nested["fidelity"]:
        top["fidelity"] = FidelityPolicy(**nested["fidelity"])
    if nested["equalizer"]:
        top["equalizer_config"] = EqualizerConfig(
            **nested["equalizer"])
    if nested["guard"]:
        top["guard_config"] = GuardConfig(**nested["guard"])
    return LFDecoderConfig(
        candidate_bitrates_bps=list(candidate_bitrates_bps),
        profile=profile, **top)


def _quick_spec(**kwargs):
    from ..experiments.scenario import ScenarioSpec
    return ScenarioSpec(**kwargs)


def _family(name: str, count: int, base_seed: int, **kwargs) -> Tuple:
    return tuple(
        _quick_spec(name=f"{name}_{k}", seed=base_seed + 101 * k,
                    **kwargs)
        for k in range(count))


def scenario_families(profile: Optional[SimulationProfile] = None,
                      count: int = 3) -> Dict[str, Tuple]:
    """The signoff scenario families, pinned and profile-resolved.

    Each family is a tuple of specs sharing a channel regime but
    differing in seed — the tuner optimizes the regime, not one lucky
    capture.
    """
    prof = profile or SimulationProfile.fast()
    rate = prof.default_bitrate_bps
    return {
        "low_snr": _family("tune_low_snr", count, 4100,
                           n_tags=3, snr_db=7.0, bitrate_bps=rate,
                           epoch_s=0.01),
        "dense": _family("tune_dense", count, 4300,
                         n_tags=10, noise_std=0.01, bitrate_bps=rate,
                         epoch_s=0.01),
        "multipath_room": _family("tune_room", count, 4500,
                                  n_tags=4, noise_std=0.01,
                                  bitrate_bps=rate,
                                  channel_preset="room",
                                  epoch_s=0.01),
        "drift_heavy": _family("tune_drift", count, 4700,
                               n_tags=4, drift_ppm=4000.0,
                               bitrate_bps=rate, epoch_s=0.01),
    }


#: Family names, for CLI listings.
SCENARIO_FAMILIES = ("low_snr", "dense", "multipath_room",
                     "drift_heavy")


@dataclass
class TuneResult:
    """Outcome of one coordinate-descent tune."""

    family: str
    baseline_params: Dict[str, object]
    baseline_score: float
    best_params: Dict[str, object]
    best_score: float
    #: Knob assignments that differ from stock settings.
    changed_params: Dict[str, object]
    #: ``(knob, value, score)`` for every accepted move, in order.
    history: List[Tuple[str, object, float]]
    evaluations: int

    @property
    def improved(self) -> bool:
        return self.best_score > self.baseline_score

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "baseline_score": self.baseline_score,
            "best_score": self.best_score,
            "improved": self.improved,
            "changed_params": dict(self.changed_params),
            "history": [list(step) for step in self.history],
            "evaluations": self.evaluations,
        }


class _Evaluator:
    """Scores knob assignments on a family, batched and cached."""

    def __init__(self, family_specs, profile, ber_weight_bps, seed,
                 runner=None):
        from ..experiments.sweep import SweepRunner
        from ..experiments.trials import scenario_decode_trial
        self.specs = tuple(family_specs)
        self.profile = profile
        self.ber_weight_bps = ber_weight_bps
        self.seed = seed
        self.runner = runner or SweepRunner(scenario_decode_trial)
        self.cache: Dict[Tuple, float] = {}
        self.evaluations = 0

    @staticmethod
    def _key(params: Dict[str, object]) -> Tuple:
        return tuple(sorted(params.items()))

    def score_many(self, param_sets: List[Dict[str, object]]
                   ) -> List[float]:
        from ..core.engine import TrialSpec
        from ..experiments.sweep import SweepGrid, results_of
        pending = [p for p in param_sets
                   if self._key(p) not in self.cache]
        if pending:
            grid = SweepGrid()
            for cell_index, params in enumerate(pending):
                trials = []
                for spec_index, spec in enumerate(self.specs):
                    rates = sorted(set(spec.tag_rates(self.profile)))
                    config = build_decoder_config(params, rates,
                                                  self.profile)
                    trials.append(TrialSpec(
                        seed=key_seed(self.seed, spec_index),
                        payload={"spec": spec,
                                 "profile": self.profile,
                                 "decoder_config": config}))
                grid.add_cell({"candidate": cell_index}, trials)

            def _fold(cell, outcomes):
                results = results_of(outcomes)
                correct = sum(r["bits_correct"] for r in results)
                sent = sum(r["bits_sent"] for r in results)
                duration = sum(s.epoch_s for s in self.specs)
                goodput_bps = correct / duration
                error_fraction = 1.0 - (correct / sent if sent
                                        else 0.0)
                return {"candidate": cell.coords["candidate"],
                        "score": goodput_bps
                        - self.ber_weight_bps * error_fraction}

            rows = self.runner.run(grid, _fold)
            self.evaluations += len(pending)
            for row in rows:
                self.cache[self._key(pending[row["candidate"]])] = \
                    row["score"]
        return [self.cache[self._key(p)] for p in param_sets]

    def score(self, params: Dict[str, object]) -> float:
        return self.score_many([params])[0]


def autotune(family: str,
             family_specs: Optional[Sequence] = None,
             knobs: Sequence[Knob] = DEFAULT_KNOBS,
             rounds: int = 2,
             profile: Optional[SimulationProfile] = None,
             ber_weight_bps: Optional[float] = None,
             seed: int = 4242,
             min_gain: float = 1e-09,
             runner=None) -> TuneResult:
    """Coordinate descent over the knob registry on one family.

    ``family`` names a built-in scenario family (see
    :func:`scenario_families`) unless ``family_specs`` supplies an
    explicit spec tuple.  Each round sweeps every knob in registry
    order, evaluating all its candidate values in one engine batch and
    keeping the best; descent stops early when a full round changes
    nothing.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    prof = profile or SimulationProfile.fast()
    if family_specs is None:
        families = scenario_families(prof)
        if family not in families:
            raise ConfigurationError(
                f"unknown scenario family {family!r}; available: "
                f"{sorted(families)}")
        family_specs = families[family]
    if not family_specs:
        raise ConfigurationError("family has no scenarios")
    weight = ber_weight_bps if ber_weight_bps is not None \
        else prof.default_bitrate_bps
    evaluator = _Evaluator(family_specs, prof, weight, seed,
                           runner=runner)

    baseline_params = default_params(knobs)
    params = dict(baseline_params)
    baseline_score = evaluator.score(params)
    best_score = baseline_score
    history: List[Tuple[str, object, float]] = []
    for _ in range(rounds):
        round_changed = False
        for knob in knobs:
            candidates = [{**params, knob.name: value}
                          for value in knob.values
                          if value != params[knob.name]]
            if not candidates:
                continue
            scores = evaluator.score_many(candidates)
            top = int(np.argmax(scores))
            if scores[top] > best_score + min_gain:
                params = candidates[top]
                best_score = scores[top]
                history.append((knob.name,
                                params[knob.name], best_score))
                round_changed = True
        if not round_changed:
            break
    changed = {name: value for name, value in params.items()
               if value != baseline_params[name]}
    return TuneResult(
        family=family,
        baseline_params=baseline_params,
        baseline_score=baseline_score,
        best_params=params,
        best_score=best_score,
        changed_params=changed,
        history=history,
        evaluations=evaluator.evaluations)
