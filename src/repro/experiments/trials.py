"""Top-level trial functions for engine-dispatched experiment sweeps.

:meth:`repro.core.engine.BatchDecoder.iter_trials` sends its trial
function to child processes with every task, pickled by module path,
so the callables every refit experiment shares live here as plain
top-level functions.  Each follows the
engine's trial signature ``(trace, payload, rng, config) -> Any`` and
returns plain dicts/tuples (derived data only — never views of an
engine-transported trace).

The determinism story: a trial's entire randomness comes from ``rng``
(seeded by the sweep runner from the experiment's root and the trial's
position, or pinned by the experiment when several trials must share
one capture) plus whatever entropy rides in the payload's
:class:`~repro.experiments.scenario.ScenarioSpec` (its ``seed``, and
``coefficients`` when pinned).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

__all__ = ["lf_epochs_trial", "scenario_decode_trial"]


def lf_epochs_trial(trace, payload: Dict[str, Any], rng,
                    config) -> Dict[str, float]:
    """One multi-epoch LF run (simulate + decode + score), whole.

    The epoch loop stays inside the trial because one decoder's RNG
    state deliberately persists across a session's epochs — splitting
    the epochs into separate tasks would change every decode after the
    first.  Payload keys: ``n_tags, rate, n_epochs, duration,
    profile`` and optionally ``decoder_config``.
    """
    from ..analysis.throughput import run_lf_epochs
    run = run_lf_epochs(payload["n_tags"], payload["rate"],
                        payload["n_epochs"], payload["duration"],
                        profile=payload["profile"],
                        decoder_config=payload.get("decoder_config"),
                        rng=rng)
    return {"throughput_bps": run.throughput_bps,
            "goodput_fraction": run.goodput_fraction}


def scenario_decode_trial(trace, payload: Dict[str, Any], rng,
                          config) -> Dict[str, Any]:
    """Render one scenario epoch, decode it fresh, score vs truth.

    Payload keys: ``spec`` (a self-seeding ScenarioSpec), ``profile``,
    ``decoder_config``, and optionally ``duration`` / ``epoch_index``.
    ``rng`` seeds the decoder (the capture's entropy is the spec's
    seed).
    """
    from ..analysis.throughput import score_epoch
    from ..core.pipeline import LFDecoder
    from .scenario import ScenarioSynth
    synth = ScenarioSynth(payload["spec"], profile=payload["profile"])
    capture = synth.capture(payload.get("duration"),
                            epoch_index=payload.get("epoch_index", 0))
    decoder = LFDecoder(payload["decoder_config"], rng=rng)
    result = decoder.decode_epoch(capture.trace)
    report = score_epoch(capture, result)
    return {"bits_correct": report.bits_correct,
            "bits_sent": report.bits_sent,
            "n_streams": result.n_streams,
            "offsets": [float(s.offset_samples)
                        for s in result.streams],
            "truth_offsets": [float(t.offset_samples)
                              for t in capture.truths]}
