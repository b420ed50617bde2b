"""Equalizer stage: blind channel inversion in front of edge detection.

Runs :func:`repro.core.equalizer.equalize` over the (guarded) capture
before :class:`EdgeStage` sees it.  Under a frequency-selective
channel (:mod:`repro.phy.multipath`) each tag transition arrives as a
staircase of echoes; the blind estimate/Wiener-inverse recovers the
flat-channel waveform and with it the decodes the edge-differential
front end loses to long delay spread.

The stage is **off by default** (``enable_equalizer=False``) and when
disabled it never runs — decodes are bit-identical to a build without
the stage, which the golden-digest suite pins.  When enabled on a
flat-channel capture the estimator classifies the channel as flat and
passes the samples through untouched (object identity, no copy).
"""

from __future__ import annotations

from ...types import IQTrace
from ..equalizer import equalize
from .context import DecodeContext


class EqualizerStage:
    """Blind-equalize a frequency-selective capture (opt-in)."""

    name = "equalize"
    #: Self-timed: a decode with the equalizer disabled must not
    #: report an ``equalize`` timing bucket at all (the stage never
    #: ran).
    timing_key = None

    def run(self, ctx: DecodeContext) -> None:
        if not ctx.config.enable_equalizer:
            return
        with ctx.stats.stage("equalize"):
            samples, report = equalize(ctx.trace.samples,
                                       ctx.config.equalizer_config)
            ctx.result.equalizer = report
            if report.applied:
                ctx.trace = IQTrace(
                    samples=samples,
                    sample_rate_hz=ctx.trace.sample_rate_hz,
                    start_time_s=ctx.trace.start_time_s)
