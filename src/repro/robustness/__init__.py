"""Robustness layer: fault injection and the decode-path trace guard.

Real captures on commodity receivers are full of impairments the clean
simulator never produces — dropped USB buffers, dead-ADC NaN runs,
saturated front ends, DC steps when the reader re-tunes, and epochs cut
short by carrier shutdown.  This package provides both sides of
hardening against them:

* :mod:`impairments` — composable, seed-deterministic trace
  impairments applied to an :class:`~repro.reader.epoch.EpochCapture`
  with its ground truth preserved, so degraded decodes stay scoreable;
* :mod:`guard` — :func:`~repro.robustness.guard.sanitize_trace`, the
  validation/repair front-end the decoder runs before touching a
  capture: repair what is repairable, reject (with a structured
  :class:`~repro.errors.SignalQualityError`) what is not, and report
  everything in a :class:`~repro.robustness.guard.TraceHealth`.
"""

from .guard import GuardConfig, TraceHealth, sanitize_trace
from .impairments import (
    AdcSaturation,
    BurstInterferer,
    CarrierPhaseJump,
    DcOffsetStep,
    Impairment,
    MultipathChannel,
    NonFiniteBurst,
    SampleDropout,
    SweptInterferer,
    TagMobility,
    TruncateEpoch,
    apply_impairments,
    impair_capture,
    random_cocktail,
)
# Scenario / survival symbols are re-exported lazily (PEP 562):
# survival imports the decoder through repro.analysis, and the decode
# path's guard stage imports this package — an eager import here would
# be circular.
_LAZY = {
    "SCENARIOS": "scenarios",
    "SurvivalCell": "survival",
    "SurvivalMatrix": "survival",
    "classify_decode": "survival",
    "run_survival_matrix": "survival",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GuardConfig",
    "TraceHealth",
    "sanitize_trace",
    "Impairment",
    "SampleDropout",
    "NonFiniteBurst",
    "AdcSaturation",
    "DcOffsetStep",
    "CarrierPhaseJump",
    "TruncateEpoch",
    "BurstInterferer",
    "MultipathChannel",
    "TagMobility",
    "SweptInterferer",
    "apply_impairments",
    "impair_capture",
    "random_cocktail",
    "SCENARIOS",
    "SurvivalCell",
    "SurvivalMatrix",
    "classify_decode",
    "run_survival_matrix",
]
