"""Shared utilities: DSP helpers, RNG plumbing, statistics, serialization."""

from .dsp import (
    moving_average,
    windowed_means,
    find_peaks_above,
    fold_positions,
    nrz_levels_from_bits,
    bits_from_levels,
)
from .rng import key_seed, make_rng, spawn_seed_sequences
from .timing import StageTimer, merge_timings
from .stats import (
    Gaussian2D,
    fit_gaussian_2d,
    wilson_interval,
    ber_from_bits,
)

__all__ = [
    "moving_average",
    "windowed_means",
    "find_peaks_above",
    "fold_positions",
    "nrz_levels_from_bits",
    "bits_from_levels",
    "make_rng",
    "key_seed",
    "spawn_seed_sequences",
    "StageTimer",
    "merge_timings",
    "Gaussian2D",
    "fit_gaussian_2d",
    "wilson_interval",
    "ber_from_bits",
]
