"""Four-state Viterbi error correction over edge sequences (Section 3.5).

Certain edge sequences are physically impossible — a rising edge cannot
follow a rising edge without a fall in between.  The decoder encodes
this as a 4-state trellis: rise, fall, hold-after-rise ("-+"), and
hold-after-fall ("--"), with Gaussian emission likelihoods over the
observed (projected) edge differentials.  Running Viterbi over a
stream's grid observations corrects isolated missed or spurious edges
without any tag-side redundancy.

States are indexed: 0 = RISE, 1 = FALL, 2 = HOLD_HIGH, 3 = HOLD_LOW.
Emission means in projected-coordinate space: +1, -1, 0, 0.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..types import EdgePolarity
from . import kernels

RISE, FALL, HOLD_HIGH, HOLD_LOW = 0, 1, 2, 3

STATE_NAMES = (EdgePolarity.RISING, EdgePolarity.FALLING,
               EdgePolarity.HOLD_HIGH, EdgePolarity.HOLD_LOW)

#: Emission mean of each state in projected edge-coordinate space.
STATE_MEANS = np.array([1.0, -1.0, 0.0, 0.0])

#: states[i] emits bit BIT_OF_STATE[i] (the level *after* the boundary).
BIT_OF_STATE = np.array([1, 0, 1, 0], dtype=np.int8)

_NEG_INF = -1e30


def _transition_matrix(p_flip: float) -> np.ndarray:
    """Log transition matrix enforcing edge-sequence validity.

    From a high level (after RISE or HOLD_HIGH) the only moves are FALL
    (the bit flips) or HOLD_HIGH; symmetrically for low levels.  All
    other transitions get -inf.
    """
    if not 0.0 < p_flip < 1.0:
        raise ConfigurationError(f"p_flip must be in (0, 1), got {p_flip}")
    log_flip = math.log(p_flip)
    log_hold = math.log(1.0 - p_flip)
    t = np.full((4, 4), _NEG_INF)
    for high_state in (RISE, HOLD_HIGH):
        t[high_state, FALL] = log_flip
        t[high_state, HOLD_HIGH] = log_hold
    for low_state in (FALL, HOLD_LOW):
        t[low_state, RISE] = log_flip
        t[low_state, HOLD_LOW] = log_hold
    return t


def estimate_sigma(observations: np.ndarray,
                   floor: float = 0.05) -> float:
    """Noise scale of projected observations.

    Residual spread to the nearest ideal emission mean {-1, 0, +1},
    floored so a noiseless trace does not produce a degenerate model.
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    if obs.size == 0:
        raise ConfigurationError("need at least one observation")
    nearest = np.clip(np.round(obs), -1, 1)
    residual = obs - nearest
    return max(float(np.sqrt(np.mean(residual ** 2))), floor)


class ViterbiDecoder:
    """Maximum-likelihood edge-sequence decoder.

    Parameters
    ----------
    p_flip:
        Prior probability that consecutive bits differ.  0.5 matches
        random payloads; it can be fitted to traffic with
        :meth:`fit_flip_probability`.
    sigma:
        Emission noise scale; estimated per-stream when None.
    banded:
        Enable the banded fast path: when every observation clears the
        emission decision band (see :meth:`_decode_states_banded`), the
        thresholded state path is provably the Viterbi optimum and the
        trellis recursion is skipped.  Any observation inside the band,
        or a thresholded path that violates the trellis, falls back to
        the exact recursion, so the result is always the exact Viterbi
        path.
    band_margin:
        Extra width (observation units) added to the provably-safe
        decision band; observations inside the widened band force the
        exact recursion.
    """

    def __init__(self, p_flip: float = 0.5,
                 sigma: Optional[float] = None,
                 banded: bool = False,
                 band_margin: float = 1e-9):
        self.p_flip = p_flip
        self.sigma = sigma
        if sigma is not None and sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if band_margin < 0:
            raise ConfigurationError("band_margin must be >= 0")
        self.banded = banded
        self.band_margin = band_margin
        #: Optional fidelity counter dict; when set, every decode
        #: increments ``viterbi_banded`` or ``viterbi_exact``.
        self.stats: Optional[Dict[str, int]] = None
        self._log_trans = _transition_matrix(p_flip)

    def fit_flip_probability(self,
                             bit_sequences: Sequence[np.ndarray]) -> float:
        """Learn p_flip from example traffic (state-transition stats)."""
        flips = 0
        total = 0
        for bits in bit_sequences:
            arr = np.asarray(bits, dtype=np.int8)
            if arr.size < 2:
                continue
            flips += int(np.count_nonzero(np.diff(arr) != 0))
            total += arr.size - 1
        if total == 0:
            raise ConfigurationError(
                "need at least one sequence of length >= 2")
        p = min(max(flips / total, 1e-3), 1.0 - 1e-3)
        self.p_flip = p
        self._log_trans = _transition_matrix(p)
        return p

    def decode_states(self, observations: np.ndarray,
                      initial_state: Optional[int] = None) -> np.ndarray:
        """Most likely state sequence for projected observations.

        ``initial_state`` pins the first state (the anchor stage forces
        RISE at the frame start); when None, the physically valid start
        states RISE and HOLD_LOW (level was 0 before the stream) share
        the prior.
        """
        obs = np.asarray(observations, dtype=np.float64).ravel()
        if obs.size == 0:
            raise ConfigurationError("need at least one observation")
        sigma = self.sigma if self.sigma is not None \
            else estimate_sigma(obs)

        if self.banded:
            states = self._decode_states_banded(obs, sigma,
                                                initial_state)
            if states is not None:
                if self.stats is not None:
                    self.stats["viterbi_banded"] = (
                        self.stats.get("viterbi_banded", 0) + 1)
                return states
        if self.stats is not None:
            self.stats["viterbi_exact"] = (
                self.stats.get("viterbi_exact", 0) + 1)

        if initial_state is not None \
                and initial_state not in (RISE, FALL, HOLD_HIGH,
                                          HOLD_LOW):
            raise ConfigurationError(
                f"invalid initial state {initial_state}")
        lf = float(self._log_trans[RISE, FALL])       # log p_flip
        lh = float(self._log_trans[RISE, HOLD_HIGH])  # log (1 - p_flip)
        return kernels.viterbi_exact(
            obs, sigma, lf, lh,
            -1 if initial_state is None else int(initial_state))

    def _decode_states_banded(self, obs: np.ndarray, sigma: float,
                              initial_state: Optional[int]
                              ) -> Optional[np.ndarray]:
        """Thresholded state path when it is provably Viterbi-optimal.

        Returns None when optimality cannot be certified (the exact
        recursion must run).  The certificate: round each observation
        to its nearest emission mean in {-1, 0, +1}.  For any valid
        alternative path, the transition score differs from the
        thresholded path's only at slots whose mean *type* differs
        (edge vs hold — the transition into slot t is a flip iff the
        state at t is an edge state), and each such slot changes the
        transition score by at most ``swing = |log p_flip -
        log(1 - p_flip)|`` while losing at least ``|1 - 2|obs_t|| /
        (2 sigma^2)`` of emission score (the gap between the nearest
        and second-nearest mean).  So when every observation satisfies

            | |obs_t| - 0.5 | > sigma^2 * swing  (+ band_margin)

        every deviation from the thresholded path strictly lowers the
        total score, making it the unique optimum — provided the path
        is trellis-valid and starts in an admissible state; otherwise
        the optimum takes a different shape and we fall back.
        """
        band = sigma * sigma * abs(
            math.log(self.p_flip) - math.log(1.0 - self.p_flip))
        start_high = initial_state in (FALL, HOLD_HIGH)
        return kernels.viterbi_banded(
            obs, band + self.band_margin, start_high,
            -1 if initial_state is None else int(initial_state))

    def decode_bits(self, observations: np.ndarray,
                    initial_state: Optional[int] = None) -> np.ndarray:
        """Most likely bit sequence (level after each boundary)."""
        return BIT_OF_STATE[self.decode_states(observations,
                                               initial_state)]


def hard_decode_bits(observations: np.ndarray) -> np.ndarray:
    """Error-correction-free decode: threshold each slot independently.

    Rounds each observation to the nearest edge state and integrates the
    level, with no validity enforcement — the "Edge"-only ablation of
    Figure 9.  An (invalid) repeated rise simply keeps the level high.
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    states = np.minimum(np.maximum(np.rint(obs), -1),
                        1).astype(np.int8)
    # Forward-fill the level from the most recent non-hold state: the
    # level at t is 1 iff the last edge seen was a rise (level starts 0).
    edge_idx = np.where(states != 0, np.arange(states.size), -1)
    last_edge = np.maximum.accumulate(edge_idx)
    bits = np.where(last_edge >= 0,
                    states[np.maximum(last_edge, 0)] == 1,
                    False)
    return bits.astype(np.int8)


def edge_states_to_bits(states: Sequence[int]) -> np.ndarray:
    """Map a state-index sequence to the bit sequence it encodes."""
    arr = np.asarray(states, dtype=np.int8)
    if arr.size and (arr.min() < 0 or arr.max() > 3):
        raise ConfigurationError("state indices must be in 0..3")
    return BIT_OF_STATE[arr]


def bits_to_edge_states(bits: Sequence[int],
                        initial_level: int = 0) -> np.ndarray:
    """Inverse mapping: the valid state sequence that produces ``bits``."""
    arr = np.asarray(bits, dtype=np.int8)
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ConfigurationError("bits must be 0/1")
    if initial_level not in (0, 1):
        raise ConfigurationError("initial level must be 0 or 1")
    # The level entering slot t is simply the previous bit.
    prev = np.concatenate([[initial_level], arr[:-1]]).astype(np.int8)
    return np.where(arr == 1,
                    np.where(prev == 0, RISE, HOLD_HIGH),
                    np.where(prev == 1, FALL, HOLD_LOW)).astype(np.int8)


def is_valid_state_sequence(states: Sequence[int],
                            initial_level: int = 0) -> bool:
    """Check that a state sequence respects the trellis constraints."""
    level = initial_level
    for s in np.asarray(states, dtype=np.int8):
        if s == RISE:
            if level != 0:
                return False
            level = 1
        elif s == FALL:
            if level != 1:
                return False
            level = 0
        elif s == HOLD_HIGH:
            if level != 1:
                return False
        elif s == HOLD_LOW:
            if level != 0:
                return False
        else:
            return False
    return True
