"""Anchor-bit cluster disambiguation and frame assembly (Section 3.4).

K-means tells us *which* cluster a differential belongs to but not
whether that cluster is the rising or the falling edge — the sign of
the recovered edge vector is ambiguous.  Every frame therefore embeds a
single anchor bit at a known position in the header (Table 1); decoding
under both polarities and scoring the known header resolves the sign.

This module also locates the frame start within the stream's grid: the
track may begin before the tag's first edge, so slot 0 of the track is
not necessarily bit 0 of the frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import constants
from ..errors import ConfigurationError, DecodeError
from ..tags.base import build_frame
from .viterbi import RISE, ViterbiDecoder, hard_decode_bits


@dataclass
class AssembledBits:
    """Decoded frame bits plus the alignment metadata."""

    bits: np.ndarray
    start_slot: int
    flipped: bool
    header_score: float


@functools.lru_cache(maxsize=16)
def expected_header(preamble_bits: int = constants.PREAMBLE_BITS,
                    anchor_bit: int = constants.ANCHOR_BIT) -> np.ndarray:
    """The known header bits every frame starts with.

    Built once per (preamble, anchor) pair and shared, so the returned
    array is read-only.
    """
    header = build_frame(np.empty(0, dtype=np.int8),
                         preamble_bits=preamble_bits,
                         anchor_bit=anchor_bit)
    header.setflags(write=False)
    return header


def _header_match(bits: np.ndarray, header: np.ndarray) -> float:
    """Fraction of header bits matched at the start of ``bits``."""
    n = min(bits.size, header.size)
    if n == 0:
        return 0.0
    return float(np.count_nonzero(bits[:n] == header[:n])) / header.size


def _candidate_starts(observations: np.ndarray, threshold: float = 0.5,
                      max_candidates: int = 3) -> np.ndarray:
    """Earliest slots whose observation looks like a rising edge."""
    rises = np.flatnonzero(observations > threshold)
    return rises[:max_candidates]


def _pre_start_penalty(observations: np.ndarray, start: int,
                       lookback: int = 2, threshold: float = 0.5) -> float:
    """Penalty for edge activity just before a candidate frame start.

    A genuine frame is preceded by silence (the tag had not fired yet),
    while the classic false lock — the alternating preamble read
    sign-flipped and one slot late — always leaves a strong edge in the
    slot before its candidate start.  The penalty disambiguates the two
    even when both match the header bits perfectly.
    """
    lo = max(start - lookback, 0)
    if lo >= start:
        return 0.0
    if np.any(np.abs(observations[lo:start]) > threshold):
        return 0.5
    return 0.0


def _pre_start_penalties(observations: np.ndarray, starts: np.ndarray,
                         lookback: int = 2,
                         threshold: float = 0.5) -> np.ndarray:
    """:func:`_pre_start_penalty` for many candidate starts at once.

    It reads only ``|observations|``, so one call serves both
    polarities' candidates.
    """
    back = starts[:, None] - np.arange(1, lookback + 1)[None, :]
    loud = (back >= 0) & (np.abs(observations[np.maximum(back, 0)])
                          > threshold)
    return np.where(loud.any(axis=1), 0.5, 0.0)


def resolve_polarity(observations: np.ndarray,
                     preamble_bits: int = constants.PREAMBLE_BITS,
                     anchor_bit: int = constants.ANCHOR_BIT,
                     decoder: Optional[ViterbiDecoder] = None,
                     use_viterbi: bool = True,
                     flipped_hint: Optional[bool] = None,
                     prescreen: bool = False) -> AssembledBits:
    """Decode a stream's projected observations into frame bits.

    Tries both polarities and up to three candidate frame-start slots
    per polarity; each candidate is decoded (Viterbi by default, hard
    threshold for the no-error-correction ablation) and scored against
    the known header.  The best-scoring assembly wins; ties prefer the
    earlier start and the first-tried polarity.

    ``flipped_hint`` reorders the polarity search (hinted sign first) —
    a correct hint hits the perfect-header early exit without ever
    decoding the mirror image, a wrong one merely restores the cold
    two-polarity cost.  The hint never changes which assembly wins.

    ``prescreen=True`` scores each candidate on a cheap hard-threshold
    decode of the header slots and runs the full-length Viterbi only on
    the winner.  The returned ``header_score`` always comes
    from the full decode, so the pipeline's header acceptance gate sees
    the same evidence either way — prescreening can only change *which*
    candidate gets the full decode, a choice that matters exactly for
    frames whose header is too corrupt to pass the gate.
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    if obs.size == 0:
        raise ConfigurationError("need at least one observation")
    header = expected_header(preamble_bits, anchor_bit)
    dec = decoder or ViterbiDecoder()

    order = (False, True) if flipped_hint is None \
        else (bool(flipped_hint), not flipped_hint)
    if prescreen and use_viterbi:
        return _resolve_prescreened(obs, header, dec, order)
    best: Optional[AssembledBits] = None
    for flipped in order:
        signed = -obs if flipped else obs
        for start in _candidate_starts(signed):
            segment = signed[start:]
            if segment.size < header.size:
                continue
            if use_viterbi:
                bits = dec.decode_bits(segment, initial_state=RISE)
            else:
                bits = hard_decode_bits(segment)
            score = _header_match(bits, header) \
                - _pre_start_penalty(signed, int(start))
            candidate = AssembledBits(bits=bits, start_slot=int(start),
                                      flipped=flipped, header_score=score)
            # The tie-break is ordering-independent (unflipped, then
            # earlier start) so a polarity hint cannot change which
            # assembly wins, only how fast it is found.
            if best is None or score > best.header_score or (
                    score == best.header_score
                    and (candidate.flipped, candidate.start_slot)
                    < (best.flipped, best.start_slot)):
                best = candidate
            # A perfect header match cannot be beaten (score <= 1.0 and
            # later candidates only win strictly), so stop searching.
            if best.header_score >= 1.0:
                return best
    if best is None:
        raise DecodeError(
            "no rising edge found in the stream; cannot locate the frame")
    return best


def _resolve_prescreened(obs: np.ndarray, header: np.ndarray,
                         dec: ViterbiDecoder,
                         order) -> AssembledBits:
    """Hard-decode-score every candidate, full-decode only the winner.

    The ranking pass thresholds the header slots directly instead of
    running a prefix Viterbi: with symmetric bit priors the Viterbi
    per-slot decisions over a clean header agree with the hard
    threshold, and candidates that disagree are exactly the corrupt
    ones whose full decode would fail the acceptance gate anyway.

    Both polarities' candidates (at most three each) are scored in one
    stacked hard decode; a flipped candidate's header window is the
    negated window of ``obs``.  The winner is then picked by a scalar
    pass over those few scores that replays the per-polarity search:
    ``order`` decides which polarity is searched first, a perfect
    score ends the search before the second one, and ties prefer the
    unflipped polarity, then the earlier start.
    """
    h = header.size
    per_polarity = {}
    for flipped in (False, True):
        starts = _candidate_starts(-obs if flipped else obs)
        per_polarity[flipped] = starts[starts <= obs.size - h]
    n_plain = per_polarity[False].size
    starts = np.concatenate([per_polarity[False], per_polarity[True]])
    if starts.size == 0:
        raise DecodeError(
            "no rising edge found in the stream; cannot locate the frame")
    # One struct-of-arrays hard decode over every candidate: the
    # header windows stack into an (S, h) matrix and
    # threshold/forward-fill in one pass.
    seg = obs[starts[:, None] + np.arange(h)[None, :]]
    np.negative(seg[n_plain:], out=seg[n_plain:])
    m = np.minimum(np.maximum(np.rint(seg), -1), 1).astype(np.int8)
    idx = np.where(m != 0, np.arange(h)[None, :], -1)
    last = np.maximum.accumulate(idx, axis=1)
    bits = np.where(
        last >= 0,
        np.take_along_axis(m, np.maximum(last, 0), axis=1) == 1,
        False).astype(np.int8)
    matches = np.count_nonzero(bits == header[None, :],
                               axis=1) / header.size
    penalties = _pre_start_penalties(obs, starts)
    scores = (matches - penalties).tolist()
    rows = {False: range(n_plain), True: range(n_plain, starts.size)}
    best = None  # (score, flipped, start, row)
    for flipped in order:
        for i in rows[flipped]:
            score, start = scores[i], int(starts[i])
            if best is None or score > best[0] or (
                    score == best[0]
                    and (flipped, start) < best[1:3]):
                best = (score, flipped, start, i)
        if best is not None and best[0] >= 1.0:
            break
    _, flipped, start, i = best
    bits = dec.decode_bits(-obs[start:] if flipped else obs[start:],
                           initial_state=RISE)
    score = _header_match(bits, header) - float(penalties[i])
    return AssembledBits(bits=bits, start_slot=start,
                         flipped=flipped, header_score=score)


def assemble_bits(observations: np.ndarray,
                  use_viterbi: bool = True,
                  decoder: Optional[ViterbiDecoder] = None,
                  preamble_bits: int = constants.PREAMBLE_BITS,
                  anchor_bit: int = constants.ANCHOR_BIT,
                  min_header_score: float = 0.0,
                  flipped_hint: Optional[bool] = None,
                  prescreen: bool = False) -> AssembledBits:
    """Polarity-resolve and decode, optionally rejecting weak frames.

    ``min_header_score`` lets the pipeline discard assemblies whose
    header match is too poor to be a genuine frame (spurious streams
    surviving the fold filter).
    """
    assembled = resolve_polarity(observations,
                                 preamble_bits=preamble_bits,
                                 anchor_bit=anchor_bit,
                                 decoder=decoder,
                                 use_viterbi=use_viterbi,
                                 flipped_hint=flipped_hint,
                                 prescreen=prescreen)
    if assembled.header_score < min_header_score:
        raise DecodeError(
            f"header score {assembled.header_score:.2f} below the "
            f"acceptance threshold {min_header_score:.2f}")
    return assembled
