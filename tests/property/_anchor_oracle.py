"""Loop-form oracle for the anchor prescreen.

:func:`resolve_prescreened` is the polarity-by-polarity form of
:func:`repro.core.anchor._resolve_prescreened`: it negates the whole
observation vector once per polarity, scores that polarity's
candidates, applies the scalar pre-start penalty one start at a time,
and stops before the second polarity once a perfect score is found.
The decoder's one-pass version must agree with it exactly.
"""

import numpy as np

from repro.core.anchor import (AssembledBits, _candidate_starts,
                               _header_match, _pre_start_penalty)
from repro.core.viterbi import RISE
from repro.errors import DecodeError


def resolve_prescreened(obs, header, dec, order):
    h = header.size
    best = None  # (score, flipped, start)
    for flipped in order:
        signed = -obs if flipped else obs
        starts = [int(s) for s in _candidate_starts(signed)
                  if signed.size - int(s) >= h]
        if not starts:
            continue
        seg = np.stack([signed[s:s + h] for s in starts])
        m = np.minimum(np.maximum(np.rint(seg), -1),
                       1).astype(np.int8)
        idx = np.where(m != 0, np.arange(h)[None, :], -1)
        last = np.maximum.accumulate(idx, axis=1)
        bits = np.where(
            last >= 0,
            np.take_along_axis(m, np.maximum(last, 0), axis=1) == 1,
            False).astype(np.int8)
        matches = np.count_nonzero(bits == header[None, :],
                                   axis=1) / header.size
        for i, start in enumerate(starts):
            score = float(matches[i]) \
                - _pre_start_penalty(signed, start)
            if best is None or score > best[0] or (
                    score == best[0]
                    and (flipped, start) < best[1:]):
                best = (score, flipped, start)
        if best is not None and best[0] >= 1.0:
            break
    if best is None:
        raise DecodeError(
            "no rising edge found in the stream; cannot locate the frame")
    _, flipped, start = best
    signed = -obs if flipped else obs
    bits = dec.decode_bits(signed[start:], initial_state=RISE)
    score = _header_match(bits, header) \
        - _pre_start_penalty(signed, start)
    return AssembledBits(bits=bits, start_slot=start,
                         flipped=flipped, header_score=score)
