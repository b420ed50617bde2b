#!/usr/bin/env python
"""Regenerate the golden decode digests (``decode_digests.json``).

The digests pin the decoder's *exact* output — every decoded stream's
bits, alignment, rate, collision flag and confidence, hashed with
SHA-256 over their raw bytes — for each decode entry point (cold
``LFDecoder``, warm ``SessionDecoder``, ``BatchDecoder``, and
``decode_chunked`` with and without a session) under each fidelity
mode (adaptive, ``force_full``).  A denser, noisier cold capture
(``dense/*``) drives the per-stream chain through its rarer branches:
collision checks that escalate past the planarity pre-gate yet end
single-tag, multilevel checks that escalate into a collinear split,
and a collision left unresolved.

``tests/integration/test_stage_equivalence.py`` compares fresh decodes
against the stored digests: any refactor of the decode path that is
claimed to be behavior-preserving must reproduce them bit-for-bit.

Regeneration is a deliberate act (an algorithm change that is *meant*
to alter output)::

    PYTHONPATH=src python tests/golden/generate_digests.py

The fixtures are tiny (fast profile, a few epochs) so the equivalence
test stays cheap enough for tier-1.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "decode_digests.json"


def _build_capture(n_tags: int, seed: int, duration_s: float,
                   profile=None, noise_std: float = 0.01):
    """One deterministic multi-tag epoch capture (fast profile)."""
    from repro.phy.channel import ChannelModel, random_coefficients
    from repro.reader.simulator import NetworkSimulator
    from repro.tags.lf_tag import LFTag
    from repro.types import SimulationProfile, TagConfig

    profile = profile or SimulationProfile.fast()
    gen = np.random.default_rng(seed)
    coeffs = random_coefficients(n_tags, rng=gen)
    channel = ChannelModel({k: coeffs[k] for k in range(n_tags)},
                           environment_offset=0.5 + 0.3j)
    tags = [LFTag(TagConfig(tag_id=k, bitrate_bps=10e3,
                            channel_coefficient=coeffs[k]),
                  profile=profile,
                  rng=np.random.default_rng(gen.integers(0, 2 ** 63)))
            for k in range(n_tags)]
    sim = NetworkSimulator(tags, channel, profile=profile,
                           noise_std=noise_std, rng=gen)
    return profile, sim, sim.run_epoch(duration_s)


def digest_result(result) -> str:
    """SHA-256 digest of an :class:`EpochResult`'s decoded streams.

    Streams are sorted by alignment before hashing so the digest is a
    function of *what* was decoded, not of recovery order; floats are
    hashed by their exact IEEE-754 bytes, so the digest only matches
    for bit-identical output.
    """
    h = hashlib.sha256()
    streams = sorted(result.streams,
                     key=lambda s: (s.offset_samples, s.period_samples,
                                    s.bits.tobytes()))
    h.update(np.int64(len(streams)).tobytes())
    for s in streams:
        h.update(np.asarray(s.bits, dtype=np.int8).tobytes())
        h.update(np.float64(s.offset_samples).tobytes())
        h.update(np.float64(s.period_samples).tobytes())
        h.update(np.float64(s.bitrate_bps).tobytes())
        h.update(b"\x01" if s.collided else b"\x00")
        h.update(np.complex128(s.edge_vector).tobytes())
        h.update(np.float64(s.confidence).tobytes())
    return h.hexdigest()


def compute_digests() -> dict:
    """Decode the fixed fixtures through every entry point."""
    from repro.core.engine import BatchDecoder
    from repro.core.fidelity import FidelityPolicy
    from repro.core.pipeline import LFDecoder, LFDecoderConfig
    from repro.core.session_decoder import SessionDecoder
    from repro.reader.batch import decode_chunked

    policies = {
        "adaptive": None,
        "force_full": FidelityPolicy(force_full=True),
    }
    digests: dict = {}

    profile, sim, capture = _build_capture(6, seed=11,
                                           duration_s=0.008)
    epochs = [capture] + [sim.run_epoch(0.008) for _ in range(2)]

    def config(policy):
        return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                               profile=profile, fidelity=policy)

    for name, policy in policies.items():
        decoder = LFDecoder(config(policy), rng=1)
        digests[f"cold/{name}"] = digest_result(
            decoder.decode_epoch(capture.trace))

        warm = SessionDecoder(config(policy), rng=1)
        results = warm.decode_epochs([e.trace for e in epochs])
        digests[f"session/{name}"] = "+".join(
            digest_result(r) for r in results)

    # 14 tags at three times the noise: cold escalations, collinear
    # splits and an unresolved collision (see the module docstring).
    dense_profile, _, dense = _build_capture(14, seed=2,
                                             duration_s=0.008,
                                             noise_std=0.03)
    for name, policy in policies.items():
        decoder = LFDecoder(
            LFDecoderConfig(candidate_bitrates_bps=[10e3],
                            profile=dense_profile, fidelity=policy),
            rng=1)
        digests[f"dense/{name}"] = digest_result(
            decoder.decode_epoch(dense.trace))

    # Batch decodes only vary by seed path, not by fidelity mode — one
    # adaptive digest per transport shape keeps the fixture fast.
    batch_serial = BatchDecoder(config(None), seed=3, max_workers=1)
    digests["batch/serial"] = "+".join(
        digest_result(r)
        for r in batch_serial.decode_epochs([e.trace for e in epochs]))
    batch_pool = BatchDecoder(config(None), seed=3, max_workers=2)
    digests["batch/pool"] = "+".join(
        digest_result(r)
        for r in batch_pool.decode_epochs([e.trace for e in epochs]))

    # One long continuous capture, chunk-decoded cold and with a warm
    # session threading state across the chunk boundary.
    profile2, _, long_capture = _build_capture(4, seed=23,
                                               duration_s=0.02)
    chunk = len(long_capture.trace) // 2 + 7
    cfg2 = LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=profile2)
    digests["chunked/cold"] = digest_result(
        decode_chunked(long_capture.trace, chunk, config=cfg2, seed=5,
                       max_workers=1))
    digests["chunked/session"] = digest_result(
        decode_chunked(long_capture.trace, chunk,
                       session=SessionDecoder(cfg2, rng=9)))
    return digests


def main() -> None:
    digests = compute_digests()
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
