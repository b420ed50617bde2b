"""Collision-detection stage (Section 3.3).

Decides whether a stream's IQ differential scatter is one tag or a
collision, using every warm shortcut the session offers before paying
for the cold 3-vs-9 k-means fan-out:

1. a matched single-tag tracker re-verifies with one planarity check
   plus one warm Lloyd restart (skipping the fan-out entirely);
2. an unmatched two-dimensional scatter is tested against *pairs* of
   known tags' cached edge vectors (a fresh collision between known
   tags is warm even though the pairing re-randomizes every epoch);
3. otherwise the full detector runs (fidelity-gated, see
   :mod:`repro.core.fidelity`), with warm centroid hints verified by
   the inertia-blowup guard and invalidated on mismatch.

A detected two-way collision is handed to the separation module; an
unresolvable one records a :class:`~repro.types.StreamFault` with a
diagnostic collider count and falls through so the strongest collider
may still be salvaged as a single stream by the later stages.
"""

from __future__ import annotations

import numpy as np

from ...errors import (CollisionUnresolvableError, ConfigurationError,
                       DecodeError)
from ...types import StreamFault
from ..clustering import kmeans
from ..collision import (CollisionReport, detect_collision,
                         planarity_and_threshold)
from .context import DecodeContext
from .projection import hold_cluster_noise
from .separation import decode_collided


def _diagnose_colliders(diffs: np.ndarray,
                        report: CollisionReport) -> int:
    """Best-effort collider count for an unresolved collision.

    Re-runs collision detection with the cluster-count sweep extended
    to 27 (= 3 colliders), which the decode path never tries because
    nothing past 2-way is separable anyway.  The sweep uses its own
    fixed-seed RNG so this diagnostic never perturbs the decoder's
    random stream — clean decodes stay bit-identical whether or not a
    failure path ran.
    """
    try:
        diag = detect_collision(diffs, candidates=(3, 9, 27),
                                rng=np.random.default_rng(0))
    except Exception:  # noqa: BLE001 — diagnostics must not raise
        return report.estimated_colliders
    return max(diag.estimated_colliders, report.estimated_colliders)


class CollisionStage:
    """Classify the stream's scatter; resolve two-way collisions."""

    name = "collision"
    timing_key = None  # times its k-means work into ``detect``

    def run(self, ctx: DecodeContext) -> None:
        scope = ctx.stream
        session = ctx.session
        diffs = scope.diffs
        tracker = scope.tracker
        if not (ctx.config.enable_iq_separation and diffs.size >= 9):
            return
        with ctx.stats.stage("detect"):
            noise_scale = hold_cluster_noise(diffs)
        report = None
        if scope.trusted and tracker.arity == 1 \
                and 3 in tracker.centroids \
                and 3 in tracker.inertia_pp:
            # Fast path: the tracker saw a single tag here last
            # epoch.  Planarity (the same statistic the full
            # detector gates on) must still look one-dimensional —
            # a weak new collider can fatten the scatter without
            # blowing the k-means inertia — and then one warm Lloyd
            # restart of the 3-cluster model verifies the cluster
            # structure, skipping the 9-cluster fan-out entirely.
            with ctx.stats.stage("detect"):
                planarity, threshold = planarity_and_threshold(
                    diffs, noise_scale=noise_scale)
                if planarity > threshold:
                    # The tracked tag is likely inside a fresh
                    # collision now: release the tracker so pair
                    # synthesis may claim it as a constituent.
                    tracker.matched = False
                    scope.tracker = tracker = None
                    scope.trusted = False
                    ctx.bump("kmeans_misses")
                else:
                    three = kmeans(diffs.ravel(), 3, rng=ctx.rng,
                                   init_centroids=tracker.centroids[3])
                    if session.warm_fit_blown(tracker.inertia_pp,
                                              {3: three}, keys=(3,)):
                        scope.trusted = False
                        ctx.bump("kmeans_misses")
                        session.note_invalidation(tracker)
                    else:
                        ctx.bump("kmeans_hits")
                        session.note_warm_success(tracker)
                        scope.fits[3] = three
                        scope.fast_single = True
                        report = CollisionReport(
                            is_collision=False, n_clusters=3,
                            planarity=planarity,
                            kmeans=three)
        if report is None and session is not None \
                and (tracker is None or not scope.trusted):
            # The stream matches no cached state directly — but a
            # *new* collision between two known tags is still warm:
            # its lattice basis is the constituents' cached edge
            # vectors (collision pairings re-randomize each epoch,
            # the channel geometry does not).
            with ctx.stats.stage("detect"):
                synth = session.synthesize_pair(diffs)
            if synth is not None:
                pair_a, pair_b = synth
                try:
                    streams = decode_collided(
                        ctx, scope.track,
                        basis_override=(pair_a.edge_vector,
                                        pair_b.edge_vector))
                except (DecodeError, ConfigurationError):
                    streams = []
                if streams:
                    session.consume_pair(pair_a, pair_b)
                    ctx.result.n_collisions_detected += 1
                    ctx.result.n_collisions_resolved += 1
                    scope.finish(streams)
                    return
        if report is None:
            hints = (tracker.centroid_hints()
                     if scope.trusted and tracker.arity >= 2 else None)
            # A matched single-tag tracker that lacks cached
            # centroids (fresh tracker, invalidated cache) still
            # vouches for the stream's geometry: the planarity
            # pre-gate runs with its relaxed warm margin.
            warm_vouched = (scope.trusted and tracker is not None
                            and tracker.arity == 1)
            with ctx.stats.stage("detect"):
                report = detect_collision(
                    diffs, noise_scale=noise_scale,
                    rng=ctx.rng, centroid_hints=hints,
                    fits_out=scope.fits, policy=ctx.fidelity,
                    stats=ctx.stats.fidelity, warm=warm_vouched,
                    cache_fits=session is not None)
                if hints is not None:
                    if session.warm_fit_blown(tracker.inertia_pp,
                                              scope.fits, keys=(9,)):
                        # The cached centroids no longer explain
                        # this stream (moved tag or wrong tracker):
                        # rerun the cold fan-out.
                        scope.trusted = False
                        ctx.bump("kmeans_misses")
                        session.note_invalidation(tracker)
                        scope.fits = {}
                        report = detect_collision(
                            diffs, noise_scale=noise_scale,
                            rng=ctx.rng, fits_out=scope.fits,
                            policy=ctx.fidelity,
                            stats=ctx.stats.fidelity)
                    else:
                        ctx.bump("kmeans_hits")
                        session.note_warm_success(tracker)
        scope.report = report
        if report.is_collision:
            ctx.result.n_collisions_detected += 1
            if report.estimated_colliders <= 2:
                try:
                    streams = decode_collided(
                        ctx, scope.track,
                        tracker=tracker if scope.trusted else None,
                        fits=scope.fits)
                except (DecodeError, ConfigurationError):
                    streams = []
                if streams:
                    ctx.result.n_collisions_resolved += 1
                    scope.finish(streams)
                    return
            # Separation failed or was never attempted (>2-way):
            # report the unresolved collision with a diagnostic
            # collider estimate, then fall through to the remaining
            # stages to salvage the strongest collider as a single
            # stream — the header gate drops it again if the
            # contamination is too heavy.
            with ctx.stats.stage("detect"):
                n_colliders = _diagnose_colliders(diffs, report)
            error = CollisionUnresolvableError(n_colliders)
            ctx.stats.note_fault(StreamFault(
                offset_samples=scope.track.offset_samples,
                period_samples=scope.track.period_samples,
                stage="separate",
                error_type=type(error).__name__,
                message=str(error),
                n_colliders=n_colliders,
                expected=False))
