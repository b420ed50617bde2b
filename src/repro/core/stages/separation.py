"""Separation stages (Sections 3.3–3.4 and the collinear extension).

:func:`decode_collided` is the parallelogram split of a detected
two-way collision (wide-guard re-extraction, lattice fit with every
warm hint the session offers, per-collider assembly);
:func:`decode_collinear` the 1-D scalar-lattice split for the
degenerate (anti)parallel case the parallelogram cannot see; and
:class:`SeparationStage` the stream-chain stage that projects the
scatter to scalar observations and runs the multilevel ladder
(fast-single skip → warm projection verify → dispersion pre-gate →
paired k-means) deciding whether the collinear split is needed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import ConfigurationError, DecodeError
from ..clustering import KMeansResult, kmeans
from ..separation import (_lattice_points, separate_collinear,
                          separate_two_way)
from ..streams import StreamTrack, read_grid_differentials
from .anchor import assemble_stream
from .context import DecodeContext
from .projection import looks_multilevel, project_single_scaled


def decode_collided(ctx: DecodeContext, track: StreamTrack,
                    tracker=None,
                    fits: Optional[Dict[int, KMeansResult]] = None,
                    basis_override: Optional[
                        Tuple[complex, complex]] = None):
    """Split a two-way collision and decode both tags."""
    cfg = ctx.config
    session = ctx.session
    # Wider guard: the two colliders' edges sit a few samples apart
    # once drift separates them, so exclude a larger transition zone.
    guard = (ctx.edge_detector.config.guard
             + cfg.collision_guard_extra)
    with ctx.stats.stage("extract"):
        diffs = read_grid_differentials(
            ctx.trace, track, ctx.edges, detector=ctx.edge_detector,
            guard_override=guard,
            window_override=ctx.refine_window(track),
            edge_positions=ctx.edge_positions)
    centroid_hint = basis_hint = None
    seeded = False
    if basis_override is not None:
        # Synthesized from two known tags' cached edge vectors:
        # both the k-means seed and the basis come for free.
        basis_hint = basis_override
        centroid_hint = _lattice_points(*basis_override)
    elif tracker is not None and tracker.arity >= 2:
        centroid_hint = tracker.collision_centroids
        basis_hint = tracker.basis
    elif (session is not None or ctx.fidelity.active) \
            and fits and 9 in fits:
        # The collision stage already fitted nine clusters on the
        # narrow-guard differentials; the wide-guard re-extraction
        # shifts points only slightly, so that fit seeds one Lloyd
        # restart.  A trapping seed falls through to the cold retry.
        centroid_hint = fits[9].centroids
        seeded = True
    with ctx.stats.stage("separate"):
        separation = separate_two_way(
            diffs, rng=ctx.rng,
            centroid_hint=centroid_hint,
            basis_hint=basis_hint,
            basis_tolerance=(session.config.basis_tolerance
                             if session is not None else 0.25))
        if centroid_hint is not None and not seeded:
            ctx.bump("kmeans_hits")
        if basis_hint is not None:
            ctx.bump("basis_hits" if separation.basis_cached
                     else "basis_misses")
    scale = max(abs(separation.e1), abs(separation.e2))
    if scale <= 0 or separation.lattice_error > 0.35 * scale:
        if seeded:
            # The within-epoch seed may have trapped Lloyd in a bad
            # optimum; retry cold before declaring a false positive.
            with ctx.stats.stage("separate"):
                separation = separate_two_way(diffs, rng=ctx.rng)
            scale = max(abs(separation.e1), abs(separation.e2))
    if scale <= 0 or separation.lattice_error > 0.35 * scale:
        raise DecodeError(
            f"collision lattice fit too poor "
            f"(error {separation.lattice_error:.3g} vs scale "
            f"{scale:.3g}); likely a false-positive collision")
    streams = []
    for column, edge_vector in ((0, separation.e1),
                                (1, separation.e2)):
        stream = assemble_stream(ctx, separation.coords[:, column],
                                 track, collided=True,
                                 edge_vector=edge_vector)
        if stream is not None:
            streams.append(stream)
    if streams and session is not None \
            and ctx.period_cacheable(track.period_samples):
        session.observe(tracker, track.period_samples,
                        track.offset_samples, diffs,
                        fits=fits, arity=2,
                        basis=(separation.e1, separation.e2),
                        collision_centroids=separation.centroids)
    return streams


def decode_collinear(ctx: DecodeContext, diffs: np.ndarray,
                     track: StreamTrack,
                     level_hint: Optional[np.ndarray] = None):
    """Attempt the 1-D scalar-lattice split of a collinear collision;
    both recovered frames must pass the header gate."""
    adaptive = ctx.fidelity.active
    try:
        with ctx.stats.stage("separate"):
            rng = ctx.track_rng(track) if adaptive else ctx.rng
            separation = separate_collinear(
                diffs, rng=rng, n_init=3 if adaptive else 6,
                init_levels=level_hint if adaptive else None)
    except (DecodeError, ConfigurationError):
        return []
    streams = []
    for column, edge_vector in ((0, separation.e1),
                                (1, separation.e2)):
        stream = assemble_stream(
            ctx, separation.coords[:, column].astype(np.float64),
            track, collided=True, edge_vector=edge_vector)
        if stream is not None:
            streams.append(stream)
    if len(streams) == 2:
        ctx.result.n_collisions_detected += 1
        ctx.result.n_collisions_resolved += 1
        return streams
    return []


class SeparationStage:
    """Project to scalar observations; split collinear collisions."""

    name = "separation"
    #: Self-timed into ``detect`` (multilevel ladder) and ``separate``
    #: (the collinear split), like the monolith it was extracted from.
    timing_key = None

    def run(self, ctx: DecodeContext) -> None:
        scope = ctx.stream
        session = ctx.session
        tracker = scope.tracker
        diffs = scope.diffs
        with ctx.stats.stage("separate"):
            observations, proj_scale = project_single_scaled(diffs)
        scope.observations = observations
        scope.proj_scale = proj_scale
        proj_fits: Dict[int, KMeansResult] = scope.proj_fits
        multilevel: Optional[bool] = None
        can_check = (ctx.config.enable_iq_separation
                     and diffs.size >= 20)
        if can_check and scope.fast_single:
            # The IQ-plane verify just re-confirmed last epoch's
            # single-tag geometry; a collinear collision onset would
            # have blown that inertia check, so the projection
            # re-verify is redundant.
            multilevel = False
        elif can_check and scope.trusted and tracker.arity == 1 \
                and 3 in tracker.proj_centroids \
                and 3 in tracker.proj_inertia_pp:
            # Fast path mirroring the collision check: the projection
            # was three-level last epoch; re-verify with one warm
            # Lloyd and skip the 9-cluster comparison.
            with ctx.stats.stage("detect"):
                three = kmeans(observations, 3, rng=ctx.rng,
                               init_centroids=tracker.proj_centroids[3])
                if session.warm_fit_blown(tracker.proj_inertia_pp,
                                          {3: three}, keys=(3,)):
                    scope.trusted = False
                    ctx.bump("kmeans_misses")
                    session.note_invalidation(tracker)
                else:
                    ctx.bump("kmeans_hits")
                    session.note_warm_success(tracker)
                    proj_fits[3] = three
                    multilevel = False
        pol = ctx.fidelity
        if multilevel is None and can_check and pol.active \
                and pol.dispersion_gate and not scope.trusted:
            # Dispersion pre-gate: a lone tag's projection sits on the
            # {-1, 0, +1} lattice up to noise; a cleanly trimodal
            # projection skips the paired k-means fits, while any real
            # collinear collision has off-lattice mass far above the
            # gate and escalates.
            with ctx.stats.stage("detect"):
                off = np.abs(observations
                             - np.clip(np.round(observations), -1, 1))
                frac = float(np.mean(off > pol.dispersion_eps))
                if frac <= pol.dispersion_fraction:
                    multilevel = False
                    ctx.stats.bump_fidelity("multilevel_fast")
                else:
                    ctx.stats.bump_fidelity("multilevel_escalations")
        if multilevel is None:
            proj_hints = (tracker.proj_hints() if scope.trusted
                          else None)
            ml_init = 2 if pol.active else 3
            with ctx.stats.stage("detect"):
                dec_rng = (ctx.track_rng(scope.track) if pol.active
                           else ctx.rng)
                multilevel = (can_check and looks_multilevel(
                    observations, dec_rng,
                    centroid_hints=proj_hints,
                    fits_out=proj_fits, n_init=ml_init))
                if proj_hints is not None and proj_fits:
                    if session.warm_fit_blown(tracker.proj_inertia_pp,
                                              proj_fits, keys=(3,)):
                        scope.trusted = False
                        ctx.bump("kmeans_misses")
                        session.note_invalidation(tracker)
                        scope.proj_fits = proj_fits = {}
                        multilevel = looks_multilevel(
                            observations, dec_rng,
                            fits_out=proj_fits, n_init=ml_init)
                    else:
                        ctx.bump("kmeans_hits")
                        session.note_warm_success(tracker)
        scope.multilevel = multilevel
        if multilevel:
            # A collision whose edge vectors are (anti)parallel never
            # registers as two-dimensional, but its projection carries
            # more than three levels; the scalar-lattice separator
            # handles this degenerate case (an extension beyond the
            # paper's parallelogram method).
            level_hint = None
            if pol.active and 9 in proj_fits:
                # The multilevel check just fitted nine levels on this
                # same projection (in normalized units); rescaled, they
                # warm-seed the separator's level fit in place of its
                # cold k-means++ fan-out.
                level_hint = (proj_fits[9].centroids.real
                              * proj_scale)
            streams = decode_collinear(ctx, diffs, scope.track,
                                       level_hint=level_hint)
            if streams:
                if session is not None \
                        and ctx.period_cacheable(
                            scope.track.period_samples):
                    session.observe(tracker if scope.trusted else None,
                                    scope.track.period_samples,
                                    scope.track.offset_samples, diffs,
                                    fits=scope.fits,
                                    proj_fits=proj_fits,
                                    arity=2)
                scope.finish(streams)
