"""K-means clustering in the IQ plane with cluster-count selection.

The collision detector (Section 3.3) needs to decide whether a stream's
edge differentials form 3 clusters (one tag: rise/fall/hold) or 3^k
clusters (k colliding tags).  This module provides a small, dependency-
free k-means (k-means++ seeding, multiple restarts) plus a BIC-style
model selection over candidate cluster counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..utils.rng import SeedLike, make_rng
from . import kernels
from .fidelity import FidelityPolicy


@dataclass
class KMeansResult:
    """Outcome of one k-means fit on complex points."""

    centroids: np.ndarray      # complex (k,)
    labels: np.ndarray         # int (n,)
    inertia: float             # sum of squared distances to centroids

    @property
    def k(self) -> int:
        return int(self.centroids.size)

    def cluster_sizes(self) -> np.ndarray:
        """Number of points assigned to each centroid."""
        return np.bincount(self.labels, minlength=self.k)


def _kmeans_pp_init(points: np.ndarray, k: int, n_init: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding for ``n_init`` restarts at once.

    The RNG values are drawn restart-by-restart up front (the same
    stream a serial seeding loop would consume: one integer for the
    first centroid, then one uniform per greedy step), after which the
    k-1 greedy steps run batched across all restarts.  Each step is
    inverse-CDF sampling, mirroring ``Generator.choice(p=probs)`` (one
    uniform draw + a cumulative-sum threshold) without its O(n) input
    validation.

    Real (1-D) points take a real path: it drops the squared zero
    imaginary gaps a complex cast would add, which are exact ``+0.0``
    terms, so the seeds and the draws match the complex path's.
    """
    n = points.size
    real = not np.iscomplexobj(points)
    first = np.empty(n_init, dtype=np.int64)
    us = np.empty((n_init, max(k - 1, 0)))
    for r in range(n_init):
        first[r] = rng.integers(0, n)
        # One vectorized draw consumes the identical generator stream
        # as k-1 scalar ``rng.random()`` calls (each double is one
        # 64-bit draw), without k-1 Python round-trips.
        us[r, :] = rng.random(k - 1)

    def _gap2(idx: np.ndarray) -> np.ndarray:
        if real:
            return (points[None, :] - points[idx][:, None]) ** 2
        pr, pi = points.real, points.imag
        return ((pr[None, :] - pr[idx][:, None]) ** 2
                + (pi[None, :] - pi[idx][:, None]) ** 2)

    cents = np.empty((n_init, k), dtype=points.dtype)
    cents[:, 0] = points[first]
    dist2 = _gap2(first)
    for j in range(1, k):
        cdf = np.cumsum(dist2, axis=1)
        # Degenerate rows (every point already on a centroid) have an
        # all-zero cdf and pick the last point, which just duplicates
        # an existing centroid — same outcome as any other pick.
        targets = us[:, j - 1] * cdf[:, -1]
        picks = np.minimum((cdf <= targets[:, None]).sum(axis=1), n - 1)
        cents[:, j] = points[picks]
        np.minimum(dist2, _gap2(picks), out=dist2)
    return cents


def kmeans(points: np.ndarray, k: int, rng: SeedLike = None,
           n_init: int = 4, max_iter: int = 100,
           tol: float = 1e-10,
           init_centroids: Optional[np.ndarray] = None,
           bounded_min_points: int = 1024) -> KMeansResult:
    """Lloyd's algorithm with k-means++ restarts.

    Complex points cluster in the IQ plane; real points (a 1-D
    projection) take the real-arithmetic path of
    :func:`repro.core.kernels.lloyd_batched`, whose fit equals the one
    a complex cast would give.

    ``init_centroids``, when given, is a length-``k`` array of
    prior centroids (e.g. a tracked stream's fit from the previous
    epoch).  It replaces the k-means++ restart fan-out with a *single*
    warm restart from those centroids — the cross-epoch fast path of
    :mod:`repro.core.session` — and leaves the RNG untouched.  Warm
    restarts on at least ``bounded_min_points`` points run the
    bound-based Lloyd iteration (:func:`kmeans_bounded`), which
    converges to the identical fit while skipping most distance
    computations.
    """
    pts = np.asarray(points)
    pts = pts.astype(np.complex128 if np.iscomplexobj(pts) else np.float64,
                     copy=False).ravel()
    if pts.size == 0:
        raise ConfigurationError("cannot cluster zero points")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if k > pts.size:
        raise ConfigurationError(
            f"k={k} exceeds the number of points ({pts.size})")
    if n_init < 1:
        raise ConfigurationError("n_init must be >= 1")
    if init_centroids is not None:
        warm = np.asarray(init_centroids).ravel()
        warm = (warm if np.iscomplexobj(pts) else warm.real).astype(
            pts.dtype)
        if warm.size != k:
            raise ConfigurationError(
                f"init_centroids has {warm.size} centroids, need {k}")
        n_init = 1
        # A single warm restart on a large point set is the bound-based
        # sweet spot: Hamerly pruning converges identically to the
        # brute-force iteration (property-tested) while skipping most
        # distance computations once assignments settle.
        if pts.size >= bounded_min_points and k > 1:
            return kmeans_bounded(pts, k, warm, max_iter=max_iter, tol=tol)
    gen = make_rng(rng)
    if init_centroids is not None:
        cents = warm[None, :].copy()
    else:
        cents = _kmeans_pp_init(pts, k, n_init, gen)
    return lloyd_fit(pts, cents, max_iter=max_iter, tol=tol)


def lloyd_fit(pts: np.ndarray, cents: np.ndarray,
              max_iter: int = 100,
              tol: float = 1e-10) -> KMeansResult:
    """Batched Lloyd iteration over a stack of restarts.

    All restarts run in one batched iteration (an (R, k) centroid
    stack); each restart follows exactly the trajectory it would
    follow alone, and the best restart by final inertia wins.  The
    arithmetic lives in :func:`repro.core.kernels.lloyd_batched`.
    """
    centroids, labels, inertia = kernels.lloyd_batched(
        pts, cents, max_iter=max_iter, tol=tol)
    return KMeansResult(centroids=centroids, labels=labels,
                        inertia=inertia)


def kmeans_bounded(points: np.ndarray, k: int,
                   init_centroids: np.ndarray,
                   max_iter: int = 100, tol: float = 1e-10,
                   stats: Optional[Dict[str, int]] = None
                   ) -> KMeansResult:
    """Single-restart Lloyd iteration with Hamerly distance bounds.

    Follows the exact assignment trajectory of the brute-force
    iteration (:func:`lloyd_fit` with one restart) but maintains
    per-point bounds — an upper bound on the distance to the assigned
    centroid and a lower bound on the distance to every other — so most
    points skip the full distance computation on most iterations.  A
    point's exact distances are recomputed only when the bounds cross
    (``upper >= lower``, inclusive so argmin first-index tie-breaking
    matches the reference), which restores the invariant that every
    point is labelled by true nearest centroid.  Centroid updates,
    empty-cluster reseeding, the convergence test and the final
    assignment reuse the reference formulas verbatim, so the returned
    fit is bit-identical to the brute-force warm restart.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size == 0:
        raise ConfigurationError("cannot cluster zero points")
    cents = np.asarray(init_centroids, dtype=np.complex128).ravel().copy()
    if cents.size != k:
        raise ConfigurationError(
            f"init_centroids has {cents.size} centroids, need {k}")
    if k > pts.size:
        raise ConfigurationError(
            f"k={k} exceeds the number of points ({pts.size})")
    if stats is not None:
        stats["bounded_lloyd_runs"] = stats.get("bounded_lloyd_runs", 0) + 1
    centroids, labels, inertia = kernels.bounded_lloyd(
        pts, cents, max_iter=max_iter, tol=tol)
    return KMeansResult(centroids=centroids, labels=labels,
                        inertia=inertia)


def bic_score(result: KMeansResult, n_points: int) -> float:
    """BIC-style score of a k-means fit (lower is better).

    Treats the fit as a spherical Gaussian mixture: the data term is
    ``n * log(inertia / n)`` and the complexity term charges three
    parameters (2-D mean + shared variance share) per cluster.  Kept as
    a diagnostic; cluster-count selection uses the more robust inertia
    improvement ratio (k-means splits even pure Gaussian noise well
    enough to fool spherical BIC).
    """
    if n_points < 1:
        raise ConfigurationError("n_points must be >= 1")
    variance = max(result.inertia / n_points, 1e-300)
    data_term = n_points * math.log(variance)
    complexity = 3.0 * result.k * math.log(n_points)
    return data_term + complexity


def select_cluster_count(points: np.ndarray,
                         candidates: Sequence[int] = (3, 9),
                         rng: SeedLike = None,
                         n_init: int = 4,
                         improvement_factor: float = 4.0,
                         centroid_hints: Optional[
                             Dict[int, np.ndarray]] = None,
                         fits_out: Optional[
                             Dict[int, KMeansResult]] = None,
                         policy: Optional[FidelityPolicy] = None,
                         stats: Optional[Dict[str, int]] = None
                         ) -> KMeansResult:
    """Pick the cluster count by inertia-improvement ratio.

    Candidates are tried in increasing order; a larger k is accepted
    only when it shrinks the within-cluster inertia by at least
    ``improvement_factor`` over the current best.  Splitting an
    unstructured (noise-limited) fit only buys a factor ~k_ratio, so a
    threshold of 4 between k=3 and k=9 separates genuine collision
    lattices (typically >8x improvement) from over-fitting noise.

    ``centroid_hints`` maps a candidate ``k`` to prior centroids for it
    (a tracked stream's previous-epoch fit); any hinted candidate runs
    as a single warm Lloyd restart instead of the k-means++ fan-out.
    ``fits_out``, when given, is filled with every candidate's fit so a
    session cache can persist the centroids for the next epoch.

    With an *active* ``policy`` (see :class:`FidelityPolicy`) the sweep
    runs adaptively: k-means++ seeding is shared across the candidate
    ks (each smaller k seeds from a prefix of the largest candidate's
    seeds), model selection runs on a capped deterministic subsample,
    and the full point set is refitted only when the inertia-ratio
    verdict lands inside the policy's confidence gap.  ``stats``
    accumulates the escalation counters.  A ``force_full`` (or absent)
    policy runs the legacy sweep, consuming the identical RNG stream.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if not candidates:
        raise ConfigurationError("need at least one candidate k")
    if improvement_factor <= 1.0:
        raise ConfigurationError("improvement_factor must be > 1")
    gen = make_rng(rng)
    feasible = sorted(k for k in set(candidates)
                      if 1 <= k <= pts.size)
    if not feasible:
        raise ConfigurationError(
            f"no feasible candidate in {list(candidates)} for "
            f"{pts.size} points")
    hints = centroid_hints or {}

    if policy is not None and policy.active and len(feasible) > 1:
        return _select_adaptive(pts, feasible, gen, n_init,
                                improvement_factor, hints, fits_out,
                                policy, stats)

    def _fit(k: int) -> KMeansResult:
        result = kmeans(pts, k, rng=gen, n_init=n_init,
                        init_centroids=hints.get(k))
        if fits_out is not None:
            fits_out[k] = result
        return result

    best = _fit(feasible[0])
    for k in feasible[1:]:
        candidate = _fit(k)
        floor = max(candidate.inertia, 1e-300)
        if best.inertia / floor >= improvement_factor:
            best = candidate
    return best


def sweep_subsamples(n_points: int, policy: FidelityPolicy) -> bool:
    """True when an adaptive sweep over ``n_points`` runs on a subsample."""
    return bool(policy.subsample_cap) and n_points > policy.subsample_cap


def shared_seeds(pts: np.ndarray, k_max: int, gen: np.random.Generator,
                 n_init: int = 4) -> np.ndarray:
    """The adaptive sweep's one k-means++ fan-out, at ``k_max`` clusters.

    The restart count is narrowed to two: the collision verdict reads
    the inertia *ratio* between candidate ks (robust to a slightly
    sub-optimal fit on both sides), not the absolute fit quality the
    legacy fan-out polishes for.
    """
    return _kmeans_pp_init(pts, k_max, min(n_init, 2), gen)


def _select_adaptive(pts: np.ndarray, feasible: List[int],
                     gen: np.random.Generator, n_init: int,
                     improvement_factor: float,
                     hints: Dict[int, np.ndarray],
                     fits_out: Optional[Dict[int, KMeansResult]],
                     policy: FidelityPolicy,
                     stats: Optional[Dict[str, int]]
                     ) -> KMeansResult:
    """Subsampled, shared-seeded candidate-k sweep with escalation.

    The largest candidate k is seeded once with k-means++; every
    smaller candidate reuses a prefix of those seeds (a k-means++
    prefix is itself a valid k-means++ draw, since seeding is greedy
    and incremental), so the sweep pays one seeding fan-out instead of
    one per candidate.  When the point set exceeds the policy's
    subsample cap, the sweep runs on a deterministic seeded subsample
    and the inertia-ratio verdict is trusted only when its log-margin
    from the acceptance threshold exceeds ``log(confidence_gap)``;
    otherwise the legacy full-set sweep runs.  A trusted subsample
    verdict still refits the chosen k on the full set (warm-started
    from the subsample centroids) so the returned labels cover every
    point.
    """
    cap = policy.subsample_cap
    subsampled = sweep_subsamples(pts.size, policy)
    if subsampled:
        draw = np.random.default_rng(policy.subsample_seed)
        sub_idx = draw.choice(pts.size, size=cap, replace=False)
        sub_idx.sort()
        sub = pts[sub_idx]
        feasible = [k for k in feasible if k <= sub.size]
    else:
        sub = pts

    # One k-means++ fan-out at the largest candidate seeds the whole
    # sweep; smaller candidates take seed prefixes.
    shared = shared_seeds(sub, feasible[-1], gen, n_init)

    def _fit_sub(k: int) -> KMeansResult:
        hint = hints.get(k)
        if hint is not None and not subsampled:
            seeds = np.asarray(hint, dtype=np.complex128).ravel()
            if seeds.size == k:
                return lloyd_fit(sub, seeds[None, :])
        return lloyd_fit(sub, shared[:, :k])

    fits = {k: _fit_sub(k) for k in feasible}
    best_k = feasible[0]
    confident = True
    log_gap = math.log(policy.confidence_gap)
    for k in feasible[1:]:
        floor = max(fits[k].inertia, 1e-300)
        ratio = max(fits[best_k].inertia, 1e-300) / floor
        if subsampled:
            margin = abs(math.log(ratio) - math.log(improvement_factor))
            if margin < log_gap:
                confident = False
                break
        if ratio >= improvement_factor:
            best_k = k

    if not confident:
        # Low-confidence subsample verdict: escalate to the legacy
        # full-set sweep (cold k-means++ restarts on every point).
        if stats is not None:
            stats["subsample_escalations"] = (
                stats.get("subsample_escalations", 0) + 1)
        best = None
        for k in feasible:
            result = kmeans(pts, k, rng=gen, n_init=n_init,
                            init_centroids=hints.get(k))
            if fits_out is not None:
                fits_out[k] = result
            if best is None:
                best = result
            else:
                floor = max(result.inertia, 1e-300)
                if best.inertia / floor >= improvement_factor:
                    best = result
        return best

    if subsampled:
        if stats is not None:
            stats["subsample_fast"] = stats.get("subsample_fast", 0) + 1
        # The verdict is trusted; the chosen k still needs full-set
        # labels, so refit warm from the subsample centroids.
        if pts.size >= policy.bounded_min_points and best_k > 1:
            best = kmeans_bounded(pts, best_k, fits[best_k].centroids,
                                  stats=stats)
        else:
            best = lloyd_fit(pts, fits[best_k].centroids[None, :])
        fits[best_k] = best
    else:
        best = fits[best_k]
    if fits_out is not None:
        fits_out.update(fits)
    return best
