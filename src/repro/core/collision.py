"""IQ cluster-based collision detection (Section 3.3).

For a single tag, grid differentials take one of three values
{0, +e, -e} — three clusters on a *line* through the origin.  When k
tags collide on the same grid, each slot's differential is a lattice
combination a1*e1 + ... + ak*ek with ai in {-1, 0, +1}, giving 3^k
clusters that span a k-dimensional arrangement in the IQ plane.

Detection therefore combines two signals:

* model selection over cluster counts (3 vs 9), and
* planarity: a single tag's differentials are collinear with the
  origin, a two-way collision is genuinely two-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..utils.rng import SeedLike
from .clustering import KMeansResult, kmeans, select_cluster_count
from .fidelity import FidelityPolicy


@dataclass
class CollisionReport:
    """Outcome of collision analysis for one stream's differentials.

    ``kmeans`` is ``None`` only on the adaptive pre-gate fast path of a
    cold (sessionless) decode, where the verdict is settled by
    planarity alone and no consumer needs the cluster fit.
    """

    is_collision: bool
    n_clusters: int
    planarity: float           # minor/major axis ratio of the scatter
    kmeans: Optional[KMeansResult]

    @property
    def estimated_colliders(self) -> int:
        """Number of tags believed to share the grid (1 = no collision)."""
        if not self.is_collision:
            return 1
        # 3^k clusters -> k colliders; n_clusters is 9 for 2-way.
        k = int(round(np.log(self.n_clusters) / np.log(3.0)))
        return max(k, 2)


def scatter_planarity(points: np.ndarray) -> float:
    """Minor/major axis ratio of complex points (0 = collinear, 1 = round).

    Eigenvalue ratio of the 2x2 second-moment matrix about the origin —
    about the origin, not the mean, because a single tag's three
    clusters {0, +e, -e} are symmetric around the origin and a
    mean-centred PCA would see the same geometry as a shifted lattice.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size < 2:
        return 0.0
    x = np.stack([pts.real, pts.imag])
    moment = x @ x.T / pts.size
    eigvals = np.linalg.eigvalsh(moment)
    major = float(eigvals[-1])
    minor = float(max(eigvals[0], 0.0))
    if major <= 0:
        return 0.0
    return minor / major


def effective_planarity_threshold(
        points: np.ndarray,
        planarity_threshold: float = 0.02,
        noise_scale: Optional[float] = None) -> float:
    """Planarity above which a scatter counts as two-dimensional.

    The base threshold, raised to the noise-implied floor when the
    noise scale is known: for a single tag the minor scatter axis is
    pure noise, so its eigenvalue is the per-axis noise variance (half
    the complex noise power ``noise_scale**2``); a 3x margin keeps
    noise from masquerading as a weak second collider.
    """
    threshold = planarity_threshold
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if noise_scale is not None and noise_scale > 0 and pts.size:
        x = np.stack([pts.real, pts.imag])
        major_eig = float(np.linalg.eigvalsh(x @ x.T / pts.size)[-1])
        if major_eig > 0:
            implied = 3.0 * (noise_scale ** 2 / 2.0) / major_eig
            threshold = max(threshold, implied)
    return threshold


def detect_collision(differentials: np.ndarray,
                     candidates: Sequence[int] = (3, 9),
                     planarity_threshold: float = 0.02,
                     noise_scale: Optional[float] = None,
                     rng: SeedLike = None,
                     centroid_hints: Optional[
                         Dict[int, np.ndarray]] = None,
                     fits_out: Optional[Dict[int, object]] = None,
                     policy: Optional[FidelityPolicy] = None,
                     stats: Optional[Dict[str, int]] = None,
                     warm: bool = False,
                     cache_fast_fit: bool = True
                     ) -> CollisionReport:
    """Decide whether a stream's grid differentials contain a collision.

    ``noise_scale``, when given, is the expected differential noise
    standard deviation; planarity below the threshold *or* below the
    noise-implied floor keeps the verdict at "single tag" even when the
    9-cluster fit wins BIC by over-fitting noise.

    ``centroid_hints`` / ``fits_out`` are the session warm-start hooks
    (see :func:`repro.core.clustering.select_cluster_count`): hinted
    cluster counts fit as a single warm Lloyd restart, and every
    candidate fit is exported for the next epoch's cache.

    With an *active* ``policy``, planarity is evaluated *before* the
    cluster-count sweep: the final verdict only depends on planarity
    versus the effective threshold (the sweep always returns k >= 3 for
    these candidate sets), so a scatter whose planarity sits below
    ``pregate_margin`` times the threshold is a guaranteed single tag
    and skips the sweep.  ``warm=True`` (a session tracker already
    vouches for the stream as a known single tag) widens the fast band
    to ``pregate_margin_warm``.  Planarity in the low-confidence band
    escalates to the full detector, so the fast path can never flip a
    verdict.  ``stats`` accumulates the gate counters.

    ``cache_fast_fit=False`` lets a caller with no session cache skip
    the 3-cluster fit on the fast path entirely (the verdict never
    reads it); escalated sweeps still export every fit via
    ``fits_out``.
    """
    pts = np.asarray(differentials, dtype=np.complex128).ravel()
    if pts.size < 3:
        raise ConfigurationError(
            f"need at least 3 differentials, got {pts.size}")
    if not 0 <= planarity_threshold < 1:
        raise ConfigurationError(
            "planarity threshold must be in [0, 1)")

    adaptive = policy is not None and policy.active
    if adaptive and policy.pregate:
        planarity = scatter_planarity(pts)
        threshold = effective_planarity_threshold(
            pts, planarity_threshold=planarity_threshold,
            noise_scale=noise_scale)
        margin = (policy.pregate_margin_warm if warm
                  else policy.pregate_margin)
        if planarity <= margin * threshold:
            if stats is not None:
                stats["pregate_fast"] = stats.get("pregate_fast", 0) + 1
            # Verdict is settled (single tag); the sweep is skipped.
            # Only a session cache still needs the 3-cluster fit —
            # its per-point inertia is next epoch's blowup baseline —
            # so a cold decode skips the fit too.
            fit = None
            if fits_out is not None and cache_fast_fit:
                k3 = min(3, pts.size)
                fit = kmeans(pts, k3, rng=rng, n_init=1,
                             init_centroids=(centroid_hints
                                             or {}).get(k3),
                             bounded_min_points=(
                                 policy.bounded_min_points))
                fits_out[k3] = fit
            return CollisionReport(
                is_collision=False,
                n_clusters=min(fit.k, 3) if fit is not None else 3,
                planarity=planarity,
                kmeans=fit,
            )
        if stats is not None:
            stats["pregate_escalations"] = (
                stats.get("pregate_escalations", 0) + 1)
    else:
        planarity = None
        threshold = None

    fit = select_cluster_count(pts, candidates=candidates, rng=rng,
                               improvement_factor=1.5,
                               centroid_hints=centroid_hints,
                               fits_out=fits_out,
                               policy=policy, stats=stats)
    if planarity is None:
        planarity = scatter_planarity(pts)
        threshold = effective_planarity_threshold(
            pts, planarity_threshold=planarity_threshold,
            noise_scale=noise_scale)

    # Planarity is the primary signal: a second collider makes the
    # differential scatter genuinely two-dimensional, whereas the
    # cluster-count fit is noisy for partially-overlapping streams
    # (e.g. a collider that started mid-epoch).
    is_collision = planarity > threshold and fit.k >= 3
    return CollisionReport(
        is_collision=is_collision,
        n_clusters=fit.k if is_collision else min(fit.k, 3),
        planarity=planarity,
        kmeans=fit,
    )
