"""Projection helpers shared by the separation and anchor stages.

A single tag's IQ differentials live on one line through the origin
({-e, 0, +e}); projecting onto the scatter's principal axis and
normalizing by the edge-cluster magnitude turns them into scalar
observations near {-1, 0, +1}.  The helpers here implement that
projection plus the 3-vs-9-level test that distinguishes a lone tag
from a *collinear* collision (whose projection carries intermediate
levels the parallelogram method cannot see).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import DecodeError
from ..clustering import KMeansResult, kmeans


def project_single(differentials: np.ndarray) -> np.ndarray:
    """Project a single tag's differentials onto its edge direction.

    The principal axis of the scatter (about the origin) is the tag's
    edge line {-e, 0, +e}; projecting and normalizing by the edge
    cluster magnitude yields observations near {-1, 0, +1}.  Sign
    remains ambiguous; the anchor stage resolves it.
    """
    return project_single_scaled(differentials)[0]


def project_single_scaled(
        differentials: np.ndarray) -> Tuple[np.ndarray, float]:
    """:func:`project_single` plus the normalization scale.

    The scale maps normalized observation levels back into raw
    projection units — the adaptive pipeline uses it to convert the
    multilevel check's 9-level fit into warm seeds for the collinear
    separator, which clusters the *unnormalized* projection.
    """
    d = np.asarray(differentials, dtype=np.complex128).ravel()
    if d.size == 0:
        raise DecodeError("no differentials to project")
    x = np.stack([d.real, d.imag])
    moment = x @ x.T / d.size
    eigvals, eigvecs = np.linalg.eigh(moment)
    u = eigvecs[:, -1]  # principal direction (unit)
    # LAPACK's eigenvector sign is arbitrary; pin it to a fixed
    # half-plane so the projection polarity of a stable channel is
    # reproducible across epochs (the session caches the resolved
    # frame polarity and tries it first).
    if u[0] < 0 or (u[0] == 0 and u[1] < 0):
        u = -u
    proj = d.real * u[0] + d.imag * u[1]
    peak = float(np.max(np.abs(proj)))
    if peak <= 0:
        raise DecodeError("stream has no measurable edges")
    strong = np.abs(proj) > 0.5 * peak
    scale = float(np.median(np.abs(proj[strong])))
    if scale <= 0:
        raise DecodeError("degenerate projection scale")
    return proj / scale, scale


def hold_cluster_noise(differentials: np.ndarray) -> float:
    """Noise scale estimated from the hold (near-zero) cluster."""
    d = np.asarray(differentials, dtype=np.complex128).ravel()
    mags = np.abs(d)
    peak = float(np.max(mags)) if mags.size else 0.0
    if peak <= 0:
        return 0.0
    hold = d[mags < 0.3 * peak]
    if hold.size < 2:
        return 0.0
    return float(np.sqrt(np.mean(np.abs(hold) ** 2)))


def looks_multilevel(observations: np.ndarray,
                     rng, improvement: float = 5.0,
                     centroid_hints: Optional[
                         Dict[int, np.ndarray]] = None,
                     fits_out: Optional[
                         Dict[int, KMeansResult]] = None,
                     n_init: int = 3) -> bool:
    """True when a stream's 1-D projection has more than three levels.

    A lone tag's projection clusters at {-1, 0, +1}; a collinear
    collision adds intermediate levels.  Nine clusters must beat three
    by a large inertia factor (noise-splitting alone buys ~3x).

    ``centroid_hints`` / ``fits_out`` are the session warm-start hooks:
    hinted cluster counts run as a single warm Lloyd restart and the
    fresh fits are exported for the next epoch's cache.  The fits run
    on the real projection (real centroids, see
    :func:`repro.core.clustering.kmeans`).
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    if obs.size < 20:
        return False
    hints = centroid_hints or {}
    three = kmeans(obs, 3, rng=rng, n_init=n_init,
                   init_centroids=hints.get(3))
    nine = kmeans(obs, 9, rng=rng, n_init=n_init,
                  init_centroids=hints.get(9))
    if fits_out is not None:
        fits_out[3] = three
        fits_out[9] = nine
    floor = max(nine.inertia, 1e-300)
    return three.inertia / floor >= improvement
