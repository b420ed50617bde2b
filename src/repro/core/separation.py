"""Parallelogram separation of two-way edge collisions (Section 3.4).

A two-way collision's nine cluster centroids are the lattice
``a*e1 + b*e2`` for a, b in {-1, 0, +1}: a 3x3 parallelogram grid whose
centre is the origin (both tags holding).  Recovering e1 and e2 from
the centroids — the paper does it by finding co-linear centroid triples
and taking their mid-points — splits the collided stream into two
per-tag edge-state sequences *without ever estimating the tag-reader
channel* (the decisive advantage over Buzz, Section 2.2).

Two recovery strategies are implemented and cross-validated in tests:

* :func:`basis_from_lattice_fit` — try centroid pairs as basis vectors
  and keep the pair whose lattice reproduces all nine centroids best;
* :func:`basis_from_collinear_midpoints` — the paper's geometric
  construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CollisionUnresolvableError, ConfigurationError, \
    DecodeError
from ..utils.rng import SeedLike, make_rng
from . import kernels
from .clustering import _kmeans_pp_init, kmeans, lloyd_fit

#: The nine (a, b) lattice coordinates in a fixed order.
LATTICE_COORDS: Tuple[Tuple[int, int], ...] = tuple(
    (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))

#: Same coordinates as float columns, for vectorized lattice builds.
_LATTICE_A = np.array([a for a, _ in LATTICE_COORDS], dtype=np.float64)
_LATTICE_B = np.array([b for _, b in LATTICE_COORDS], dtype=np.float64)


@dataclass
class SeparationResult:
    """Two-way collision split into per-tag edge observations.

    ``coords`` holds the continuous lattice coordinates (a, b) of each
    grid differential: column 0 observes tag A's edge state, column 1
    tag B's.  Values near -1/0/+1 map to fall/hold/rise.
    """

    e1: complex
    e2: complex
    coords: np.ndarray          # float (n, 2)
    lattice_error: float        # mean centroid-to-lattice distance
    #: Nine cluster centroids the basis was fitted against (None for
    #: the collinear path); cached by session decoding as next epoch's
    #: warm k-means start.
    centroids: Optional[np.ndarray] = None
    #: True when a cached basis hint explained the fresh centroids and
    #: the exhaustive pair search was skipped (warm fast path).
    basis_cached: bool = False

    def hard_states(self) -> np.ndarray:
        """Round coordinates to the nearest edge state in {-1, 0, +1}."""
        return np.clip(np.round(self.coords), -1, 1).astype(np.int8)


def _lattice_points(e1: complex, e2: complex) -> np.ndarray:
    """The nine lattice points a*e1 + b*e2 in LATTICE_COORDS order."""
    return _LATTICE_A * e1 + _LATTICE_B * e2


def _match_error(centroids: np.ndarray, lattice: np.ndarray) -> float:
    """Mean distance of a one-to-one greedy matching centroids<->lattice.

    The greedy pass preserves the reference tie-break (first remaining
    centroid in index order wins).
    """
    cents = np.asarray(centroids, dtype=np.complex128).ravel()
    lat = np.asarray(lattice, dtype=np.complex128).ravel()
    return float(_match_errors_batch(cents, lat[None, :])[0])


def _match_errors_batch(cents: np.ndarray,
                        lattices: np.ndarray) -> np.ndarray:
    """Greedy matching error of ``cents`` against many lattices at once.

    ``lattices`` is (P, m); the return is (P,) mean matching
    distances.  The arithmetic lives in
    :func:`repro.core.kernels.lattice_match_errors`, which runs the
    greedy assignment batched across every lattice while keeping the
    serial tie-break (first remaining centroid in index order wins).
    """
    return kernels.lattice_match_errors(
        np.asarray(cents, dtype=np.complex128),
        np.asarray(lattices, dtype=np.complex128))


def basis_from_lattice_fit(centroids: np.ndarray,
                           min_parallelism: float = 0.15
                           ) -> Tuple[complex, complex, float]:
    """Recover (e1, e2) by exhaustive basis search over centroid pairs.

    The origin centroid is removed; every ordered-independent pair of
    the remaining eight is tried as a basis and scored by how well its
    lattice reproduces all nine centroids.  ``min_parallelism`` rejects
    nearly-parallel pairs (normalized cross product below it), which
    could only arise from tags whose IQ vectors are degenerate.
    """
    cents = np.asarray(centroids, dtype=np.complex128).ravel()
    if cents.size != 9:
        raise ConfigurationError(
            f"need exactly 9 centroids, got {cents.size}")
    origin_idx = int(np.argmin(np.abs(cents)))
    outer = np.delete(cents, origin_idx)
    scale = float(np.max(np.abs(outer)))
    if scale <= 0:
        raise DecodeError("all centroids at the origin")

    # All C(8, 2) = 28 candidate pairs scored in one shot: build every
    # pair's nine-point lattice as a (P, 9) tensor and run the greedy
    # centroid<->lattice matching batched across pairs (the former
    # itertools loop re-built a 9x9 distance matrix per pair).  Pair
    # enumeration via triu_indices matches itertools.combinations
    # order, so the first-minimal-error tie-break is unchanged.
    ii, jj = np.triu_indices(outer.size, k=1)
    u, v = outer[ii], outer[jj]
    cross = np.abs(u.real * v.imag - u.imag * v.real)
    valid = cross >= min_parallelism * np.abs(u) * np.abs(v)
    if not np.any(valid):
        raise CollisionUnresolvableError(
            2, "no independent basis pair among collision centroids "
               "(tag IQ vectors are parallel)")
    lattices = (u[valid, None] * _LATTICE_A[None, :]
                + v[valid, None] * _LATTICE_B[None, :])
    errors = _match_errors_batch(cents, lattices)
    best = int(np.argmin(errors))
    return (complex(u[valid][best]), complex(v[valid][best]),
            float(errors[best]))


def basis_from_collinear_midpoints(centroids: np.ndarray,
                                   collinear_tol: float = 0.08
                                   ) -> Tuple[complex, complex]:
    """The paper's construction: co-linear triples -> mid-points -> basis.

    The eight outer centroids form a parallelogram; each of its four
    edges is a co-linear triple of centroids whose middle element is one
    of +/-e1, +/-e2.  We enumerate triples among the outer centroids,
    keep those that are co-linear and do *not* pass through the origin,
    and read the two independent basis vectors off their mid-points.
    """
    cents = np.asarray(centroids, dtype=np.complex128).ravel()
    if cents.size != 9:
        raise ConfigurationError(
            f"need exactly 9 centroids, got {cents.size}")
    origin_idx = int(np.argmin(np.abs(cents)))
    origin = cents[origin_idx]
    outer = np.delete(cents, origin_idx) - origin
    scale = float(np.max(np.abs(outer)))
    if scale <= 0:
        raise DecodeError("all centroids at the origin")

    midpoints: List[complex] = []
    for i, j, k in itertools.combinations(range(outer.size), 3):
        triple = outer[[i, j, k]]
        # Order along the line; the middle one is the midpoint candidate.
        direction = triple[np.argmax(np.abs(triple - triple.mean()))] \
            - triple.mean()
        if abs(direction) == 0:
            continue
        proj = [(z.real * direction.real + z.imag * direction.imag)
                for z in triple]
        order = np.argsort(proj)
        a, m, b = triple[order[0]], triple[order[1]], triple[order[2]]
        # Co-linear and evenly spaced: m is the mid-point of a and b.
        if abs((a + b) / 2 - m) > collinear_tol * scale:
            continue
        # Reject the line through the origin (the {-e, 0, +e} diagonal).
        if abs(m) < collinear_tol * scale:
            continue
        midpoints.append(complex(m))

    # Deduplicate: midpoints come in +/- pairs per basis vector, and each
    # parallelogram edge is found once per side (two sides per vector).
    unique: List[complex] = []
    for m in midpoints:
        if not any(abs(m - u) < collinear_tol * scale
                   or abs(m + u) < collinear_tol * scale for u in unique):
            unique.append(m)
    independent = [m for m in unique]
    if len(independent) < 2:
        raise CollisionUnresolvableError(
            2, f"found {len(independent)} independent mid-points, need 2")
    # Keep the two most frequent/shortest independent ones.
    independent.sort(key=abs)
    e1 = independent[0]
    e2 = next((m for m in independent[1:]
               if abs(e1.real * m.imag - e1.imag * m.real)
               > 0.05 * abs(e1) * abs(m)), None)
    if e2 is None:
        raise CollisionUnresolvableError(
            2, "mid-points are collinear; basis is degenerate")
    return e1, e2


def continuous_coords(differentials: np.ndarray, e1: complex,
                      e2: complex) -> np.ndarray:
    """Solve d = a*e1 + b*e2 for real (a, b) per differential.

    Inverts the 2x2 real system formed by the I/Q components; the
    result feeds per-tag Viterbi decoding as continuous observations.
    """
    basis = np.array([[e1.real, e2.real],
                      [e1.imag, e2.imag]], dtype=np.float64)
    det = float(np.linalg.det(basis))
    if abs(det) < 1e-12 * max(abs(e1), abs(e2)) ** 2:
        raise CollisionUnresolvableError(2, "edge vectors are parallel")
    inv = np.linalg.inv(basis)
    d = np.asarray(differentials, dtype=np.complex128).ravel()
    stacked = np.stack([d.real, d.imag])
    return (inv @ stacked).T


def separate_two_way(differentials: np.ndarray,
                     rng: SeedLike = None,
                     method: str = "lattice_fit",
                     centroid_hint: Optional[np.ndarray] = None,
                     basis_hint: Optional[Tuple[complex, complex]] = None,
                     basis_tolerance: float = 0.25
                     ) -> SeparationResult:
    """Split a two-way collided stream into per-tag edge observations.

    Clusters the differentials into nine groups, recovers the basis
    (e1, e2) with the requested method, and returns the continuous
    lattice coordinates of every grid slot.

    Session decoding passes two warm-start hints from the previous
    epoch: ``centroid_hint`` (nine prior centroids) turns the k-means
    restart fan-out into a single warm Lloyd run, and ``basis_hint`` a
    prior (e1, e2) that is accepted outright — skipping the exhaustive
    pair search — whenever its lattice still explains the fresh
    centroids to within ``basis_tolerance`` of their scale.  A hint
    that no longer fits falls back to the cold recovery path, so a
    stale cache degrades to the exact cold behaviour.
    """
    pts = np.asarray(differentials, dtype=np.complex128).ravel()
    if pts.size < 9:
        raise CollisionUnresolvableError(
            2, f"only {pts.size} differentials; need >= 9 to fit the "
               "collision lattice")
    fit = kmeans(pts, 9, rng=rng, n_init=6,
                 init_centroids=centroid_hint)
    basis_cached = False
    e1 = e2 = None
    err = 0.0
    if basis_hint is not None:
        h1, h2 = complex(basis_hint[0]), complex(basis_hint[1])
        hint_err = _match_error(fit.centroids, _lattice_points(h1, h2))
        scale = float(np.max(np.abs(fit.centroids)))
        if scale > 0 and hint_err <= basis_tolerance * scale:
            e1, e2, err = h1, h2, hint_err
            basis_cached = True
    if e1 is None:
        if basis_hint is not None and centroid_hint is not None:
            # The warm single-restart fit was seeded from the same
            # cache the basis came from; with the basis rejected the
            # seed is suspect too, so the cold recovery must run on a
            # cold fan-out fit — a stale cache degrades to the exact
            # cold behaviour, never to a poisoned one.
            fit = kmeans(pts, 9, rng=rng, n_init=6)
        if method == "lattice_fit":
            e1, e2, err = basis_from_lattice_fit(fit.centroids)
        elif method == "collinear_midpoints":
            e1, e2 = basis_from_collinear_midpoints(fit.centroids)
            err = _match_error(fit.centroids, _lattice_points(e1, e2))
        else:
            raise ConfigurationError(
                f"unknown separation method {method!r}; expected "
                "'lattice_fit' or 'collinear_midpoints'")
    coords = continuous_coords(pts, e1, e2)
    return SeparationResult(e1=e1, e2=e2, coords=coords,
                            lattice_error=float(err),
                            centroids=fit.centroids,
                            basis_cached=basis_cached)


def separate_collinear(differentials: np.ndarray,
                       rng: SeedLike = None,
                       min_scale_ratio: float = 1.35,
                       n_init: int = 6,
                       init_levels: Optional[np.ndarray] = None
                       ) -> SeparationResult:
    """Separate a two-way collision whose edge vectors are (anti)parallel.

    When h1 and h2 are collinear the 3x3 lattice collapses onto a line
    and the parallelogram construction fails — but the *scalar* lattice
    ``a*s1 + b*s2`` still has up to nine distinct values along that
    line, separable by 1-D clustering whenever the two magnitudes
    differ enough (``min_scale_ratio`` between |s1| and |s2|).  This
    extends the paper's method to its documented degenerate case.

    ``n_init`` is the k-means restart fan-out for the 1-D level fit;
    the adaptive pipeline narrows it (a 1-D fit converges from far
    fewer starts than the planar 9-cluster problem needs).

    ``init_levels`` (nine raw projection levels from an earlier fit of
    the same stream) replaces the cold fan-out with two warm restarts,
    one per axis orientation — the caller's projection axis and this
    function's eigenvector can disagree in sign, so both are tried and
    the better fit wins.  The RNG is left untouched in that case.
    """
    pts = np.asarray(differentials, dtype=np.complex128).ravel()
    if pts.size < 9:
        raise CollisionUnresolvableError(
            2, f"only {pts.size} differentials; need >= 9")
    # Principal axis of the scatter about the origin.
    x = np.stack([pts.real, pts.imag])
    eigvals, eigvecs = np.linalg.eigh(x @ x.T / pts.size)
    axis = eigvecs[:, -1]
    direction = complex(axis[0], axis[1])
    proj = pts.real * axis[0] + pts.imag * axis[1]

    if init_levels is not None and np.asarray(init_levels).size == 9:
        # Two warm restarts (one per axis orientation) plus one cold
        # k-means++ draw: the warm seeds carry the multilevel check's
        # level structure, the cold draw keeps a bad warm fit from
        # deciding the split on its own.
        seeds = np.asarray(init_levels).real.astype(np.float64).ravel()
        cold = _kmeans_pp_init(proj, 9, 1, make_rng(rng))
        fit = lloyd_fit(proj, np.vstack([seeds[None, :],
                                         -seeds[None, :], cold]))
    else:
        fit = kmeans(proj, 9, rng=rng, n_init=n_init)
    centroids = np.sort(fit.centroids.real)
    scale = float(np.max(np.abs(centroids)))
    if scale <= 0:
        raise CollisionUnresolvableError(2, "no signal on the axis")

    # Search scalar basis pairs exactly like the 2-D lattice fit: all
    # C(8, 2) = 28 candidate pairs are gate-filtered vectorized, the
    # survivors scored by one batched greedy matching.  triu_indices
    # enumerates pairs in itertools.combinations order and argmin
    # returns the first minimum, so the winner matches the former
    # serial loop's strict-less tie-break exactly.
    origin_idx = int(np.argmin(np.abs(centroids)))
    outer = np.delete(centroids, origin_idx)
    ii, jj = np.triu_indices(outer.size, k=1)
    s1s, s2s = outer[ii], outer[jj]
    small = np.minimum(np.abs(s1s), np.abs(s2s))
    big = np.maximum(np.abs(s1s), np.abs(s2s))
    ok = small > 0
    # Magnitudes too similar make the labels ambiguous.
    ok &= np.divide(big, small, out=np.full_like(big, np.inf),
                    where=small > 0) >= min_scale_ratio
    # The basis must explain the scatter's full extent: the largest
    # lattice value is |s1|+|s2|, which has to match the outermost
    # centroid (rejects aliases built from the small
    # near-cancellation value).
    ok &= np.abs((big + small) - scale) <= 0.2 * scale
    if np.any(ok):
        lattices = (s1s[ok, None] * _LATTICE_A[None, :]
                    + s2s[ok, None] * _LATTICE_B[None, :])
        # Reject coincidental value collisions (e.g. s1 = -2*s2 makes
        # two lattice points coincide and the labels ambiguous).
        gaps = np.abs(lattices[:, :, None] - lattices[:, None, :])
        gaps[:, np.arange(9), np.arange(9)] = np.inf
        clean = gaps.min(axis=(1, 2)) >= 0.2 * small[ok]
    if not np.any(ok) or not np.any(clean):
        raise CollisionUnresolvableError(
            2, "collinear magnitudes too similar to label")
    errs = kernels.lattice_match_errors(centroids, lattices[clean])
    win = int(np.argmin(errs))
    s1 = float(s1s[ok][clean][win])
    s2 = float(s2s[ok][clean][win])
    err = float(errs[win])
    if err > 0.15 * scale:
        raise CollisionUnresolvableError(
            2, f"scalar lattice fit too poor (err {err:.3g} vs scale "
               f"{scale:.3g})")

    # Hard-assign each projection to the nearest lattice point.
    lattice = _LATTICE_A * s1 + _LATTICE_B * s2
    coords_idx = np.argmin(np.abs(proj[:, None] - lattice[None, :]),
                           axis=1)
    ab = np.asarray(LATTICE_COORDS, dtype=np.float64)[coords_idx]
    return SeparationResult(e1=s1 * direction, e2=s2 * direction,
                            coords=ab, lattice_error=float(err))
