"""The decoder's numeric kernels, in pure numpy.

These are the decoder's hot-path arithmetic, kept apart from the
orchestration in ``clustering.py`` / ``separation.py`` / ``edges.py``
/ ``viterbi.py``: plain arrays in, plain arrays out.  Every operation
and its order is the decoder's original code, so decodes stay
bit-identical — the golden SHA-256 digests in ``tests/golden/`` pin
exactly that.  Loop-form oracles in
``tests/property/_loop_kernels.py`` check each kernel against an
independent implementation.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

#: Identifier of this implementation, recorded in benchmark
#: environments through :func:`repro.core.kernels.get_backend`.
name = "reference"

RISE, FALL, HOLD_HIGH, HOLD_LOW = 0, 1, 2, 3

_NEG_INF = -1e30


def lloyd_batched(pts: np.ndarray, cents: np.ndarray,
                  max_iter: int = 100,
                  tol: float = 1e-10
                  ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Batched Lloyd iteration over a stack of restarts.

    All restarts run as one batched Lloyd iteration: centroids are an
    (R, k) stack, distances an (R, n, k) tensor, and the centroid
    update a single offset-bincount over every restart's labels.
    Each restart follows exactly the trajectory it would follow alone
    (converged restarts are frozen, not re-averaged), and the wall
    clock is set by the slowest restart instead of the sum of all of
    them.  The best restart by final inertia wins.

    Real points (a 1-D projection) run in real arithmetic and return
    real centroids equal to the complex path's (whose imaginary parts
    stay ``+0.0``): the zero imaginary terms it drops add exact zeros,
    and the centroid update multiplies by the reciprocal of the
    counts, which is how numpy divides a complex sum by a real count.
    """
    n = pts.size
    n_init, k = cents.shape
    cents = cents.copy()
    real = not np.iscomplexobj(pts)
    pr, pi = pts.real, pts.imag
    offsets = (np.arange(n_init) * k)[:, None]
    pr_tiled = np.broadcast_to(pr, (n_init, n)).ravel()
    pi_tiled = None if real else np.broadcast_to(pi, (n_init, n)).ravel()

    def _dist2(c: np.ndarray) -> np.ndarray:
        # In-place squares/add: same values as the textbook
        # ``(dr ** 2 + di ** 2)`` with two fewer temporaries.
        dr = pr[None, :, None] - c.real[:, None, :]
        dr *= dr
        if not real:
            di = pi[None, :, None] - c.imag[:, None, :]
            di *= di
            dr += di
        return dr

    # Restarts drop out of the iteration as they converge, so late
    # iterations only pay for the rows still moving.
    act = np.arange(n_init)
    for _ in range(max_iter):
        # Avoid the gather copy while every restart is still active.
        c = cents if act.size == n_init else cents[act]
        a = act.size
        dist2 = _dist2(c)
        flat = (np.argmin(dist2, axis=2) + offsets[:a]).ravel()
        total = a * k
        counts = np.bincount(flat, minlength=total).reshape(a, k)
        sums = np.bincount(flat, weights=pr_tiled[:a * n],
                           minlength=total).reshape(a, k)
        # Empty clusters are re-seeded below at the restart's
        # worst-fit point, overwriting every zero-count entry — the
        # 0/1 placeholder the plain division leaves there never
        # survives, so no masked fallback is needed.
        if real:
            new_c = sums * (1.0 / np.maximum(counts, 1))
        else:
            sums = sums + 1j * np.bincount(
                flat, weights=pi_tiled[:a * n],
                minlength=total).reshape(a, k)
            new_c = sums / np.maximum(counts, 1)
        empty_rows = np.flatnonzero((counts == 0).any(axis=1))
        if empty_rows.size:
            worst = np.argmax(np.min(dist2, axis=2), axis=1)
            for r in empty_rows:
                new_c[r, counts[r] == 0] = pts[worst[r]]
        moved = np.max(np.abs(new_c - c), axis=1)
        cents[act] = new_c
        act = act[moved > tol]
        if act.size == 0:
            break

    dist2 = _dist2(cents)
    per_restart = np.min(dist2, axis=2)
    inertias = per_restart.sum(axis=1)
    best_r = int(np.argmin(inertias))
    labels = np.argmin(dist2[best_r], axis=1)
    return cents[best_r], labels, float(inertias[best_r])


def bounded_lloyd(pts: np.ndarray, cents: np.ndarray,
                  max_iter: int = 100, tol: float = 1e-10
                  ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Single-restart Lloyd iteration with Hamerly distance bounds.

    Follows the exact assignment trajectory of the brute-force
    iteration (:func:`lloyd_batched` with one restart) but maintains
    per-point bounds — an upper bound on the distance to the assigned
    centroid and a lower bound on the distance to every other — so most
    points skip the full distance computation on most iterations.  A
    point's exact distances are recomputed only when the bounds cross
    (``upper >= lower``, inclusive so argmin first-index tie-breaking
    matches the reference), which restores the invariant that every
    point is labelled by true nearest centroid.  Centroid updates,
    empty-cluster reseeding, the convergence test and the final
    assignment reuse the brute-force formulas verbatim, so the returned
    fit is bit-identical to the brute-force warm restart.
    """
    k = cents.size
    cents = cents.copy()
    pr, pi = pts.real, pts.imag

    def _full_dist2(c: np.ndarray) -> np.ndarray:
        return ((pr[:, None] - c.real[None, :]) ** 2
                + (pi[:, None] - c.imag[None, :]) ** 2)

    dist2 = _full_dist2(cents)
    labels = np.argmin(dist2, axis=1)
    if k == 1:
        part = np.sqrt(dist2[:, 0])
        upper = part
        lower = np.full(pts.size, np.inf)
    else:
        part = np.sqrt(np.partition(dist2, 1, axis=1))
        upper = part[:, 0].copy()
        lower = part[:, 1].copy()

    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        sums = (np.bincount(labels, weights=pr, minlength=k)
                + 1j * np.bincount(labels, weights=pi, minlength=k))
        new_c = np.where(counts > 0, sums / np.maximum(counts, 1), cents)
        if (counts == 0).any():
            # Mirror the reference reseed: empty clusters jump to the
            # worst-fit point, measured against the pre-update
            # centroids.  Bounds are rebuilt from scratch afterwards.
            d2 = _full_dist2(cents)
            worst = int(np.argmax(np.min(d2, axis=1)))
            new_c[counts == 0] = pts[worst]
            shift = np.abs(new_c - cents)
            cents = new_c
            if shift.max() <= tol:
                break
            d2 = _full_dist2(cents)
            labels = np.argmin(d2, axis=1)
            part = np.sqrt(np.partition(d2, 1, axis=1))
            upper = part[:, 0].copy()
            lower = part[:, 1].copy()
            continue
        shift = np.abs(new_c - cents)
        cents = new_c
        if shift.max() <= tol:
            break
        # Bound maintenance: the assigned centroid moved by
        # shift[label] (upper grows by at most that), every other
        # centroid by at most shift.max() (lower shrinks by at most
        # that).
        upper += shift[labels]
        lower -= shift.max()
        loose = np.flatnonzero(upper >= lower)
        if loose.size:
            # First tighten the upper bound to the exact distance to
            # the assigned centroid — often enough to prune.
            lab = labels[loose]
            d_lab = np.abs(pts[loose] - cents[lab])
            upper[loose] = d_lab
            stale = loose[d_lab >= lower[loose]]
            if stale.size:
                d2s = ((pr[stale, None] - cents.real[None, :]) ** 2
                       + (pi[stale, None] - cents.imag[None, :]) ** 2)
                labels[stale] = np.argmin(d2s, axis=1)
                parts = np.sqrt(np.partition(d2s, 1, axis=1))
                upper[stale] = parts[:, 0]
                lower[stale] = parts[:, 1]

    dist2 = _full_dist2(cents)
    labels = np.argmin(dist2, axis=1)
    inertia = float(np.min(dist2, axis=1).sum())
    return cents, labels, inertia


def lattice_match_errors(cents: np.ndarray,
                         lattices: np.ndarray) -> np.ndarray:
    """Greedy matching error of ``cents`` against many lattices at once.

    ``lattices`` is (P, m); the return is (P,) mean matching distances.
    The greedy pass runs its m assignment steps *across every lattice
    simultaneously* — the per-step argmin over centroids is a single
    (P, n) reduction — and keeps the serial tie-break (first remaining
    centroid in index order wins, because ``argmin`` returns the first
    minimum).
    """
    n_lat, m = lattices.shape
    dist = np.abs(cents[None, :, None] - lattices[:, None, :])
    rows = np.arange(n_lat)
    total = np.zeros(n_lat, dtype=np.float64)
    for j in range(m):
        picks = np.argmin(dist[:, :, j], axis=1)
        total += dist[rows, picks, j]
        dist[rows, picks, :] = np.inf
    return total / m


def edge_differentials(csum: np.ndarray,
                       lo_b: np.ndarray, hi_b: np.ndarray,
                       lo_a: np.ndarray, hi_a: np.ndarray
                       ) -> np.ndarray:
    """Prefix-sum gather of windowed before/after means.

    For each position ``i``: ``mean(csum[lo_a[i]:hi_a[i]]) -
    mean(csum[lo_b[i]:hi_b[i]])``, where the mean of a prefix-sum
    window ``[lo, hi)`` is ``(csum[hi] - csum[lo]) / (hi - lo)``.
    Every window must be non-empty (``hi > lo``); the caller's
    bounds planning handles degenerate windows.
    """
    before = (csum[hi_b] - csum[lo_b]) / (hi_b - lo_b)
    after = (csum[hi_a] - csum[lo_a]) / (hi_a - lo_a)
    return np.asarray(after - before, dtype=np.complex128)


def viterbi_exact(obs: np.ndarray, sigma: float,
                  log_flip: float, log_hold: float,
                  initial_state: int = -1) -> np.ndarray:
    """Exact four-state Viterbi recursion (scalar trellis).

    The trellis is tiny (4 states, each with exactly two valid
    predecessors), so a scalar Python recursion beats building a
    (4, 4) candidate matrix per step by an order of magnitude.
    Emissions are still computed vectorized; HOLD_HIGH/HOLD_LOW
    share the zero-mean emission.  ``initial_state`` pins the first
    state (0..3) or is -1 to share the prior between RISE and
    HOLD_LOW.  Returns the int8 state path.
    """
    const = -math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    inv = 1.0 / sigma
    e_plus = (-0.5 * ((obs - 1.0) * inv) ** 2 + const).tolist()
    e_minus = (-0.5 * ((obs + 1.0) * inv) ** 2 + const).tolist()
    e_zero = (-0.5 * (obs * inv) ** 2 + const).tolist()

    if initial_state < 0:
        log_half = math.log(0.5)
        init = [log_half, _NEG_INF, _NEG_INF, log_half]
    else:
        init = [_NEG_INF] * 4
        init[initial_state] = 0.0
    s0 = init[RISE] + e_plus[0]
    s1 = init[FALL] + e_minus[0]
    s2 = init[HOLD_HIGH] + e_zero[0]
    s3 = init[HOLD_LOW] + e_zero[0]

    lf = log_flip
    lh = log_hold
    backptr = [(0, 0, 0, 0)]
    for t in range(1, obs.size):
        # Ties prefer the lower-numbered predecessor, matching the
        # dense argmax of the reference formulation.
        if s1 >= s3:          # -> RISE: from FALL or HOLD_LOW
            n0, b0 = s1 + lf, FALL
        else:
            n0, b0 = s3 + lf, HOLD_LOW
        if s0 >= s2:          # -> FALL: from RISE or HOLD_HIGH
            n1, b1 = s0 + lf, RISE
        else:
            n1, b1 = s2 + lf, HOLD_HIGH
        if s0 >= s2:          # -> HOLD_HIGH: from RISE or HOLD_HIGH
            n2, b2 = s0 + lh, RISE
        else:
            n2, b2 = s2 + lh, HOLD_HIGH
        if s1 >= s3:          # -> HOLD_LOW: from FALL or HOLD_LOW
            n3, b3 = s1 + lh, FALL
        else:
            n3, b3 = s3 + lh, HOLD_LOW
        backptr.append((b0, b1, b2, b3))
        s0 = n0 + e_plus[t]
        s1 = n1 + e_minus[t]
        s2 = n2 + e_zero[t]
        s3 = n3 + e_zero[t]

    finals = (s0, s1, s2, s3)
    state = finals.index(max(finals))
    states = np.empty(obs.size, dtype=np.int8)
    states[-1] = state
    for t in range(obs.size - 1, 0, -1):
        state = backptr[t][state]
        states[t - 1] = state
    return states


def viterbi_banded(obs: np.ndarray, band: float,
                   start_high: bool, required_first: int = -1
                   ) -> Optional[np.ndarray]:
    """Thresholded state path when it is provably Viterbi-optimal.

    Returns None when optimality cannot be certified (the exact
    recursion must run).  See
    :meth:`repro.core.viterbi.ViterbiDecoder._decode_states_banded`
    for the certificate's derivation; ``band`` already includes the
    caller's safety margin.
    """
    if np.any(np.abs(np.abs(obs) - 0.5) <= band):
        return None

    m = np.clip(np.rint(obs), -1, 1).astype(np.int8)
    n = obs.size
    # Level after each slot: forward-fill from the latest edge.
    edge_pos = np.where(m != 0, np.arange(n), -1)
    last_edge = np.maximum.accumulate(edge_pos)
    level_after = np.where(last_edge >= 0,
                           m[np.maximum(last_edge, 0)] == 1,
                           start_high)
    entering = np.empty(n, dtype=bool)
    entering[0] = start_high
    entering[1:] = level_after[:-1]
    # Trellis validity: a rise needs a low entering level, a fall a
    # high one (holds match any level by construction).
    if np.any((m == 1) & entering) or np.any((m == -1) & ~entering):
        return None
    states = np.where(
        m == 1, RISE,
        np.where(m == -1, FALL,
                 np.where(entering, HOLD_HIGH,
                          HOLD_LOW))).astype(np.int8)
    if required_first >= 0 and states[0] != required_first:
        return None
    return states

