"""Loop-form oracles for the decoder's numeric kernels.

Each function here is the scalar-loop formulation of one kernel in
:mod:`repro.core.kernels.reference`, written independently of it
(explicit loops over points, restarts and trellis steps instead of
numpy broadcasting) and importing nothing beyond numpy and math.  The
property suite fuzzes the numpy kernels against these bodies; nothing
else checks them against a second implementation.

Equivalence contract (see ``tests/property/test_kernel_equivalence``):
labels, states, picks and differentials are exactly equal to the
reference kernels; accumulated floats (inertias, match errors) may
differ by summation order only (numpy reduces pairwise, a scalar loop
reduces left-to-right).
"""

from __future__ import annotations

import math

import numpy as np

_NEG_INF = -1e30


def lloyd_batched(pts, cents, max_iter, tol):
    """Loop form of :func:`repro.core.kernels.reference.lloyd_batched`.

    Returns ``(best_centroids, labels, inertia)``; ``cents`` is not
    mutated.  Per-restart trajectories mirror the reference exactly:
    first-minimum label ties, empty clusters reseeded at the restart's
    worst-fit point (first maximum on ties), converged restarts frozen.
    """
    n = pts.shape[0]
    n_init = cents.shape[0]
    k = cents.shape[1]
    work = cents.copy()
    active = np.ones(n_init, dtype=np.bool_)
    counts = np.empty(k, dtype=np.int64)
    sums = np.empty(k, dtype=np.complex128)

    for _ in range(max_iter):
        any_active = False
        for r in range(n_init):
            if not active[r]:
                continue
            any_active = True
            for j in range(k):
                counts[j] = 0
                sums[j] = 0.0 + 0.0j
            worst_i = 0
            worst_d = -1.0
            for i in range(n):
                best_j = 0
                best_d = np.inf
                for j in range(k):
                    dr = pts[i].real - work[r, j].real
                    di = pts[i].imag - work[r, j].imag
                    d = dr * dr + di * di
                    if d < best_d:
                        best_d = d
                        best_j = j
                counts[best_j] += 1
                sums[best_j] += pts[i]
                if best_d > worst_d:
                    worst_d = best_d
                    worst_i = i
            moved = 0.0
            for j in range(k):
                if counts[j] > 0:
                    new = sums[j] / counts[j]
                else:
                    new = pts[worst_i]
                delta = abs(new - work[r, j])
                if delta > moved:
                    moved = delta
                work[r, j] = new
            if moved <= tol:
                active[r] = False
        if not any_active:
            break

    best_r = 0
    best_inertia = np.inf
    for r in range(n_init):
        inertia = 0.0
        for i in range(n):
            best_d = np.inf
            for j in range(k):
                dr = pts[i].real - work[r, j].real
                di = pts[i].imag - work[r, j].imag
                d = dr * dr + di * di
                if d < best_d:
                    best_d = d
            inertia += best_d
        if inertia < best_inertia:
            best_inertia = inertia
            best_r = r
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        best_j = 0
        best_d = np.inf
        for j in range(k):
            dr = pts[i].real - work[best_r, j].real
            di = pts[i].imag - work[best_r, j].imag
            d = dr * dr + di * di
            if d < best_d:
                best_d = d
                best_j = j
        labels[i] = best_j
    return work[best_r].copy(), labels, best_inertia


def bounded_lloyd(pts, cents, max_iter, tol):
    """Single-restart Lloyd — the bounded kernel's loop counterpart.

    The Hamerly bounds in the reference kernel only prune numpy
    distance work; a plain iteration follows the identical assignment
    trajectory (the bounded form is property-tested bit-identical to
    it), so the loop form just runs :func:`lloyd_batched` with one
    restart.
    """
    work = cents.reshape(1, cents.shape[0])
    return lloyd_batched(pts, work, max_iter, tol)


def lattice_match_errors(cents, lattices):
    """Loop form of the greedy centroid<->lattice matching error.

    For each lattice point in column order, takes the nearest
    unassigned centroid (first minimum in index order on ties) and
    accumulates the distance; returns per-lattice means.
    """
    n = cents.shape[0]
    n_lat = lattices.shape[0]
    m = lattices.shape[1]
    out = np.empty(n_lat, dtype=np.float64)
    used = np.empty(n, dtype=np.bool_)
    for p in range(n_lat):
        for i in range(n):
            used[i] = False
        total = 0.0
        for j in range(m):
            best_i = -1
            best_d = np.inf
            for i in range(n):
                if used[i]:
                    continue
                dr = cents[i].real - lattices[p, j].real
                di = cents[i].imag - lattices[p, j].imag
                d = math.hypot(dr, di)
                if d < best_d:
                    best_d = d
                    best_i = i
            if best_i >= 0:
                used[best_i] = True
                total += best_d
            else:
                # More lattice points than centroids: the reference's
                # masked argmin accumulates inf for the overflow.
                total += np.inf
        out[p] = total / m
    return out


def edge_differentials(csum, lo_b, hi_b, lo_a, hi_a):
    """Loop form of the prefix-sum windowed differential gather."""
    n = lo_b.shape[0]
    out = np.empty(n, dtype=np.complex128)
    for i in range(n):
        before = (csum[hi_b[i]] - csum[lo_b[i]]) / (hi_b[i] - lo_b[i])
        after = (csum[hi_a[i]] - csum[lo_a[i]]) / (hi_a[i] - lo_a[i])
        out[i] = after - before
    return out


def viterbi_exact(obs, sigma, log_flip, log_hold, initial_state):
    """Loop form of the exact four-state Viterbi recursion.

    Emissions are computed per step with the same scalar expression
    the reference evaluates vectorized (``z*z`` products, not
    ``pow``), so scores — and therefore the argmax path — are
    bit-identical.
    """
    n = obs.shape[0]
    const = -math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    inv = 1.0 / sigma

    if initial_state < 0:
        log_half = math.log(0.5)
        i0, i1, i2, i3 = log_half, _NEG_INF, _NEG_INF, log_half
    else:
        i0 = i1 = i2 = i3 = _NEG_INF
        if initial_state == 0:
            i0 = 0.0
        elif initial_state == 1:
            i1 = 0.0
        elif initial_state == 2:
            i2 = 0.0
        else:
            i3 = 0.0
    z = (obs[0] - 1.0) * inv
    s0 = i0 + (-0.5 * (z * z) + const)
    z = (obs[0] + 1.0) * inv
    s1 = i1 + (-0.5 * (z * z) + const)
    z = obs[0] * inv
    e0 = -0.5 * (z * z) + const
    s2 = i2 + e0
    s3 = i3 + e0

    backptr = np.empty((n, 4), dtype=np.int8)
    for j in range(4):
        backptr[0, j] = 0
    for t in range(1, n):
        if s1 >= s3:          # -> RISE: from FALL or HOLD_LOW
            n0 = s1 + log_flip
            backptr[t, 0] = 1
        else:
            n0 = s3 + log_flip
            backptr[t, 0] = 3
        if s0 >= s2:          # -> FALL: from RISE or HOLD_HIGH
            n1 = s0 + log_flip
            backptr[t, 1] = 0
            n2 = s0 + log_hold
            backptr[t, 2] = 0
        else:
            n1 = s2 + log_flip
            backptr[t, 1] = 2
            n2 = s2 + log_hold
            backptr[t, 2] = 2
        if s1 >= s3:          # -> HOLD_LOW: from FALL or HOLD_LOW
            n3 = s1 + log_hold
            backptr[t, 3] = 1
        else:
            n3 = s3 + log_hold
            backptr[t, 3] = 3
        z = (obs[t] - 1.0) * inv
        s0 = n0 + (-0.5 * (z * z) + const)
        z = (obs[t] + 1.0) * inv
        s1 = n1 + (-0.5 * (z * z) + const)
        z = obs[t] * inv
        e0 = -0.5 * (z * z) + const
        s2 = n2 + e0
        s3 = n3 + e0

    state = 0
    best = s0
    if s1 > best:
        state = 1
        best = s1
    if s2 > best:
        state = 2
        best = s2
    if s3 > best:
        state = 3
        best = s3
    states = np.empty(n, dtype=np.int8)
    states[n - 1] = state
    for t in range(n - 1, 0, -1):
        state = backptr[t, state]
        states[t - 1] = state
    return states


def viterbi_banded(obs, band, start_high, required_first):
    """Loop form of the banded-Viterbi certificate check.

    Returns ``(ok, states)``; ``states`` is meaningful only when
    ``ok``.  The band check excludes observations at exactly 0.5 from
    zero, so the simple comparisons below reproduce ``rint``'s
    round-half-even thresholding.
    """
    n = obs.shape[0]
    states = np.empty(n, dtype=np.int8)
    high = start_high
    for t in range(n):
        a = abs(obs[t])
        if abs(a - 0.5) <= band:
            return False, states
        if obs[t] > 0.5:
            if high:          # a rise needs a low entering level
                return False, states
            states[t] = 0     # RISE
            high = True
        elif obs[t] < -0.5:
            if not high:      # a fall needs a high entering level
                return False, states
            states[t] = 1     # FALL
            high = False
        else:
            states[t] = 2 if high else 3   # HOLD_HIGH / HOLD_LOW
    if required_first >= 0 and states[0] != required_first:
        return False, states
    return True, states
