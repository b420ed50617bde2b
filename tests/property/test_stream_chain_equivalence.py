"""The per-stream chain's shortcuts compute what the long way computes.

Three rewrites of the stream chain claim bit-identical results:

* a cold (sessionless) collision check that escalates past the
  planarity pre-gate still draws the sweep's shared k-means++ seeds but
  fits only what the two-way separator reads, so the decoder RNG ends
  where the full sweep leaves it and the nine-cluster fit is the
  sweep's own;
* 1-D k-means on real projections runs in real arithmetic and must
  equal the complex-cast fit: centroids (whose imaginary parts stay
  ``+0.0`` on the complex side), labels, inertia and the generator
  state after seeding;
* the anchor prescreen scores both polarities in one stacked pass and
  must pick the same frame as the polarity-by-polarity oracle in
  ``_anchor_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.anchor import (_resolve_prescreened, expected_header,
                               resolve_polarity)
from repro.core.clustering import _kmeans_pp_init, kmeans
from repro.core.collision import (detect_collision,
                                  effective_planarity_threshold,
                                  planarity_and_threshold,
                                  scatter_planarity)
from repro.core.fidelity import FidelityPolicy
from repro.core.kernels import reference as ref
from repro.core.viterbi import ViterbiDecoder
from repro.errors import DecodeError

from . import _anchor_oracle as oracle

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

_POLICY = FidelityPolicy()


def _single_tag(seed, n, sigma=0.011):
    gen = np.random.default_rng(seed)
    states = gen.integers(-1, 2, n)
    return (0.1 + 0.04j) * states + (gen.normal(0, sigma, n)
                                     + 1j * gen.normal(0, sigma, n))


def _two_tags(seed, n, sigma=0.004):
    gen = np.random.default_rng(seed)
    a = gen.integers(-1, 2, n)
    b = gen.integers(-1, 2, n)
    return ((0.1 + 0.02j) * a + (-0.03 + 0.09j) * b
            + gen.normal(0, sigma, n) + 1j * gen.normal(0, sigma, n))


def _detect(diffs, seed, cache_fits):
    gen = np.random.default_rng(seed)
    fits, stats = {}, {}
    report = detect_collision(diffs, rng=gen, fits_out=fits,
                              policy=_POLICY, stats=stats,
                              cache_fits=cache_fits)
    return report, fits, stats, gen.bit_generator.state


class TestColdCollisionFits:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(20, 600))
    def test_escalated_single_tag_keeps_the_rng_schedule(self, seed, n):
        diffs = _single_tag(seed, n)
        planarity = scatter_planarity(diffs)
        # Inside the low-confidence band: escalates, ends single-tag.
        assume(0.5 * 0.02 < planarity <= 0.02)
        cold, cold_fits, cold_stats, cold_state = _detect(diffs, seed,
                                                          False)
        full, _, full_stats, full_state = _detect(diffs, seed, True)
        assert cold_stats["pregate_escalations"] == 1
        assert cold_stats == full_stats
        assert cold_state == full_state
        assert not cold.is_collision and not full.is_collision
        assert cold.planarity == full.planarity
        if n <= _POLICY.subsample_cap:
            # Nothing reads a fit of a single-tag cold verdict.
            assert cold.kmeans is None and cold_fits == {}

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(20, 600))
    def test_collision_nine_fit_is_the_sweeps(self, seed, n):
        diffs = _two_tags(seed, n)
        cold, cold_fits, cold_stats, cold_state = _detect(diffs, seed,
                                                          False)
        full, full_fits, full_stats, full_state = _detect(diffs, seed,
                                                          True)
        assert cold.is_collision and full.is_collision
        assert cold.estimated_colliders == full.estimated_colliders == 2
        assert cold_state == full_state
        assert cold_stats == full_stats
        nine, sweep_nine = cold_fits[9], full_fits[9]
        assert nine.centroids.tobytes() == sweep_nine.centroids.tobytes()
        np.testing.assert_array_equal(nine.labels, sweep_nine.labels)
        assert nine.inertia == sweep_nine.inertia
        if n <= _POLICY.subsample_cap:
            # The 3-cluster fit is skipped; the separator reads 9 only.
            assert set(cold_fits) == {9}
            assert cold.kmeans is nine


def _two_eigendecompositions(pts, base, noise):
    """The planarity and the noise-floored threshold, one
    eigendecomposition each (their separate formulas)."""
    x = np.stack([pts.real, pts.imag])
    planarity = 0.0
    if pts.size >= 2:
        eig = np.linalg.eigvalsh(x @ x.T / pts.size)
        major, minor = float(eig[-1]), float(max(eig[0], 0.0))
        planarity = 0.0 if major <= 0 else minor / major
    threshold = base
    if noise is not None and noise > 0 and pts.size:
        major = float(np.linalg.eigvalsh(x @ x.T / pts.size)[-1])
        if major > 0:
            threshold = max(threshold, 3.0 * (noise ** 2 / 2.0) / major)
    return planarity, threshold


class TestPlanarityAndThreshold:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(0, 50),
           noise=st.one_of(st.none(), st.floats(0.0, 0.05)))
    def test_one_eigendecomposition_gives_both(self, seed, n, noise):
        gen = np.random.default_rng(seed)
        pts = gen.normal(size=n) + 1j * gen.normal(size=n) * 0.1
        expected = _two_eigendecompositions(pts, 0.02, noise)
        assert planarity_and_threshold(pts, 0.02, noise) == expected
        assert scatter_planarity(pts) == expected[0]
        assert effective_planarity_threshold(pts, 0.02, noise) \
            == expected[1]


# -- real-valued 1-D k-means ---------------------------------------------


def _levels(seed, n, grid):
    """1-D points on a coarse grid: duplicates, ties and, for large k,
    more clusters than distinct values (empty clusters)."""
    gen = np.random.default_rng(seed)
    pts = gen.integers(-grid, grid + 1, size=n) * 0.5
    if gen.random() < 0.5:
        pts = pts + gen.normal(0, 0.05, size=n)
    return pts.astype(np.float64)


def _assert_same_fit(real, cplx):
    c_real, l_real, i_real = real
    c_cplx, l_cplx, i_cplx = cplx
    assert c_real.dtype == np.float64
    assert c_cplx.dtype == np.complex128
    assert c_real.tobytes() == np.ascontiguousarray(c_cplx.real).tobytes()
    # The complex path's imaginary parts are all +0.0, not -0.0.
    assert np.all(c_cplx.imag == 0) and not np.any(np.signbit(c_cplx.imag))
    np.testing.assert_array_equal(l_real, l_cplx)
    assert i_real == i_cplx


class TestRealKMeans:
    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, n=st.integers(9, 120), k=st.sampled_from([3, 9]),
           restarts=st.integers(1, 6), grid=st.integers(1, 6))
    def test_lloyd_real_equals_complex(self, seed, n, k, restarts, grid):
        pts = _levels(seed, n, grid)
        gen = np.random.default_rng(seed + 1)
        cents = pts[gen.integers(0, n, size=(restarts, k))]
        _assert_same_fit(ref.lloyd_batched(pts, cents),
                         ref.lloyd_batched(pts.astype(np.complex128),
                                           cents.astype(np.complex128)))

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, n=st.integers(9, 120), k=st.sampled_from([3, 9]),
           restarts=st.integers(1, 6), grid=st.integers(1, 6))
    def test_seeding_real_equals_complex(self, seed, n, k, restarts,
                                         grid):
        pts = _levels(seed, n, grid)
        gen_real = np.random.default_rng(seed)
        gen_cplx = np.random.default_rng(seed)
        real = _kmeans_pp_init(pts, k, restarts, gen_real)
        cplx = _kmeans_pp_init(pts.astype(np.complex128), k, restarts,
                               gen_cplx)
        assert real.tobytes() == np.ascontiguousarray(cplx.real).tobytes()
        assert gen_real.bit_generator.state == gen_cplx.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, n=st.integers(9, 120), k=st.sampled_from([3, 9]),
           restarts=st.integers(1, 6), grid=st.integers(1, 6),
           warm=st.booleans())
    def test_kmeans_real_equals_complex(self, seed, n, k, restarts, grid,
                                        warm):
        pts = _levels(seed, n, grid)
        init = (np.random.default_rng(seed + 2).normal(size=k)
                if warm else None)
        gen_real = np.random.default_rng(seed)
        gen_cplx = np.random.default_rng(seed)
        real = kmeans(pts, k, rng=gen_real, n_init=restarts,
                      init_centroids=init)
        cplx = kmeans(pts.astype(np.complex128), k, rng=gen_cplx,
                      n_init=restarts, init_centroids=init)
        _assert_same_fit((real.centroids, real.labels, real.inertia),
                         (cplx.centroids, cplx.labels, cplx.inertia))
        assert gen_real.bit_generator.state == gen_cplx.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, n_lat=st.integers(1, 28), grid=st.integers(1, 6))
    def test_lattice_match_real_equals_complex(self, seed, n_lat, grid):
        # The collinear split matches its sorted 1-D levels against
        # scalar lattices without a complex cast.
        cents = np.sort(_levels(seed, 9, grid))
        lattices = _levels(seed + 1, 9 * n_lat, grid).reshape(n_lat, 9)
        real = ref.lattice_match_errors(cents, lattices)
        cplx = ref.lattice_match_errors(cents.astype(np.complex128),
                                        lattices.astype(np.complex128))
        assert real.tobytes() == cplx.tobytes()


# -- one-pass anchor prescreen -------------------------------------------


def _observations(seed, kind):
    """Projected observations: noisy frames with either polarity and
    some leading silence, or unstructured draws (many tied scores)."""
    gen = np.random.default_rng(seed)
    if kind == "frame":
        bits = np.concatenate([expected_header(),
                               gen.integers(0, 2, gen.integers(0, 40))])
        level = np.concatenate([[0], bits]).astype(np.float64)
        obs = np.diff(level)
        obs = np.concatenate([np.zeros(gen.integers(0, 4)), obs])
        obs = obs * (-1.0 if gen.random() < 0.5 else 1.0)
        obs = obs + gen.normal(0, gen.uniform(0.0, 0.6), obs.size)
    elif kind == "levels":
        obs = gen.integers(-1, 2, gen.integers(1, 30)).astype(np.float64)
    else:
        obs = gen.uniform(-2.0, 2.0, gen.integers(1, 40))
    return obs


def _outcome(resolve, obs, header, dec, order):
    try:
        out = resolve(obs, header, dec, order)
    except DecodeError as err:
        return ("error", str(err))
    return (out.bits.tobytes(), out.bits.dtype, out.start_slot,
            out.flipped, out.header_score)


class TestOnePassPrescreen:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, kind=st.sampled_from(["frame", "levels", "noise"]),
           hint=st.sampled_from([None, False, True]),
           banded=st.booleans())
    def test_matches_the_per_polarity_oracle(self, seed, kind, hint,
                                             banded):
        obs = _observations(seed, kind)
        header = expected_header()
        dec = ViterbiDecoder(banded=banded)
        order = (False, True) if hint is None else (hint, not hint)
        assert (_outcome(_resolve_prescreened, obs, header, dec, order)
                == _outcome(oracle.resolve_prescreened, obs, header, dec,
                            order))

    def test_no_rising_edge_raises(self):
        with pytest.raises(DecodeError):
            resolve_polarity(np.zeros(20), prescreen=True)

    def test_expected_header_is_shared_and_read_only(self):
        header = expected_header()
        assert expected_header() is header
        assert not header.flags.writeable
