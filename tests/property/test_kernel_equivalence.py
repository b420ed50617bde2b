"""The numpy kernels agree with independent loop-form oracles.

The loop-form bodies in ``tests/property/_loop_kernels.py`` are fuzzed
against the pure-numpy kernels of :mod:`repro.core.kernels` on
randomized shapes, including empty and degenerate inputs.  Integer
outputs — labels, states, picks, differential gathers — must be
exactly equal; accumulated floats (inertias, match errors) may differ
only by summation order.

The struct-of-arrays packing contract is fuzzed too: pad lanes must
never perturb live-lane results, and unpacking must return exactly the
per-row kernel output.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import get_backend
from repro.core.kernels import reference as ref
from repro.core.kernels.soa import length_class, pack_ragged

from . import _loop_kernels as loop

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _random_windows(rng, n_samples, n_pos):
    """Valid (lo_b, hi_b, lo_a, hi_a) window bounds over ``n_samples``."""
    lo_b = rng.integers(0, n_samples, size=n_pos)
    hi_b = lo_b + rng.integers(1, 5, size=n_pos)
    hi_b = np.minimum(hi_b, n_samples)
    lo_b = np.minimum(lo_b, hi_b - 1)
    lo_a = rng.integers(0, n_samples, size=n_pos)
    hi_a = lo_a + rng.integers(1, 5, size=n_pos)
    hi_a = np.minimum(hi_a, n_samples)
    lo_a = np.minimum(lo_a, hi_a - 1)
    return lo_b, hi_b, lo_a, hi_a


def _prefix_sum(rng, n_samples):
    samples = (rng.standard_normal(n_samples)
               + 1j * rng.standard_normal(n_samples))
    return np.concatenate([[0], np.cumsum(samples)])


# -- per-kernel equivalence: loop bodies vs reference --------------------


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(5, 60), k=st.integers(1, 5),
       restarts=st.integers(1, 4))
def test_lloyd_batched_matches_reference(seed, n, k, restarts):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cents = (rng.standard_normal((restarts, k))
             + 1j * rng.standard_normal((restarts, k)))
    c_ref, l_ref, i_ref = ref.lloyd_batched(pts, cents.copy())
    c_loop, l_loop, i_loop = loop.lloyd_batched(pts, cents.copy(),
                                                100, 1e-10)
    np.testing.assert_array_equal(l_ref, l_loop)
    np.testing.assert_allclose(c_ref, c_loop, rtol=1e-9, atol=1e-12)
    assert np.isclose(i_ref, i_loop, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(5, 60), k=st.integers(1, 5))
def test_bounded_lloyd_matches_reference(seed, n, k):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cents = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    c_ref, l_ref, i_ref = ref.bounded_lloyd(pts, cents.copy())
    c_loop, l_loop, i_loop = loop.bounded_lloyd(pts, cents.copy(),
                                                100, 1e-10)
    np.testing.assert_array_equal(l_ref, l_loop)
    np.testing.assert_allclose(c_ref, c_loop, rtol=1e-9, atol=1e-12)
    assert np.isclose(i_ref, i_loop, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(5, 60), k=st.integers(1, 5))
def test_bounded_lloyd_matches_single_restart_batch(seed, n, k):
    """The Hamerly-bounded iteration is pruning only: its fit is
    bit-identical to a one-restart brute-force Lloyd."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cents = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    c_b, l_b, i_b = ref.bounded_lloyd(pts, cents.copy())
    c_f, l_f, i_f = ref.lloyd_batched(pts, cents.copy()[None, :])
    np.testing.assert_array_equal(l_b, l_f)
    np.testing.assert_array_equal(c_b, c_f)
    assert i_b == i_f


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 12), n_lat=st.integers(1, 6),
       m=st.integers(1, 12))
def test_lattice_match_errors_match_reference(seed, n, n_lat, m):
    """Including the m > n overflow, which both fill with inf."""
    rng = np.random.default_rng(seed)
    cents = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lattices = (rng.standard_normal((n_lat, m))
                + 1j * rng.standard_normal((n_lat, m)))
    e_ref = ref.lattice_match_errors(cents, lattices)
    e_loop = loop.lattice_match_errors(cents, lattices)
    np.testing.assert_allclose(e_ref, e_loop, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_samples=st.integers(2, 200),
       n_pos=st.integers(0, 50))
def test_edge_differentials_match_reference(seed, n_samples, n_pos):
    """The gather is elementwise, so the loop form is bit-identical —
    including the empty-stream case (zero positions)."""
    rng = np.random.default_rng(seed)
    csum = _prefix_sum(rng, n_samples)
    lo_b, hi_b, lo_a, hi_a = _random_windows(rng, n_samples, n_pos)
    d_ref = ref.edge_differentials(csum, lo_b, hi_b, lo_a, hi_a)
    d_loop = loop.edge_differentials(csum, lo_b, hi_b, lo_a, hi_a)
    np.testing.assert_array_equal(d_ref, d_loop)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 80),
       initial=st.sampled_from([-1, 0, 1, 2, 3]),
       sigma=st.floats(0.05, 1.5))
def test_viterbi_exact_matches_reference(seed, n, initial, sigma):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal(n) * 0.7
    log_flip = float(np.log(0.3))
    log_hold = float(np.log(0.7))
    s_ref = ref.viterbi_exact(obs, sigma, log_flip, log_hold, initial)
    s_loop = loop.viterbi_exact(obs, sigma, log_flip, log_hold,
                                initial)
    np.testing.assert_array_equal(s_ref, s_loop)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 80), band=st.floats(0.0, 0.4),
       start_high=st.booleans(),
       required_first=st.sampled_from([-1, 0, 1, 2, 3]))
def test_viterbi_banded_matches_reference(seed, n, band, start_high,
                                          required_first):
    """The loop form returns (ok, states); reference returns None when
    the certificate fails.  Both must agree on certification and, when
    certified, on the exact state path."""
    rng = np.random.default_rng(seed)
    # Mix clean (near-lattice) and noisy observations so both the
    # certified and the uncertifiable branches are exercised.
    clean = rng.integers(-1, 2, size=n).astype(np.float64)
    noise = rng.standard_normal(n) * rng.choice([0.02, 0.6])
    obs = clean + noise
    s_ref = ref.viterbi_banded(obs, band, start_high, required_first)
    ok, s_loop = loop.viterbi_banded(obs, band, start_high,
                                     required_first)
    assert ok == (s_ref is not None)
    if ok:
        np.testing.assert_array_equal(s_ref, s_loop)


# -- struct-of-arrays packing --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_rows=st.integers(0, 12),
       n_samples=st.integers(4, 120))
def test_soa_pad_lanes_do_not_perturb(seed, n_rows, n_samples):
    """Batched gathers over padded rows equal per-row gathers exactly.

    Rows are ragged (including empty rows, which must be dropped); pad
    lanes carry the trivial [0, 1) window and are sliced away on
    unpack, so every unpacked row must be bit-identical to calling the
    kernel on that row alone.
    """
    rng = np.random.default_rng(seed)
    csum = _prefix_sum(rng, n_samples)
    rows = []
    for _ in range(n_rows):
        n_pos = int(rng.integers(0, 9))
        rows.append(_random_windows(rng, n_samples, n_pos))
    batches = pack_ragged(rows, pad_values=(0, 1, 0, 1))

    seen = set()
    for batch in batches:
        flat = ref.edge_differentials(
            csum, *(col.ravel() for col in batch.columns))
        for r, diffs in batch.unpack(flat):
            direct = ref.edge_differentials(csum, *rows[r])
            np.testing.assert_array_equal(diffs, direct)
            seen.add(r)
    expected = {r for r, cols in enumerate(rows) if cols[0].size > 0}
    assert seen == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_rows=st.integers(1, 12))
def test_soa_packing_shape_invariants(seed, n_rows):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        n_pos = int(rng.integers(1, 20))
        a = rng.integers(0, 100, size=n_pos)
        rows.append((a, a + 1, a + 2, a + 3))
    batches = pack_ragged(rows, pad_values=(0, 1, 0, 1))
    widths = [b.width for b in batches]
    assert widths == sorted(widths)
    for batch in batches:
        assert batch.width == length_class(int(batch.lengths.max()))
        for col in batch.columns:
            assert col.shape == (len(batch.rows), batch.width)
        # mask marks exactly the live lanes
        np.testing.assert_array_equal(
            batch.mask.sum(axis=1), batch.lengths)
        # live lanes hold the original data
        for i, r in enumerate(batch.rows):
            for c in range(4):
                np.testing.assert_array_equal(
                    batch.columns[c][i, :int(batch.lengths[i])],
                    rows[r][c])


def test_length_class_is_next_pow2():
    assert [length_class(n) for n in (1, 2, 3, 4, 5, 8, 9, 1000)] \
        == [1, 2, 4, 4, 8, 8, 16, 1024]


# -- kernel identity ---------------------------------------------------


def test_reference_backend_always_available():
    assert get_backend() is ref
    assert get_backend().name == "reference"
