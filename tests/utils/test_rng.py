"""Tests for RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import key_seed, make_rng


def test_make_rng_from_int_is_deterministic():
    a = make_rng(42).integers(0, 1000, 10)
    b = make_rng(42).integers(0, 1000, 10)
    np.testing.assert_array_equal(a, b)


def test_make_rng_passthrough():
    gen = np.random.default_rng(1)
    assert make_rng(gen) is gen


def test_make_rng_none_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)


def test_key_seed_equals_the_signoff_cell_seeds():
    """The capacity-surface and auto-tune seeds the committed signoff
    baseline was recorded with: (root, *key) -> seed."""
    assert [key_seed(520, 0, 0, 0, 0), key_seed(520, 1, 0, 1, 1),
            key_seed(14, 2, 1, 0, 1)] == [3170164180, 4073316621,
                                          1968594755]
    assert key_seed(key_seed(520, 0, 0, 0, 0), 977) == 3503983744
    assert [key_seed(4242, 0), key_seed(4242, 3)] == [993336185,
                                                      197924797]


def test_key_seed_of_a_cell_ignores_cells_appended_after_it():
    grid = [(i, t) for i in range(3) for t in range(2)]
    seeds = {key: key_seed(9, *key) for key in grid}
    grown = grid + [(3, 0), (3, 1), (0, 2)]
    assert {key: key_seed(9, *key) for key in grown if key in seeds} \
        == seeds


def test_key_seed_separates_keys_and_roots():
    seeds = {key_seed(root, *key) for root in (0, 1)
             for key in [(), (0,), (1,), (0, 0), (0, 1), (1, 0)]}
    assert len(seeds) == 12
    assert all(isinstance(s, int) and 0 <= s < 2 ** 32 for s in seeds)
