"""Deterministic random-number plumbing.

Every stochastic component in the simulator accepts either a seed or a
``numpy.random.Generator``.  Centralizing the conversion here keeps all
experiments reproducible from a single integer seed: a sweep derives
the seed of each of its cells and trials from that root by key
(:func:`key_seed`), never by drawing from a shared generator.
"""

from __future__ import annotations

from typing import Iterator, List, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a Generator from a seed, an existing Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def key_seed(root: int, *key: int) -> int:
    """The integer seed of the cell or trial at ``key`` under ``root``.

    ``SeedSequence(root, spawn_key=key)`` mixes the key into the root's
    entropy, so a seed depends only on the root and its own key: cells
    appended to a grid, or trials added after it, never move the seeds
    of the ones already there.  Keys nest, so a trial can key its own
    sub-streams off its cell's seed (``key_seed(key_seed(root, i), k)``).
    """
    state = np.random.SeedSequence(
        entropy=root, spawn_key=tuple(key)).generate_state(1)[0]
    return int(state)


def spawn_seed_sequences(seed: SeedLike,
                         n: int) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent, picklable seed sequences from a seed.

    The batch-decode engine ships one sequence per decode task to its
    worker processes, so results depend only on the root seed and the
    task index — never on how many workers ran or which worker picked
    up which task.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} seed sequences")
    if isinstance(seed, np.random.Generator):
        # Derive a root entropy value from the generator's stream.
        return np.random.SeedSequence(
            int(seed.integers(0, 2 ** 63))).spawn(n)
    return np.random.SeedSequence(seed).spawn(n)


def iter_spawn_seed_sequences(seed: SeedLike
                              ) -> Iterator[np.random.SeedSequence]:
    """Lazily yield the same children ``spawn_seed_sequences`` returns.

    ``SeedSequence.spawn`` derives each child from the spawn *index*
    alone, so drawing children one at a time produces exactly the
    sequence a single up-front ``spawn(n)`` would — letting a streaming
    consumer (the batch engine's sliding submission window) seed an
    unbounded task stream without knowing its length in advance.
    """
    if isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2 ** 63)))
    else:
        root = np.random.SeedSequence(seed)
    while True:
        yield root.spawn(1)[0]
