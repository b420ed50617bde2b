"""The decoder's numeric kernels: plain numpy arrays in and out.

The pipeline's arithmetic hot spots are a handful of tight kernels;
everything else is orchestration.  They live in
:mod:`repro.core.kernels.reference` and are re-exported here, so the
decode modules call them as ``kernels.lloyd_batched(...)``:

* :func:`lloyd_batched` / :func:`bounded_lloyd` — the batched and
  Hamerly-bounded Lloyd iterations behind every k-means fit;
* :func:`lattice_match_errors` — the greedy centroid<->lattice
  matching of the collision separator;
* :func:`edge_differentials` — the prefix-sum gather that turns window
  bounds into IQ differentials;
* :func:`viterbi_exact` / :func:`viterbi_banded` — the four-state
  trellis and its certified thresholding fast path.

Nothing in this package imports the layers above it
(``tools/check_import_cycles.py`` enforces that).
"""

from __future__ import annotations

from types import ModuleType

from . import reference
from .reference import (bounded_lloyd, edge_differentials,
                        lattice_match_errors, lloyd_batched,
                        viterbi_banded, viterbi_exact)

__all__ = [
    "bounded_lloyd",
    "edge_differentials",
    "get_backend",
    "lattice_match_errors",
    "lloyd_batched",
    "viterbi_banded",
    "viterbi_exact",
]


def get_backend() -> ModuleType:
    """The kernel module in use; its ``name`` is ``"reference"``."""
    return reference
