"""Grid sweeps over scenario cells, executed by the batch engine.

Every experiment in this repo is ultimately the same shape: enumerate
a grid of conditions (tag counts, SNR points, bitrate mixes, drift
settings), run a few independent trials per cell, and fold each cell's
trial outcomes into one row of an :class:`ExperimentResult`.  Before
this module each ``fig*.py`` hand-rolled that shape as a serial loop;
:class:`SweepGrid` + :class:`SweepRunner` make it a declarative
substrate that dispatches every trial through
:class:`~repro.core.engine.BatchDecoder` — ordered streaming, retry
and crash supervision, and parallelism on multi-core hosts — while
keeping results bit-identical for any worker count.

Determinism contract
--------------------
A trial that carries an explicit ``seed`` keeps it verbatim (this is
how refit experiments reproduce their serial ancestors' RNG streams
exactly).  A trial without one gets a :class:`numpy.random.SeedSequence`
spawned from ``(runner seed, cell index, trial index)``, so a cell's
randomness never depends on how many trials earlier cells scheduled —
grids can grow axes without reshuffling existing cells.

The runner folds cells *as they complete* (the engine streams outcomes
in submission order), so a long sweep's rows materialize incrementally
rather than after the last trial.

Engine sharing
--------------
Every runner built with the default engine settings (no ``config``,
``max_workers`` or engine keyword) runs on one engine per process.
Its children boot once, at the first multi-worker sweep, and serve
every later one until the process exits, so a run of several
experiments pays one interpreter boot per worker, not one per
experiment.  The engine's own root seed never reaches a trial (the
runner seeds each one, see above), so sharing it changes no result.

>>> grid = SweepGrid.from_axes(
...     {"snr_db": [0.0, 5.0], "n_tags": [1, 4]},
...     lambda coords: TrialSpec(payload=coords))
>>> rows = SweepRunner(my_trial_fn).run(grid, my_fold)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from ..core.engine import BatchDecoder, EpochOutcome, TrialSpec
from ..core.pipeline import LFDecoderConfig
from ..errors import ConfigurationError
from .common import ExperimentResult

__all__ = ["SweepCell", "SweepGrid", "SweepRunner"]

#: What a cell builder may return: one spec or several.
TrialsLike = Union[TrialSpec, Sequence[TrialSpec]]

#: Folds one cell's ordered outcomes into zero or more result rows.
FoldFn = Callable[["SweepCell", List[EpochOutcome]],
                  Union[None, Dict[str, Any], List[Dict[str, Any]]]]

#: The engine default-configured runners share (see "Engine sharing").
_shared_engine: Optional[BatchDecoder] = None


@dataclass(frozen=True)
class SweepCell:
    """One grid point: its coordinates and its scheduled trials.

    ``index`` is the cell's position in grid enumeration order — the
    coordinate the determinism contract keys on.  ``coords`` holds the
    axis values (or whatever the cell was registered with) for the
    fold to build its row from.
    """

    index: int
    coords: Mapping[str, Any]
    trials: Tuple[TrialSpec, ...]
    fold: Optional[FoldFn] = None


class SweepGrid:
    """An ordered collection of sweep cells.

    Build one either explicitly (:meth:`add_cell` per grid point —
    the shape refit experiments use, since their cells are rarely a
    clean cartesian product) or from axes (:meth:`from_axes`, which
    crosses the axis values in definition order).
    """

    def __init__(self) -> None:
        self._cells: List[SweepCell] = []

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells)

    @property
    def cells(self) -> Tuple[SweepCell, ...]:
        return tuple(self._cells)

    def add_cell(self, coords: Mapping[str, Any], trials: TrialsLike,
                 fold: Optional[FoldFn] = None) -> SweepCell:
        """Register one cell; returns it (index already assigned)."""
        if isinstance(trials, TrialSpec):
            trials = (trials,)
        trials = tuple(trials)
        if not trials:
            raise ConfigurationError(
                f"cell {dict(coords)!r} has no trials")
        cell = SweepCell(index=len(self._cells), coords=dict(coords),
                         trials=trials, fold=fold)
        self._cells.append(cell)
        return cell

    @classmethod
    def from_axes(cls, axes: Mapping[str, Sequence[Any]],
                  trial_builder: Callable[[Dict[str, Any]], TrialsLike],
                  fold: Optional[FoldFn] = None) -> "SweepGrid":
        """Cross the axes; one cell per coordinate combination.

        ``trial_builder`` receives each cell's coordinate dict and
        returns that cell's trial(s).
        """
        if not axes:
            raise ConfigurationError("from_axes needs at least one axis")
        grid = cls()
        names = list(axes)
        for values in product(*(axes[name] for name in names)):
            coords = dict(zip(names, values))
            grid.add_cell(coords, trial_builder(coords), fold=fold)
        return grid


class SweepRunner:
    """Executes a :class:`SweepGrid` through the batch engine.

    Parameters
    ----------
    trial_fn:
        Top-level callable ``(trace, payload, rng, config) -> Any``
        run once per trial under full engine supervision.
    config:
        Decoder config handed to workers (``trial_fn``'s fourth
        argument); trials needing per-trial variants carry them in
        their payloads instead.
    seed:
        Root of the per-cell seed derivation for trials without
        explicit seeds.
    max_workers / engine_kwargs:
        Forwarded to :class:`BatchDecoder` (worker count, watchdog,
        retry policy).  With none of these and no ``config``, the
        runner uses the process's shared engine.
    """

    def __init__(self, trial_fn: Callable,
                 config: Optional[LFDecoderConfig] = None,
                 seed: int = 0,
                 max_workers: Optional[int] = None,
                 **engine_kwargs: Any):
        global _shared_engine
        self.trial_fn = trial_fn
        self.seed = seed
        if config is not None or max_workers is not None or engine_kwargs:
            self.engine = BatchDecoder(config=config, seed=seed,
                                       max_workers=max_workers,
                                       **engine_kwargs)
        else:
            if _shared_engine is None:
                _shared_engine = BatchDecoder()
            self.engine = _shared_engine

    # -- execution ---------------------------------------------------------

    def _seeded(self, cell: SweepCell) -> List[TrialSpec]:
        """Resolve the cell's trial seeds per the determinism contract."""
        out = []
        for t, spec in enumerate(cell.trials):
            if spec.seed is None:
                child = np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(cell.index, t))
                spec = replace(spec, seed=child)
            out.append(spec)
        return out

    def run_cells(self, grid: Union[SweepGrid, Iterable[SweepCell]],
                  fold: Optional[FoldFn] = None
                  ) -> List[Dict[str, Any]]:
        """Run every cell; returns the folded rows in cell order.

        A cell's ``fold`` (or the shared ``fold`` given here) receives
        ``(cell, outcomes)`` with one :class:`EpochOutcome` per trial,
        in trial order, and returns a row dict, a list of rows, or
        ``None`` to contribute nothing.  Without any fold the raw
        outcome results land under a ``results`` key beside the cell
        coordinates.
        """
        cells = list(grid)
        flat = [spec for cell in cells for spec in self._seeded(cell)]
        rows: List[Dict[str, Any]] = []
        outcome_iter = self.engine.iter_trials(self.trial_fn, flat)
        for cell in cells:
            outcomes = [next(outcome_iter) for _ in cell.trials]
            fold_fn = cell.fold or fold
            if fold_fn is None:
                rows.append({**cell.coords,
                             "results": [o.result for o in outcomes]})
                continue
            folded = fold_fn(cell, outcomes)
            if folded is None:
                continue
            if isinstance(folded, dict):
                rows.append(folded)
            else:
                rows.extend(folded)
        return rows

    # Alias: a grid is the common argument, cells the general one.
    run = run_cells

    def run_experiment(self, grid: Union[SweepGrid, Iterable[SweepCell]],
                       experiment_id: str, description: str,
                       fold: Optional[FoldFn] = None,
                       paper_reference: Optional[Dict[str, Any]] = None,
                       notes: str = "") -> ExperimentResult:
        """:meth:`run_cells` packaged as an :class:`ExperimentResult`."""
        rows = self.run_cells(grid, fold=fold)
        return ExperimentResult(
            experiment_id=experiment_id, description=description,
            rows=rows, paper_reference=paper_reference or {},
            notes=notes)


def results_of(outcomes: Sequence[EpochOutcome]) -> List[Any]:
    """The settled results of a cell's outcomes (failed tasks raise:
    an experiment trial that cannot complete is a bug, not data)."""
    bad = [o for o in outcomes if o.status == "failed"]
    if bad:
        raise ConfigurationError(
            f"{len(bad)} sweep trial(s) failed; first: {bad[0].error}")
    return [o.result for o in outcomes]
