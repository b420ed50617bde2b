"""Default-configured sweep runners share one engine per process, so
a run of several experiments boots its children once."""

import os
from pathlib import Path

import pytest

from repro.core.engine import TrialSpec
from repro.experiments.sweep import SweepGrid, SweepRunner


def square(trace, payload, rng, config):
    """A trial the children import from this module."""
    return payload * payload


def _child_pids() -> set:
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.update(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:  # thread exited mid-scan
            continue
    return pids


def test_default_runners_share_one_engine():
    first, second = SweepRunner(square), SweepRunner(square, seed=7)
    assert first.engine is second.engine
    assert SweepRunner(square, max_workers=1).engine is not first.engine
    assert SweepRunner(square, task_timeout_s=5.0).engine \
        is not first.engine


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children")
def test_a_second_experiment_boots_no_child():
    grid = SweepGrid.from_axes({"x": [1, 2, 3, 4]},
                               lambda coords: TrialSpec(payload=coords["x"]))
    runner = SweepRunner(square)
    if runner.engine.max_workers <= 1:
        pytest.skip("one CPU: the engine decodes serially")
    rows = runner.run(grid)
    children = _child_pids()
    assert SweepRunner(square).run(grid) == rows
    assert _child_pids() == children
    assert [row["results"] for row in rows] == [[1], [4], [9], [16]]
