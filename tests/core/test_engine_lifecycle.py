"""The batch engine's children: when they start, how long they live,
and what they hold.

Each child is a fresh interpreter, so its peak memory stays near the
decoder's own footprint whatever the caller holds.  Children start at
the first multi-worker call and serve every later one; ``close()``,
the end of a ``with`` block and dropping the engine each stop them
and unlink the engine's ring.  A child lost to a crash or a hang is
replaced, never reused, and a child only ever maps its engine's live
ring.

Everything is read from ``/proc``: a child is an OS-level child of the
test process, a ring mapping is a ``psm_`` line in its ``maps``.
"""

import gc
import glob
import os
import sys
import types
from functools import partial
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import BatchDecoder, TrialSpec
from repro.errors import ChildBootError

from ..conftest import build_decoder, build_network
from . import sabotage

pytestmark = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children")

#: Peak resident size a child may reach decoding the fixtures, MB.  A
#: child started from the caller's image begins at the caller's size.
CHILD_PEAK_CEILING_MB = 100.0
#: Memory the caller touches before the call, MB.
CALLER_BALLAST_MB = 150


@pytest.fixture(scope="module")
def config(fast_profile):
    return build_decoder(fast_profile).config


@pytest.fixture(scope="module")
def traces(fast_profile):
    return [build_network(1, fast_profile, seed=40 + k).run_epoch(0.006)
            .trace for k in range(4)]


@pytest.fixture
def before():
    """This process's children and /dev/shm blocks before the test
    (with the long-lived resource tracker already among them)."""
    resource_tracker.ensure_running()
    return _child_pids(), _shm_blocks()


def _child_pids() -> set:
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.update(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:  # thread exited mid-scan
            continue
    return pids


def _shm_blocks() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _peak_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise AssertionError(f"no VmHWM for pid {pid}")


def _mapped_rings(pid: int) -> set:
    return {line.split()[-1].rsplit("/", 1)[-1]
            for line in Path(f"/proc/{pid}/maps").read_text().splitlines()
            if "/psm_" in line}


def test_child_memory_does_not_follow_the_callers_heap(config, traces,
                                                       before):
    ballast = np.ones(CALLER_BALLAST_MB * 2 ** 20 // 8)
    engine = BatchDecoder(config, seed=0, max_workers=2)
    peaks: dict = {}
    for outcome in engine.iter_outcomes(traces):
        assert outcome.status != "failed"
        for pid in _child_pids() - before[0]:
            peaks[pid] = max(peaks.get(pid, 0.0), _peak_mb(pid))
    assert _peak_mb(os.getpid()) > CALLER_BALLAST_MB
    assert len(peaks) == 2
    assert all(peak < CHILD_PEAK_CEILING_MB for peak in peaks.values()), \
        peaks
    del ballast, engine


def test_constructing_an_engine_starts_no_child(config, before):
    engine = BatchDecoder(config, seed=0, max_workers=2)
    assert engine.max_workers == 2
    assert _child_pids() == before[0]
    engine.close()


def test_calls_reuse_the_same_children(config, traces, before):
    serial = BatchDecoder(config, seed=0, max_workers=1).decode_epochs(
        traces)
    with BatchDecoder(config, seed=0, max_workers=2) as engine:
        first = engine.decode_epochs(traces)
        pids = _child_pids() - before[0]
        second = engine.decode_epochs(traces)
        assert _child_pids() - before[0] == pids
        assert len(pids) == 2
    for results in (first, second):
        assert [[s.bits.tobytes() for s in r.streams] for r in results] \
            == [[s.bits.tobytes() for s in r.streams] for r in serial]


@pytest.mark.parametrize("ending", ["close", "with", "drop"])
def test_nothing_outlives_the_engine(ending, config, traces, before):
    engine = BatchDecoder(config, seed=0, max_workers=2)
    if ending == "with":
        with engine:
            engine.decode_epochs(traces)
    else:
        engine.decode_epochs(traces)
        assert _child_pids() - before[0]
        if ending == "close":
            engine.close()
        else:
            del engine
            gc.collect()
    assert _child_pids() == before[0]
    assert _shm_blocks() == before[1]


@pytest.mark.parametrize("fault", ["crash_at", "hang_at"])
def test_lost_child_is_replaced_never_reused(fault, config, traces,
                                             before, monkeypatch,
                                             tmp_path):
    pid_file = tmp_path / "lost.pid"
    monkeypatch.setattr(engine_module, "_decode_task", partial(
        getattr(sabotage, fault), 1, pid_file=str(pid_file)))
    with BatchDecoder(config, seed=0, max_workers=2,
                      task_timeout_s=1.0) as engine:
        outcomes = engine.decode_outcomes(traces)
        lost = int(pid_file.read_text())
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1]
        assert outcomes[1].status == "failed"
        monkeypatch.undo()
        after = engine.decode_outcomes(traces)
        children = _child_pids() - before[0]
    assert all(o.status != "failed" for o in after)
    assert lost not in children
    assert len(children) == 2


def test_child_that_cannot_boot_raises_in_the_caller(config, traces,
                                                     before, monkeypatch):
    """A boot failure is the caller's error, not a task's crash: the
    call raises, no outcome is charged, and nothing is left behind."""
    monkeypatch.setattr(engine_module, "_batch_child",
                        sabotage.refuse_to_boot)
    engine = BatchDecoder(config, seed=0, max_workers=2)
    with pytest.raises(ChildBootError, match="no handler for this"):
        list(engine.iter_outcomes(traces))
    assert engine._children.ring.live_frames == 0
    engine.close()
    assert _child_pids() == before[0]
    assert _shm_blocks() == before[1]


def test_trial_the_children_cannot_import_raises_once(config, traces,
                                                      before,
                                                      monkeypatch):
    """A trial function that exists only in the caller fails every
    child the same way: the call raises once, no task is retried on a
    fresh child, and nothing is left behind."""
    module = types.ModuleType("lf_caller_only_trials")
    exec("def trial(trace, payload, rng, config):\n    return payload\n",
         module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    started = []
    supervised_child = engine_module.SupervisedChild

    def counted(*args, **kwargs):
        started.append(supervised_child(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(engine_module, "SupervisedChild", counted)
    engine = BatchDecoder(config, seed=0, max_workers=2)
    with pytest.raises(ChildBootError,
                       match="cannot load its message.*lf_caller_only"):
        list(engine.iter_trials(module.trial, [TrialSpec(trace=t)
                                               for t in traces]))
    assert 1 <= len(started) <= engine.max_workers
    assert engine._children.ring.live_frames == 0
    engine.close()
    assert _child_pids() == before[0]
    assert _shm_blocks() == before[1]


def test_close_during_a_call_lets_it_finish_and_leaves_nothing(
        config, traces, before):
    """Closing the engine between two outcomes of a live call: the call
    still yields every result, then stops its children, and the
    engine starts over on its next call."""
    serial = BatchDecoder(config, seed=0, max_workers=1).decode_epochs(
        traces * 2)
    engine = BatchDecoder(config, seed=0, max_workers=2)
    calls = engine.iter_decode(traces * 2)
    first = [next(calls)]
    engine.close()
    assert _shm_blocks() == before[1]
    results = first + list(calls)
    assert _child_pids() == before[0]
    assert _shm_blocks() == before[1]
    assert [[s.bits.tobytes() for s in r.streams] for r in results] \
        == [[s.bits.tobytes() for s in r.streams] for r in serial]
    again = engine.decode_epochs(traces)
    assert [[s.bits.tobytes() for s in r.streams] for r in again] \
        == [[s.bits.tobytes() for s in r.streams] for r in serial[:4]]
    assert len(_child_pids() - before[0]) == 2
    engine.close()
    assert _child_pids() == before[0]
    assert _shm_blocks() == before[1]


def test_children_map_only_their_engines_live_ring(config, traces,
                                                   before):
    engine = BatchDecoder(config, seed=0, max_workers=2)
    rings = []
    for _ in range(2):
        for _ in range(2):
            engine.decode_epochs(traces)
            ring = os.path.basename(engine._children.ring.shm_name)
            children = _child_pids() - before[0]
            assert len(children) == 2
            assert all(_mapped_rings(pid) == {ring} for pid in children)
        rings.append(ring)
        engine.close()  # a closed engine starts over on its next call
        assert _child_pids() == before[0]
        assert _shm_blocks() == before[1]
    assert rings[0] != rings[1]
