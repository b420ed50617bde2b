"""Supervision tests for the batch engine: crashes, hangs, retries,
exact blame, and resource cleanup.

Each test swaps a sabotaged trial from :mod:`tests.core.sabotage` in
for :func:`repro.core.engine._decode_task` in the test process.  The
engine sends its trial function to its children with every task, by
reference, so every spawned child imports the sabotage and runs it.
"""

import glob
import os
import subprocess
import sys
import textwrap
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core import ring as ring_module
from repro.core.engine import BatchDecoder, EpochOutcome, _decode_task
from repro.utils.rng import spawn_seed_sequences

from ..conftest import build_decoder, build_network
from . import sabotage

N_EPOCHS = 6

if ring_module._shared_memory is None:  # pragma: no cover
    pytest.skip("platform lacks multiprocessing.shared_memory",
                allow_module_level=True)


@pytest.fixture(scope="module")
def config(fast_profile):
    return build_decoder(fast_profile).config


@pytest.fixture(scope="module")
def captures(fast_profile):
    """Single-tag epochs with ground truth (cheap, non-trivial)."""
    return [build_network(1, fast_profile, seed=20 + k).run_epoch(0.006)
            for k in range(N_EPOCHS)]


@pytest.fixture(scope="module")
def traces(captures):
    return [c.trace for c in captures]


@pytest.fixture(scope="module")
def baseline(config, traces):
    """Serial reference results for the same seeds."""
    seqs = spawn_seed_sequences(0, len(traces))
    return [_decode_task(t, i, np.random.default_rng(seqs[i]), config)
            for i, t in enumerate(traces)]


def _assert_matches_baseline(outcome, reference):
    assert outcome.result is not None
    assert outcome.result.epoch_index == reference.epoch_index
    assert len(outcome.result.streams) == len(reference.streams)
    for a, b in zip(outcome.result.streams, reference.streams):
        np.testing.assert_array_equal(a.bits, b.bits)


class TestWorkerCrash:
    def test_crashing_task_quarantined_batch_completes(
            self, config, traces, baseline, monkeypatch):
        victim = 2
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.crash_at, victim))
        engine = BatchDecoder(config=config, seed=0, max_workers=2)
        outcomes = engine.decode_outcomes(traces)
        assert [o.epoch_index for o in outcomes] == \
            list(range(len(traces)))
        assert outcomes[victim].status == "failed"
        assert outcomes[victim].result is None
        assert "WorkerCrashError" in outcomes[victim].error
        for i, outcome in enumerate(outcomes):
            if i != victim:
                _assert_matches_baseline(outcome, baseline[i])

    def test_crash_surfaces_as_engine_fault_in_iter_decode(
            self, config, traces, monkeypatch):
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.crash_at, 1))
        engine = BatchDecoder(config=config, seed=0, max_workers=2)
        results = engine.decode_epochs(traces)
        assert len(results) == len(traces)
        failed = results[1]
        assert failed.degraded
        assert failed.degraded_streams[0].stage == "engine"
        assert not failed.streams


class TestHang:
    def test_hung_task_times_out_batch_completes(
            self, config, traces, baseline, monkeypatch):
        victim = 1
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.hang_at, victim))
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              task_timeout_s=1.0)
        start = time.monotonic()
        outcomes = engine.decode_outcomes(traces)
        elapsed = time.monotonic() - start
        assert [o.epoch_index for o in outcomes] == \
            list(range(len(traces)))
        assert outcomes[victim].status == "failed"
        assert "TaskHangError" in outcomes[victim].error
        # Two strikes at 1 s each plus overhead — not 300 s.
        assert elapsed < 60
        for i, outcome in enumerate(outcomes):
            if i != victim:
                _assert_matches_baseline(outcome, baseline[i])


class TestRetry:
    def test_transient_worker_error_retried(self, config, traces,
                                            baseline, monkeypatch,
                                            tmp_path):
        marker = str(tmp_path / "failed-once")
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.raise_once_at, 3, marker))
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              max_attempts=3)
        outcomes = engine.decode_outcomes(traces)
        assert outcomes[3].attempts >= 2
        for i, outcome in enumerate(outcomes):
            _assert_matches_baseline(outcome, baseline[i])

    def test_persistent_error_fails_after_max_attempts(
            self, config, traces, monkeypatch):
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.raise_at, 0))
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              max_attempts=2, retry_backoff_s=0.01)
        outcomes = engine.decode_outcomes(traces)
        assert outcomes[0].status == "failed"
        assert "ValueError" in outcomes[0].error
        assert outcomes[0].attempts == 2

    def test_serial_path_retries_and_fails_identically(
            self, config, traces, monkeypatch):
        calls = []

        def broken(trace, index, rng, config):
            calls.append(index)
            raise ValueError("nope")

        monkeypatch.setattr(engine_module, "_decode_task", broken)
        engine = BatchDecoder(config=config, seed=0, max_workers=1,
                              max_attempts=2, retry_backoff_s=0.0)
        outcomes = engine.decode_outcomes(traces[:2])
        assert [o.status for o in outcomes] == ["failed", "failed"]
        assert calls == [0, 0, 1, 1]


class TestOutcomeStatuses:
    def test_clean_epochs_report_ok(self, config, traces):
        engine = BatchDecoder(config=config, seed=0, max_workers=1)
        outcomes = engine.decode_outcomes(traces[:2])
        assert all(isinstance(o, EpochOutcome) for o in outcomes)
        assert all(o.status == "ok" and o.ok for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)

    def test_repaired_epoch_reports_degraded(self, config, traces):
        trace = traces[0].slice(0, len(traces[0]))
        trace.allow_nonfinite = True
        trace.samples = np.array(trace.samples, copy=True)
        trace.samples[100:110] = np.nan
        engine = BatchDecoder(config=config, seed=0, max_workers=1)
        outcome, = engine.decode_outcomes([trace])
        assert outcome.status == "degraded"
        assert outcome.result.trace_health.verdict == "degraded"


def _shm_blocks():
    return set(glob.glob("/dev/shm/psm_*"))


class TestSharedMemoryHygiene:
    """The ring outlives a call but not the engine, and a call that ends
    early or loses a child leaves no frame live in it."""

    def test_abandoned_iteration_leaks_no_blocks(self, config, traces):
        before = _shm_blocks()
        with BatchDecoder(config=config, seed=0, max_workers=2) as engine:
            iterator = engine.iter_decode(traces)
            next(iterator)
            iterator.close()  # consumer walks away mid-batch
            assert engine._children.ring.live_frames == 0
        assert _shm_blocks() == before

    def test_crash_path_leaks_no_blocks(self, config, traces,
                                        monkeypatch):
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.crash_at, 2))
        before = _shm_blocks()
        with BatchDecoder(config=config, seed=0, max_workers=2) as engine:
            engine.decode_outcomes(traces)
            assert engine._children.ring.live_frames == 0
        assert _shm_blocks() == before


class TestExactBlame:
    """A lost child held exactly one task, so only that task pays."""

    def test_crash_charges_only_the_victim(self, config, traces,
                                           monkeypatch):
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.crash_at, 2))
        engine = BatchDecoder(config=config, seed=0, max_workers=2)
        outcomes = engine.decode_outcomes(traces)
        assert [o.attempts for o in outcomes] == [1, 1, 2, 1, 1, 1]

    def test_hang_charges_only_the_victim(self, config, traces,
                                          monkeypatch):
        monkeypatch.setattr(engine_module, "_decode_task",
                            partial(sabotage.hang_at, 1))
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              task_timeout_s=1.0)
        outcomes = engine.decode_outcomes(traces)
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1, 1, 1]


def _child_pids():
    """Live (or unreaped) OS-level children of this process."""
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.update(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:  # thread exited mid-scan
            continue
    return pids


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children")
class TestNothingOutlivesABatch:
    """A child lost to a crash or a hang never outlives the call that
    lost it; the children an engine keeps between calls, and its ring,
    never outlive :meth:`BatchDecoder.close`."""

    @pytest.mark.parametrize("ending",
                             ["finished", "abandoned", "crashed", "hung"])
    def test_no_child_or_shm_block_survives(self, ending, config, traces,
                                            monkeypatch, tmp_path):
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()  # a long-lived helper, not ours
        pids_before, shm_before = _child_pids(), _shm_blocks()
        lost_pid = tmp_path / "lost.pid"
        if ending == "crashed":
            monkeypatch.setattr(engine_module, "_decode_task", partial(
                sabotage.crash_at, 2, pid_file=str(lost_pid)))
        if ending == "hung":
            monkeypatch.setattr(engine_module, "_decode_task", partial(
                sabotage.hang_at, 1, pid_file=str(lost_pid)))
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              task_timeout_s=1.0)
        iterator = engine.iter_outcomes(traces)
        if ending == "abandoned":
            next(iterator)
            iterator.close()
        else:
            assert len(list(iterator)) == len(traces)
        kept = _child_pids() - pids_before
        assert kept == {child._proc.pid
                        for child in engine._children.idle}
        assert len(kept) <= 2
        if ending in ("crashed", "hung"):
            assert int(lost_pid.read_text()) not in kept
        engine.close()
        assert _child_pids() - pids_before == set()
        assert _shm_blocks() == shm_before


_LONE_INPUT = textwrap.dedent("""
    import functools, sys
    import numpy as np
    from repro.core import engine
    from repro.types import IQTrace
    from tests.core import sabotage

    fault = getattr(sabotage, sys.argv[1] + "_at")
    engine._decode_task = functools.partial(fault, 0)
    trace = IQTrace(samples=np.ones(256, dtype=np.complex128),
                    sample_rate_hz=1e6)
    outcome, = engine.BatchDecoder(
        max_workers=2, task_timeout_s=1.0).decode_outcomes([trace])
    print(outcome.status, outcome.attempts, outcome.error)
""")


class TestLoneInput:
    """With ``max_workers > 1`` a batch of one input is supervised like
    any other: the watchdog bounds it and its crash kills a child, not
    the caller.  Each case runs in its own interpreter, since at worst
    it takes that interpreter down.  The sabotage reaches the children
    from an importable module: a ``-c`` script's own functions cannot
    be loaded by a spawned child."""

    @pytest.mark.parametrize("fault, error", [
        ("hang", "TaskHangError"), ("crash", "WorkerCrashError")])
    def test_lone_input_is_supervised(self, fault, error):
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        proc = subprocess.run([sys.executable, "-c", _LONE_INPUT, fault],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        status, attempts, message = proc.stdout.strip().split(" ", 2)
        assert (status, attempts) == ("failed", "2")
        assert error in message
