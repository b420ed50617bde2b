"""Process-executor supervision: hangs, silent crashes, CLI shutdown.

The chaos suite covers *announced* child deaths (``ChaosWorkerKill``
raised inside the child's decode).  These tests cover the two failure
modes a real fleet hits that never announce themselves — a child that
hangs mid-frame (killed after ``child_timeout_s`` and the frame
resubmitted) and a child that dies silently (pipe EOF, e.g. the OOM
killer) — plus the ``python -m repro.service`` graceful-SIGTERM
contract.

Faults are triggered by magic markers in the submitted samples, so
they are deterministic, executor-independent, and reach the child
through the shared-memory ring like any other data.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ChildBootError
from repro.service import DecodeService, SHED_OLDEST, ServiceConfig
from repro.types import EpochResult, IQTrace

_SHM_DIR = Path("/dev/shm")

_HANG_MARKER = 123 + 456j
_CRASH_MARKER = 987 - 654j


class _MarkerDecoder:
    """Hangs or dies by whatever marker leads the chunk's samples.

    A crash consults ``crash_once_sentinel``: the first incarnation
    touches the sentinel and dies silently; the respawned child sees
    it and decodes normally — proving resubmission recovers the frame.
    """

    def __init__(self, crash_once_sentinel: str):
        self._sentinel = Path(crash_once_sentinel)

    def decode_epoch(self, trace, sample_offset=0.0):
        lead = complex(trace.samples[0])
        if lead == _HANG_MARKER:
            time.sleep(3600.0)
        if lead == _CRASH_MARKER and not self._sentinel.exists():
            self._sentinel.touch()
            os._exit(3)                  # silent: no pipe message
        return EpochResult(duration_s=trace.duration_s)


def _marker_factory(sentinel: str, key, seed) -> _MarkerDecoder:
    return _MarkerDecoder(sentinel)


def _trace(lead: complex = 1 + 1j, n: int = 256) -> IQTrace:
    samples = np.ones(n, dtype=np.complex128)
    samples[0] = lead
    return IQTrace(samples=samples, sample_rate_hz=1e6,
                   allow_nonfinite=True)


def _run(tmp_path, traces, child_timeout_s=None):
    sentinel = str(tmp_path / "crashed-once")
    config = ServiceConfig(
        n_shards=1, queue_depth=8, overflow=SHED_OLDEST,
        executor="process", child_timeout_s=child_timeout_s,
        decoder_factory=partial(_marker_factory, sentinel))
    service = DecodeService(config)
    results: list = []
    service.add_result_handler(results.append)

    async def run():
        async with service:
            for trace in traces:
                await service.submit(reader_id=0, antenna=0,
                                     trace=trace, sample_offset=0.0)
            await service.drain()

    asyncio.run(run())
    return service, sorted(results, key=lambda r: r.frame.seq)


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_hung_child_is_killed_and_frame_fails_after_two_strikes(
        tmp_path):
    """A frame that hangs every incarnation burns both strikes and
    fails; frames around it decode and accounting stays exact."""
    traces = [_trace(), _trace(_HANG_MARKER), _trace()]
    start = time.perf_counter()
    service, results = _run(tmp_path, traces, child_timeout_s=0.5)
    wall = time.perf_counter() - start
    stats = service.snapshot()
    assert stats.submitted == 3
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    assert [r.status for r in results] == ["ok", "failed", "ok"]
    assert "hung" in results[1].error
    # Two strikes at 0.5s each, not a 3600s decode.
    assert wall < 30.0
    assert 'kind="worker_process"' in service.render_metrics()


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_silent_child_death_resubmits_and_recovers_the_frame(
        tmp_path):
    """A child that dies without a word (``os._exit``) loses its
    in-flight frame to resubmission, not to the void: the respawned
    child decodes it and the stream continues."""
    traces = [_trace(), _trace(_CRASH_MARKER), _trace()]
    service, results = _run(tmp_path, traces)
    stats = service.snapshot()
    assert stats.submitted == 3
    assert stats.submitted == stats.decoded + stats.failed + stats.shed
    # Every frame decoded — including the one whose first attempt
    # died with the child.
    assert [r.status for r in results] == ["ok", "ok", "ok"]
    assert stats.failed == 0
    assert 'kind="worker_process"' in service.render_metrics()


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_child_that_cannot_boot_fails_start_and_leaves_nothing():
    """A shard child is built from its pickled config; a factory that
    does not pickle fails ``start()`` itself, and the half-built
    service leaves no ring and no child behind."""
    before = {p.name for p in _SHM_DIR.iterdir()}
    service = DecodeService(ServiceConfig(
        n_shards=2, executor="process",
        decoder_factory=lambda key, seed: _MarkerDecoder("unused")))

    async def run():
        async with service:
            pass

    with pytest.raises(ChildBootError, match="pickle"):
        asyncio.run(run())
    assert {p.name for p in _SHM_DIR.iterdir()} == before
    assert all(w._child is None or not w._child.alive
               for w in service._workers)


@pytest.mark.skipif(not _SHM_DIR.is_dir(),
                    reason="no /dev/shm on this platform")
def test_cli_sigterm_drains_and_leaves_no_shm(tmp_path):
    """``python -m repro.service`` under SIGTERM: exits 0, reports the
    early shutdown, and leaves /dev/shm exactly as it found it."""
    before = {p.name for p in _SHM_DIR.iterdir()}
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_SERVICE_EXECUTOR", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--seconds", "60", "--readers", "1", "--tags", "2",
         "--executor", "process", "--n-shards", "2", "--seed", "3"],
        cwd=str(Path(__file__).resolve().parents[2]),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    lines: list = []
    replaying = threading.Event()

    def read():
        for line in proc.stdout:
            lines.append(line)
            if line.startswith("replaying"):
                replaying.set()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        # Signal once traffic is rendered and the replay has begun.
        replaying.wait(timeout=120.0)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=120.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10.0)
        proc.stdout.close()
    out = "".join(lines)
    assert proc.returncode == 0, out
    assert "shutdown requested" in out
    leaked = {p.name for p in _SHM_DIR.iterdir()} - before
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"
