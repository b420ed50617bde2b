"""Process-backed shard executor: one long-lived child per shard.

``ServiceConfig.executor = "process"`` swaps each shard's in-thread
decode for a child process that holds the shard's warm
:class:`~repro.service.worker.SessionPool` resident across frames.
The child is a :class:`~repro.core.child.SupervisedChild`, the same
primitive the batch engine's children use.  The division of labour
keeps every piece of mutable ring state in exactly one process:

* the **parent** keeps the shard queue, all
  :class:`~repro.core.ring.ChunkRing` bookkeeping (allocate / retire /
  reclaim), shedding, supervision and terminal accounting — exactly
  the thread executor's dispatcher loop, with the decode call replaced
  by a pipe round-trip;
* the **child** attaches the ring's shared-memory block by name
  (:class:`~repro.core.ring.RingView`) and decodes each frame
  zero-copy from the ``(start, n)`` region the parent sends, running
  the same :class:`SessionPool` code the thread executor runs — same
  seeds, same retry ladder, so decodes stay bit-identical.

The pipe protocol is **lock-step**: at most one command is in flight
per child, serialized by an IPC lock in the parent.  That makes kill
blame exact (a dead child was holding exactly the frame the parent
just sent), keeps terminal accounting trivially exact, and needs no
cross-process queue.

Supervision verdicts per frame:

* a **deliberate kill** (chaos ``ChaosWorkerKill`` raised inside the
  child's decode) is announced by the child before it exits; the
  parent fails the frame immediately — the same verdict the thread
  executor delivers when the kill tears down its worker thread — and
  respawns the child;
* a **silent crash** (pipe EOF with no announcement: segfault,
  ``kill -9``) or a **hang** (no verdict within
  ``ServiceConfig.child_timeout_s`` → the child is terminated)
  respawns the child and resubmits the frame once — sessions rebuild
  from the same stream seeds, so the retried decode is bit-identical —
  with a second strike failing the frame;
* either way the parent retires the frame's ring region itself, so a
  dying child can never leak a ring slot or pin ``/dev/shm``.

The child holds no metrics.  It answers each frame with the pool's
:class:`~repro.service.worker.Verdict`, sent back unchanged, and the
parent counts every metric from it in
:meth:`~repro.service.worker.ShardWorker._complete`, exactly as a
thread shard does.

Each child starts from a fresh interpreter in
:meth:`ProcessShardWorker.prestart`, and the service waits for it to
boot before any dispatcher thread runs, so a child that cannot start
raises :class:`~repro.errors.ChildBootError` in
:meth:`DecodeService.start`.  The child is built from the shard's
:class:`~repro.service.config.ServiceConfig`, pickled into it, so the
config's ``decoder_factory`` must pickle too.  A replacement child
boots while its frame waits in the pipe; the frame's
``child_timeout_s`` runs from the moment it has booted.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..core.child import CRASH_STRIKES, ChildLost, SupervisedChild
from ..core.ring import RingView
from ..errors import ConfigurationError
from .config import ServiceConfig
from .framing import ChunkFrame
from .metrics import MetricsRegistry
from .worker import (STATUS_FAILED, ChunkResult, FifoLock,
                     SessionPool, ShardWorker, Verdict)


class ProcessShardWorker(ShardWorker):
    """One shard = the parent dispatcher thread + a child process.

    Drop-in for :class:`ShardWorker`: queueing, shedding, ring
    ownership, ``join_idle`` and result delivery are all inherited —
    only ``_decode_frame`` changes, into a supervised pipe round-trip.
    That override never takes ``decode_lock``: each child has its own
    interpreter, so the children decode in parallel.
    """

    def __init__(self, shard_id: int, config: ServiceConfig,
                 registry: MetricsRegistry,
                 on_result: Callable[[ChunkResult], None],
                 decode_lock: FifoLock):
        super().__init__(shard_id, config, registry, on_result,
                         decode_lock)
        if self.ring.shm_name is None:
            raise ConfigurationError(
                "executor='process' needs a shared-memory ring "
                "(this host has no POSIX shared memory, or /dev/shm "
                "has no room)")
        # Lock-step IPC: one command in flight per child, ever.
        self._ipc = threading.Lock()
        self._child: Optional[SupervisedChild] = None

    # -- child lifecycle ---------------------------------------------------

    def prestart(self) -> None:
        with self._ipc:
            self._spawn_child_locked()
            self._child.wait_booted()

    def _spawn_child_locked(self) -> None:
        self._child = SupervisedChild(
            _shard_child,
            (self.shard_id, self.config, self.ring.shm_name),
            name=f"lf-shard-proc-{self.shard_id}")

    def _respawn_child_locked(self) -> None:
        if self._child is not None:
            self._child.stop(graceful=False)
        self._m_respawns.inc(1.0, shard=self._shard_label,
                             kind="worker_process")
        self._spawn_child_locked()

    def _shutdown_executor(self) -> None:
        with self._ipc:
            if self._child is not None:
                self._child.stop()
                self._child = None

    # -- supervised decode -------------------------------------------------

    def _decode_frame(self, frame: ChunkFrame) -> ChunkResult:
        try:
            verdict = self._ipc_decode(frame)
        finally:
            # The parent owns retirement: whatever happened to the
            # child, the frame's ring region is reclaimed here and the
            # slot cannot leak.
            if frame.frame_id >= 0:
                self.ring.retire(frame.frame_id)
        return self._complete(frame, verdict)

    def _ipc_decode(self, frame: ChunkFrame) -> Verdict:
        region = ((-1, 0) if frame.frame_id < 0
                  else self.ring.region(frame.frame_id))
        with self._ipc:
            for strike in range(1, CRASH_STRIKES + 1):
                if self._child is None or not self._child.alive:
                    self._respawn_child_locked()
                self._child.send((frame,) + region,
                                 self.config.child_timeout_s)
                try:
                    return self._child.recv()
                except ChildLost as lost:
                    self._respawn_child_locked()
                    if lost.kind == "died":
                        # Deliberate in-decode kill (chaos): the child
                        # announced it.  Fail the frame — the thread
                        # executor's verdict for the same fault.
                        return Verdict(STATUS_FAILED, attempts=1,
                                       error=f"worker died: {lost.detail}")
                    if lost.kind == "hang":
                        last_error = (
                            f"worker process hung > "
                            f"{self.config.child_timeout_s}s (strike "
                            f"{strike}/{CRASH_STRIKES})")
                    else:  # silent crash: EOF with no announcement
                        last_error = (
                            f"worker process died (strike "
                            f"{strike}/{CRASH_STRIKES})")
            return Verdict(STATUS_FAILED, attempts=CRASH_STRIKES,
                           error=last_error)


def _shard_child(shard_id: int, config: ServiceConfig,
                 ring_name: str) -> Callable:
    """Build a shard child's handler: decode one frame per message.

    Runs the exact :class:`SessionPool` the thread executor runs and
    returns its :class:`Verdict` unchanged.  A ``BaseException`` out
    of the decode (a chaos worker kill) escapes the handler, which the
    child announces before dying.
    """
    pool = SessionPool(shard_id, config)
    ring = RingView(ring_name)

    def handle(message):
        frame, start, n = message
        samples = (frame.inline if frame.frame_id < 0
                   else ring.view(start, n))
        return pool.decode(frame, samples)

    return handle
