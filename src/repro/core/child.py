"""One supervised child process, driven lock-step over a duplex pipe.

Both process-parallel decoders of this repo — the batch engine
(:class:`~repro.core.engine.BatchDecoder`) and the streaming service's
process shards (:mod:`repro.service.process_worker`) — run their
decodes in children built from this primitive:

* :class:`SupervisedChild` starts a child from a fresh interpreter (the
  stdlib ``spawn`` start method).  The child calls ``target(*args)``
  once to build a *handler*, reports that it booted, then answers each
  message the parent sends with ``handler(message)``.  At most one
  message is in flight per child, so when a child is lost the parent
  knows exactly which unit of work it held.
* A fresh interpreter holds what the child imports and builds, none of
  the caller's heap, so a child's memory does not follow its caller's.
  In exchange everything that crosses over must pickle: ``target`` and
  ``args`` (functions by reference, so importable top-level names), and
  every message and reply.  Each child imports the caller's main
  module, so a script that starts children must guard its entry point
  with ``if __name__ == "__main__":``.
* A child that cannot boot — its target or arguments do not pickle,
  its interpreter cannot import them, or building the handler raised —
  raises :class:`~repro.errors.ChildBootError` in the caller.  So does
  a message the child cannot load (it names a function the child's
  interpreter cannot import): every child would fail it the same way.
* Every send may carry a deadline, counted from the moment the child
  booted, so interpreter start-up never reads as a hang.
  :meth:`SupervisedChild.recv` returns the reply, or raises
  :class:`ChildLost` when the child announced its death (an exception
  escaped the handler), vanished (pipe EOF: ``os._exit``, segfault,
  OOM kill) or missed the deadline.  A lost child is already reaped
  when the error surfaces; the client decides what the loss costs the
  work it held and starts a fresh child if it wants one.
* :meth:`SupervisedChild.stop` escalates: a stop message, then
  ``SIGTERM``, then ``SIGKILL``, joining after each step, so no child
  outlives its owner's cleanup.

The child loop ignores ``SIGINT`` (a tty Ctrl-C is the parent's to
handle; the parent then stops its children) and leaves through
``os._exit``: the parent owns every shared resource, so nothing the
child built needs a finalizer.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import signal
import time
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, List, Optional, Sequence

from ..errors import ChildBootError

#: Child losses (crashes or hangs) one unit of work may cause before
#: its owner fails it instead of handing it to yet another child.
CRASH_STRIKES = 2

#: Seconds each stop step (stop message, SIGTERM, SIGKILL) waits for
#: the child to exit before escalating.
_STOP_STEP_S = 5.0

#: Seconds a child may take to boot: start its interpreter, import its
#: target and build its handler.
_BOOT_TIMEOUT_S = 60.0

_CONTEXT = mp.get_context("spawn")

#: glibc ``mallopt`` parameters (``malloc.h``) and the ceiling of
#: glibc's own dynamic thresholds on 64-bit hosts: blocks up to 32 MiB
#: (``DEFAULT_MMAP_THRESHOLD_MAX``) come from the heap, and up to
#: twice that of free heap top is kept.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_SETTLED_MALLOPT = ((_M_MMAP_THRESHOLD, 32 << 20),
                    (_M_TRIM_THRESHOLD, 64 << 20))


class ChildLost(Exception):
    """The child holding a message died, vanished or hung.

    ``kind`` is ``"died"`` (the child reported an exception that
    escaped its handler, ``detail`` names it), ``"eof"`` (the pipe
    closed with no reply) or ``"hang"`` (the deadline passed).
    """

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail


class SupervisedChild:
    """A child process from a fresh interpreter, answering one message
    at a time.

    ``target(*args)`` runs once in the child and returns the handler
    every later message is passed to.  The constructor returns while
    the child boots; the first :meth:`recv` (or :func:`wait_ready`, or
    :meth:`wait_booted`) reads its boot report.
    """

    def __init__(self, target: Callable[..., Callable[[Any], Any]],
                 args: Sequence[Any] = (), name: Optional[str] = None):
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
        self._proc = _CONTEXT.Process(
            target=_child_main, args=(target, tuple(args), child_conn),
            name=name, daemon=True)
        try:
            self._proc.start()
        except Exception as exc:
            parent_conn.close()
            raise ChildBootError(
                f"cannot start child {self._proc.name}: "
                f"{type(exc).__name__}: {exc}") from exc
        finally:
            child_conn.close()
        self._conn = parent_conn
        self._booted = False
        #: Reply budget of the message in flight, kept until boot.
        self._timeout: Optional[float] = None
        #: ``time.monotonic()`` by which the child's next word is due:
        #: its boot report, then the reply in flight (``None``: no
        #: deadline, or nothing in flight).
        self.deadline: Optional[float] = time.monotonic() + _BOOT_TIMEOUT_S

    @property
    def alive(self) -> bool:
        return self._conn is not None and self._proc.is_alive()

    def send(self, message: Any, timeout: Optional[float] = None) -> None:
        """Hand the child one message; its reply is due within
        ``timeout`` seconds of the child having booted (``None``: no
        deadline)."""
        self._timeout = timeout
        if self._booted:
            self.deadline = (None if timeout is None
                             else time.monotonic() + timeout)
        try:
            self._conn.send(message)
        except OSError:
            pass  # a dead child surfaces as EOF in recv()

    def wait_booted(self) -> None:
        """Block until the child has built its handler; raise
        :class:`~repro.errors.ChildBootError` (child reaped) if it
        could not."""
        if self._booted:
            return
        detail = None
        try:
            if self._conn.poll(max(0.0, self.deadline - time.monotonic())):
                booted, detail = self._conn.recv()
            else:
                booted = False
                detail = f"no boot report within {_BOOT_TIMEOUT_S:g} s"
        except (EOFError, OSError):
            booted = False
        if not booted:
            self.stop(graceful=False)
            raise ChildBootError(
                f"child {self._proc.name} failed to boot: "
                + (detail or f"it exited with code {self._proc.exitcode} "
                   "before building its handler (its traceback, if "
                   "any, is on stderr)"))
        self._booted = True
        self.deadline = (None if self._timeout is None
                         else time.monotonic() + self._timeout)

    def recv(self) -> Any:
        """The reply to the message in flight, waiting up to its
        deadline; raises :class:`ChildLost`, or
        :class:`~repro.errors.ChildBootError` when the child could not
        load the message (child already reaped either way)."""
        self.wait_booted()
        remaining = (None if self.deadline is None
                     else max(0.0, self.deadline - time.monotonic()))
        try:
            if not self._conn.poll(remaining):
                self._lose("hang")
            answered, reply = self._conn.recv()
        except (EOFError, OSError):
            self._lose("eof")
        self.deadline = self._timeout = None
        if answered is None:
            self.stop(graceful=False)
            raise ChildBootError(
                f"child {self._proc.name} cannot load its message: {reply}")
        if not answered:
            self._lose("died", reply)
        return reply

    def stop(self, graceful: bool = True) -> None:
        """Stop and reap the child: a stop message (when ``graceful``
        and the child is idle), then SIGTERM, then SIGKILL."""
        conn, self._conn = self._conn, None
        proc = self._proc
        if conn is not None and graceful:
            try:
                conn.send(None)
            except OSError:
                pass
            proc.join(_STOP_STEP_S)
        for escalate in (proc.terminate, proc.kill):
            if not proc.is_alive():
                break
            escalate()
            proc.join(_STOP_STEP_S)
        if conn is not None:
            conn.close()

    def _lose(self, kind: str, detail: str = ""):
        self.deadline = self._timeout = None
        self.stop(graceful=False)
        raise ChildLost(kind, detail)


def wait_ready(children: Sequence[SupervisedChild]
               ) -> List[SupervisedChild]:
    """Block until some of ``children`` (each with a message in
    flight) have a reply, closed their pipe, or passed their deadline;
    return those, ready for :meth:`SupervisedChild.recv`.

    Boot reports are read on the way, so a child that cannot boot
    raises :class:`~repro.errors.ChildBootError` here.
    """
    while True:
        deadlines = [c.deadline for c in children if c.deadline is not None]
        timeout = (None if not deadlines
                   else max(0.0, min(deadlines) - time.monotonic()))
        readable = set(_wait_connections([c._conn for c in children],
                                         timeout))
        now = time.monotonic()
        due = [c for c in children if c._conn in readable
               or (c.deadline is not None and c.deadline <= now)]
        replies = [c for c in due if c._booted]
        for child in due:
            child.wait_booted()
        if replies:
            return replies


def _settle_allocator() -> None:
    """Start the child's allocator at the ceiling of glibc's dynamic
    thresholds.

    glibc starts a fresh process at a 128 KiB mmap threshold and
    raises it only as mapped blocks are freed, trimming the heap top
    past twice the threshold.  A decode allocates and frees many
    arrays of hundreds of KiB, so a fresh child would map, fault in
    and unmap those pages on every task.  Over 10 interleaved
    ``sweep`` pairs on a 2-core host, children without this setting
    decoded ~10% slower (throughput and both latencies; peak memory
    unchanged).  Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # pragma: no cover - not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _SETTLED_MALLOPT:
        mallopt(param, value)


def _child_main(target: Callable[..., Callable[[Any], Any]],
                args: tuple, conn) -> None:
    """Child loop: build the handler and report, answer messages until
    a stop message (``None``) or pipe EOF, exit through ``os._exit``."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    _settle_allocator()
    code = 1
    try:
        try:
            handle = target(*args)
        except BaseException as exc:  # noqa: BLE001 - reported
            conn.send((False, f"{type(exc).__name__}: {exc}"))
            return
        conn.send((True, None))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone; nothing to report to
            except Exception as exc:  # noqa: BLE001 - announced
                conn.send((None, f"{type(exc).__name__}: {exc}"))
                break
            if message is None:
                code = 0
                break
            try:
                reply = True, handle(message)
            except BaseException as exc:  # noqa: BLE001 - announced
                # Announce, then die hard so the parent's supervision
                # (not a half-alive loop) owns what happens next.
                reply = False, f"{type(exc).__name__}: {exc}"
            conn.send(reply)
            if not reply[0]:
                break
    finally:
        os._exit(code)
