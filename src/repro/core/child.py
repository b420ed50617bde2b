"""One supervised child process, driven lock-step over a duplex pipe.

Both process-parallel decoders of this repo — the batch engine
(:class:`~repro.core.engine.BatchDecoder`) and the streaming service's
process shards (:mod:`repro.service.process_worker`) — run their
decodes in forked children built from this primitive:

* :class:`SupervisedChild` forks a child that calls ``target(*args)``
  once to build a *handler*, then answers each message the parent
  sends with ``handler(message)``.  At most one message is in flight
  per child, so when a child is lost the parent knows exactly which
  unit of work it held.
* Every send may carry a deadline.  :meth:`SupervisedChild.recv`
  returns the reply, or raises :class:`ChildLost` when the child
  announced its death (an exception escaped the handler), vanished
  (pipe EOF: ``os._exit``, segfault, OOM kill) or missed the deadline.
  A lost child is already reaped when the error surfaces; the client
  decides what the loss costs the work it held and spawns a fresh
  child if it wants one.
* :meth:`SupervisedChild.stop` escalates: a stop message, then
  ``SIGTERM``, then ``SIGKILL``, joining after each step, so no child
  outlives its owner's cleanup.

The child loop ignores ``SIGINT`` (a tty Ctrl-C is the parent's to
handle; the parent then stops its children) and leaves through
``os._exit``, so no finalizer it inherited from the parent — a ring's
``__del__``, a metrics registry — ever runs in the child.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, List, Optional, Sequence

#: Child losses (crashes or hangs) one unit of work may cause before
#: its owner fails it instead of handing it to yet another child.
CRASH_STRIKES = 2

#: Seconds each stop step (stop message, SIGTERM, SIGKILL) waits for
#: the child to exit before escalating.
_STOP_STEP_S = 5.0

_CONTEXT = (mp.get_context("fork") if "fork" in mp.get_all_start_methods()
            else mp.get_context())


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
    """A forked child answering one message at a time.

    ``target(*args)`` runs once in the child and returns the handler
    every later message is passed to.  Under ``fork`` neither needs to
    pickle; messages and replies always do.
    """

    def __init__(self, target: Callable[..., Callable[[Any], Any]],
                 args: Sequence[Any] = (), name: Optional[str] = None):
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
        self._proc = _CONTEXT.Process(
            target=_child_main, args=(target, tuple(args), child_conn),
            name=name, daemon=True)
        self._proc.start()
        child_conn.close()
        self._conn = parent_conn
        #: ``time.monotonic()`` by which the reply in flight is due
        #: (``None``: no deadline, or nothing in flight).
        self.deadline: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self._conn is not None and self._proc.is_alive()

    def send(self, message: Any, timeout: Optional[float] = None) -> None:
        """Hand the child one message; its reply is due within
        ``timeout`` seconds (``None``: no deadline)."""
        self.deadline = (None if timeout is None
                         else time.monotonic() + timeout)
        try:
            self._conn.send(message)
        except OSError:
            pass  # a dead child surfaces as EOF in recv()

    def recv(self) -> Any:
        """The reply to the message in flight, waiting up to its
        deadline; raises :class:`ChildLost` (child already reaped)."""
        remaining = (None if self.deadline is None
                     else max(0.0, self.deadline - time.monotonic()))
        try:
            if not self._conn.poll(remaining):
                self._lose("hang")
            answered, reply = self._conn.recv()
        except (EOFError, OSError):
            self._lose("eof")
        self.deadline = None
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
        self.deadline = None
        self.stop(graceful=False)
        raise ChildLost(kind, detail)


def wait_ready(children: Sequence[SupervisedChild]
               ) -> List[SupervisedChild]:
    """Block until some of ``children`` (each with a message in
    flight) have a reply, closed their pipe, or passed their deadline;
    return those, ready for :meth:`SupervisedChild.recv`."""
    deadlines = [c.deadline for c in children if c.deadline is not None]
    timeout = (None if not deadlines
               else max(0.0, min(deadlines) - time.monotonic()))
    ready = set(_wait_connections([c._conn for c in children], timeout))
    now = time.monotonic()
    return [c for c in children if c._conn in ready
            or (c.deadline is not None and c.deadline <= now)]


def _child_main(target: Callable[..., Callable[[Any], Any]],
                args: tuple, conn) -> None:
    """Child loop: build the handler, answer messages until a stop
    message (``None``) or pipe EOF, exit through ``os._exit``."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    code = 1
    try:
        handle = target(*args)
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone; nothing to report to
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
