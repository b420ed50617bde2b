"""Unit tests of the supervised-child primitive (``repro.core.child``).

Handlers are closures built in the test process; the children are
forked, so nothing here needs to pickle but the messages.
"""

import os
import signal
import time

import pytest

from repro.core import child as child_module
from repro.core.child import ChildLost, SupervisedChild, wait_ready


def _echo():
    return lambda message: ("echo", message)


def _misbehave():
    def handle(message):
        if message == "exit":
            os._exit(3)          # silent: no reply, pipe EOF
        if message == "raise":
            raise KeyboardInterrupt("escaped")
        if isinstance(message, float):
            time.sleep(message)
        return message
    return handle


def _stubborn():
    """Ignores SIGTERM and never reads the stop message."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    def handle(message):
        time.sleep(600)
    return handle


@pytest.fixture
def spawned():
    """Children a test forks; each must be dead by the test's end."""
    children = []

    def spawn(target):
        child = SupervisedChild(target, name="lf-test-child")
        children.append(child)
        return child

    yield spawn
    for child in children:
        assert not child.alive
        assert not child._proc.is_alive()


def test_reply_then_graceful_stop(spawned):
    child = spawned(_echo)
    child.send({"k": [1, 2]})
    assert child.recv() == ("echo", {"k": [1, 2]})
    child.send(7, timeout=10.0)
    assert child.recv() == ("echo", 7)
    child.stop()
    assert child._proc.exitcode == 0


def test_eof_is_a_loss(spawned):
    child = spawned(_misbehave)
    child.send("fine")
    assert child.recv() == "fine"
    child.send("exit")
    with pytest.raises(ChildLost) as lost:
        child.recv()
    assert lost.value.kind == "eof"
    assert child._proc.exitcode == 3


def test_escaped_exception_is_announced(spawned):
    child = spawned(_misbehave)
    child.send("raise")
    with pytest.raises(ChildLost) as lost:
        child.recv()
    assert lost.value.kind == "died"
    assert "KeyboardInterrupt: escaped" in lost.value.detail


def test_missed_deadline_is_a_hang(spawned):
    child = spawned(_misbehave)
    start = time.monotonic()
    child.send(60.0, timeout=0.3)
    with pytest.raises(ChildLost) as lost:
        child.recv()
    assert lost.value.kind == "hang"
    assert time.monotonic() - start < 10.0
    assert child._proc.exitcode == -signal.SIGTERM


def test_stop_escalates_to_kill(spawned, monkeypatch):
    monkeypatch.setattr(child_module, "_STOP_STEP_S", 0.3)
    child = spawned(_stubborn)
    child.send("busy")
    time.sleep(0.2)              # let the handler start sleeping
    child.stop()
    assert child._proc.exitcode == -signal.SIGKILL


def test_wait_ready_returns_the_first_reply(spawned):
    slow, fast = spawned(_misbehave), spawned(_misbehave)
    slow.send(5.0)
    fast.send(0.0)
    assert wait_ready([slow, fast]) == [fast]
    assert fast.recv() == 0.0
    # A missed deadline wakes the wait even while nothing replies.
    late = spawned(_misbehave)
    late.send(60.0, timeout=0.2)
    assert wait_ready([slow, late]) == [late]
    with pytest.raises(ChildLost):
        late.recv()
    for child in (slow, fast):
        child.stop(graceful=False)
