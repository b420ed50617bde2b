"""Unit tests of the supervised-child primitive (``repro.core.child``).

Each child is a fresh interpreter that imports this module to find its
target, so targets are top-level functions; the handlers they return
are closures built inside the child.
"""

import os
import signal
import sys
import time
import types

import pytest

from repro.core import child as child_module
from repro.core.child import ChildLost, SupervisedChild, wait_ready
from repro.errors import ChildBootError


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


def _slow_boot():
    """Takes a second to build its handler."""
    time.sleep(1.0)
    return lambda message: message


def _refuse_to_boot():
    raise RuntimeError("no handler today")


@pytest.fixture
def spawned():
    """Children a test starts; each must be dead by the test's end."""
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
    child.wait_booted()          # SIGTERM is ignored from here on
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


def test_deadline_runs_from_boot(spawned):
    """Booting takes longer than the reply budget; only the handler's
    own time counts against it."""
    child = spawned(_slow_boot)
    child.send("hello", timeout=0.5)
    assert child.recv() == "hello"
    child.send("again", timeout=0.5)
    assert wait_ready([child]) == [child]
    assert child.recv() == "again"
    child.stop()


def test_unpicklable_target_raises_in_the_caller(spawned):
    with pytest.raises(ChildBootError, match="pickle"):
        spawned(lambda: _echo())


def test_target_the_child_cannot_import_raises_in_the_caller(
        spawned, monkeypatch):
    module = types.ModuleType("lf_parent_only_module")
    exec("def target():\n    return lambda message: message\n",
         module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    child = spawned(module.target)
    child.send("hello")
    with pytest.raises(ChildBootError, match="before building"):
        child.recv()


def test_handler_that_cannot_be_built_raises_in_the_caller(spawned):
    child = spawned(_refuse_to_boot)
    child.send("hello", timeout=0.5)
    with pytest.raises(ChildBootError, match="no handler today"):
        wait_ready([child])


def test_boot_that_outlasts_its_budget_raises_in_the_caller(
        spawned, monkeypatch):
    monkeypatch.setattr(child_module, "_BOOT_TIMEOUT_S", 0.5)
    child = spawned(_slow_boot)
    with pytest.raises(ChildBootError, match="no boot report"):
        child.wait_booted()


def test_message_the_child_cannot_load_raises_in_the_caller(
        spawned, monkeypatch):
    """Not a crash of the work it carries: every child would fail to
    load it, so it is the caller's error, like a failed boot."""
    module = types.ModuleType("lf_parent_only_payload")
    exec("def payload():\n    pass\n", module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    child = spawned(_echo)
    child.send(module.payload)
    with pytest.raises(ChildBootError,
                       match="cannot load its message.*lf_parent_only"):
        child.recv()
    assert not child.alive
