"""Sabotaged stand-ins for the batch engine's stock trial.

A supervision test swaps one in for
:func:`repro.core.engine._decode_task` in its own process.  The engine
sends its trial function with every task, by reference, so each
spawned child imports this module and runs the same sabotage.  Bind
the leading arguments with :func:`functools.partial`; the rest is the
engine's trial signature ``(trace, index, rng, config)``.

The module imports nothing the child has not loaded already, so it
costs a task almost none of its watchdog budget.
"""

import os
import time
from pathlib import Path
from typing import Optional

from repro.core.engine import _decode_task

#: How long a hung task sleeps: far past any test's watchdog.
HANG_S = 300.0


def _note_pid(pid_file: Optional[str]) -> None:
    if pid_file is not None:
        Path(pid_file).write_text(str(os.getpid()))


def crash_at(victim, trace, index, rng, config, pid_file=None):
    """Kill the child without a word on input ``victim``."""
    if index == victim:
        _note_pid(pid_file)
        os._exit(17)
    return _decode_task(trace, index, rng, config)


def hang_at(victim, trace, index, rng, config, pid_file=None):
    """Never answer on input ``victim``."""
    if index == victim:
        _note_pid(pid_file)
        time.sleep(HANG_S)
    return _decode_task(trace, index, rng, config)


def raise_at(victim, trace, index, rng, config):
    """Raise an ordinary exception on input ``victim``, every time."""
    if index == victim:
        raise ValueError("permanently broken epoch")
    return _decode_task(trace, index, rng, config)


def raise_once_at(victim, marker, trace, index, rng, config):
    """Raise on input ``victim`` until the ``marker`` file exists."""
    if index == victim and not Path(marker).exists():
        Path(marker).write_text("x")
        raise RuntimeError("transient glitch")
    return _decode_task(trace, index, rng, config)


def refuse_to_boot(config):
    """Stands in for the engine's child builder: the child cannot
    build its handler."""
    raise RuntimeError("no handler for this config")
