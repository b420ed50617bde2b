"""Supervised parallel batch-decode engine: many epochs, one config.

Long experiments (waterfall sweeps, multi-epoch captures) decode
hundreds of independent epochs with the same :class:`LFDecoderConfig`.
:class:`BatchDecoder` fans those epochs out over child processes
(:class:`~repro.core.child.SupervisedChild`, one task in flight per
child) while keeping four guarantees:

* **Determinism** — every task draws its randomness from a
  :class:`numpy.random.SeedSequence` spawned from the root seed by task
  index (:func:`repro.utils.rng.iter_spawn_seed_sequences`), so results
  are identical for any worker count, including the serial fallback,
  for either trace transport, and across supervised resubmissions (a
  retried task reuses its original seed sequence).
* **Ordered streaming** — :meth:`BatchDecoder.iter_decode` yields epoch
  results in submission order as soon as each becomes available, so a
  consumer can post-process epoch *i* while epoch *i+1* is still
  decoding.  Input is pulled only when a child is free to take it and
  fewer than two tasks per worker wait to be yielded, so an unbounded
  input stream never piles up in the engine, even behind a slow task.
* **One outcome per input** — the supervisor guarantees forward
  progress no matter what a task does to its child.  A task that
  raises is retried with exponential backoff up to ``max_attempts``.
  A child that dies (``os._exit``, segfault) or misses the
  ``task_timeout_s`` deadline of its dispatch held exactly one task,
  so that task alone is charged a strike and only that child is
  replaced; siblings never notice.  Two strikes fail the task as a
  ``failed`` :class:`EpochOutcome`; every other epoch still decodes
  and every input yields exactly one outcome.
* **Timing transparency** — each :class:`EpochResult` carries the
  pipeline's per-stage wall-clock breakdown (``stage_timings``), and
  :meth:`BatchDecoder.aggregate_timings` folds them into one profile
  for the whole batch.

The same supervision machinery also runs *generic trials*
(:meth:`BatchDecoder.iter_trials`): a :class:`TrialSpec` pairs an
optional trace with an arbitrary picklable payload and an optional
explicit integer seed, and a top-level ``trial_fn(trace, payload, rng,
config)`` replaces the stock epoch decode.  Experiment sweeps use this
to push their per-trial work (decode + score, reliability-link runs,
config-variant decodes) through one engine instead of bespoke serial
loops, with the same ordered streaming, retry/hang/crash supervision
and per-worker-count determinism.  An explicit ``seed`` is handed to
``np.random.default_rng`` as is, so trials that carry the same seed
draw the same stream (a sweep's decoder variants scoring one capture).

Children start lazily, at the first dispatch that needs one, never
more than ``max_workers`` or the number of tasks in flight.  Each is a
fresh interpreter (:class:`~repro.core.child.SupervisedChild`): it
imports the decoder but holds none of the caller's heap.  Booting one
costs a few hundred milliseconds, so an engine keeps its children, and
its :class:`~repro.core.ring.ChunkRing`, across calls, until
:meth:`BatchDecoder.close`, the end of a ``with`` block, or garbage
collection.  The config is pickled into each child when it starts; the
trial function travels with every task, by reference, so it must be an
importable top-level callable (and a script that runs a multi-worker
engine needs an ``if __name__ == "__main__":`` guard).

Trace samples travel through the ring, sized to two frames of the
first trace per worker: the parent writes each task's samples into the
ring once and the child decodes a zero-copy view.  A trace that does
not fit (a longer trace, a ring held up behind a slow task, a host
without POSIX shared memory) travels inline, pickled with its task;
:meth:`IQTrace.__getstate__` drops the derived-array caches so the
payload is just the raw samples.  A child lost to a crash or a hang is
reaped and replaced, never reused.  A call that ends early (abandoned
iteration, an exception) kills the children still busy with its tasks
and retires their frames; idle children wait for the next call.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator,
                    List, Optional, Sequence)

import numpy as np

from ..errors import ConfigurationError, FrameTooLargeError, RingFullError
from ..types import EpochResult, IQTrace, StreamFault
from ..utils.rng import iter_spawn_seed_sequences
from .child import CRASH_STRIKES, ChildLost, SupervisedChild, wait_ready
from .pipeline import LFDecoder, LFDecoderConfig
from .ring import ChunkRing, RingView
from .stages.stats import StatsAccumulator


def _decode_task(trace: IQTrace, index: int, rng: np.random.Generator,
                 config: LFDecoderConfig) -> EpochResult:
    """The stock trial: decode one epoch with a task-local decoder.

    A fresh :class:`LFDecoder` per task is deliberate: decoder state
    (its RNG position) must depend only on this task's seed sequence,
    never on which other tasks the worker processed first.
    """
    result = LFDecoder(config, rng=rng).decode_epoch(trace)
    result.epoch_index = index
    return result


def _run_task(trial_fn: Callable, trace: Optional[IQTrace],
              payload: Any, seed, config: LFDecoderConfig) -> Any:
    """Run one trial.

    ``seed`` is the trial's explicit seed (an integer or a
    :class:`SeedSequence`) or an engine-spawned :class:`SeedSequence`.  The
    trial function must return *derived* data only — under the ring
    transport the trace is a view of a frame the parent reuses once the
    result arrives.
    """
    return trial_fn(trace, payload, np.random.default_rng(seed), config)


def _batch_child(config: LFDecoderConfig) -> Callable:
    """Build a batch child's handler: one task per message, replying
    ``(True, result)`` or ``(False, error)`` for an in-task exception.

    A message is ``(trial_fn, seed, payload, trace)``.  The trace
    arrives inline or as ``(ring name, start, n, sample rate, start
    time, allow_nonfinite)``; the child attaches the ring on first
    sight.  Every array an :class:`EpochResult` carries is derived,
    never a slice of the raw trace, so the view may go once the reply
    is sent.
    """
    views: Dict[str, RingView] = {}

    def handle(message):
        trial_fn, seed, payload, trace = message
        if isinstance(trace, tuple):
            name, start, n, rate, t0, nonfinite = trace
            if name not in views:
                views[name] = RingView(name)
            trace = IQTrace(samples=views[name].view(start, n),
                            sample_rate_hz=rate, start_time_s=t0,
                            allow_nonfinite=nonfinite)
        try:
            return True, _run_task(trial_fn, trace, payload, seed, config)
        except Exception as exc:  # noqa: BLE001 — supervision
            return False, f"{type(exc).__name__}: {exc}"

    return handle


@dataclass(frozen=True)
class TrialSpec:
    """One generic unit of supervised work for :meth:`iter_trials`.

    ``trace`` rides the engine's zero-copy transport when present;
    trials that synthesize their own data (or none) leave it ``None``.
    ``payload`` is any picklable context the trial function needs
    (scenario spec, config variant, trial index).  ``seed``, when set,
    is handed verbatim to ``np.random.default_rng`` (an integer or a
    :class:`SeedSequence`), so trials that share one see the same
    stream; when ``None`` the engine assigns the task's spawned child
    :class:`SeedSequence`.
    """

    trace: Optional[IQTrace] = None
    payload: Any = None
    seed: Any = None


@dataclass
class EpochOutcome:
    """Supervision verdict for one batch input.

    ``status`` is ``"ok"`` (decoded cleanly), ``"degraded"`` (decoded,
    but the epoch reports degradation — rejected capture, unresolvable
    collision, isolated stream fault) or ``"failed"`` (the task itself
    could not be completed: exhausted retries, repeated worker crashes
    or hangs; ``result`` is ``None`` and ``error`` says why).
    ``attempts`` counts this input's dispatches: its own in-task
    errors, crashes and hangs add one each, and nothing another task
    does ever costs it one.

    For :meth:`BatchDecoder.iter_trials` the same verdict applies to a
    generic trial: ``result`` holds whatever the trial function
    returned (``degraded`` only when that object exposes a truthy
    ``.degraded``), and ``epoch_index`` is the trial's position in the
    input sequence.
    """

    epoch_index: int
    status: str
    result: Optional[Any] = None
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Children:
    """An engine's idle children and its ring, kept between calls.

    Holds no reference to the engine, so a finalizer can release it
    once the engine is gone.  A call binds one for its whole run.  If
    the engine closes it mid-call, the call finishes on the children
    it has, with traces inline (a closed one makes no ring), and
    closes it again as it ends.
    """

    def __init__(self) -> None:
        self.idle: List[SupervisedChild] = []
        self.ring: Optional[ChunkRing] = None
        self.closed = False

    def take(self) -> Optional[SupervisedChild]:
        """A live idle child, or ``None``; reaps any that died idle."""
        while self.idle:
            child = self.idle.pop()
            if child.alive:
                return child
            child.stop(graceful=False)
        return None

    def retire(self, task: "_Task") -> None:
        """Free the ring frame ``task`` held while a child had it.  A
        frame is always from ``self.ring``: the ring is made once and
        only ever dropped, on close."""
        if task.frame >= 0 and self.ring is not None:
            self.ring.retire(task.frame)
        task.frame = -1

    def close(self) -> None:
        self.closed = True
        idle, self.idle = self.idle, []
        for child in idle:
            child.stop()
        ring, self.ring = self.ring, None
        if ring is not None:
            ring.close()


@dataclass
class _Task:
    """One input plus everything needed to re-run it.

    The trace is retained until the task settles so a lost child's
    task can be dispatched again.
    """

    index: int
    trace: Optional[IQTrace]
    #: The trial's explicit seed or an engine-spawned SeedSequence.
    seed_seq: Any
    #: Opaque trial context (the input index for stock epoch decodes).
    payload: Any = None
    attempts: int = 0
    #: Attempts that ended in an in-task exception (retry budget).
    errors: int = 0
    #: Child losses (crashes and hangs) charged to this task.
    crashes: int = 0
    #: Ring frame holding the trace while a child decodes it (-1: none).
    frame: int = -1
    result: Optional[Any] = None
    error: Optional[str] = None
    #: A harvested result settles the task even when it is ``None`` —
    #: trial functions may legitimately return ``None``.
    done: bool = False
    failed: bool = False

    @property
    def settled(self) -> bool:
        return self.failed or self.done


class BatchDecoder:
    """Decode a batch of epoch traces with a shared configuration.

    Parameters
    ----------
    config:
        Decoder configuration shared by every epoch (defaults to
        :class:`LFDecoderConfig`'s defaults).
    seed:
        Root seed for the batch.  Each epoch's decoder gets an
        independent child seed sequence; the same root seed always
        reproduces the same results, for any ``max_workers``.
    max_workers:
        Child process count.  ``None`` uses the machine's CPU count;
        values ``<= 1`` decode serially in-process (no pickling, no
        children), which is also the automatic fallback on single-CPU
        hosts.
    task_timeout_s:
        Wall-clock budget of one dispatch, counted from the moment its
        child has booted: a child that has not replied within it is
        killed, and its task is charged a strike and dispatched again
        on a fresh child.  ``None`` (default) disables the watchdog.
    max_attempts:
        Decode attempts per epoch that may end in an in-worker
        exception before the epoch is reported ``failed``.  Retries
        back off exponentially from ``retry_backoff_s``.
    retry_backoff_s:
        Base delay before the first retry; doubles per retry.

    Constructing an engine starts no child.  The first multi-worker
    call starts them; they and the engine's ring then serve every
    later call until :meth:`close` (also run at the end of a ``with``
    block and when the engine is garbage-collected).  A closed engine
    may be used again; it starts fresh children.
    """

    def __init__(self, config: Optional[LFDecoderConfig] = None,
                 seed: int = 0,
                 max_workers: Optional[int] = None,
                 task_timeout_s: Optional[float] = None,
                 max_attempts: int = 2,
                 retry_backoff_s: float = 0.05):
        self.config = config or LFDecoderConfig()
        self.seed = seed
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be positive, got {task_timeout_s}")
        self.task_timeout_s = task_timeout_s
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.retry_backoff_s = retry_backoff_s
        self._children = _Children()
        self._finalizer = weakref.finalize(self, self._children.close)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the engine's children and release its ring.

        A call still iterating finishes its tasks on the children it
        holds, sending traces inline, and stops them as it ends.
        """
        self._finalizer()

    def __enter__(self) -> "BatchDecoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def decode_epochs(self, traces: Sequence[IQTrace]
                      ) -> List[EpochResult]:
        """Decode every trace; results in input order."""
        return list(self.iter_decode(traces))

    def decode_outcomes(self, traces: Sequence[IQTrace]
                        ) -> List[EpochOutcome]:
        """Decode every trace; one :class:`EpochOutcome` per input."""
        return list(self.iter_outcomes(traces))

    def iter_decode(self, traces: Iterable[IQTrace]
                    ) -> Iterator[EpochResult]:
        """Yield one :class:`EpochResult` per trace, in input order.

        Results stream out as soon as they are ready *and* every
        earlier epoch has been yielded, so downstream consumers see a
        deterministic sequence regardless of completion order.  The
        input may be an arbitrary (even unbounded) iterable: tasks are
        submitted through a sliding window of two per worker (no new
        input is pulled while that many wait to be yielded, however
        long the oldest takes), so memory stays proportional to the
        worker count, not the batch.

        An epoch whose task ultimately *failed* (exhausted retries,
        quarantined after repeated child losses) still yields: an empty
        result whose ``degraded_streams`` carries a single
        ``stage="engine"`` fault naming the failure.  Use
        :meth:`iter_outcomes` for the explicit per-task verdict.
        """
        for outcome in self.iter_outcomes(traces):
            if outcome.result is not None:
                yield outcome.result
                continue
            result = EpochResult()
            result.epoch_index = outcome.epoch_index
            message = outcome.error or "task failed"
            result.degraded_streams.append(StreamFault(
                offset_samples=0.0, period_samples=0.0, stage="engine",
                error_type=message.split(":", 1)[0],
                message=message, expected=False))
            yield result

    def iter_outcomes(self, traces: Iterable[IQTrace]
                      ) -> Iterator[EpochOutcome]:
        """Yield one :class:`EpochOutcome` per trace, in input order.

        This is :meth:`iter_decode` plus the supervision verdict: the
        engine guarantees exactly one outcome per input even when tasks
        raise, hang, or kill their worker process.
        """
        seed_iter = iter_spawn_seed_sequences(self.seed)
        tasks = (_Task(index=index, trace=trace,
                       seed_seq=next(seed_iter), payload=index)
                 for index, trace in enumerate(traces))
        yield from self._iter_task_outcomes(tasks, _decode_task)

    def iter_trials(self, trial_fn: Callable,
                    trials: Iterable[TrialSpec]
                    ) -> Iterator[EpochOutcome]:
        """Yield one :class:`EpochOutcome` per trial, in input order.

        ``trial_fn`` must be a top-level (picklable) callable with
        signature ``(trace, payload, rng, config) -> Any``; it runs
        under the full supervision contract of :meth:`iter_outcomes`.
        Each trial's ``rng`` derives from its explicit ``seed`` when
        set, else from the engine's spawned child sequence for that
        input position — either way identical for any worker count.
        One child sequence is consumed per trial regardless, so mixing
        explicit and engine seeds never shifts later trials' streams.
        """
        seed_iter = iter_spawn_seed_sequences(self.seed)

        def _tasks() -> Iterator[_Task]:
            for index, spec in enumerate(trials):
                child = next(seed_iter)
                seed = spec.seed if spec.seed is not None else child
                yield _Task(index=index, trace=spec.trace,
                            seed_seq=seed, payload=spec.payload)

        yield from self._iter_task_outcomes(_tasks(), trial_fn)

    def _iter_task_outcomes(self, task_iter: Iterator[_Task],
                            trial_fn: Callable
                            ) -> Iterator[EpochOutcome]:
        if self.max_workers <= 1:
            return self._iter_serial(task_iter, trial_fn)
        return self._iter_children(task_iter, trial_fn)

    # -- serial path -------------------------------------------------------

    def _iter_serial(self, task_iter: Iterator[_Task],
                     trial_fn: Callable
                     ) -> Iterator[EpochOutcome]:
        """In-process execution with the same retry policy (no
        watchdog: a hang in the caller's own process cannot be
        preempted)."""
        for task in task_iter:
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = _run_task(trial_fn, task.trace, task.payload,
                                       task.seed_seq, self.config)
                except Exception as exc:  # noqa: BLE001 — supervision
                    if attempts >= self.max_attempts:
                        yield EpochOutcome(
                            epoch_index=task.index, status="failed",
                            attempts=attempts,
                            error=f"{type(exc).__name__}: {exc}")
                        break
                    time.sleep(self.retry_backoff_s
                               * (2 ** (attempts - 1)))
                else:
                    yield _settled(task.index, result, attempts)
                    break

    # -- supervised children path ------------------------------------------

    def _iter_children(self, task_iter: Iterator[_Task],
                       trial_fn: Callable
                       ) -> Iterator[EpochOutcome]:
        if self._children.closed:  # closed, now used again
            self._children = _Children()
            self._finalizer = weakref.finalize(self, self._children.close)
        children = self._children
        pending: Deque[_Task] = deque()   # input order, until yielded
        redo: Deque[_Task] = deque()      # unsettled, awaiting a child
        busy: Dict[SupervisedChild, _Task] = {}
        window = 2 * self.max_workers     # most tasks awaiting a yield
        exhausted = False
        try:
            while True:
                # Hand work to every free (or not yet started) child:
                # redispatches first, then fresh input while the
                # window has room.
                while len(busy) < self.max_workers:
                    if redo:
                        task = redo.popleft()
                    elif exhausted or len(pending) >= window:
                        break
                    else:
                        task = next(task_iter, None)
                        if task is None:
                            exhausted = True
                            break
                        pending.append(task)
                    if (children.ring is None and task.trace is not None
                            and not children.closed):
                        children.ring = ChunkRing(
                            2 * self.max_workers * len(task.trace))
                    child = children.take() or SupervisedChild(
                        _batch_child, (self.config,), name="lf-batch")
                    busy[child] = task
                    task.attempts += 1
                    child.send(self._message(trial_fn, task,
                                             children.ring),
                               self.task_timeout_s)
                while pending and pending[0].settled:
                    yield self._outcome_of(pending.popleft())
                if not busy:
                    # Nothing is in flight, so every pulled task has
                    # been yielded: end only once the input has too.
                    if exhausted:
                        break
                    continue
                for child in wait_ready(list(busy)):
                    task = busy.pop(child)
                    try:
                        ok, value = child.recv()
                    except ChildLost as lost:
                        self._charge_loss(task, lost, redo)
                    else:
                        children.idle.append(child)
                        if ok:
                            task.result, task.done = value, True
                        else:
                            self._charge_error(task, value, redo)
                    finally:
                        children.retire(task)
        finally:
            # Completed, abandoned or unwinding: a busy child's task is
            # moot, so it is killed rather than waited for.
            for child, task in busy.items():
                child.stop(graceful=False)
                children.retire(task)
            if children.closed:  # the engine closed during this call
                children.close()

    @staticmethod
    def _message(trial_fn: Callable, task: _Task,
                 ring: Optional[ChunkRing]) -> tuple:
        """The child message for one dispatch of ``task``: its trace
        rides a ring frame when one fits, else travels inline."""
        trace = task.trace
        if trace is not None and ring is not None \
                and ring.shm_name is not None:
            try:
                task.frame = ring.write(trace.samples)
            except (RingFullError, FrameTooLargeError):
                pass
            else:
                start, n = ring.region(task.frame)
                trace = (ring.shm_name, start, n, trace.sample_rate_hz,
                         trace.start_time_s, trace.allow_nonfinite)
        return trial_fn, task.seed_seq, task.payload, trace

    def _charge_loss(self, task: _Task, lost: ChildLost,
                     redo: Deque[_Task]) -> None:
        """The child holding ``task`` died or hung: a strike for it."""
        task.crashes += 1
        if task.crashes < CRASH_STRIKES:
            redo.append(task)
        elif lost.kind == "hang":
            self._fail(task, "TaskHangError: task exceeded the "
                       f"{self.task_timeout_s:g}s watchdog "
                       f"{task.crashes} times; quarantined")
        else:
            self._fail(task, "WorkerCrashError: task killed its worker "
                       f"process {task.crashes} times; quarantined"
                       + (f" ({lost.detail})" if lost.detail else ""))

    def _charge_error(self, task: _Task, error: str,
                      redo: Deque[_Task]) -> None:
        """An attempt raised inside the child: retry or fail."""
        task.errors += 1
        if task.errors >= self.max_attempts:
            self._fail(task, error)
        else:
            time.sleep(self.retry_backoff_s * (2 ** (task.errors - 1)))
            redo.append(task)

    @staticmethod
    def _fail(task: _Task, message: str) -> None:
        task.failed = True
        task.error = message

    def _outcome_of(self, task: _Task) -> EpochOutcome:
        if task.done:
            return _settled(task.index, task.result,
                            max(task.attempts, 1))
        return EpochOutcome(epoch_index=task.index, status="failed",
                            attempts=max(task.attempts, 1),
                            error=task.error or "task failed")

    def aggregate_timings(self, results: Iterable[EpochResult]
                          ) -> Dict[str, float]:
        """Sum per-stage wall-clock seconds across epoch results."""
        total: Dict[str, float] = {}
        for result in results:
            StatsAccumulator.merge_timing(total, result.stage_timings)
        return total


def _settled(index: int, result: Any,
             attempts: int) -> EpochOutcome:
    degraded = bool(getattr(result, "degraded", False))
    status = "degraded" if degraded else "ok"
    return EpochOutcome(epoch_index=index, status=status, result=result,
                        attempts=attempts)
