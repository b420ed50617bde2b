"""Service-level fault injection for :class:`DecodeService`.

Channel-level chaos (:mod:`repro.robustness.impairments`) corrupts the
*waveform*; this module corrupts the *infrastructure* underneath a
running service, through the one seam the service already exposes —
``ServiceConfig.decoder_factory``.  A :class:`ChaosInjector` wraps
every per-stream decoder the service builds and, per decode call,
deterministically draws from its fault menu:

* **stall** — the decode sleeps before running: a wedged shard queue;
  backpressure and shed-oldest absorb the backlog.
* **crash** — the decode raises :class:`ChaosCrashError` (an ordinary
  ``Exception``): exercises the per-chunk retry budget and, repeated,
  the cold session respawn ladder.
* **kill** — the decode raises :class:`ChaosWorkerKill`, a
  ``BaseException`` no supervision ``except Exception`` may absorb:
  the worker *thread* dies mid-frame.  The worker must still retire
  the frame's ring region, deliver a failed result, and be respawned
  by ``ensure_alive``/``join_idle`` — the exact invariants the shm
  cleanup regression pins.
* **corrupt** — NaN-scribbles a run of the chunk's samples *in the
  shared-memory ring view* before decoding (real shm corruption, not
  a copy): the decode path's guard stage must repair or reject it.

Clock-skewed chunk arrival is a submit-side fault: whoever submits
the chunks asks :meth:`ChaosInjector.skew_for` for each chunk's skew
and adds it to the chunk's ``start_time_s`` before submission.

Chaos reaches both executors through the same seam: under
``executor="process"`` the injector travels to each shard's child
pickled with the shard's config, and the chaos-wrapped decoders are
built *inside* the child, so a **kill** takes down a real child
process — the parent must reap and respawn it — while a **corrupt**
scribbles the child's mapping of the shared ring.  The injector's
counters are ``multiprocessing.Value`` cells handed to each child as
it starts, so faults fired in children are visible to the parent's
assertions.

Every draw comes from a per-stream generator seeded by
``(chaos.seed, stream seed)``, so a chaos run replays exactly.
:data:`CHAOS_COCKTAILS` names the standard single-fault and
everything-at-once mixes; ``tests/service/test_chaos.py`` runs every
one of them against the real decoder.
"""

from __future__ import annotations

import multiprocessing as _mp
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.session_decoder import SessionDecoder
from ..errors import ConfigurationError
from ..utils.rng import make_rng
from .config import ServiceConfig
from .router import stream_seed

_SPAWN = _mp.get_context("spawn")

__all__ = ["ChaosConfig", "ChaosCrashError", "ChaosWorkerKill",
           "ChaosInjector", "CHAOS_COCKTAILS", "chaos_service_config",
           "capture_thread_exceptions"]


class ChaosCrashError(RuntimeError):
    """A deliberate decode failure (ordinary, retryable)."""


class ChaosWorkerKill(BaseException):
    """A deliberate worker-thread death.

    Derives from ``BaseException`` so no supervision ``except
    Exception`` can absorb it — the worker thread genuinely dies, the
    way a segfaulting native kernel or an interpreter teardown would
    take it down.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """Per-decode fault probabilities for a :class:`ChaosInjector`."""

    #: Probability a decode call stalls for ``stall_seconds`` first.
    stall_rate: float = 0.0
    stall_seconds: float = 0.05
    #: Probability a decode call raises :class:`ChaosCrashError`.
    crash_rate: float = 0.0
    #: Probability a decode call raises :class:`ChaosWorkerKill`.
    kill_rate: float = 0.0
    #: Probability a chunk's ring region is NaN-scribbled first.
    corrupt_rate: float = 0.0
    #: Longest scribbled run, in samples.
    corrupt_max_run: int = 500
    #: Probability a chunk's ``start_time_s`` is skewed at submit
    #: time (applied by the submitter, not the injector).
    skew_rate: float = 0.0
    max_skew_seconds: float = 0.5
    #: Seeds the per-stream fault draws (composed with each stream's
    #: own seed, so one stream's faults replay independently).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("stall_rate", "crash_rate", "kill_rate",
                     "corrupt_rate", "skew_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}")
        if self.stall_seconds < 0:
            raise ConfigurationError("stall_seconds must be >= 0")
        if self.corrupt_max_run < 1:
            raise ConfigurationError("corrupt_max_run must be >= 1")

    @property
    def active(self) -> bool:
        return any(getattr(self, name) > 0.0
                   for name in ("stall_rate", "crash_rate",
                                "kill_rate", "corrupt_rate",
                                "skew_rate"))


#: Named fault mixes the chaos tests sweep.  One mix per injector so a
#: failure names its fault; ``everything`` proves the ladders compose.
CHAOS_COCKTAILS: Dict[str, ChaosConfig] = {
    "stalls": ChaosConfig(stall_rate=0.2, stall_seconds=0.03),
    "crashes": ChaosConfig(crash_rate=0.25),
    "kills": ChaosConfig(kill_rate=0.1),
    "corruption": ChaosConfig(corrupt_rate=0.25),
    "skew": ChaosConfig(skew_rate=0.5, max_skew_seconds=0.2),
    "everything": ChaosConfig(stall_rate=0.1, stall_seconds=0.02,
                              crash_rate=0.1, kill_rate=0.05,
                              corrupt_rate=0.15, skew_rate=0.25,
                              max_skew_seconds=0.2),
}


class _ChaosDecoder:
    """Wraps one stream's real decoder with deterministic fault draws."""

    def __init__(self, inner, chaos: ChaosConfig, stream_seed_: int,
                 injector: "ChaosInjector"):
        self._inner = inner
        self._chaos = chaos
        self._rng = make_rng((chaos.seed, stream_seed_, 0xC4A05))
        self._injector = injector

    def decode_epoch(self, trace, sample_offset: float = 0.0):
        chaos = self._chaos
        if chaos.corrupt_rate and \
                self._rng.random() < chaos.corrupt_rate:
            self._scribble(trace)
        if chaos.stall_rate and \
                self._rng.random() < chaos.stall_rate:
            self._injector.count("stall")
            time.sleep(chaos.stall_seconds)
        if chaos.kill_rate and self._rng.random() < chaos.kill_rate:
            self._injector.count("kill")
            raise ChaosWorkerKill("chaos: worker killed mid-frame")
        if chaos.crash_rate and \
                self._rng.random() < chaos.crash_rate:
            self._injector.count("crash")
            raise ChaosCrashError("chaos: decode crashed")
        return self._inner.decode_epoch(trace,
                                        sample_offset=sample_offset)

    def _scribble(self, trace) -> None:
        """NaN-scribble a run of the chunk's samples in place.

        ``trace.samples`` is the zero-copy view into the shard's
        shm ring, so this is genuine shared-memory corruption.  It
        happens before the decode touches the trace, so the trace's
        lazily-memoized prefix sums are computed *from* the corrupted
        data — the guard stage sees exactly what a scribbled DMA
        would have produced.
        """
        samples = trace.samples
        if samples.size == 0 or not samples.flags.writeable:
            return
        length = int(self._rng.integers(
            1, min(self._chaos.corrupt_max_run, samples.size) + 1))
        start = int(self._rng.integers(0, samples.size - length + 1))
        samples[start:start + length] = complex(np.nan, np.nan)
        self._injector.count("corrupt")


class ChaosInjector:
    """Builds chaos-wrapped per-stream decoders for a service.

    Use :func:`chaos_service_config` to wire one into a
    :class:`~repro.service.config.ServiceConfig`; the injector's
    :meth:`counts` say what actually fired (a test asserting "the
    service survived X" should also assert X happened).
    """

    #: The fault menu, fixed up front so every counter exists before a
    #: child starts (see ``__init__``).
    FAULTS: Tuple[str, ...] = ("stall", "crash", "kill", "corrupt",
                               "skew")

    def __init__(self, chaos: ChaosConfig,
                 base_config: ServiceConfig):
        self.chaos = chaos
        self._base = base_config
        self._inner_factory = base_config.decoder_factory
        self._lock = threading.Lock()
        # multiprocessing.Value counters so faults fired inside a
        # process-executor child (the _ChaosDecoder is built in the
        # child, from the copy of this injector pickled into it) tick
        # the *same* shared cells the parent reads.  Each Value brings
        # its own cross-process lock.  Spawned children can only open
        # cells made by a spawn context.
        self._counters = {name: _SPAWN.Value("q", 0)
                          for name in self.FAULTS}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def count(self, fault: str) -> None:
        counter = self._counters.get(fault)
        if counter is None:
            # Unknown fault names only ever come from parent-side
            # extensions; a Value created after a child started is
            # not shared with it, so gate creation behind the
            # in-process lock.
            with self._lock:
                counter = self._counters.setdefault(
                    fault, _SPAWN.Value("q", 0))
        with counter.get_lock():
            counter.value += 1

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {name: int(counter.value)
                    for name, counter in self._counters.items()}

    def decoder_factory(self, key: Tuple[int, int], seed: int):
        if self._inner_factory is not None:
            inner = self._inner_factory(key, seed)
        else:
            inner = SessionDecoder(self._base.decoder, rng=seed,
                                   session_config=self._base.session)
        return _ChaosDecoder(inner, self.chaos, seed, self)

    # -- submit-side faults ------------------------------------------------

    def skew_for(self, reader_id: int, antenna: int,
                 seq: int) -> float:
        """Deterministic clock skew for one chunk, in seconds.

        Zero when the draw says this chunk arrives on time.  The
        submitter adds the skew to the chunk's ``start_time_s`` before
        submission — arrival timestamps wander while the sample
        streams themselves stay in order, the way NTP-adrift readers
        feed a collector.
        """
        if not self.chaos.skew_rate:
            return 0.0
        gen = make_rng((self.chaos.seed,
                        stream_seed(0xC10C, reader_id, antenna), seq))
        if gen.random() >= self.chaos.skew_rate:
            return 0.0
        self.count("skew")
        return float(gen.uniform(-self.chaos.max_skew_seconds,
                                 self.chaos.max_skew_seconds))


def chaos_service_config(base: ServiceConfig, chaos: ChaosConfig
                         ) -> Tuple[ServiceConfig, ChaosInjector]:
    """A copy of ``base`` whose decoders are chaos-wrapped.

    Returns ``(config, injector)``; pass the config to
    :class:`~repro.service.service.DecodeService` and read the
    injector's counters after the run.
    """
    injector = ChaosInjector(chaos, base)
    return replace(base, decoder_factory=injector.decoder_factory), \
        injector


class capture_thread_exceptions:
    """Record uncaught worker-thread exceptions during a chaos run.

    The "zero uncaught exceptions" chaos invariant needs a witness:
    Python routes exceptions that escape a ``Thread`` run loop to
    ``threading.excepthook`` rather than crashing the process, so a
    broken supervision path would otherwise fail silently.  Within
    this context every such escape is recorded; deliberate
    :class:`ChaosWorkerKill` escapes (the injected fault doing its
    job) are filtered out of ``unexpected``.
    """

    def __init__(self) -> None:
        self.escapes: list = []
        self._previous: Optional[Callable] = None

    @property
    def unexpected(self) -> list:
        return [args for args in self.escapes
                if not issubclass(args.exc_type, ChaosWorkerKill)]

    def __enter__(self) -> "capture_thread_exceptions":
        self._previous = threading.excepthook
        threading.excepthook = self._hook
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        threading.excepthook = self._previous

    def _hook(self, args) -> None:
        self.escapes.append(args)
