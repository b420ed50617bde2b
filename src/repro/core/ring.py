"""One shared-memory transport: a sample ring a parent writes and its
children map.

Both process-parallel decoders move IQ samples to their children the
same way.  The parent owns one :class:`ChunkRing` — a fixed-capacity
``complex128`` ring backed by a ``multiprocessing.shared_memory``
block — copies each unit of work's samples into it once, and sends the
child only the ``(start, n)`` region; the child attaches the same
block by name through :class:`RingView` and decodes a zero-copy view.
The streaming service gives each shard one long-lived ring
(:mod:`repro.service.worker`); :class:`~repro.core.engine.BatchDecoder`
keeps one ring for its lifetime, sized from its first trace.

Framing rules
-------------

* Frames are allocated contiguously.  When the tail of the ring is too
  short for the next chunk, allocation *wraps*: the partial tail is
  left unused and the frame starts at sample 0 (a frame never straddles
  the ring boundary, so its view is always one contiguous slice).
* A chunk larger than the whole ring raises
  :class:`~repro.errors.FrameTooLargeError` — no retirement can ever
  make it fit.
* A chunk that does not fit *right now* (live frames hold the space)
  raises :class:`~repro.errors.RingFullError`; callers react by
  shedding queued work or carrying the samples inline (pickled with
  the message) instead.
* Frames retire in any order (load shedding retires queued frames
  around an in-flight one), but space is reclaimed in allocation order:
  a retired frame's region is only reusable once every earlier frame
  has retired too.  This keeps the free region a single span and the
  accounting O(1) amortized.

The ring is thread-safe: the service's ingest loop writes and sheds
while a worker thread views and retires.  All allocation, retirement
and reclamation bookkeeping stays in the owning parent; a child holds
no ring state, so a child that dies holding a frame cannot leak it —
the parent retires the frame itself.

Hosts without POSIX shared memory (or with an exhausted ``/dev/shm``)
get a ring over a private buffer (``shm_name is None``): framing
behaves identically, but no child can map it, so cross-process callers
carry every frame inline.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..errors import FrameTooLargeError, RingFullError, ServiceError

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython 3.8+
    _shared_memory = None

_SAMPLE_DTYPE = np.complex128


class ChunkRing:
    """Fixed-capacity complex-sample ring with in-order reclamation.

    ``capacity_samples`` is the ring size in ``complex128`` samples
    (16 bytes each).  The ring is backed by a shared-memory block when
    the host has one, else by a private numpy array.
    """

    def __init__(self, capacity_samples: int):
        if capacity_samples < 1:
            raise ServiceError(
                f"ring capacity must be >= 1 sample, got "
                f"{capacity_samples}")
        self.capacity = int(capacity_samples)
        self._shm = None
        if _shared_memory is not None:
            try:
                self._shm = _shared_memory.SharedMemory(
                    create=True,
                    size=self.capacity * _SAMPLE_DTYPE().itemsize)
            except OSError:  # exhausted /dev/shm — degrade silently
                self._shm = None
        if self._shm is not None:
            self._buf = np.ndarray((self.capacity,),
                                   dtype=_SAMPLE_DTYPE,
                                   buffer=self._shm.buf)
        else:
            self._buf = np.empty(self.capacity, dtype=_SAMPLE_DTYPE)
        self._lock = threading.Lock()
        #: frame_id -> (start, n, retired), in allocation order.
        self._live: "OrderedDict[int, list]" = OrderedDict()
        self._head = 0           # end of the newest allocation
        self._next_id = 0
        #: Lifetime counters (exposed through the service metrics).
        self.frames_written = 0
        self.frames_wrapped = 0
        self.samples_wasted_tail = 0

    # -- producer side -----------------------------------------------------

    def write(self, samples: np.ndarray) -> int:
        """Copy ``samples`` into the ring; return the new frame id.

        Raises :class:`FrameTooLargeError` when the chunk can never
        fit and :class:`RingFullError` when live frames currently hold
        the space.
        """
        samples = np.ascontiguousarray(samples, dtype=_SAMPLE_DTYPE)
        n = int(samples.size)
        if n == 0:
            raise ServiceError("cannot frame an empty chunk")
        if n > self.capacity:
            raise FrameTooLargeError(
                f"chunk of {n} samples exceeds the ring capacity of "
                f"{self.capacity} samples")
        with self._lock:
            start = self._allocate(n)
            self._buf[start:start + n] = samples
            frame_id = self._next_id
            self._next_id += 1
            self._live[frame_id] = [start, n, False]
            self._head = start + n
            self.frames_written += 1
            return frame_id

    def _allocate(self, n: int) -> int:
        """Find a contiguous start for ``n`` samples (lock held).

        The live span runs from the oldest frame's start to ``_head``
        in allocation order; it *wraps* exactly when the oldest start
        sits at or past ``_head`` (``>=`` disambiguates the exactly-full
        ring, where head == tail with frames still live).
        """
        if not self._live:
            # Empty ring: reset to 0 so long chunks always fit.
            return 0
        tail = next(iter(self._live.values()))[0]
        if tail >= self._head:
            # Wrapped span: the only free run is [head, tail).
            if n <= tail - self._head:
                return self._head
            raise RingFullError(
                f"no contiguous run of {n} samples free "
                f"(gap {tail - self._head})")
        # Unwrapped span [tail, head): free space is the buffer tail
        # past head, plus the prefix before the oldest frame.
        if n <= self.capacity - self._head:
            return self._head
        if n <= tail:
            self.frames_wrapped += 1
            self.samples_wasted_tail += self.capacity - self._head
            return 0
        raise RingFullError(
            f"no contiguous run of {n} samples free "
            f"(end {self.capacity - self._head}, prefix {tail})")

    # -- consumer side -----------------------------------------------------

    def view(self, frame_id: int) -> np.ndarray:
        """Zero-copy view of a live frame's samples.

        The view is only valid until the frame is retired; the worker
        must finish decoding (every array an ``EpochResult`` carries is
        derived, never a slice of the raw trace) before calling
        :meth:`retire`.
        """
        start, n = self.region(frame_id)
        return self._buf[start:start + n]

    def region(self, frame_id: int) -> tuple:
        """``(start, n)`` of a live frame — what a cross-process
        reader needs to map the frame's samples from a
        :class:`RingView` without sharing any ring bookkeeping."""
        with self._lock:
            try:
                start, n, retired = self._live[frame_id]
            except KeyError:
                raise ServiceError(f"frame {frame_id} is not live")
            if retired:
                raise ServiceError(f"frame {frame_id} already retired")
            return start, n

    def retire(self, frame_id: int) -> None:
        """Mark a frame done; reclaim space in allocation order."""
        with self._lock:
            if frame_id not in self._live:
                raise ServiceError(f"frame {frame_id} is not live")
            self._live[frame_id][2] = True
            while self._live:
                oldest_id = next(iter(self._live))
                if not self._live[oldest_id][2]:
                    break
                self._live.popitem(last=False)

    # -- introspection -----------------------------------------------------

    @property
    def live_frames(self) -> int:
        with self._lock:
            return sum(1 for e in self._live.values() if not e[2])

    @property
    def free_samples(self) -> int:
        """Largest chunk guaranteed to fit right now."""
        with self._lock:
            if not self._live:
                return self.capacity
            tail = next(iter(self._live.values()))[0]
            if tail >= self._head:
                return tail - self._head
            return max(self.capacity - self._head, tail)

    @property
    def shm_name(self) -> Optional[str]:
        """Name a child process can attach the backing block by
        (``None`` when the ring degraded to a private buffer)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Release the backing block (frames become invalid)."""
        with self._lock:
            self._live.clear()
            self._buf = np.empty(0, dtype=_SAMPLE_DTYPE)
            if self._shm is not None:
                self._shm.close()
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                self._shm = None

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass


class RingView:
    """Read-side attachment to another process's :class:`ChunkRing`.

    The child end of the split: attaches the parent's shared-memory
    block by name and maps ``(start, n)`` regions the parent hands
    over the child's pipe as zero-copy ``complex128`` views.  Holds
    **no** ring bookkeeping — allocation, retirement and reclamation
    all stay with the owning parent, so there is no cross-process
    state to keep coherent.

    Attaching registers the block with the ``shared_memory`` resource
    tracker a second time.  That tracker is the parent's (a child
    started by :mod:`repro.core.child` inherits its pipe) and keeps a
    set, so the extra registration is harmless, and the parent's
    unlink clears it.  Unregistering here would strip the parent's
    own entry.
    """

    def __init__(self, name: str):
        self._shm = _shared_memory.SharedMemory(name=name)
        self.capacity = self._shm.size // _SAMPLE_DTYPE().itemsize
        self._buf = np.ndarray((self.capacity,), dtype=_SAMPLE_DTYPE,
                               buffer=self._shm.buf)

    def view(self, start: int, n: int) -> np.ndarray:
        """Zero-copy view of the region the parent allocated.

        Valid only until the parent retires the frame — which it does
        on receipt of this frame's verdict, never before.
        """
        if not 0 <= start <= start + n <= self.capacity:
            raise ServiceError(
                f"region [{start}, {start + n}) outside the "
                f"{self.capacity}-sample ring")
        return self._buf[start:start + n]

    def close(self) -> None:
        """Detach (the parent still owns — and unlinks — the block)."""
        if self._shm is not None:
            self._buf = np.empty(0, dtype=_SAMPLE_DTYPE)
            self._shm.close()
            self._shm = None

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
