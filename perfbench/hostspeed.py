"""Host-speed normalisation: fixed reference kernels and the host factor.

On a shared VM the wall clock of one fixed decode drifts by tens of
percent within minutes, while its ratio to a small fixed kernel timed
next to it stays within a few percent.  So every time this benchmark
reports is *reference time*::

    f = t_nom / t_ref          reference time = wall time * f

where ``t_ref`` is the measured time of a kernel next to the work and
``t_nom`` its nominal value (``spec.json``).  The kernels import nothing
from ``repro``.

* Single-threaded decoding (``epoch``) times one :class:`ReferenceKernel`
  before each op.  It is built from the decoder's op mix -- small-array
  numpy calls (cumsum, windowed differences, nearest-centroid
  assignment, a 2x2 eigensolve, a short argsort) glued by Python
  dispatch -- so it slows down when the host slows the decoder down.
* Decoding on every core (``stream``, ``sweep``) times
  :class:`KernelCopies`, one per core, between drained blocks: the
  memory kernel alone for ``sweep``, and its geometric mean with the
  reference kernel for ``stream``, whose GIL-bound dispatch also slows
  with the host's compute speed.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Callable, List, Sequence

import numpy as np

Clock = Callable[[], float]


class ReferenceKernel:
    """The fixed ~1.4 ms kernel; its inputs come from a fixed seed."""

    ROUNDS = 13

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        self._pts = rng.standard_normal((96, 2))
        self._centroids = rng.standard_normal((3, 2))

    def __call__(self) -> float:
        acc = 0.0
        pts, centroids = self._pts, self._centroids
        for i in range(self.ROUNDS):
            seg = self._x[i * 16:i * 16 + 128]
            c = np.cumsum(seg)
            d = c[8:] - c[:-8]
            mag = np.abs(d)
            k = int(np.argmax(mag))
            acc += float(mag[k]) + float(np.mean(d.real))
            dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(dist, axis=1)
            for j in range(3):
                members = pts[labels == j]
                if members.size:
                    acc += float(members.mean())
            acc += float(np.linalg.eigvalsh(np.cov(pts.T))[0])
            acc += float(np.argsort(mag[:32])[0])
        return acc


def time_kernel(kernel: Callable[[], float], reps: int = 1,
                clock: Clock = time.perf_counter) -> List[float]:
    """Wall seconds of ``reps`` back-to-back kernel calls."""
    out = []
    for _ in range(reps):
        start = clock()
        kernel()
        out.append(clock() - start)
    return out


class MemoryKernel:
    """Copies a fixed 32 MiB array into another, a ~6 ms kernel.

    Decoding on every core also moves whole captures through framing,
    pickling and capture-length transforms.  Probed on the shared host
    over stream blocks and sweep passes, the work's wall time mostly
    followed this kernel's with an exponent near 1, while the swings of
    :class:`ReferenceKernel` copies were two or more times the work's.
    """

    MIB = 32

    def __init__(self) -> None:
        self._src = np.ones((self.MIB << 20) // 8)
        self._dst = np.empty_like(self._src)

    def __call__(self) -> float:
        np.copyto(self._dst, self._src)
        return float(self._dst[-1])


def _kernel_server(conn) -> None:
    """Helper-process loop: per ``(kernel, reps)`` request, time that
    many runs of the named kernel; exit on None."""
    kernels = {"compute": ReferenceKernel(), "memory": MemoryKernel()}
    for kernel in kernels.values():
        time_kernel(kernel, 10)  # warm the allocator and numpy dispatch
    while True:
        request = conn.recv()
        if request is None:
            break
        name, reps = request
        conn.send(time_kernel(kernels[name], reps))
    conn.close()


class KernelCopies:
    """One copy of each kernel per core, in helper processes.

    Used where the program under test runs on every core (service
    shards, batch workers): the copies run together while the program
    is drained, so ``t_ref`` sees what a busy host gives each core, and
    their arrays stay out of the benchmark process's memory.  The
    helpers are spawned (not forked) before the program starts any
    thread; :meth:`close` stops and joins them.
    """

    def __init__(self, n_copies: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        for _ in range(n_copies):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_kernel_server, args=(child,),
                               daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def measure(self, reps: int = 3, kernel: str = "memory") -> List[float]:
        """Times of ``kernel`` ("memory" or "compute") from every copy,
        all copies running at once."""
        for conn in self._conns:
            conn.send((kernel, reps))
        out: List[float] = []
        for conn in self._conns:
            out.extend(conn.recv())
        return out

    def measure_mixed(self, reps: int = 3) -> List[float]:
        """Geometric mean of the median compute and memory kernel times,
        all copies running at once."""
        compute = statistics.median(self.measure(reps, "compute"))
        memory = statistics.median(self.measure(reps, "memory"))
        return [(compute * memory) ** 0.5]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10.0)
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []


class HostFactor:
    """Turns kernel timings into host factors and keeps every factor
    used, so a run can print min / median / max beside its results."""

    def __init__(self, t_nom_s: float) -> None:
        self.t_nom_s = t_nom_s
        self.factors: List[float] = []

    def factor(self, kernel_times: Sequence[float]) -> float:
        f = self.t_nom_s / statistics.median(kernel_times)
        self.factors.append(f)
        return f

    def centred(self, kernel_times: Sequence[float],
                half_window: int = 2) -> List[float]:
        """One factor per op from the median of the kernel times in a
        window centred on it (the op's own kernel, ``half_window``
        before and after): close to the work, robust to one blip."""
        n = len(kernel_times)
        return [self.factor(kernel_times[max(0, i - half_window):
                                         i + half_window + 1])
                for i in range(n)]

    def blocks(self, boundaries: Sequence[Sequence[float]],
               reach: int = 1) -> List[float]:
        """One factor per block from kernel samples timed at block
        boundaries: block *b* runs between boundaries *b* and *b+1*, and
        its factor pools those two plus ``reach`` more on either side.
        A few milliseconds of kernel at one boundary is a noisy sample
        of a host whose speed drifts over seconds."""
        n = len(boundaries) - 1
        return [self.factor([t for k in range(max(0, b - reach),
                                              min(n, b + 1 + reach) + 1)
                             for t in boundaries[k]])
                for b in range(n)]

    def summary(self) -> dict:
        if not self.factors:
            return {"min": 0.0, "median": 0.0, "max": 0.0, "n": 0}
        return {"min": min(self.factors),
                "median": statistics.median(self.factors),
                "max": max(self.factors), "n": len(self.factors)}
