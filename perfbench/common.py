"""What every workload shares: the report, percentiles, digests, memory.

Each workload module returns one :class:`Report`.  ``run.py`` prints
it (every metric with its unit and sample count) and turns it into the
one-line JSON result.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

MB = 1e6
#: Latency of an op that never completed (shed, failed): it misses any
#: latency limit, so it sorts above every measured value.
NEVER = math.inf


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples the value was computed from (ops, chunks, passes...).
    n: int


@dataclass
class Report:
    workload: str
    e2e: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; ``NEVER`` entries sort last and a
    rank that lands on one returns ``NEVER``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    if math.isinf(ordered[hi]):
        return NEVER
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def result_digest(result) -> str:
    """Digest of one decode's streams: bits, timing and tag attribution."""
    h = hashlib.sha1()
    for stream in result.streams:
        h.update(np.asarray(stream.bits, dtype=np.int8).tobytes())
        h.update(f"{stream.offset_samples:.6f}/{stream.period_samples:.6f}"
                 f"/{stream.tag_id}/{int(stream.collided)};".encode())
    return h.hexdigest()[:16]


#: Decode-stage buckets of ``EpochResult.stage_timings`` in the ledger.
STAGES = ("guard", "equalize", "edge", "fold", "extract", "detect",
          "separate", "viterbi")


def decode_ledger(decodes: Sequence[Tuple[object, float]]
                  ) -> Dict[str, Metric]:
    """Stage ledger of ``(EpochResult, host factor)`` pairs, reference ms
    per decode: each stage bucket, the decoder's own total, the residual
    (total - sum of stages), the fidelity escalation rate and the
    warm-cache hit ratios (zero for cold decodes)."""
    from repro.core.fidelity import escalation_rate, merge_fidelity_stats

    n = len(decodes)
    layers = {f"core.stages.{name}_ms": Metric(
        mean(r.stage_timings.get(name, 0.0) * f * 1e3 for r, f in decodes),
        "ms", n) for name in STAGES}
    stage_sum = sum(m.value for m in layers.values())
    total = mean(r.stage_timings.get("total", 0.0) * f * 1e3
                 for r, f in decodes)
    layers["core.pipeline.total_ms"] = Metric(total, "ms", n)
    layers["core.pipeline.residual_ms"] = Metric(total - stage_sum, "ms", n)
    fidelity: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    for result, _ in decodes:
        merge_fidelity_stats(fidelity, result.fidelity_stats)
        merge_fidelity_stats(cache, result.cache_stats)
    layers["core.fidelity.escalation_rate"] = Metric(
        escalation_rate(fidelity), "fraction", n)
    for stage in ("fold", "kmeans", "basis"):
        hits = cache.get(f"{stage}_hits", 0)
        seen = hits + cache.get(f"{stage}_misses", 0)
        layers[f"core.session.{stage}_hit_ratio"] = Metric(
            hits / seen if seen else 0.0, "fraction", seen)
    return layers


# -- memory -----------------------------------------------------------------

def _status_kb(pid: object, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return out


class RssPeak:
    """Peak resident memory of this process plus its worker children.

    Each :meth:`sample` (call it where workers are alive) sums the peak
    resident size (``VmHWM``) of this process and of every child but the
    benchmark's own kernel helpers; the largest sum is the peak.
    """

    def __init__(self, exclude: Sequence[int] = ()):
        self.exclude = set(exclude)
        self.peak_kb = 0

    def sample(self) -> None:
        me = os.getpid()
        total = _status_kb(me, "VmHWM:")
        for child in _children(me):
            if child not in self.exclude:
                total += _status_kb(child, "VmHWM:")
        self.peak_kb = max(self.peak_kb, total)

    def peak_mb(self) -> float:
        self.sample()
        return self.peak_kb * 1024 / MB


# -- environment ---------------------------------------------------------

def environment() -> Dict[str, object]:
    """What the run depends on besides the code: recorded every run."""
    from repro.core.kernels import get_backend
    from repro.service.config import ServiceConfig

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "service_executor": ServiceConfig().executor,
            "kernel_backend": get_backend().name}
