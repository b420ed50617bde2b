"""Prometheus-style live metrics for the streaming decode service.

A tiny, dependency-free metrics kernel: :class:`Counter`,
:class:`Gauge` and :class:`Histogram` families with label support, and
one :class:`MetricsRegistry` that renders the whole set in the
Prometheus text exposition format (``render()``).

Everything is thread-safe (shard workers bump from their own threads
while the ingest loop renders snapshots) and allocation-light: a
labelled series is one list of floats behind one dict lookup.

Only the service process holds a registry.  Shard workers of both
executors count every decode into it from the chunk's verdict and its
:class:`~repro.types.EpochResult` (see
:meth:`repro.service.worker.ShardWorker._complete`), so no metric
crosses a process boundary.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

#: Default latency buckets (seconds): spans sub-ms metric taps through
#: multi-second overload queueing.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _label_items(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(items: Tuple[Tuple[str, str], ...],
                   extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Family:
    """Shared plumbing of one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._series: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _cell(self, labels: Dict[str, str], factory):
        key = _label_items(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = factory()
                self._series[key] = cell
            return cell

    def _snapshot(self):
        with self._lock:
            return list(self._series.items())

    def header(self) -> List[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} {self.kind}"]


class Counter(_Family):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        cell = self._cell(labels, lambda: [0.0])
        with self._lock:
            cell[0] += value

    def value(self, **labels) -> float:
        cell = self._cell(labels, lambda: [0.0])
        with self._lock:
            return cell[0]

    def total(self) -> float:
        """Sum across every label set (convenience for tests/CLIs)."""
        with self._lock:
            return sum(cell[0] for cell in self._series.values())

    def render(self) -> List[str]:
        lines = self.header()
        for items, cell in self._snapshot():
            lines.append(
                f"{self.name}{_render_labels(items)} {cell[0]:g}")
        return lines


class Gauge(_Family):
    """A value that can go up and down (queue depth, live sessions)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        cell = self._cell(labels, lambda: [0.0])
        with self._lock:
            cell[0] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        cell = self._cell(labels, lambda: [0.0])
        with self._lock:
            cell[0] += value

    def value(self, **labels) -> float:
        cell = self._cell(labels, lambda: [0.0])
        with self._lock:
            return cell[0]

    def render(self) -> List[str]:
        lines = self.header()
        for items, cell in self._snapshot():
            lines.append(
                f"{self.name}{_render_labels(items)} {cell[0]:g}")
        return lines


class Histogram(_Family):
    """Cumulative-bucket histogram (Prometheus semantics).

    A cell is ``[counts per bucket..., +Inf count, sum]``; quantiles
    for reports come from :meth:`quantile` (bucket upper-bound
    interpolation, the same estimate PromQL's ``histogram_quantile``
    computes).
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")

    def _new_cell(self):
        return [0.0] * (len(self.buckets) + 2)

    def observe(self, value: float, **labels) -> None:
        cell = self._cell(labels, self._new_cell)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            cell[idx] += 1
            cell[-1] += value

    def count(self, **labels) -> float:
        cell = self._cell(labels, self._new_cell)
        with self._lock:
            return sum(cell[:-1])

    def quantile(self, q: float, **labels) -> float:
        """Estimated q-quantile over one label set's observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cell = self._cell(labels, self._new_cell)
        with self._lock:
            counts = list(cell[:-1])
        total = sum(counts)
        if total == 0:
            return float("nan")
        rank = q * total
        cumulative = 0.0
        for i, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank and count > 0:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i else 0.0
                upper = self.buckets[i]
                inside = (rank - (cumulative - count)) / count
                return lower + (upper - lower) * inside
        return self.buckets[-1]

    def render(self) -> List[str]:
        lines = self.header()
        for items, cell in self._snapshot():
            cumulative = 0.0
            for bound, count in zip(self.buckets, cell[:-2]):
                cumulative += count
                le = 'le="%g"' % bound
                lines.append(
                    f"{self.name}_bucket{_render_labels(items, le)} "
                    f"{cumulative:g}")
            cumulative += cell[-2]
            inf = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket{_render_labels(items, inf)} "
                f"{cumulative:g}")
            lines.append(
                f"{self.name}_count{_render_labels(items)} "
                f"{cumulative:g}")
            lines.append(
                f"{self.name}_sum{_render_labels(items)} "
                f"{cell[-1]:g}")
        return lines


class MetricsRegistry:
    """All metric families of one service, renderable as one page."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _get(self, name: str, factory, kind) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = factory()
                self._families[name] = family
            elif not isinstance(family, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(family).__name__}")
            return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help_text),
                         Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help_text), Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get(
            name, lambda: Histogram(name, help_text, buckets),
            Histogram)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            families = [self._families[name]
                        for name in sorted(self._families)]
        lines: List[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n"
