"""Metric primitives for the observability layer.

Three classic instrument kinds, all zero-dependency and cheap enough to
leave enabled in the hot flow paths:

* :class:`Counter` — monotonically increasing totals ("registers inserted",
  "nets replicated");
* :class:`Gauge` — last-written value ("fmax_mhz" of the run);
* :class:`Histogram` — bounded-reservoir sample bag with *exact*
  count/sum/min/max ("fanout of every net the replication pass split").

A :class:`MetricsRegistry` owns one namespace of named instruments.  Every
:class:`~repro.obs.tracer.Span` carries its own registry, so metrics are
scoped to the span subtree that produced them; :meth:`MetricsRegistry.merge`
folds child registries into aggregate views for reports.

Histograms are bounded: a long-running daemon observes compile latencies
for every job it ever serves, so an unbounded sample list is a slow memory
leak.  Each histogram keeps at most :data:`RESERVOIR_SIZE` samples via
deterministic reservoir sampling (a fixed-seed per-instance RNG, so two
identical observation sequences always produce identical reservoirs —
cached trace replay depends on this), while ``count``/``sum``/``min``/
``max`` stay exact forever.  Percentiles are computed over the reservoir:
exact below the bound, an unbiased estimate above it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

Number = Union[int, float]

#: Per-histogram sample bound.  Below it everything is exact; above it the
#: reservoir is a uniform sample of the stream.
RESERVOIR_SIZE = 1024

#: Fixed seed of every histogram's private RNG — determinism over entropy:
#: replayed and re-run observation sequences must build identical state.
RESERVOIR_SEED = 0x5EED


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: Number = 0

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (got {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins measurement."""

    value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


@dataclass
class Histogram:
    """A bounded reservoir of samples with exact summary statistics.

    ``samples`` holds at most ``limit`` values; ``count``/``total``/
    ``min_value``/``max_value`` track the full stream exactly no matter how
    many observations arrive.
    """

    samples: List[Number] = field(default_factory=list)
    count: int = 0
    total: Number = 0
    min_value: Optional[Number] = None
    max_value: Optional[Number] = None
    limit: int = RESERVOIR_SIZE
    _rng: random.Random = field(
        default_factory=lambda: random.Random(RESERVOIR_SEED),
        repr=False,
        compare=False,
    )

    def __post_init__(self) -> None:
        # Tolerate legacy construction Histogram(samples=[...]): adopt the
        # given samples as the full (exact) stream.
        if self.samples and self.count == 0:
            adopted = list(self.samples)
            self.samples = []
            for value in adopted:
                self.observe(value)

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if len(self.samples) < self.limit:
            self.samples.append(value)
        else:
            # Vitter's algorithm R: keep each of the N seen samples with
            # probability limit/N.
            slot = self._rng.randrange(self.count)
            if slot < self.limit:
                self.samples[slot] = value

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram.

        Count/sum/min/max combine exactly.  The reservoirs concatenate;
        past the bound the union is downsampled deterministically (evenly
        spaced picks from the sorted union), preserving the distribution
        without consuming RNG state.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.min_value is None or (
            other.min_value is not None and other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        if self.max_value is None or (
            other.max_value is not None and other.max_value > self.max_value
        ):
            self.max_value = other.max_value
        combined = self.samples + list(other.samples)
        if len(combined) <= self.limit:
            self.samples = combined
        else:
            ordered = sorted(combined)
            step = len(ordered) / self.limit
            self.samples = [ordered[int(i * step)] for i in range(self.limit)]

    def percentile(self, q: float) -> Number:
        """Nearest-rank percentile over the reservoir; ``q`` in [0, 100]."""
        if not self.samples:
            return 0
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, Number]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
        }

    # -- lossless state (snapshot/replay; see repro.obs.snapshot) --------
    def state_dict(self) -> Dict[str, object]:
        """JSON-safe exact state: reservoir plus the exact aggregates."""
        return {
            "samples": list(self.samples),
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        hist = cls()
        hist.samples = list(state.get("samples") or [])
        hist.count = int(state.get("count") or len(hist.samples))
        hist.total = state.get("sum", sum(hist.samples))
        hist.min_value = state.get("min")
        hist.max_value = state.get("max")
        if hist.samples and hist.min_value is None:
            hist.min_value = min(hist.samples)
        if hist.samples and hist.max_value is None:
            hist.max_value = max(hist.samples)
        return hist


class MetricsRegistry:
    """One namespace of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- write side ------------------------------------------------------
    def add(self, name: str, amount: Number = 1) -> None:
        self.counters.setdefault(name, Counter()).add(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauges.setdefault(name, Gauge()).set(value)

    def observe(self, name: str, value: Number) -> None:
        self.histograms.setdefault(name, Histogram()).observe(value)

    # -- read side -------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)

    def counter(self, name: str) -> Number:
        """Current value of counter ``name`` (0 when never incremented)."""
        entry = self.counters.get(name)
        return entry.value if entry is not None else 0

    def gauge(self, name: str) -> Number:
        """Current value of gauge ``name`` (0 when never written)."""
        entry = self.gauges.get(name)
        return entry.value if entry is not None else 0

    def merge(self, others: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """Fold ``others`` into this registry (in place); returns self.

        Counters sum, histograms fold exactly (see
        :meth:`Histogram.merge_from`), gauges keep the value written *last*
        in iteration order (parents first, then children — so a child's
        more specific reading wins).
        """
        for other in others:
            for name, counter in other.counters.items():
                self.add(name, counter.value)
            for name, gauge in other.gauges.items():
                self.set_gauge(name, gauge.value)
            for name, hist in other.histograms.items():
                self.histograms.setdefault(name, Histogram()).merge_from(hist)
        return self

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the fold of ``registries``."""
        return cls().merge(registries)

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: plain numbers for counters/gauges, summaries
        for histograms."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }

