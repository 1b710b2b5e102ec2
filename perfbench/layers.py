"""Per-layer accounting over a traced run's span forest.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Each span belongs to the layer of its own name
(:data:`LAYER_OF`) or, failing that, to its nearest named ancestor, so a
stage's sub-spans (``greedy-place`` under ``placement``) count toward the
stage's layer while the benchmark's own spans (``bench.*``) and the stage
store it injects are carved out into theirs.

Stages served from a stored artifact replay their recorded sub-spans with
zero duration and their recorded counters; counts here come only from
stages that ran, so a replayed stage is never counted twice.  Which stages
ran and where skipped ones came from is read from the flows' pipeline
journals: a span's ``cached`` attribute also marks a calibration stage
that ran on a cached table.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

from repro import obs
from repro.pipeline import StageArtifactStore

#: Span name → layer.  Stage names are the pipeline's; ``bench.*`` spans
#: are the ones the benchmark opens around its own calls.
LAYER_OF = {
    "flow": "pipeline",
    "pragmas": "ir.pragmas",
    "sync-pruning": "sync.pruning",
    "calibration": "delay.calibration",
    "scheduling": "scheduling",
    "ii-analysis": "ii",
    "rtl-gen": "rtl.gen",
    "placement": "physical.placement",
    "spreading": "physical.spreading",
    "replication": "physical.replication",
    "retiming": "physical.retiming",
    "timing": "physical.timing",
    "bench.build_design": "ir.build",
    "bench.characterize": "delay.characterize",
    "bench.stage_store.get": "pipeline.store.get",
    "bench.stage_store.put": "pipeline.store.put",
    "bench.search": "dse",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
TIMED_LAYERS = (
    "ir.build", "ir.pragmas", "sync.pruning", "delay.characterize",
    "delay.calibration", "scheduling", "ii", "rtl.gen",
    "physical.placement", "physical.spreading", "physical.replication",
    "physical.retiming", "physical.timing", "pipeline", "dse", "bench",
)

#: Counters a stage that ran adds to its subtree, reported by name.
STAGE_COUNTERS = {
    "scheduling.registers_inserted": "scheduling.registers_inserted",
    "physical.nets_replicated": "physical.nets_replicated",
}

MEMO_NAMES = ("sched", "rtl", "place")


def self_time_s(span: obs.Span) -> float:
    """Duration minus the union of the children's intervals (seconds)."""
    if span.end_s is None:
        return 0.0
    covered = 0.0
    cursor = span.start_s
    for child in sorted(span.children, key=lambda c: c.start_s):
        start = max(child.start_s, cursor)
        end = min(child.end_s if child.end_s is not None else child.start_s, span.end_s)
        if end > start:
            covered += end - start
            cursor = end
    return max(0.0, (span.end_s - span.start_s) - covered)


def layer_self_times(roots: Iterable[obs.Span], default: str = "bench") -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)

    def visit(span: obs.Span, inherited: str) -> None:
        layer = LAYER_OF.get(span.name, inherited)
        totals[layer] += self_time_s(span)
        for child in span.children:
            visit(child, layer)

    for root in roots:
        visit(root, default)
    return dict(totals)


def flow_spans(roots: Iterable[obs.Span]) -> List[obs.Span]:
    return [s for root in roots for s in root.walk() if s.name == obs.FLOW_SPAN]


class StageCounts:
    """Counts over the stage spans of every ``flow`` span."""

    def __init__(self) -> None:
        self.memo_served = 0
        self.ops_lowered = 0
        self.cells = 0
        self.nets = 0
        self.memo_hits = 0
        self.memo_lookups = 0
        self.counters: Dict[str, float] = defaultdict(float)

    def add_flows(self, flows: Iterable[obs.Span]) -> None:
        for flow in flows:
            for stage in flow.children:
                if stage.attrs.get("cached"):
                    continue
                registry = stage.aggregate_metrics()
                for counter, metric in STAGE_COUNTERS.items():
                    self.counters[metric] += registry.counter(counter)
                hits = sum(registry.counter(f"incremental.{m}_hits") for m in MEMO_NAMES)
                misses = sum(registry.counter(f"incremental.{m}_misses") for m in MEMO_NAMES)
                self.memo_hits += hits
                self.memo_lookups += hits + misses
                if hits and not misses:
                    self.memo_served += 1
                if stage.name == "pragmas":
                    self.ops_lowered += int(stage.attrs.get("ops", 0))
                elif stage.name == "rtl-gen":
                    self.cells += int(stage.attrs.get("cells", 0))
                    self.nets += int(stage.attrs.get("nets", 0))


class TimedStageStore(StageArtifactStore):
    """The default on-disk stage store, with a span around every get/put.

    Passed to ``Flow(stage_cache=...)`` in traced runs only; it reads and
    writes the same directory the default store would, so results and
    reuse are unchanged.
    """

    def __init__(self) -> None:
        super().__init__()
        self.bytes_written = 0

    def get(self, digest: str):
        with obs.span("bench.stage_store.get"):
            return super().get(digest)

    def put(self, digest: str, payload: bytes, meta: Dict[str, Any]) -> int:
        with obs.span("bench.stage_store.put"):
            evicted = super().put(digest, payload, meta)
        self.bytes_written += len(payload)
        return evicted


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    roots: List[obs.Span],
    journals: Iterable[Optional[List[Dict[str, Any]]]],
    store: Optional[TimedStageStore] = None,
    extra_flows: Iterable[obs.Span] = (),
) -> Dict[str, float]:
    """The program-layer half of the per-layer metrics.

    ``journals`` are the pipeline journals of the flows the spans cover.
    ``extra_flows`` are flow trees rebuilt from another process's trace
    (the service's workers); they count toward stages and layer times but
    not toward the benchmark's own spans.
    """
    extra = list(extra_flows)
    times = layer_self_times(roots)
    for layer, seconds in layer_self_times(extra, default="pipeline").items():
        times[layer] = times.get(layer, 0.0) + seconds
    counts = StageCounts()
    counts.add_flows(flow_spans(roots))
    counts.add_flows(extra)

    metrics: Dict[str, float] = {
        f"{layer}.self_s": times.get(layer, 0.0) for layer in TIMED_LAYERS
    }
    metrics["pipeline.store.get_s"] = times.get("pipeline.store.get", 0.0)
    metrics["pipeline.store.put_s"] = times.get("pipeline.store.put", 0.0)
    metrics["ir.ops_lowered"] = counts.ops_lowered
    metrics["rtl.cells"] = counts.cells
    metrics["rtl.nets"] = counts.nets
    for metric in STAGE_COUNTERS.values():
        metrics[metric] = counts.counters[metric]
    entries = [entry for journal in journals for entry in journal or ()]
    skipped = [e.get("source") for e in entries if e.get("action") == "skipped"]
    total = len(entries)
    metrics.update({
        "pipeline.stages_total": total,
        "pipeline.stages_run": total - len(skipped),
        "pipeline.stages_skipped.disk": skipped.count("disk"),
        "pipeline.stages_skipped.overlay": skipped.count("overlay"),
        "pipeline.stages_skipped.memo": counts.memo_served,
        "pipeline.reuse_ratio": ratio(len(skipped) + counts.memo_served, total),
        "pipeline.store.bytes_written": store.bytes_written if store is not None else 0,
        "pipeline.memo_lookups": counts.memo_lookups,
        "pipeline.memo_hit_ratio": ratio(counts.memo_hits, counts.memo_lookups),
    })
    return metrics


def stage_seconds(flow: obs.Span) -> Dict[str, float]:
    """Inclusive seconds of each stage of one flow span (for per-design rows)."""
    return {stage.name: stage.duration_ms / 1e3 for stage in flow.children}
