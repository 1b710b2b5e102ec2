"""Span-subtree snapshots: freeze a traced stage, replay it on cache hits.

The staged pass pipeline (:mod:`repro.pipeline`) stores, next to each
stage's artifact, a JSON-safe snapshot of everything the stage reported
into the observability layer while it ran: span attributes, counters,
gauges, raw histogram samples, and the full child-span subtree (e.g. the
``baseline-schedule``/``chain-audit``/``reschedule`` spans the
broadcast-aware scheduler opens, or the per-loop spans of RTL generation).

When a later run skips the stage because its input digest matched, the
pass manager replays the snapshot into the live stage span.  The replay is
*exact* for everything except wall clock: counters land with their
original values, histograms with their original samples (so percentile
summaries are bit-identical), and child spans reappear with their original
attributes.  Replayed children carry zero duration — the work did not
happen this run — with the original cost preserved as the
``cached_duration_ms`` attribute.

This is what makes a warm trace structurally identical to a cold one: a
report consumer asserting ``scheduling.registers_inserted >= 1`` cannot
tell (and should not care) whether the scheduler ran or was replayed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Span


def _json_safe(value: Any) -> Any:
    """Coerce attribute values to JSON-representable types (the same
    policy as the run report's attribute export)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def snapshot_metrics(metrics: MetricsRegistry) -> Dict[str, Any]:
    """JSON-safe, *lossless* view of one registry.

    Unlike :meth:`MetricsRegistry.to_dict` this keeps the full histogram
    state (reservoir samples plus the exact count/sum/min/max), not
    summaries — replay must reproduce the state bit-for-bit so any
    downstream percentile computation matches the original run.
    """
    return {
        "counters": {n: c.value for n, c in sorted(metrics.counters.items())},
        "gauges": {n: g.value for n, g in sorted(metrics.gauges.items())},
        "histograms": {
            n: h.state_dict() for n, h in sorted(metrics.histograms.items())
        },
    }


def replay_metrics(metrics: MetricsRegistry, snapshot: Dict[str, Any]) -> None:
    """Re-emit a :func:`snapshot_metrics` capture into ``metrics``.

    Accepts both the current histogram encoding (a state dict with exact
    aggregates) and the legacy one (a bare sample list, from sidecars
    written before reservoir bounding).
    """
    for name, value in (snapshot.get("counters") or {}).items():
        metrics.add(name, value)
    for name, value in (snapshot.get("gauges") or {}).items():
        metrics.set_gauge(name, value)
    for name, payload in (snapshot.get("histograms") or {}).items():
        target = metrics.histograms.setdefault(name, Histogram())
        if isinstance(payload, dict):
            target.merge_from(Histogram.from_state(payload))
        else:
            for sample in payload:
                target.observe(sample)


def snapshot_span(span: Span) -> Dict[str, Any]:
    """Freeze ``span``'s attrs, metrics, and child subtree (JSON-safe).

    The span may still be open (the pipeline snapshots a stage from inside
    its ``with`` block); only the children's durations are meaningful then,
    which is all replay uses.  Returns ``{}`` for null spans (no tracer
    active) so callers can store the snapshot unconditionally.
    """
    if not isinstance(span, Span):
        return {}
    return {
        "name": span.name,
        "attrs": {str(k): _json_safe(v) for k, v in span.attrs.items()},
        "start_s": round(span.start_s, 6),
        "duration_ms": round(span.duration_ms, 3),
        "metrics": snapshot_metrics(span.metrics),
        "children": [snapshot_span(child) for child in span.children],
    }


def _rebuild_child(snapshot: Dict[str, Any], parent: Span) -> Span:
    attrs = dict(snapshot.get("attrs") or {})
    attrs["cached_duration_ms"] = snapshot.get("duration_ms", 0.0)
    node = Span(
        name=snapshot.get("name", "span"),
        attrs=attrs,
        start_s=parent.start_s,
        end_s=parent.start_s,
        parent=parent,
    )
    replay_metrics(node.metrics, snapshot.get("metrics") or {})
    for child_snapshot in snapshot.get("children") or ():
        node.children.append(_rebuild_child(child_snapshot, node))
    return node


def replay_span(span: Any, snapshot: Dict[str, Any]) -> None:
    """Replay a :func:`snapshot_span` capture into the live ``span``.

    Top-level attrs and metrics are merged onto ``span`` itself (which
    keeps its own, real timestamps); children are rebuilt as zero-duration
    spans.  A no-op for null spans (no tracer active) or empty snapshots.
    """
    if not isinstance(span, Span) or not snapshot:
        return
    for key, value in (snapshot.get("attrs") or {}).items():
        span.set(key, value)
    replay_metrics(span.metrics, snapshot.get("metrics") or {})
    for child_snapshot in snapshot.get("children") or ():
        span.children.append(_rebuild_child(child_snapshot, span))


def rebuild_span(
    snapshot: Dict[str, Any], parent: Optional[Span] = None
) -> Optional[Span]:
    """Reconstruct a full :class:`Span` tree from a :func:`snapshot_span`
    capture, durations and timestamps included.

    This is the *faithful* inverse of :func:`snapshot_span`, used by the
    service to rehydrate the per-request traces its result store keeps
    (daemon span + every worker attempt's spans, partial ones included)
    for ``repro trace --request`` and Chrome export.  Contrast with
    :func:`replay_span`, which deliberately rebuilds children with zero
    duration for cache-hit replay.

    Returns ``None`` for an empty snapshot.
    """
    if not snapshot:
        return None
    start_s = float(snapshot.get("start_s") or 0.0)
    duration_ms = float(snapshot.get("duration_ms") or 0.0)
    node = Span(
        name=snapshot.get("name", "span"),
        attrs=dict(snapshot.get("attrs") or {}),
        start_s=start_s,
        end_s=start_s + duration_ms / 1e3,
        parent=parent,
    )
    replay_metrics(node.metrics, snapshot.get("metrics") or {})
    for child_snapshot in snapshot.get("children") or ():
        child = rebuild_span(child_snapshot, node)
        if child is not None:
            node.children.append(child)
    return node
