"""Span-driven hot-path profiler: where does flow time actually go?

Works over run-report documents (``repro-run-report/1``, see
:mod:`repro.obs.report`): for every stage span it computes **self time**
(duration minus the sum of its children — the time spent in the stage's own
code, not delegated to sub-stages), aggregates it by span *path*
(``scheduling/calibration``), and ranks the top-k hot spots.

Given a *sweep* — the same design compiled at several broadcast factors, the
measurement axis of the source DAC paper — it additionally fits each path's
self time against the factor as a power law (least squares in log-log
space).  A fitted exponent near 1 means the stage scales linearly with
broadcast width; paths whose exponent exceeds
:data:`SUPERLINEAR_SLOPE` *and* whose signal has outgrown the noise floor
(:data:`SUPERLINEAR_MIN_SIGNAL_MS`) are flagged super-linear — these are
the O(n²) loops ROADMAP item 3 wants found and flattened.

The output document (``repro-profile/1``) is what ``repro profile`` prints
and what ``BENCH_flow.json`` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

PROFILE_SCHEMA = "repro-profile/1"

#: Fitted scaling exponents above this are flagged super-linear.  Slightly
#: above 1 to leave headroom for timer noise on genuinely linear stages.
SUPERLINEAR_SLOPE = 1.15

#: Self-times below this are excluded from the log-log fit (censored, like
#: readings below a detection limit).  A power law fitted through
#: millisecond-scale points is fitting the timer, not the stage: at that
#: scale allocator pauses and scheduler noise dominate (±0.5 ms per span
#: is routine on a busy runner), and a 0.7 ms → 3 ms transition reports a
#: wildly super-linear exponent for a stage that merely crossed from
#: unmeasurable to measurable.  Exclusion cannot mask a super-linear
#: stage that matters — such a stage's large-factor points are far above
#: the floor and dominate the fit; if fewer than two points survive, the
#: stage is too fast to profile at all.
NOISE_FLOOR_MS = 2.0

#: A super-linear *flag* additionally requires the path's largest-factor
#: reading to clear this (4x the censoring floor).  Near the floor every
#: surviving point carries ±15-20 % relative noise, and with one or two
#: points censored the fit degenerates to a single noisy ratio — a
#: genuinely linear 3 ms stage can fit a slope of 1.3.  A real O(n²)
#: loop cannot hide under this bar: growing quadratically, it clears 4x
#: the floor within a factor doubling of becoming measurable at all
#: (the placement-refine regression this guards against read 9 ms at the
#: top factor while still only ~0.7 ms at the smallest).  Sub-signal
#: paths still *report* their fitted slope; they just cannot fail a run.
SUPERLINEAR_MIN_SIGNAL_MS = 4 * NOISE_FLOOR_MS

#: Synthetic path for time inside the flow span but outside any stage.
FLOW_OVERHEAD_PATH = "(flow overhead)"


def _children_ms(record: Dict[str, Any]) -> float:
    return sum(
        float(child.get("duration_ms") or 0.0)
        for child in record.get("children") or ()
    )


def stage_self_times(
    record: Dict[str, Any], prefix: str = ""
) -> Iterable[Tuple[str, float, float]]:
    """Walk one stage record tree yielding ``(path, self_ms, total_ms)``.

    Replayed (cache-hit) children carry zero live duration; their original
    cost is in ``cached_duration_ms`` and deliberately *not* counted — the
    profiler measures where this run's wall clock went.
    """
    name = str(record.get("name") or "stage")
    path = f"{prefix}/{name}" if prefix else name
    total = float(record.get("duration_ms") or 0.0)
    self_ms = max(0.0, total - _children_ms(record))
    yield path, self_ms, total
    for child in record.get("children") or ():
        yield from stage_self_times(child, path)


@dataclass
class PathStats:
    """Accumulated self-time of one span path across runs."""

    path: str
    self_ms: float = 0.0
    total_ms: float = 0.0
    calls: int = 0
    #: ``factor -> fastest self_ms at that factor`` (sweep mode only).
    by_factor: Dict[float, float] = field(default_factory=dict)


def fit_power_law(
    points: Sequence[Tuple[float, float]],
    floor: float = NOISE_FLOOR_MS,
) -> Optional[float]:
    """Least-squares exponent of ``y ≈ c·x^k`` in log-log space.

    ``y`` values below ``floor`` are excluded from the fit (see
    :data:`NOISE_FLOOR_MS`).  Returns ``None`` when the fit is undefined:
    fewer than two distinct positive-x points survive censoring (a stage
    too fast to measure).
    """
    usable = [
        (math.log(x), math.log(y))
        for x, y in points
        if x > 0 and y >= max(floor, 1e-9)
    ]
    if len({x for x, _y in usable}) < 2:
        return None
    n = len(usable)
    mean_x = sum(x for x, _y in usable) / n
    mean_y = sum(y for _x, y in usable) / n
    var_x = sum((x - mean_x) ** 2 for x, _y in usable)
    if var_x == 0:
        return None
    cov = sum((x - mean_x) * (y - mean_y) for x, y in usable)
    return cov / var_x


def _report_path_totals(
    report: Dict[str, Any],
) -> Dict[str, Tuple[float, float, int]]:
    """Per-path ``(self_ms, total_ms, calls)`` totals of one run report."""
    totals: Dict[str, Tuple[float, float, int]] = {}

    def add(path: str, self_ms: float, total_ms: float) -> None:
        prev_self, prev_total, prev_calls = totals.get(path, (0.0, 0.0, 0))
        totals[path] = (prev_self + self_ms, prev_total + total_ms, prev_calls + 1)

    for run in report.get("runs") or ():
        run_total = float(run.get("duration_ms") or 0.0)
        stage_total = 0.0
        for stage in run.get("stages") or ():
            stage_total += float(stage.get("duration_ms") or 0.0)
            for path, self_ms, total_ms in stage_self_times(stage):
                add(path, self_ms, total_ms)
        add(FLOW_OVERHEAD_PATH, max(0.0, run_total - stage_total), run_total)
    return totals


def profile_reports(
    reports: Iterable[Tuple[Optional[float], Dict[str, Any]]],
    top: int = 10,
    slope_threshold: float = SUPERLINEAR_SLOPE,
) -> Dict[str, Any]:
    """Profile a set of ``(broadcast_factor, run_report)`` pairs.

    ``broadcast_factor`` may be ``None`` for a plain (non-sweep) profile;
    scaling slopes are fitted only across pairs with a factor.  Returns the
    ``repro-profile/1`` document: top-k hot paths by self time, each with
    calls, self/total milliseconds, share of all self time, and — in sweep
    mode — the fitted exponent and a super-linear flag.

    Several reports at the same factor are repeats of one measurement:
    each path keeps its fastest reading there, since scheduler and
    collector pauses only ever add time.  A path's headline self time is
    its unfactored self time plus the sum of its per-factor minima
    (best-case time, coherent with the fitted points).
    """
    stats: Dict[str, PathStats] = {}
    factors: List[float] = []
    for factor, report in reports:
        if factor is not None:
            factors.append(float(factor))
        for path, (self_ms, total_ms, calls) in _report_path_totals(
            report
        ).items():
            entry = stats.setdefault(path, PathStats(path))
            entry.total_ms += total_ms
            entry.calls += calls
            if factor is None:
                entry.self_ms += self_ms
                continue
            prev = entry.by_factor.get(float(factor))
            entry.by_factor[float(factor)] = (
                self_ms if prev is None else min(prev, self_ms)
            )
    for entry in stats.values():
        entry.self_ms += sum(entry.by_factor.values())
    grand_self = sum(entry.self_ms for entry in stats.values()) or 1.0
    ranked = sorted(stats.values(), key=lambda e: e.self_ms, reverse=True)
    hotspots: List[Dict[str, Any]] = []
    for entry in ranked[: max(1, top)]:
        spot: Dict[str, Any] = {
            "path": entry.path,
            "self_ms": round(entry.self_ms, 3),
            "total_ms": round(entry.total_ms, 3),
            "calls": entry.calls,
            "share": round(entry.self_ms / grand_self, 4),
        }
        if entry.by_factor:
            slope = fit_power_law(sorted(entry.by_factor.items()))
            spot["by_factor"] = {
                format(f, "g"): round(ms, 3)
                for f, ms in sorted(entry.by_factor.items())
            }
            if slope is not None:
                spot["slope"] = round(slope, 3)
                spot["superlinear"] = (
                    slope > slope_threshold
                    and max(entry.by_factor.values()) >= SUPERLINEAR_MIN_SIGNAL_MS
                )
        hotspots.append(spot)
    doc: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "slope_threshold": slope_threshold,
        "total_self_ms": round(grand_self, 3),
        "hotspots": hotspots,
    }
    if factors:
        doc["factors"] = sorted(set(factors))
        doc["superlinear_paths"] = [
            spot["path"] for spot in hotspots if spot.get("superlinear")
        ]
    return doc


def render_profile(doc: Dict[str, Any]) -> str:
    """Console table of a ``repro-profile/1`` document."""
    lines: List[str] = []
    factors = doc.get("factors")
    if factors:
        lines.append(
            "hot paths by self-time (sweep over factors "
            + ", ".join(format(f, "g") for f in factors)
            + ")"
        )
    else:
        lines.append("hot paths by self-time")
    header = f"{'path':<42s} {'self ms':>10s} {'share':>7s} {'calls':>6s}"
    if factors:
        header += f" {'slope':>7s}  scaling"
    lines.append(header)
    lines.append("-" * len(header))
    for spot in doc.get("hotspots") or ():
        row = (
            f"{spot['path']:<42s} {spot['self_ms']:>10.2f}"
            f" {spot['share'] * 100:>6.1f}% {spot['calls']:>6d}"
        )
        if factors:
            slope = spot.get("slope")
            if slope is None:
                row += f" {'-':>7s}"
            else:
                tag = "SUPER-LINEAR" if spot.get("superlinear") else "ok"
                row += f" {slope:>7.2f}  {tag}"
        lines.append(row)
    superlinear = doc.get("superlinear_paths")
    if superlinear:
        lines.append("")
        lines.append(
            "super-linear stages (candidate O(n^2) hot loops): "
            + ", ".join(superlinear)
        )
    return "\n".join(lines)
