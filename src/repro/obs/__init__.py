"""repro.obs — flow-wide tracing, metrics, and run reports.

The observability layer every flow stage reports into:

* :mod:`repro.obs.tracer` — nestable spans with an ambient-tracer stack so
  instrumentation is always on and free when no tracer is activated;
* :mod:`repro.obs.metrics` — counters, gauges, histograms scoped per span;
* :mod:`repro.obs.report` — Chrome ``trace_event`` export, a versioned JSON
  run report, and a console tree renderer.

Typical use::

    from repro import obs

    tracer = obs.Tracer()
    with obs.activate(tracer):
        result = Flow().run(design, FULL)
    obs.write_chrome_trace("trace.json", tracer)
    report = obs.run_report(tracer, [result])

Flow code instruments itself with the module-level helpers::

    with obs.span("placement", cells=n) as sp:
        ...
        sp.set("refine_moves", moved)
    obs.add("physical.nets_replicated", 1)
"""

from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.exposition import (
    CONTENT_TYPE as EXPOSITION_CONTENT_TYPE,
    Family,
    Sample,
    parse_exposition,
    render_exposition,
)
from repro.obs.journal import (
    EVENT_SCHEMA,
    EventJournal,
    activate_journal,
    current_journal,
    emit_event,
    follow_events,
    read_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    SUPERLINEAR_SLOPE,
    fit_power_law,
    profile_reports,
    render_profile,
)
from repro.obs.snapshot import (
    rebuild_span,
    replay_metrics,
    replay_span,
    snapshot_metrics,
    snapshot_span,
)
from repro.obs.report import (
    FLOW_SPAN,
    RUN_REPORT_SCHEMA,
    chrome_trace,
    chrome_trace_events,
    flow_record,
    render_console,
    run_report,
    stage_record,
    write_chrome_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activate,
    add,
    current_tracer,
    observe,
    set_gauge,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "activate",
    "current_tracer",
    "span",
    "add",
    "observe",
    "set_gauge",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "EXPOSITION_CONTENT_TYPE",
    "Family",
    "Sample",
    "render_exposition",
    "parse_exposition",
    "EVENT_SCHEMA",
    "EventJournal",
    "activate_journal",
    "current_journal",
    "emit_event",
    "read_events",
    "follow_events",
    "PROFILE_SCHEMA",
    "SUPERLINEAR_SLOPE",
    "profile_reports",
    "render_profile",
    "fit_power_law",
    "snapshot_span",
    "snapshot_metrics",
    "replay_span",
    "replay_metrics",
    "rebuild_span",
    "FLOW_SPAN",
    "RUN_REPORT_SCHEMA",
    "run_report",
    "flow_record",
    "stage_record",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_console",
]
