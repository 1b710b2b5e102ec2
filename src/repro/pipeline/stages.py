"""The eleven concrete stages of the flow pipeline.

Execution order (the DAG is a chain with explicit data edges)::

    pragmas ──▶ sync-pruning ──▶ calibration ──▶ scheduling ──▶ ii-analysis
                                                      │
                                                      ▼
                 placement ◀────────────────────── rtl-gen
                     │
                     ▼
                 spreading ──▶ replication ──▶ retiming ──▶ timing

Stage bodies are the former ``Flow.run`` blocks, moved verbatim; the span
attribute names and counter/histogram emissions are unchanged, so traces
of a cold run are byte-compatible with the monolithic flow's.

Artifact-bundling rules (why some outputs re-bind their inputs):

* ``scheduling`` re-binds ``lowered`` — broadcast-aware scheduling inserts
  register ops into loop bodies in place, and each
  :class:`~repro.scheduling.schedule.Schedule` holds references to those
  :class:`~repro.ir.ops.Operation` objects.  Storing them in one bundle
  preserves the identity linkage across a pickle round trip.
* ``replication`` and ``retiming`` re-bind both ``gen`` and ``placement``
  for the same reason: they rewrite the netlist and the placement as one
  consistent unit.
* ``placement``/``spreading`` output only ``placement`` — a
  :class:`~repro.physical.placement.Placement` is keyed by cell *name*, so
  it stays coherent against any unpickled copy of the same netlist.
* ``ii-analysis`` re-binds ``schedule_edits`` and ``timing`` outputs the
  netlist's resources and size, so the two small bundles carry everything
  a result's fingerprint reads, and a warm run leaves the heavy
  scheduling, sync-pruning and retiming bundles unpickled (see
  :class:`~repro.flow.FlowResult`).

Which bundles get pickled at all: ``placement``, ``spreading`` and
``replication`` are sidecar-only checkpoints (``sidecar_only = True``).
Each one's successor re-binds every key it outputs, so on a warm run the
lazy context supersedes their bundles unread; they store their span
snapshot and content digests with an empty bundle.  They still skip,
journal and replay like any other stage, so a resumed worker keeps its
eight-stage prefix.  A run that needs their outputs anyway (its successor
missed, e.g. ``Flow(retime=False)`` over a store a default flow filled)
re-runs them — see :mod:`repro.pipeline.manager`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.delay.calibrated import CalibratedDelayModel
from repro.delay.hls_model import HlsDelayModel
from repro.hashing import content_digest
from repro.ir.passes import apply_pragmas
from repro.physical.device import get_device
from repro.physical.fabric import Fabric
from repro.physical.placement import Placer
from repro.physical.replication import replicate_high_fanout
from repro.physical.retiming import retime_movable
from repro.physical.spreading import spread_movable_chains
from repro.physical.timing import TimingAnalyzer
from repro.pipeline.digest import design_digest, schedules_digest, table_digest
from repro.pipeline.stage import Stage
from repro.rtl.generator import GenOptions, generate_netlist
from repro.rtl.resources import ResourceReport
from repro.scheduling.broadcast_aware import broadcast_aware_schedule
from repro.scheduling.chaining import ChainingScheduler
from repro.scheduling.ii import analyze_ii
from repro.scheduling.schedule import Schedule
from repro.sync.pruning import prune_synchronization

#: ``cal_table`` content-digest placeholder when no table is resolved
#: (baseline configs schedule with the uncalibrated HLS model).
_NO_TABLE_DIGEST = "cal-table:none"


class PragmasStage(Stage):
    """Apply the transform plan (if any), verify the design and lower
    pragmas (loop unrolling — where data broadcasts are born)."""

    name = "pragmas"
    inputs = ("design",)
    outputs = ("lowered",)

    def params(self, flow, config, ctx):
        # The plan rewrites the design before lowering, so its digest is
        # part of this stage's identity.  Plan-free runs return the same
        # empty params as before plans existed — their stored artifacts
        # stay valid.
        plan = ctx.get("plan")
        if plan is None or not len(plan):
            return {}
        return {"plan": plan.digest()}

    def run(self, flow, config, ctx, span):
        design = ctx["design"]
        plan = ctx.get("plan")
        if plan is not None and len(plan):
            span.set("plan_transforms", len(plan))
            design = plan.apply(design)
        design.verify()
        lowered = apply_pragmas(design)
        span.set("kernels", len(lowered.kernels))
        span.set("loops", sum(1 for _ in lowered.all_loops()))
        span.set("ops", sum(len(l.body.ops) for _, l in lowered.all_loops()))
        return {"lowered": lowered}

    def content_digests(self, flow, config, ctx, outputs, payload):
        return {"lowered": design_digest(outputs["lowered"])}


class SyncPruningStage(Stage):
    """Optional §4.2 synchronization pruning.  Always present in the DAG so
    every trace has the same stage skeleton (attr ``enabled`` tells which)."""

    name = "sync-pruning"
    inputs = ("lowered",)
    outputs = ("lowered", "sync_report")

    def params(self, flow, config, ctx):
        return {"enabled": bool(config.sync_pruning)}

    def run(self, flow, config, ctx, span):
        span.set("enabled", bool(config.sync_pruning))
        lowered = ctx["lowered"]
        sync_report = None
        if config.sync_pruning:
            lowered, sync_report = prune_synchronization(lowered)
            span.set("split_loops", len(sync_report.split_loops))
            span.set("flows_created", sync_report.flows_created)
            span.set("call_syncs_pruned", len(sync_report.call_syncs_pruned))
        return {"lowered": lowered, "sync_report": sync_report}

    def content_digests(self, flow, config, ctx, outputs, payload):
        # ``sync_report`` is report-layer output no downstream stage
        # consumes; it keeps provenance chaining.
        return {"lowered": design_digest(outputs["lowered"])}


class CalibrationStage(Stage):
    """Resolve the §4.1 characterization table (injected → memo → disk →
    built).

    Not cacheable: resolution *is* a cache lookup already, and its result
    depends on the environment (injected tables, cache toggles, explicit
    paths).  It still chains a digest — of the actual table *content* — so
    downstream scheduling artifacts can never alias two different tables
    that happen to share provenance (e.g. a synthetic test table saved
    under the default seed).
    """

    name = "calibration"
    inputs = ("lowered",)
    outputs = ("cal_table",)
    cacheable = False

    @staticmethod
    def _table(flow, config, ctx) -> Tuple[Optional[Any], Optional[str]]:
        if not config.broadcast_aware:
            return None, None
        if flow.calibration is not None:
            return flow.calibration, "injected"
        return flow._resolve_calibration(ctx["design"].device)[:2]

    @staticmethod
    def _digest(flow, config, ctx) -> Optional[str]:
        if not config.broadcast_aware:
            return None
        if flow.calibration is not None:
            # ``CalibrationTable.add`` edits a table in place, so an
            # injected one is hashed on every read.
            return table_digest(flow.calibration)
        # A resolved table is hashed once, when the flow memoizes it.
        return flow._resolve_calibration(ctx["design"].device)[2]

    def params(self, flow, config, ctx):
        return {
            "enabled": bool(config.broadcast_aware),
            "table": self._digest(flow, config, ctx),
        }

    def run(self, flow, config, ctx, span):
        # The characterization itself runs placements; it gets its own
        # stage so its cost isn't blamed on scheduling.
        table, source = self._table(flow, config, ctx)
        span.set("enabled", bool(config.broadcast_aware))
        if table is not None:
            span.set("source", source)
            span.set("cached", source != "built")
        return {"cal_table": table}

    def content_digests(self, flow, config, ctx, outputs, payload):
        return {"cal_table": self._digest(flow, config, ctx) or _NO_TABLE_DIGEST}


class SchedulingStage(Stage):
    """Schedule every loop body — baseline HLS model, or §4.1
    broadcast-aware (which edits the lowered design in place)."""

    name = "scheduling"
    inputs = ("lowered", "cal_table")
    outputs = ("lowered", "schedules", "schedule_edits")

    def params(self, flow, config, ctx):
        return {
            "clock_ns": ctx["clock_ns"],
            "broadcast_aware": bool(config.broadcast_aware),
        }

    def run(self, flow, config, ctx, span):
        lowered = ctx["lowered"]
        clock_ns = ctx["clock_ns"]
        span.set("broadcast_aware", bool(config.broadcast_aware))
        schedules: Dict[Tuple[str, str], Schedule] = {}
        edits: List[str] = []
        cal_model: Optional[CalibratedDelayModel] = None
        if config.broadcast_aware:
            cal_model = CalibratedDelayModel(ctx["cal_table"])
        hls_model = HlsDelayModel()
        for kernel, loop in lowered.all_loops():
            if cal_model is not None:
                result = broadcast_aware_schedule(loop.body, clock_ns, cal_model)
                schedule = result.schedule
                edits.extend(
                    f"{kernel.name}/{loop.name}: {edit}" for edit in result.edits
                )
            else:
                schedule = ChainingScheduler(hls_model, clock_ns).schedule(
                    loop.body
                )
            schedules[(kernel.name, loop.name)] = schedule
        span.set("loops", len(schedules))
        span.set("edits", len(edits))
        span.set("max_depth", max((s.depth for s in schedules.values()), default=0))
        return {"lowered": lowered, "schedules": schedules, "schedule_edits": edits}

    def content_digests(self, flow, config, ctx, outputs, payload):
        return {
            "lowered": design_digest(outputs["lowered"]),
            "schedules": schedules_digest(outputs["schedules"]),
            "schedule_edits": content_digest(list(outputs["schedule_edits"])),
        }


class IIAnalysisStage(Stage):
    """Initiation-interval analysis per loop, plus each loop's schedule
    depth.

    It re-binds ``schedule_edits`` and outputs ``depth_by_loop``, so its
    small bundle carries every schedule-derived field of a result's
    fingerprint: a warm run reads neither from the scheduling bundle.
    """

    name = "ii-analysis"
    inputs = ("lowered", "schedules", "schedule_edits")
    outputs = ("ii_by_loop", "depth_by_loop", "schedule_edits")

    def run(self, flow, config, ctx, span):
        lowered, schedules = ctx["lowered"], ctx["schedules"]
        ii_by_loop = {
            f"{kernel.name}/{loop.name}": analyze_ii(
                loop, schedules[(kernel.name, loop.name)]
            ).ii
            for kernel, loop in lowered.all_loops()
        }
        span.set("worst_ii", max(ii_by_loop.values(), default=1))
        return {
            "ii_by_loop": ii_by_loop,
            "depth_by_loop": {
                f"{kernel}/{loop}": schedule.depth
                for (kernel, loop), schedule in schedules.items()
            },
            "schedule_edits": ctx["schedule_edits"],
        }


class RtlGenStage(Stage):
    """Generate the netlist with the selected §3.3/§4.3 control style."""

    name = "rtl-gen"
    inputs = ("lowered", "schedules")
    outputs = ("gen",)

    def params(self, flow, config, ctx):
        return {"control": config.control.value}

    def run(self, flow, config, ctx, span):
        span.set("control", config.control.value)
        gen = generate_netlist(
            ctx["lowered"], ctx["schedules"], GenOptions(control=config.control)
        )
        span.set("cells", len(gen.netlist.cells))
        span.set("nets", len(gen.netlist.nets))
        return {"gen": gen}

    def content_digests(self, flow, config, ctx, outputs, payload):
        # The digest of the bundle bytes the store keeps: control styles
        # or lowered variants that emit the same netlist (``skid`` and
        # ``skid_minarea`` on a loop min-area cannot shrink) then chain
        # the same digest, so placement through timing replay.  Without
        # a store nothing is looked up, so nothing is hashed.
        if payload is None:
            return {}
        return {"gen": hashlib.sha256(payload).hexdigest()}


class PlacementStage(Stage):
    """Seeded greedy placement on the target device's fabric.

    Reads only the netlist; the device comes from the design (no
    transform or lowering changes it), so two configs that generate the
    same netlist share one placement digest under early cutoff.
    """

    name = "placement"
    inputs = ("gen",)
    outputs = ("placement",)
    sidecar_only = True

    def params(self, flow, config, ctx):
        return {"seed": flow.seed, "device": ctx["design"].device}

    def run(self, flow, config, ctx, span):
        gen = ctx["gen"]
        span.set("cells", len(gen.netlist.cells))
        fabric = Fabric(get_device(ctx["design"].device))
        placement = Placer(fabric, seed=flow.seed).place(
            gen.netlist, anchor=gen.anchor
        )
        return {"placement": placement}


class SpreadingStage(Stage):
    """Re-position movable register chains evenly along their routes."""

    name = "spreading"
    inputs = ("gen", "placement")
    outputs = ("placement",)
    sidecar_only = True

    def run(self, flow, config, ctx, span):
        moved = spread_movable_chains(ctx["gen"].netlist, ctx["placement"])
        span.set("registers_moved", moved)
        return {"placement": ctx["placement"]}


class ReplicationStage(Stage):
    """Backend register replication for high-fanout nets (rewrites netlist
    and placement as one unit)."""

    name = "replication"
    inputs = ("gen", "placement")
    outputs = ("gen", "placement")
    sidecar_only = True

    def params(self, flow, config, ctx):
        rep = flow.replication
        return {
            "enabled": bool(rep.enabled),
            "max_fanout": rep.max_fanout,
            "max_replicas": rep.max_replicas,
        }

    def run(self, flow, config, ctx, span):
        gen, placement = ctx["gen"], ctx["placement"]
        replicas = replicate_high_fanout(gen.netlist, placement, flow.replication)
        span.set("replicas_created", replicas)
        return {"gen": gen, "placement": placement}


class RetimingStage(Stage):
    """Movable-register retiming; leaves the final netlist on ``gen`` so
    downstream analysis (census, verilog) sees what gets timed."""

    name = "retiming"
    inputs = ("gen", "placement")
    outputs = ("gen", "placement")

    def params(self, flow, config, ctx):
        return {"enabled": bool(flow.retime)}

    def run(self, flow, config, ctx, span):
        gen, placement = ctx["gen"], ctx["placement"]
        span.set("enabled", flow.retime)
        netlist = gen.netlist
        if flow.retime:
            netlist, placement, moves = retime_movable(netlist, placement)
            span.set("moves", moves)
        gen.netlist = netlist
        return {"gen": gen, "placement": placement}


class TimingStage(Stage):
    """Static timing analysis → Fmax + critical-path attribution, plus the
    final netlist's resources and size (what a result's fingerprint reads
    of the netlist, so a warm run need not unpickle it)."""

    name = "timing"
    inputs = ("gen", "placement")
    outputs = ("timing", "resources", "cells", "nets")

    def run(self, flow, config, ctx, span):
        netlist = ctx["gen"].netlist
        timing = TimingAnalyzer(netlist, ctx["placement"]).analyze()
        span.set("fmax_mhz", round(timing.fmax_mhz, 3))
        span.set("period_ns", round(timing.period_ns, 4))
        span.set("critical_path_class", timing.path_class.value)
        return {
            "timing": timing,
            "resources": ResourceReport.of_netlist(netlist),
            "cells": len(netlist.cells),
            "nets": len(netlist.nets),
        }


def build_stages() -> List[Stage]:
    """The flow's stage list, in DAG order."""
    return [
        PragmasStage(),
        SyncPruningStage(),
        CalibrationStage(),
        SchedulingStage(),
        IIAnalysisStage(),
        RtlGenStage(),
        PlacementStage(),
        SpreadingStage(),
        ReplicationStage(),
        RetimingStage(),
        TimingStage(),
    ]
