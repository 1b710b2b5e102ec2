"""End-to-end flow: Design → schedule → netlist → placement → Fmax.

This is the reproduction's equivalent of "run Vivado HLS, then Vivado, then
read the timing report".  :class:`Flow.run` executes the staged pass
pipeline (see :mod:`repro.pipeline`):

1. pragma lowering (loop unrolling — where data broadcasts are born);
2. optional §4.2 synchronization pruning;
3. §4.1 calibration-table resolution;
4. scheduling — baseline HLS model, or §4.1 broadcast-aware;
5. RTL generation with the selected §3.3/§4.3 control style;
6. placement, movable-chain spreading, backend register replication,
   movable-register retiming;
7. static timing analysis → Fmax + critical-path attribution.

Each stage is content-addressed; when a stage's input digest matches an
artifact in the on-disk store (``$REPRO_CACHE_DIR/stages/``) the stage is
skipped and its recorded outputs and trace are replayed instead, so a
:meth:`Flow.compare` or a sweep re-runs only the stages a config change
actually invalidates — and, through early cutoff, none downstream of a
stage that re-ran but reproduced its stored outputs.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Literal,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro import hashing, obs
from repro.delay.cache import resolve_calibration
from repro.delay.calibrated import CalibrationTable
from repro.errors import ReproError
from repro.ir.program import Design
from repro.opt import BASELINE, OptimizationConfig
from repro.physical.placement import Placement
from repro.physical.replication import ReplicationConfig
from repro.physical.timing import TimingResult
from repro.pipeline import (
    PassManager,
    StageArtifactStore,
    build_stages,
    stage_cache_enabled,
    table_digest,
)
from repro.rtl.generator import GenResult
from repro.rtl.resources import ResourceReport
from repro.scheduling.schedule import Schedule
from repro.sync.pruning import SyncPruningReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.transforms import TransformPlan

#: Default HLS clock target when a design does not specify one (MHz).
DEFAULT_CLOCK_MHZ = 300.0


def fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """The result digest of a :meth:`FlowResult.fingerprint`; the one
    recipe behind :meth:`FlowResult.result_digest` and the result store's
    record check."""
    return hashing.content_digest({"schema": "repro-flow-result/1", **fingerprint})


#: :class:`FlowResult` fields that resolve from the run's stage outputs on
#: first read (see :attr:`FlowResult.outputs`).
LAZY_FIELDS = ("schedules", "gen", "placement", "sync_report")


@dataclass(eq=False)
class FlowResult:
    """Everything one flow run produced.

    The scalar fields and the small reports (``fmax_mhz``, ``timing``,
    ``resources``, ``utilization``, the netlist's ``cells``/``nets`` counts,
    ``depth_by_loop``, ``ii_by_loop``, ``schedule_edits``) are plain values,
    so :meth:`fingerprint`, :meth:`result_digest` and :meth:`summary` never
    touch the heavy ones.  ``schedules``, ``gen``, ``placement`` and
    ``sync_report`` are read-only properties over :attr:`outputs`: on a run
    whose stages ran they are the live objects; on a warm run they are the
    stage store's verified payloads, unpickled on first read.  Two reads,
    also from two threads, get the same object.  A result pickles (engine
    workers ship them) with any still-unread payload as its bytes.
    """

    design: str
    config_label: str
    clock_target_mhz: float
    fmax_mhz: float
    period_ns: float
    timing: TimingResult
    resources: ResourceReport
    utilization: Dict[str, float]
    #: Cell and net counts of the final netlist (``gen.netlist``).
    cells: int
    nets: int
    #: Schedule depth per ``"kernel/loop"``.
    depth_by_loop: Dict[str, int]
    schedule_edits: List[str]
    ii_by_loop: Dict[str, int]
    #: The run's heavy outputs, keyed by :data:`LAZY_FIELDS`: live values,
    #: or stage-store entries that unpickle on first read.
    outputs: Mapping[str, object] = field(repr=False)
    #: Root span of this run when a tracer was active (see :mod:`repro.obs`).
    trace: Optional[obs.Span] = None
    #: Per-stage pipeline journal: stage name, input digest, whether it ran
    #: or was served from a stored artifact (see :mod:`repro.pipeline`).
    #: Deliberately excluded from :meth:`fingerprint` — cache hits must not
    #: change a result's identity.
    journal: Optional[List[Dict[str, object]]] = None

    @property
    def schedules(self) -> Dict[Tuple[str, str], Schedule]:
        return self.outputs["schedules"]

    @property
    def gen(self) -> GenResult:
        return self.outputs["gen"]

    @property
    def placement(self) -> Placement:
        """Final placement (after replication/retiming); cells keyed by name."""
        return self.outputs["placement"]

    @property
    def sync_report(self) -> Optional[SyncPruningReport]:
        return self.outputs["sync_report"]

    def fingerprint(self) -> Dict[str, object]:
        """The stable, JSON-able identity of this result.

        Everything deterministic a run produces — frequencies, critical
        path class, resource/utilization numbers, schedule depths, IIs,
        edit log, netlist size — and nothing that varies between otherwise
        identical runs (wall clock, traces, object identities, stage-cache
        hits).  Two runs of the same request must produce equal
        fingerprints; the service relies on this to prove a retried job
        reproduced the original, and the pipeline equivalence suite to
        prove cached and uncached runs are bit-identical.
        """
        return {
            "design": self.design,
            "config": self.config_label,
            "clock_target_mhz": self.clock_target_mhz,
            "fmax_mhz": self.fmax_mhz,
            "period_ns": self.period_ns,
            "critical_path_class": self.timing.path_class.value,
            "utilization": dict(sorted(self.utilization.items())),
            "depth_by_loop": dict(self.depth_by_loop),
            "ii_by_loop": dict(self.ii_by_loop),
            "schedule_edits": list(self.schedule_edits),
            "cells": self.cells,
            "nets": self.nets,
        }

    def result_digest(self) -> str:
        """Canonical digest of :meth:`fingerprint` (see :mod:`repro.hashing`)."""
        return fingerprint_digest(self.fingerprint())

    def summary(self) -> str:
        # Partial resource reports (e.g. a device with no DSP column) may
        # omit keys; treat missing kinds as unused rather than raising.
        util = self.utilization
        lut, ff = util.get("LUT", 0.0), util.get("FF", 0.0)
        bram, dsp = util.get("BRAM", 0.0), util.get("DSP", 0.0)
        return (
            f"{self.design} [{self.config_label}] "
            f"Fmax={self.fmax_mhz:.0f}MHz "
            f"(target {self.clock_target_mhz:.0f}MHz, "
            f"critical: {self.timing.path_class.value}) "
            f"LUT={lut:.0f}% FF={ff:.0f}% "
            f"BRAM={bram:.0f}% DSP={dsp:.0f}%"
        )


class Flow:
    """Reusable flow driver.

    Args:
        clock_mhz: Override the design's HLS clock target.
        seed: Placement seed (experiments keep it fixed for determinism).
            Also the seed of the §4.1 characterization when no table is
            injected, so a seeded flow is seeded end to end.
        calibration: Calibration table for §4.1; when omitted the flow
            resolves one through the persistent on-disk cache (see
            :mod:`repro.delay.cache`) — built once per (device, seed,
            smoothing), loaded everywhere else.  Resolution is additionally
            memoized per flow instance, so a compare/sweep resolves at most
            once per (device, seed, smoothing, path).
        calibration_path: Explicit calibration file (the CLI's
            ``--calibration PATH``); its stored provenance must match this
            flow's device/seed or the run fails loudly.
        replication: Backend fanout-optimization knobs (the paper runs with
            it enabled; the ablation bench disables it).
        retime: Run movable-register retiming after replication.
        stage_cache: The stage store, the flow's only stage reuse path.
            ``None`` (default) uses the shared on-disk store under
            ``$REPRO_CACHE_DIR/stages`` unless ``$REPRO_STAGE_CACHE`` is
            ``off``; ``False`` disables all stage reuse (every run re-runs
            every stage); a store instance (e.g. a private
            :class:`~repro.pipeline.StageArtifactStore`) is used as-is.
            Content-digest early cutoff is on whenever a store is in use.
            Results are bit-identical either way.
    """

    #: Smoothing passes requested from the §4.1 characterization.
    SMOOTH_PASSES = 1

    def __init__(
        self,
        clock_mhz: Optional[float] = None,
        seed: int = 2020,
        calibration: Optional[CalibrationTable] = None,
        replication: Optional[ReplicationConfig] = None,
        retime: bool = True,
        calibration_path: Optional[str] = None,
        stage_cache: Union[None, Literal[False], StageArtifactStore] = None,
    ) -> None:
        self.clock_mhz = clock_mhz
        self.seed = seed
        self.calibration = calibration
        self.calibration_path = calibration_path
        self.replication = replication or ReplicationConfig()
        self.retime = retime
        self.stage_cache = stage_cache
        #: (device, seed, smooth_passes, path) → (table, original source,
        #: table digest).
        self._calibration_memo: Dict[Tuple, Tuple[CalibrationTable, str, str]] = {}

    # ------------------------------------------------------------------
    def _resolve_calibration(self, device: str) -> Tuple[CalibrationTable, str, str]:
        """Resolve (and instance-memoize) the calibration table.

        Returns ``(table, source, digest)``.  The memo stores the
        *original* resolution source ("built", "disk", "memory"), so
        observability reports the same provenance no matter how many runs
        this flow instance serves, and the table's content digest, so the
        calibration stage hashes each resolved table once per flow.
        """
        key = (device, self.seed, self.SMOOTH_PASSES, self.calibration_path)
        hit = self._calibration_memo.get(key)
        if hit is None:
            # Looked up as a module global so tests can monkeypatch
            # ``repro.flow.resolve_calibration``.
            table, source = resolve_calibration(
                device,
                seed=self.seed,
                smooth_passes=self.SMOOTH_PASSES,
                path=self.calibration_path,
            )
            hit = (table, source, table_digest(table))
            self._calibration_memo[key] = hit
        return hit

    def _stage_store(self) -> Optional[StageArtifactStore]:
        """Materialize the ``stage_cache`` policy into a store (or None)."""
        cache = self.stage_cache
        if cache is None:
            return StageArtifactStore() if stage_cache_enabled() else None
        if cache is False:
            return None
        if not isinstance(cache, StageArtifactStore):
            raise ReproError(
                f"stage_cache must be None, False or a StageArtifactStore, "
                f"got {cache!r}"
            )
        return cache

    # ------------------------------------------------------------------
    def run(
        self,
        design: Design,
        config: OptimizationConfig = BASELINE,
        plan: Optional["TransformPlan"] = None,
        clock_mhz: Optional[float] = None,
    ) -> FlowResult:
        """Run the full flow on ``design`` under ``config``.

        The run is a staged pass pipeline (see :mod:`repro.pipeline`):
        ``pragmas``, ``sync-pruning``, ``calibration``, ``scheduling``,
        ``ii-analysis``, ``rtl-gen``, ``placement``, ``spreading``,
        ``replication``, ``retiming``, ``timing``.  When a
        :class:`repro.obs.Tracer` is activated (``obs.activate``), the run
        reports one ``flow`` root span with a child span per stage, plus
        counters such as ``scheduling.registers_inserted``,
        ``physical.nets_replicated``, and ``pipeline.stages_skipped`` /
        ``pipeline.stages_run``.  Stages served from the artifact store
        replay their recorded trace (marked ``cached=True``).  The root
        span is attached to :attr:`FlowResult.trace`; the per-stage journal
        to :attr:`FlowResult.journal`.

        ``plan`` is an optional :class:`~repro.ir.transforms.TransformPlan`
        applied by the ``pragmas`` stage before lowering; its digest enters
        that stage's params, so planned and plan-free runs of one design
        never share stage artifacts.  ``clock_mhz`` overrides both the
        flow-level and the design-level clock target for this run only
        (the explorer sweeps clocks without rebuilding flows).

        The whole run, the pass manager's attempts and the result build,
        executes with CPython's cyclic collector off.  A cold run builds
        large, long-lived graphs (the lowered IR, a netlist of up to 22k
        cells) that the collector keeps walking while they grow and finds
        almost nothing to free.  The collector is re-enabled on return or
        raise only if this call turned it off, so a caller that already
        disabled it (a bench's timed window, a nested run) keeps its
        state.  Heavy fields a caller reads after the run load with the
        collector on.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(design, config, plan, clock_mhz)
        finally:
            if enabled:
                gc.enable()

    def _run(
        self,
        design: Design,
        config: OptimizationConfig,
        plan: Optional["TransformPlan"],
        clock_mhz: Optional[float],
    ) -> FlowResult:
        clock_mhz = float(
            clock_mhz
            or self.clock_mhz
            or design.meta.get("clock_mhz", DEFAULT_CLOCK_MHZ)
        )
        ctx: Dict[str, object] = {"design": design, "clock_ns": 1000.0 / clock_mhz}
        if plan is not None and len(plan):
            ctx["plan"] = plan
        manager = PassManager(build_stages(), store=self._stage_store())

        tracer = obs.current_tracer()
        with tracer.span(
            obs.FLOW_SPAN,
            design=design.name,
            config=config.label,
            clock_target_mhz=clock_mhz,
            seed=self.seed,
        ) as root:
            ctx, journal = manager.execute(self, config, ctx)
            timing: TimingResult = ctx["timing"]
            resources: ResourceReport = ctx["resources"]
            result = FlowResult(
                design=design.name,
                config_label=config.label,
                clock_target_mhz=clock_mhz,
                fmax_mhz=timing.fmax_mhz,
                period_ns=timing.period_ns,
                timing=timing,
                resources=resources,
                utilization=resources.utilization(design.device),
                cells=ctx["cells"],
                nets=ctx["nets"],
                depth_by_loop=ctx["depth_by_loop"],
                schedule_edits=ctx["schedule_edits"],
                ii_by_loop=ctx["ii_by_loop"],
                outputs=ctx.subset(LAZY_FIELDS),
                trace=root if isinstance(root, obs.Span) else None,
                journal=journal,
            )
            # Bundles unpickled inside this run (the heavy fields' loads
            # come later, outside the span, if the caller reads them).
            for stage in ctx.loaded:
                tracer.add("pipeline.bundles_loaded")
                tracer.add(f"pipeline.bundles_loaded.{stage}")
            root.set("fmax_mhz", round(timing.fmax_mhz, 3))
            root.set("critical_path_class", timing.path_class.value)
            tracer.set_gauge("flow.fmax_mhz", round(timing.fmax_mhz, 3))
        return result

    def compare(
        self,
        design: Design,
        baseline: OptimizationConfig = BASELINE,
        optimized: Optional[OptimizationConfig] = None,
    ) -> Tuple[FlowResult, FlowResult]:
        """Run a design twice (Table 1's Orig vs Opt columns).

        The second run reads the first one's entries from the stage store,
        so the front-end stages whose digests don't depend on the config
        delta (pragma lowering in particular — the design is verified and
        lowered exactly once) are executed by the first run and replayed by
        the second, even when the store starts cold.  With the stage cache
        disabled (``stage_cache=False``) both runs execute every stage.
        """
        from repro.opt import FULL

        orig = self.run(design, baseline)
        opt = self.run(design, optimized if optimized is not None else FULL)
        return orig, opt
