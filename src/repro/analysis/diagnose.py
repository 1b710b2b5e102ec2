"""Critical-path explanation, optimization advice and the §4 fix chain.

The paper motivates this tooling gap directly: "current HLS tools do not
provide helpful feedback or guidelines on how to improve the clock
frequency".  One table, :data:`FIXES`, ties each broadcast class to its
advice and to the §4 technique that removes it.  :func:`diagnose` turns a
:class:`~repro.physical.timing.TimingResult` into that advice, and
:func:`fix_chain` applies the same table in a loop: compile, read the
critical path's class, turn on its technique, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.control.styles import ControlStyle
from repro.flow import Flow, FlowResult
from repro.ir.program import Design
from repro.opt import BASELINE, OptimizationConfig
from repro.physical.timing import TimingResult
from repro.rtl.netlist import NetKind


class Technique(NamedTuple):
    """One on/off §4 technique of :class:`~repro.opt.OptimizationConfig`."""

    section: str
    action: str
    is_on: Callable[[OptimizationConfig], bool]
    turn_on: Callable[[OptimizationConfig], OptimizationConfig]


BROADCAST_AWARE = Technique(
    "§4.1",
    "enable broadcast-aware scheduling",
    lambda config: config.broadcast_aware,
    lambda config: replace(config, broadcast_aware=True),
)
SKID_CONTROL = Technique(
    "§4.3",
    "switch to min-area skid-buffer control",
    lambda config: config.control.uses_skid,
    lambda config: config.with_control(ControlStyle.SKID_MINAREA),
)
SYNC_PRUNING = Technique(
    "§4.2",
    "prune redundant synchronization",
    lambda config: config.sync_pruning,
    lambda config: replace(config, sync_pruning=True),
)

#: Every technique once, in fallback order: when the critical class's own
#: fix is already on, the chain turns on the first of these still off.
TECHNIQUES = (BROADCAST_AWARE, SKID_CONTROL, SYNC_PRUNING)

#: Advice text and fixing technique per timed broadcast class.  (Clockless
#: nets are zero-delay constants and never lie on a timed path.)
FIXES: Dict[NetKind, Tuple[str, Technique]] = {
    NetKind.DATA: (
        "data broadcast on the critical path — apply broadcast-aware "
        "scheduling (§4.1): calibrate delays vs broadcast factor and insert "
        "register stages (OptimizationConfig(broadcast_aware=True))",
        BROADCAST_AWARE,
    ),
    NetKind.MEM: (
        "multi-bank memory distribution on the critical path — add "
        "pipelining between the data port and the BRAM banks (§4.1 memory "
        "rule; OptimizationConfig(broadcast_aware=True))",
        BROADCAST_AWARE,
    ),
    NetKind.ENABLE: (
        "pipeline stall/enable broadcast on the critical path — switch to "
        "skid-buffer-based control (§4.3; ControlStyle.SKID_MINAREA)",
        SKID_CONTROL,
    ),
    NetKind.SYNC: (
        "synchronization broadcast on the critical path — prune redundant "
        "synchronization (§4.2; OptimizationConfig(sync_pruning=True))",
        SYNC_PRUNING,
    ),
    NetKind.STATUS: (
        "FIFO status aggregation on the critical path — adopt skid-buffer "
        "control (§4.3; ControlStyle.SKID_MINAREA), which registers the "
        "flags; §4.2 flow splitting shrinks the fused domain as a fallback",
        SKID_CONTROL,
    ),
}


def format_critical_path(timing: TimingResult) -> str:
    """Render the critical path like a timing-report path table."""
    lines = [
        f"Critical path: {timing.raw_period_ns:.2f} ns "
        f"({timing.fmax_mhz:.0f} MHz), class={timing.path_class.value}",
        f"  startpoint: {timing.startpoint}",
    ]
    for hop in timing.critical_path:
        lines.append(
            f"    +{hop.incr_ns:5.2f} ns  -> {hop.cell}  (via {hop.net})"
            f"  arrival {hop.arrival_ns:5.2f}"
        )
    lines.append(f"  endpoint: {timing.endpoint}")
    return "\n".join(lines)


def diagnose(timing: TimingResult) -> List[str]:
    """Actionable findings for a timing result, worst class first."""
    findings: List[str] = []
    ranked = sorted(
        timing.class_periods.items(), key=lambda item: -item[1]
    )
    for kind_value, worst in ranked:
        try:
            kind = NetKind(kind_value)
        except ValueError:  # pragma: no cover - defensive
            continue
        if kind in FIXES:
            advice, _ = FIXES[kind]
            findings.append(f"{worst:.2f} ns worst path via {kind_value}: {advice}")
    if not findings:
        findings.append("no broadcast-classifiable paths; design is wire-limited")
    return findings


def next_fix(
    config: OptimizationConfig, critical: NetKind
) -> Tuple[Optional[OptimizationConfig], str]:
    """The config one technique further on, and why; None once all are on."""
    own = FIXES[critical][1] if critical in FIXES else None
    if own is not None and not own.is_on(config):
        return own.turn_on(config), f"{own.action} ({own.section})"
    # §5.5: "we must combine these approaches to truly resolve the timing
    # degradation" — broadcasts entangle (e.g. the write-enable tree only
    # deepens once §4.1 pipelines the data distribution), so when the
    # class's own technique is already on, turn on the next untried one.
    for technique in TECHNIQUES:
        if not technique.is_on(config):
            return technique.turn_on(config), (
                f"{critical.value} persists: also {technique.action} "
                f"({technique.section}, combined per §5.5)"
            )
    return None, f"all techniques applied; {critical.value} is the floor"


@dataclass
class FixStep:
    """One compile of the chain, and the action that produced its config."""

    config: OptimizationConfig
    timing: TimingResult
    action: str

    @property
    def fmax_mhz(self) -> float:
        return self.timing.fmax_mhz

    @property
    def critical_class(self) -> str:
        return self.timing.path_class.value


@dataclass
class FixChain:
    """The best result plus the full decision log."""

    best: FlowResult
    steps: List[FixStep]

    @property
    def final_config(self) -> OptimizationConfig:
        return self.steps[-1].config

    def log(self) -> str:
        return "\n".join(
            f"step {i}: [{step.config.label}] {step.fmax_mhz:.0f} MHz, "
            f"critical={step.critical_class} -> {step.action}"
            for i, step in enumerate(self.steps)
        )


def fix_chain(design: Design, flow: Optional[Flow] = None) -> FixChain:
    """Compile from BASELINE, turning on one §4 technique per step.

    Each step turns on the technique :func:`next_fix` picks for the
    previous step's critical class.  With three on/off techniques that is
    at most four configs, the last one FULL.  The best result is the one
    with the highest Fmax; ties go to the earliest step.
    """
    flow = flow or Flow()
    config = BASELINE
    result = best = flow.run(design, config)
    steps = [FixStep(config, result.timing, "baseline")]
    while True:
        config, action = next_fix(config, result.timing.path_class)
        if config is None:
            # The terminal verdict annotates the step it stopped at; that
            # step keeps the action which produced it.
            steps[-1].action = f"{steps[-1].action}; {action}"
            return FixChain(best=best, steps=steps)
        result = flow.run(design, config)
        steps.append(FixStep(config, result.timing, action))
        if result.fmax_mhz > best.fmax_mhz:
            best = result
