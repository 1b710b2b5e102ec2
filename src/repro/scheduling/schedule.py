"""Schedule containers.

A :class:`Schedule` assigns every operation of one DFG a start cycle and a
start/end time within that cycle (operation chaining).  It also records
*violations* — chains whose estimated delay exceeds the clock target, which
is legal output for the baseline HLS scheduler (it simply doesn't know) and
is precisely what the broadcast-aware pass hunts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional

from repro.errors import SchedulingError
from repro.ir.dfg import DFG
from repro.ir.ops import Operation
from repro.ir.values import Value


@dataclass
class ScheduledOp:
    """Placement of one operation in time.

    Attributes:
        op: The operation.
        cycle: Issue cycle (0-based pipeline stage for II=1 loops).
        start_ns / end_ns: Chained combinational window within ``cycle``.
        finish_cycle: Cycle in which the result becomes available
            (``cycle + latency`` for sequential ops).
        delay_ns: The per-op delay estimate used (model-dependent).
    """

    op: Operation
    cycle: int
    start_ns: float
    end_ns: float
    finish_cycle: int
    delay_ns: float


@dataclass
class Violation:
    """A scheduled chain exceeding the clock budget."""

    op: Operation
    cycle: int
    arrival_ns: float
    budget_ns: float
    reason: str

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: {self.op.name} arrives at "
            f"{self.arrival_ns:.2f}ns > budget {self.budget_ns:.2f}ns ({self.reason})"
        )


@dataclass
class Schedule:
    """Complete scheduling result for one DFG."""

    dfg: DFG
    clock_ns: float
    model_name: str
    entries: Dict[str, ScheduledOp] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    def entry(self, op: Operation) -> ScheduledOp:
        try:
            return self.entries[op.name]
        except KeyError as exc:
            raise SchedulingError(f"op {op.name!r} is not scheduled") from exc

    @property
    def depth(self) -> int:
        """Number of pipeline stages (cycles) the schedule spans."""
        if not self.entries:
            return 0
        return max(e.finish_cycle for e in self.entries.values()) + 1

    def ops_in_cycle(self, cycle: int) -> List[ScheduledOp]:
        """Scheduled ops issued in ``cycle``, ordered by start time."""
        entries = [e for e in self.entries.values() if e.cycle == cycle]
        entries.sort(key=lambda e: (e.start_ns, e.op.name))
        return entries

    def cycle_of_value(self, value: Value) -> int:
        """The cycle in which ``value`` becomes available.

        Graph inputs and constants are available at cycle 0.
        """
        if value.producer is None:
            return 0
        return self.entry(value.producer).finish_cycle

    def critical_arrival(self, cycle: int) -> float:
        """Largest chained arrival (end time) in ``cycle``."""
        entries = self.ops_in_cycle(cycle)
        return max((e.end_ns for e in entries), default=0.0)

    def width_profile(self) -> List[int]:
        """Registered bits crossing each cycle boundary (length = depth).

        Entry ``c`` is the width of the boundary after cycle ``c``, the
        profile the min-area skid buffer DP consumes (Fig. 17).  It counts:

        * every non-constant value available at or before ``c`` and consumed
          strictly after it, or a live-out produced at or before ``c`` (held
          through the last stage);
        * every multi-cycle entry issued at or before ``c`` that finishes
          after it: a CALL holds its ``attrs['stage_width']`` (the
          sub-module's bits per internal stage), any other op its result.

        One difference-array sweep over those spans: O(values + entries +
        depth).
        """
        depth = self.depth
        delta = [0] * (depth + 1)
        for value in self.dfg.values.values():
            if value.is_const:
                continue
            producer = value.producer
            if producer is not None and producer.result is not value:
                continue
            avail = self.cycle_of_value(value)
            if value.uses:
                end = max(self.entry(use).cycle for use in value.uses)
            elif producer is not None:
                end = depth  # live-out: registered through the last stage
            else:
                continue
            if avail < end:
                delta[avail] += value.type.bits
                delta[end] -= value.type.bits
        for entry in self.entries.values():
            if entry.cycle < entry.finish_cycle:
                op = entry.op
                if op.opcode.value == "call":
                    bits = int(op.attrs.get("stage_width", 0))
                elif op.result is not None:
                    bits = op.result.type.bits
                else:
                    continue
                delta[entry.cycle] += bits
                delta[entry.finish_cycle] -= bits
        return list(accumulate(delta[:depth]))

    def has_violations(self) -> bool:
        return bool(self.violations)

    def summary(self) -> str:
        return (
            f"schedule[{self.model_name}] depth={self.depth} "
            f"clock={self.clock_ns:.2f}ns violations={len(self.violations)}"
        )
