"""Reference stage-width profile: a full rescan per cycle boundary.

This is the formulation :meth:`repro.scheduling.schedule.Schedule.width_profile`
replaced.  For every boundary it rescans every DFG value and every schedule
entry, O(depth × (values + entries)).  The production profile sweeps each
value's and each multi-cycle entry's span once; the equivalence tests
assert that both give the same list.
"""

from __future__ import annotations

from typing import List

from repro.ir.values import Value
from repro.scheduling.schedule import Schedule


def stage_values(schedule: Schedule, cycle: int) -> List[Value]:
    """Values that must be registered at the end of ``cycle``.

    A value needs a pipeline register at cycle c when it is available at
    or before c and is consumed strictly after c (or is a live-out
    produced at or before c).
    """
    alive: List[Value] = []
    for value in schedule.dfg.values.values():
        if value.is_const:
            continue
        if value.producer is not None and value.producer.result is not value:
            continue
        avail = schedule.cycle_of_value(value)
        if avail > cycle:
            continue
        consumers = value.uses
        if not consumers:
            # Live-out: keep it registered through the last stage.
            if value.producer is not None and avail <= cycle:
                alive.append(value)
            continue
        if any(schedule.entry(use).cycle > cycle for use in consumers):
            alive.append(value)
    return alive


def stage_width(schedule: Schedule, cycle: int) -> int:
    """Total registered bits crossing the boundary after ``cycle``.

    Sub-module instances (CALL ops) may declare ``attrs['stage_width']``,
    the bits held per internal pipeline stage; those bits occupy every
    boundary the call's execution spans.
    """
    width = sum(v.type.bits for v in stage_values(schedule, cycle))
    for entry in schedule.entries.values():
        op = entry.op
        if entry.cycle <= cycle < entry.finish_cycle:
            if op.opcode.value == "call":
                width += int(op.attrs.get("stage_width", 0))
            elif op.result is not None:
                # A multi-cycle operator (pipelined core, memory port)
                # holds its value in flight across these boundaries.
                width += op.result.type.bits
    return width


def width_profile(schedule: Schedule) -> List[int]:
    """Stage widths after every cycle boundary (length = depth)."""
    return [stage_width(schedule, c) for c in range(schedule.depth)]
