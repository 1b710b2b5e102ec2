"""Content digests for the staged pass pipeline.

Every pipeline stage is identified by a digest over *everything that can
change its outputs*: the stage's name and version, its parameters, and the
digests of the context keys it consumes.  The chain starts from
:func:`design_digest` — a canonical structural encoding of the input
:class:`~repro.ir.program.Design` — and propagates through
:meth:`~repro.pipeline.stage.Stage.input_digest`, so a change anywhere
(one more op in a loop body, a different placement seed, a different
calibration table) invalidates exactly the stages downstream of it.

Encoding policy: the digest must be *complete* (two designs that schedule
differently must never collide) but only needs to be *stable* for real
designs.  Unknown attribute values fall back to ``str()`` — if that ever
turns out to be unstable between runs the failure mode is a spurious cache
miss, never a false hit.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List

from repro.hashing import content_digest
from repro.ir.dfg import DFG
from repro.ir.program import Buffer, Design, Fifo
from repro.ir.types import DataType

#: Version tag of the design encoding; bump to invalidate all stored stages.
DESIGN_DIGEST_SCHEMA = "repro-design-digest/1"

#: Version tag of calibration-table content digests.
TABLE_DIGEST_SCHEMA = "repro-calibration-table-digest/1"

#: Version tag of schedule-decision content digests.
SCHEDULE_DIGEST_SCHEMA = "repro-schedule-digest/1"


def _encode_value(value: Any) -> Any:
    """Tolerant canonicalization of free-form attribute/meta values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Buffer):
        return ["buffer", value.name]
    if isinstance(value, Fifo):
        return ["fifo", value.name]
    if isinstance(value, DataType):
        return ["type", value.kind, value.width]
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__name__, _encode_value(value.value)]
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0])
        )}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return str(value)


def _encode_type(dtype: DataType) -> List[Any]:
    return [dtype.kind, dtype.width]


def _encode_dfg(dfg: DFG) -> Dict[str, Any]:
    """Structural encoding of one loop-body DFG.

    Values in declaration order, ops in (topological) construction order —
    both deterministic for a given builder program — with operand/result
    linkage by value name.
    """
    return {
        "values": [
            [
                value.name,
                _encode_type(value.type),
                _encode_value(value.const),
                1 if value.loop_invariant else 0,
            ]
            for value in dfg.values.values()
        ],
        "ops": [
            [
                op.opcode.value,
                [operand.name for operand in op.operands],
                op.result.name if op.result is not None else None,
                {
                    str(k): _encode_value(v)
                    for k, v in sorted(op.attrs.items(), key=lambda kv: str(kv[0]))
                },
            ]
            for op in dfg.ops
        ],
    }


def design_digest(design: Design) -> str:
    """Canonical digest of a design's complete structure.

    Covers everything the flow reads: name, device, dataflow flag, meta
    (the clock target lives there), buffers/fifos with their pragmas, and
    every kernel/loop/DFG down to individual operations.
    """
    return content_digest(
        {
            "schema": DESIGN_DIGEST_SCHEMA,
            "name": design.name,
            "device": design.device,
            "dataflow": bool(design.dataflow),
            "meta": _encode_value(design.meta),
            "buffers": {
                name: [_encode_type(b.elem_type), b.depth, b.partition]
                for name, b in sorted(design.buffers.items())
            },
            "fifos": {
                name: [_encode_type(f.elem_type), f.depth, bool(f.external)]
                for name, f in sorted(design.fifos.items())
            },
            "kernels": [
                [
                    kernel.name,
                    [
                        [
                            loop.name,
                            loop.trip_count,
                            bool(loop.pipeline),
                            loop.ii,
                            loop.unroll,
                            _encode_dfg(loop.body),
                        ]
                        for loop in kernel.loops
                    ],
                ]
                for kernel in design.kernels
            ],
        }
    )


def _encode_schedule_decisions(schedule: Any) -> Dict[str, Any]:
    """Canonical encoding of a schedule's *decisions*.

    Deliberately excludes ``clock_ns`` and the violation list: no pipeline
    stage downstream of scheduling reads either (ii-analysis and rtl-gen
    consume entries/attrs only; violations are report-layer output whose
    ``budget_ns`` varies with the clock).  Excluding them is what lets a
    clock bump that changes no chaining decision cut off the entire
    backend (rtl-gen → placement → … → timing all replay).
    """
    return {
        "model": schedule.model_name,
        "entries": [
            [name, e.cycle, e.start_ns, e.end_ns, e.finish_cycle, e.delay_ns]
            for name, e in schedule.entries.items()
        ],
    }


def schedules_digest(schedules: Dict[Any, Any]) -> str:
    """Content digest of a full ``(kernel, loop) -> Schedule`` map."""
    return content_digest(
        {
            "schema": SCHEDULE_DIGEST_SCHEMA,
            "loops": [
                [kernel, loop, _encode_schedule_decisions(schedule)]
                for (kernel, loop), schedule in schedules.items()
            ],
        }
    )


def table_digest(table: Any) -> str:
    """Content digest of a calibration table (via its stable dict form).

    Hashing the *content* rather than the provenance means an injected
    synthetic table and a built default table with the same provenance
    can never alias each other's scheduling artifacts.
    """
    return content_digest(
        {"schema": TABLE_DIGEST_SCHEMA, "curves": table.to_dict()}
    )
