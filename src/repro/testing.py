"""Public test helpers.

Downstream users writing their own passes or delay models need the same
scaffolding our test suite uses: a fast synthetic calibration table with
the right qualitative shape, and small designs that exhibit each broadcast
class.  Shipping them as API keeps user test suites from re-deriving them.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.delay.calibrated import CalibrationTable
from repro.ir.builder import DFGBuilder
from repro.ir.program import Buffer, Design, Fifo, Kernel, Loop
from repro.ir.types import i32


def synthetic_calibration() -> CalibrationTable:
    """A hand-written calibration table with realistic shape.

    Matches the HLS predictions at broadcast factor 1 and grows with the
    factor, so ``max(hls, measured)`` behaves like a real characterization
    without running any skeleton placements.
    """
    table = CalibrationTable()
    curves = {
        "add_i32": [(1, 0.78), (8, 1.1), (64, 2.1), (256, 3.4), (1024, 7.5)],
        "sub_i32": [(1, 0.78), (8, 1.1), (64, 2.1), (256, 3.4), (1024, 7.5)],
        "mul_i32": [(1, 2.9), (8, 3.2), (64, 4.2), (256, 5.5), (1024, 9.0)],
        "add_f32": [(1, 2.9), (8, 3.1), (64, 4.0), (256, 5.2), (1024, 8.5)],
        "sub_f32": [(1, 2.9), (8, 3.1), (64, 4.0), (256, 5.2), (1024, 8.5)],
        "mul_f32": [(1, 2.6), (8, 2.9), (64, 4.4), (256, 6.0), (1024, 9.5)],
        "load_bram": [(1, 2.0), (8, 2.8), (64, 4.3), (256, 6.0), (1024, 9.0)],
        "store_bram": [(1, 1.6), (8, 2.6), (64, 4.2), (256, 6.2), (1024, 9.5)],
    }
    for key, points in curves.items():
        for factor, delay in points:
            table.add(key, factor, delay)
    return table


def heavy_outputs_view(result: Any) -> Dict[str, Any]:
    """What a :class:`~repro.flow.FlowResult`'s heavy fields hold, read back.

    Reads (and so, on a warm run, unpickles) ``gen``, ``schedules`` and
    ``placement``: the netlist's cell and net counts, each loop's schedule
    depth and every cell's position.  Two runs of one request must give
    equal views whether their stages ran or were served from the store;
    the fingerprint's own counts come from the timing stage, so this is
    the check that the stored netlist, schedules and placement match too.
    """
    netlist = result.gen.netlist
    return {
        "cells": len(netlist.cells),
        "nets": len(netlist.nets),
        "depth_by_loop": {
            f"{kernel}/{loop}": schedule.depth
            for (kernel, loop), schedule in result.schedules.items()
        },
        "positions": dict(result.placement.pos),
    }


def stream_to_buffer_design(depth: int = 8192, unroll: int = 1) -> Design:
    """A small fifo → buffer design (memory + pipeline-control broadcasts).

    At large ``depth`` this is a miniature of the paper's Fig. 18 stream
    buffer; it is the standard subject for flow-level tests.
    """
    design = Design("mini", device="aws-f1", meta={"clock_mhz": 300})
    fin = design.add_fifo(Fifo("fin", i32, depth=8, external=True))
    buf = design.add_buffer(Buffer("buf", i32, depth=depth))
    b = DFGBuilder("body")
    data = b.fifo_read(fin)
    idx = b.input("i", i32)
    one = b.const(1, i32)
    b.store(buf, idx, b.add(data, one))
    kernel = Kernel("k")
    kernel.add_loop(Loop("l", b.build(), trip_count=depth, pipeline=True, unroll=unroll))
    design.add_kernel(kernel)
    design.verify()
    return design


def unrolled_broadcast_design(unroll: int = 16) -> Design:
    """A genome-style unrolled loop with one loop-invariant broadcast."""
    design = Design("unrolled", device="aws-f1", meta={"clock_mhz": 300})
    out = design.add_fifo(Fifo("out", i32, depth=8, external=True))
    b = DFGBuilder("body")
    shared = b.input("shared", i32, loop_invariant=True)
    local = b.input("local", i32)
    d = b.sub(local, shared, name="d")
    s = b.add(d, b.const(3, i32), name="s")
    b.fifo_write(out, s)
    kernel = Kernel("k")
    kernel.add_loop(
        Loop("l", b.build(), trip_count=unroll, pipeline=True, unroll=unroll)
    )
    design.add_kernel(kernel)
    design.verify()
    return design


def pe_farm_design(pes: int = 8, dynamic_index: int = -1) -> Design:
    """Parallel sub-module instances with done/start sync (Fig. 5b/6b)."""
    design = Design("farm", device="aws-f1", meta={"clock_mhz": 300})
    out = design.add_fifo(Fifo("out", i32, depth=8, external=True))
    b = DFGBuilder("body")
    seed = b.input("seed", i32)
    results = []
    for i in range(pes):
        call = b.call(
            f"PE_{i}",
            [seed],
            i32,
            latency=10 + (3 * i) % 11,
            dynamic_latency=i == dynamic_index,
            name=f"r{i}",
        )
        call.attrs["area"] = {"luts": 400, "ffs": 400}
        results.append(call.result)
    b.fifo_write(out, b.reduce(results, "or"))
    kernel = Kernel("k")
    kernel.add_loop(Loop("farm", b.build(), trip_count=256, pipeline=False))
    design.add_kernel(kernel)
    design.verify()
    return design
