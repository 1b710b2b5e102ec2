"""STA scaling — seed quadratic vs indexed linear vs incremental.

Sweeps the broadcast factor of a §4.1 arithmetic skeleton (one source
register fanning out to N adders, replication *disabled* so the broadcast
net keeps its full fanout) and measures, per factor:

* ``reference_s`` — the seed scan-based analyzer
  (``ReferenceTimingAnalyzer`` in ``tests/oracles/sta.py``), which
  re-scans ``net.sinks`` per sink pin: O(Σ fanout²);
* ``full_s`` — the production :class:`TimingAnalyzer` full analysis,
  O(pins) over the maintained pin index;
* ``incremental_s`` — ``TimingAnalyzer.update()`` after a one-cell
  placement nudge: proportional to the damaged cone, so it should stay
  flat while the others grow with N.

Every timed pair is also asserted *identical* (period, endpoints, hops) —
this doubles as the CI smoke check that incremental STA agrees with full
STA.  Results land in ``BENCH_flow.json`` under ``sta_scaling``.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.delay.calibration import build_arith_skeleton
from repro.ir.ops import Opcode
from repro.ir.types import i32
from repro.physical.device import get_device
from repro.physical.fabric import Fabric
from repro.physical.placement import Placer
from repro.physical.timing import TimingAnalyzer

# The seed analyzer is a test oracle, not part of the package.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles.sta import ReferenceTimingAnalyzer  # noqa: E402

#: Broadcast factors swept (Fig. 9's upper range, where the quadratic
#: bites, extended two doublings beyond the calibration sweep's maximum —
#: the seed's per-pin sink rescan grows ~4x per doubling, the indexed
#: engine ~2x, so the top factor is where the asymptote is unambiguous).
FACTORS = (64, 128, 256, 512, 1024, 2048, 4096)
#: Wall-clock floor asserted at the largest factor (ISSUE 3 acceptance).
MIN_SPEEDUP = 5.0


def _result_key(result):
    return (
        result.period_ns,
        result.fmax_mhz,
        result.raw_period_ns,
        result.startpoint,
        result.endpoint,
        result.path_class,
        result.class_periods,
        [(h.cell, h.net, h.incr_ns, h.arrival_ns) for h in result.critical_path],
    )


def _best_of(fn, repeats=3):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_sta_scaling(record, bench_extras):
    fabric = Fabric(get_device("aws-f1"))
    rows = []
    for factor in FACTORS:
        netlist = build_arith_skeleton(Opcode.ADD, i32, factor)
        placement = Placer(fabric, seed=2020).place(netlist)

        reference_s, ref_result = _best_of(
            lambda: ReferenceTimingAnalyzer(netlist, placement).analyze()
        )
        full_s, full_result = _best_of(
            lambda: TimingAnalyzer(netlist, placement).analyze()
        )
        assert _result_key(full_result) == _result_key(ref_result)

        # Incremental: nudge one adder and re-time only its cone.  What a
        # retiming trial pays is update + worst-endpoint peek; the full
        # TimingResult (class attribution, hop trace) is reporting, built
        # once at the end of a flow.
        analyzer = TimingAnalyzer(netlist, placement)
        analyzer.propagate()
        victim = netlist.cells["op0"]

        def _nudge():
            x, y = placement.pos[victim.name]
            placement.put(victim, x + 0.5, y, placement.radius.get(victim.name, 0.0))
            analyzer.update(changed_cells=[victim.name])
            return analyzer.worst_endpoint()

        incremental_s, _worst = _best_of(_nudge)
        # Smoke check: incremental state == a from-scratch analysis of the
        # (nudged) netlist.  CI fails here if the cone update ever drifts.
        assert _result_key(analyzer.result()) == _result_key(
            TimingAnalyzer(netlist, placement).analyze()
        )

        rows.append(
            {
                "factor": factor,
                "cells": len(netlist.cells),
                "reference_s": round(reference_s, 5),
                "full_s": round(full_s, 5),
                "incremental_s": round(incremental_s, 6),
                "full_speedup": round(reference_s / max(full_s, 1e-9), 1),
                "incremental_speedup": round(
                    reference_s / max(incremental_s, 1e-9), 1
                ),
            }
        )

    lines = [
        f"{'factor':>7} {'cells':>7} {'seed STA':>10} {'full STA':>10} "
        f"{'incr STA':>10} {'full x':>7} {'incr x':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r['factor']:>7} {r['cells']:>7} {r['reference_s']:>10.4f} "
            f"{r['full_s']:>10.4f} {r['incremental_s']:>10.6f} "
            f"{r['full_speedup']:>7.1f} {r['incremental_speedup']:>9.1f}"
        )
    record("sta_scaling", "\n".join(lines))
    bench_extras["sta_scaling"] = {"rows": rows, "min_speedup": MIN_SPEEDUP}

    largest = rows[-1]
    assert largest["full_speedup"] >= MIN_SPEEDUP, (
        f"full STA only {largest['full_speedup']}x faster than seed at "
        f"factor {largest['factor']}"
    )
    # Cone-local means the incremental cost must not scale with design
    # size: the largest design's update should cost no more than a few
    # multiples of the smallest design's, while full STA grows ~linearly
    # and the seed analyzer quadratically.
    assert largest["incremental_s"] <= 5 * rows[0]["incremental_s"] + 0.002, (
        "incremental update cost scales with netlist size"
    )
