"""Reference (seed) static timing analyzer — the executable specification.

This is the original scan-based analyzer the project shipped with, kept
verbatim (outside the package) as a differential-testing oracle for the
indexed, incremental engine in :mod:`repro.physical.timing`.  It recomputes everything from
scratch and re-scans ``net.sinks`` per sink pin — O(Σ fanout²) per run —
which is exactly the hot path the production engine removed, so it must
never be used in the flow itself.  The equivalence suite
(``tests/test_sta_equivalence.py``) and ``benchmarks/bench_sta_scaling.py``
assert the production engine reproduces this implementation bit-for-bit.

Do not "optimize" this module: its value is that it stays the slow, obvious
formulation of the timing semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import PhysicalError
from repro.physical.netdelay import sink_delay
from repro.physical.placement import Placement
from repro.physical.timing import (
    MIN_PERIOD_NS,
    SETUP_NS,
    _CLASS_PRIORITY,
    PathHop,
    TimingResult,
)
from repro.rtl.netlist import Cell, Net, Netlist, NetKind


class ReferenceTimingAnalyzer:
    """Seed-version STA: full recompute, per-sink net re-scan."""

    def __init__(self, netlist: Netlist, placement: Placement) -> None:
        self.netlist = netlist
        self.placement = placement
        self._input_nets: Dict[str, List[Net]] = {name: [] for name in netlist.cells}
        for net in netlist.nets.values():
            for cell, _pin in net.sinks:
                self._input_nets[cell.name].append(net)

    # ------------------------------------------------------------------
    def analyze(self) -> TimingResult:
        arrival, parent = self._propagate()
        endpoints = self._endpoints(arrival)
        if not endpoints:
            raise PhysicalError(
                f"netlist {self.netlist.name!r} has no timing endpoints"
            )
        class_periods: Dict[str, float] = {}
        worst: Optional[Tuple[float, Cell, Net, NetKind]] = None
        for total, sink, net in endpoints:
            kind = self._classify(net, parent)
            key = kind.value
            class_periods[key] = max(class_periods.get(key, 0.0), total)
            if worst is None or total > worst[0]:
                worst = (total, sink, net, kind)
        assert worst is not None
        total, sink, net, kind = worst
        hops, startpoint = self._trace(sink, net, arrival)
        period = max(total, MIN_PERIOD_NS)
        return TimingResult(
            period_ns=period,
            fmax_mhz=1000.0 / period,
            raw_period_ns=total,
            critical_path=hops,
            path_class=kind,
            class_periods=class_periods,
            startpoint=startpoint,
            endpoint=sink.name,
        )

    # ------------------------------------------------------------------
    def _propagate(self) -> Tuple[Dict[str, float], Dict[str, Tuple[Cell, Net, float]]]:
        """Forward arrival-time propagation through combinational cells."""
        arrival: Dict[str, float] = {}
        parent: Dict[str, Tuple[Cell, Net, float]] = {}
        indeg: Dict[str, int] = {}
        comb_succ: Dict[str, List[str]] = {name: [] for name in self.netlist.cells}
        for cell in self.netlist.cells.values():
            if cell.is_sequential:
                arrival[cell.name] = cell.delay_ns
                continue
            count = 0
            for net in self._input_nets[cell.name]:
                if not net.driver.is_sequential:
                    count += 1
                    comb_succ[net.driver.name].append(cell.name)
            indeg[cell.name] = count
        ready = deque(name for name, d in indeg.items() if d == 0)
        resolved = 0
        while ready:
            name = ready.popleft()
            resolved += 1
            cell = self.netlist.cells[name]
            best = 0.0
            best_parent: Optional[Tuple[Cell, Net, float]] = None
            for net in self._input_nets[name]:
                for sink_cell, pin in net.sinks:
                    if sink_cell is not cell:
                        continue
                    incr = sink_delay(self.placement, net, cell, pin)
                    candidate = arrival[net.driver.name] + incr
                    if candidate > best:
                        best = candidate
                        best_parent = (net.driver, net, incr)
            arrival[name] = best + cell.delay_ns
            if best_parent is not None:
                parent[name] = best_parent
            for succ in comb_succ[name]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if resolved != len(indeg):
            unresolved = sorted(n for n, d in indeg.items() if d > 0)[:5]
            raise PhysicalError(f"combinational cycle at {unresolved}")
        return arrival, parent

    def _endpoints(self, arrival: Dict[str, float]) -> List[Tuple[float, Cell, Net]]:
        """(total_delay, capturing_cell, last_net) for every seq sink pin."""
        endpoints: List[Tuple[float, Cell, Net]] = []
        for net in self.netlist.nets.values():
            if net.kind is NetKind.CLOCKLESS:
                continue
            for cell, pin in net.sinks:
                if not cell.is_sequential:
                    continue
                total = (
                    arrival[net.driver.name]
                    + sink_delay(self.placement, net, cell, pin)
                    + SETUP_NS
                )
                endpoints.append((total, cell, net))
        return endpoints

    def _classify(
        self, last_net: Net, parent: Dict[str, Tuple[Cell, Net, float]]
    ) -> NetKind:
        """Dominant net kind along the critical cone into ``last_net``."""
        best = last_net.kind
        cursor = last_net.driver
        guard = 0
        while cursor.name in parent and guard < 10_000:
            _driver, net, _incr = parent[cursor.name]
            if _CLASS_PRIORITY[net.kind] > _CLASS_PRIORITY[best]:
                best = net.kind
            cursor = _driver
            guard += 1
        return best

    def _trace(
        self, endpoint: Cell, last_net: Net, arrival: Dict[str, float]
    ) -> Tuple[List[PathHop], str]:
        """Reconstruct the critical path ending at ``endpoint``."""
        # Re-run a local backward walk using the same argmax rule as
        # _propagate (parent map only covers comb cells).
        hops: List[PathHop] = []
        end_pin = next((p for c, p in last_net.sinks if c is endpoint), "")
        incr = sink_delay(self.placement, last_net, endpoint, end_pin)
        hops.append(
            PathHop(
                cell=endpoint.name,
                net=last_net.name,
                incr_ns=incr + SETUP_NS,
                arrival_ns=arrival[last_net.driver.name] + incr + SETUP_NS,
            )
        )
        cursor = last_net.driver
        guard = 0
        while not cursor.is_sequential and guard < 10_000:
            best_net: Optional[Net] = None
            best_val = -1.0
            best_incr = 0.0
            for net in self._input_nets[cursor.name]:
                for sink_cell, pin in net.sinks:
                    if sink_cell is not cursor:
                        continue
                    step = sink_delay(self.placement, net, cursor, pin)
                    value = arrival[net.driver.name] + step
                    if value > best_val:
                        best_val = value
                        best_net = net
                        best_incr = step
            if best_net is None:
                break
            hops.append(
                PathHop(
                    cell=cursor.name,
                    net=best_net.name,
                    incr_ns=best_incr + cursor.delay_ns,
                    arrival_ns=arrival[cursor.name],
                )
            )
            cursor = best_net.driver
            guard += 1
        hops.reverse()
        return hops, cursor.name
