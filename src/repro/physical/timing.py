"""Static timing analysis over a placed netlist.

Paths launch at sequential cell outputs (clock-to-out), propagate through
combinational cells and placed nets (:mod:`repro.physical.netdelay`), and
capture at sequential cell inputs (setup).  The analyzer reports the global
critical path *and* the worst path per :class:`~repro.rtl.netlist.NetKind`
class, which is how we attribute frequency loss to the paper's broadcast
taxonomy (data vs sync vs pipeline-control).

Engine shape (this is the TimerTop/OpenTimer-style incremental design):

* **O(pins) full analysis.**  Propagation walks each cell's maintained
  ``input_pins`` index (:mod:`repro.rtl.netlist`), so every sink pin is
  visited exactly once per run.  The seed implementation re-scanned the full
  ``net.sinks`` list per sink to find that one sink — O(Σ fanout²), ~1M pin
  visits for a 1024-sink enable broadcast
  (``tests/oracles/sta.py``'s ``ReferenceTimingAnalyzer`` preserves it
  as the differential-testing oracle).
* **Per-(net, sink, pin) delay memo** keyed on the driver/sink placement
  epochs and the net's fanout, so a placement write invalidates exactly the
  entries it touched (:meth:`Placement.put` bumps the cell's epoch).
* **Incremental re-analysis.**  :meth:`TimingAnalyzer.update` re-propagates
  arrival times only through the forward combinational cone of the edited
  cells and refreshes only the endpoint totals those arrivals feed; endpoint
  maxima live in a lazy-deletion heap so the worst path is a peek, not a
  rescan.  Retiming trials ride on this: cost is proportional to the damaged
  cone, not the netlist.

Results are bit-for-bit identical to the reference analyzer: pin iteration
order (and hence strict-inequality tie-breaking) reproduces the seed's
nets-dict scan order, and endpoint maxima tie-break by (net registration
order, sink position) exactly as the seed's first-seen-wins loop did.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from math import log2

from repro import obs
from repro.errors import PhysicalError
from repro.physical.netdelay import (
    CONNECTION_NS,
    FANOUT_LOG_NS,
    NS_PER_TILE,
    sink_delay,
)
from repro.physical.placement import Placement
from repro.rtl.netlist import Cell, CellKind, Net, Netlist, NetKind

#: Control-pin prefixes paying the full sink radius (see netdelay.sink_delay).
_CONTROL_PINS = ("ce", "we", "en")

#: Register setup time (ns).
SETUP_NS = 0.08
#: Fastest period any design can close on the modelled fabric (ns): clocking
#: network, BRAM Fmax limits, etc.  ~740 MHz.
MIN_PERIOD_NS = 1.35

#: Priority for attributing a path that traverses several net kinds.
_CLASS_PRIORITY = {
    NetKind.ENABLE: 5,
    NetKind.SYNC: 4,
    NetKind.STATUS: 3,
    NetKind.MEM: 2,
    NetKind.DATA: 1,
    NetKind.CLOCKLESS: 0,
}


@dataclass
class PathHop:
    """One step of a timing path: arriving at ``cell`` through ``net``."""

    cell: str
    net: str
    incr_ns: float
    arrival_ns: float


@dataclass
class TimingResult:
    """Outcome of one STA run.

    Attributes:
        period_ns: Critical path delay including setup (floored at
            :data:`MIN_PERIOD_NS`).
        fmax_mhz: ``1000 / period_ns``.
        critical_path: Hops from launching register to capturing register.
        path_class: Broadcast class of the critical path.
        class_periods: Worst endpoint delay (ns) attributed to each class.
        startpoint / endpoint: Launching and capturing cell names.
    """

    period_ns: float
    fmax_mhz: float
    raw_period_ns: float = 0.0
    critical_path: List[PathHop] = field(default_factory=list)
    path_class: NetKind = NetKind.DATA
    class_periods: Dict[str, float] = field(default_factory=dict)
    startpoint: str = ""
    endpoint: str = ""

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.fmax_mhz:.0f} MHz (period {self.period_ns:.2f} ns, "
            f"critical class: {self.path_class.value}, "
            f"{self.startpoint} -> {self.endpoint})"
        )


#: (net name, capturing cell name, pin) — identity of one timing endpoint.
_EndpointKey = Tuple[str, str, str]


class TimingAnalyzer:
    """Computes arrival times and critical paths for a placed netlist.

    ``analyze()`` runs a full O(pins) pass.  After edits, ``update()``
    recomputes only the forward cone of the changed cells; ``result()``
    then reports from the maintained state without re-propagating.
    """

    def __init__(self, netlist: Netlist, placement: Placement) -> None:
        self.netlist = netlist
        self.placement = placement
        self._arrival: Dict[str, float] = {}
        self._parent: Dict[str, Tuple[Cell, Net, float]] = {}
        #: endpoint key -> (total delay incl. setup, capturing cell, net).
        self._endpoints: Dict[_EndpointKey, Tuple[float, Cell, Net]] = {}
        #: net name -> endpoint keys it currently contributes.
        self._net_endpoint_keys: Dict[str, Set[_EndpointKey]] = {}
        #: lazy-deletion max-heap of (-total, net seq, sink idx, key).
        self._heap: List[Tuple[float, int, int, _EndpointKey]] = []
        #: (net, sink, pin) -> (driver name, driver epoch, sink epoch,
        #: fanout, delay) — see module docstring.
        self._delay_memo: Dict[
            _EndpointKey, Tuple[str, int, int, int, float]
        ] = {}
        self._analyzed = False

    # -- delay memo ----------------------------------------------------
    def _sink_delay(self, net: Net, cell: Cell, pin: str) -> float:
        key = (net.name, cell.name, pin)
        driver = net.driver
        de = self.placement.epoch_of(driver.name)
        se = self.placement.epoch_of(cell.name)
        fanout = len(net.sinks)
        hit = self._delay_memo.get(key)
        if (
            hit is not None
            and hit[0] == driver.name
            and hit[1] == de
            and hit[2] == se
            and hit[3] == fanout
        ):
            return hit[4]
        value = sink_delay(self.placement, net, cell, pin)
        self._delay_memo[key] = (driver.name, de, se, fanout, value)
        return value

    # -- full analysis -------------------------------------------------
    def analyze(self) -> TimingResult:
        self.propagate()
        return self.result()

    def propagate(self) -> None:
        """Full arrival-time propagation + endpoint rebuild, O(pins).

        The full pass calls :func:`sink_delay` directly instead of through
        the memo — on a one-shot analysis the memo bookkeeping costs more
        than it saves; incremental updates (re-visiting the same pins every
        retiming trial) go through :meth:`_sink_delay` and fill it lazily.
        """
        nl = self.netlist
        placement = self.placement
        arrival: Dict[str, float] = {}
        parent: Dict[str, Tuple[Cell, Net, float]] = {}
        indeg: Dict[str, int] = {}
        comb_succ: Dict[str, List[str]] = {}
        seq: Dict[str, bool] = {}
        input_pins = nl._input_pins
        pins_visited = 0
        comb_cells: List[str] = []
        # Identity tests instead of Cell.is_sequential: LOGIC and DSP are
        # the only combinational kinds, and this loop runs once per cell.
        for name, cell in nl.cells.items():
            kind = cell.kind
            if kind is CellKind.LOGIC or kind is CellKind.DSP:
                seq[name] = False
                comb_succ[name] = []
                comb_cells.append(name)
            else:
                seq[name] = True
                arrival[name] = cell.delay_ns
        for name in comb_cells:
            count = 0
            for net, _pin in input_pins.get(name, ()):
                dname = net._driver.name
                if not seq[dname]:
                    count += 1
                    comb_succ[dname].append(name)
            indeg[name] = count
        # Inlined delay model for the O(pins) hot loop: same expressions in
        # the same order as netdelay.sink_delay/Placement.distance, so the
        # floats are bit-identical (the differential suite pins this down).
        pos = placement.pos
        rad = placement.radius
        max_r = placement.MAX_PIN_RADIUS
        fan_terms: Dict[int, float] = {}
        ready = deque(name for name, d in indeg.items() if d == 0)
        resolved = 0
        while ready:
            name = ready.popleft()
            resolved += 1
            cell = nl.cells[name]
            entries = input_pins.get(name, ())
            if entries:
                bx, by = pos[name]
                rb_base = rad[name]
                rb_capped = rb_base if rb_base < max_r else max_r
            best = 0.0
            best_parent: Optional[Tuple[Cell, Net, float]] = None
            for net, pin in entries:
                pins_visited += 1
                driver = net._driver
                fan_term = fan_terms.get(id(net))
                if fan_term is None:
                    fan = len(net._sinks)
                    fan_term = FANOUT_LOG_NS * log2(fan if fan > 1 else 1)
                    fan_terms[id(net)] = fan_term
                ax, ay = pos[driver.name]
                ra = rad[driver.name]
                if ra > max_r:
                    ra = max_r
                rb = 2.0 * rb_base if pin.startswith(_CONTROL_PINS) else rb_capped
                incr = (
                    CONNECTION_NS
                    + NS_PER_TILE * (abs(ax - bx) + abs(ay - by) + ra + rb)
                    + fan_term
                )
                candidate = arrival[driver.name] + incr
                if candidate > best:
                    best = candidate
                    best_parent = (driver, net, incr)
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
        obs.add("timing.pins_visited", pins_visited)
        self._arrival = arrival
        self._parent = parent
        endpoints: Dict[_EndpointKey, Tuple[float, Cell, Net]] = {}
        net_keys: Dict[str, Set[_EndpointKey]] = {}
        heap: List[Tuple[float, int, int, _EndpointKey]] = []
        for net in nl.nets.values():
            if net.kind is NetKind.CLOCKLESS:
                continue
            driver = net._driver
            sinks = net._sinks
            driver_arrival = arrival[driver.name]
            net_name = net.name
            net_seq = net._seq
            keys: Optional[Set[_EndpointKey]] = None
            for idx, (cell, pin) in enumerate(sinks):
                cell_name = cell.name
                if not seq[cell_name]:
                    continue
                if keys is None:
                    keys = set()
                    ax, ay = pos[driver.name]
                    ra = rad[driver.name]
                    if ra > max_r:
                        ra = max_r
                    fan = len(sinks)
                    fan_term = FANOUT_LOG_NS * log2(fan if fan > 1 else 1)
                bx, by = pos[cell_name]
                rb = rad[cell_name]
                if pin.startswith(_CONTROL_PINS):
                    rb = 2.0 * rb
                elif rb > max_r:
                    rb = max_r
                total = (
                    driver_arrival
                    + (
                        CONNECTION_NS
                        + NS_PER_TILE * (abs(ax - bx) + abs(ay - by) + ra + rb)
                        + fan_term
                    )
                    + SETUP_NS
                )
                key = (net_name, cell_name, pin)
                if keys is None:
                    keys = set()
                keys.add(key)
                endpoints[key] = (total, cell, net)
                heap.append((-total, net_seq, idx, key))
            if keys:
                net_keys[net_name] = keys
        heapq.heapify(heap)
        self._endpoints = endpoints
        self._net_endpoint_keys = net_keys
        self._heap = heap
        self._analyzed = True

    # -- incremental re-analysis ---------------------------------------
    def update(
        self,
        changed_cells: Iterable[str],
        changed_nets: Iterable[str] = (),
        removed_cells: Iterable[str] = (),
        removed_nets: Iterable[str] = (),
    ) -> int:
        """Re-propagate through the forward cone of an edit.

        Args:
            changed_cells: Cells whose placement, inputs, or driven nets
                changed (including freshly added cells).
            changed_nets: Nets whose sink lists were rewritten while their
                driver kept its arrival time.
            removed_cells: Cells deleted from the netlist since the last
                analysis (must already be gone).
            removed_nets: Nets deleted since the last analysis.

        Returns the damage-cone size (number of combinational cells
        re-evaluated) so callers can report it.
        """
        if not self._analyzed:
            self.propagate()
            return len(self.netlist.cells)
        nl = self.netlist
        obs.add("timing.incremental_updates", 1)
        for name in removed_nets:
            for key in self._net_endpoint_keys.pop(name, set()):
                self._endpoints.pop(key, None)
        for name in removed_cells:
            self._arrival.pop(name, None)
            self._parent.pop(name, None)
        refresh: Dict[str, Net] = {}
        seeds: Set[str] = set()
        for name in changed_cells:
            cell = nl.cells.get(name)
            if cell is None:
                continue
            if cell.is_sequential:
                self._arrival[name] = cell.delay_ns
                self._parent.pop(name, None)
                # Delays *into* a moved sequential cell change its endpoint
                # totals: refresh every net it captures from.
                for net, _pin in nl.input_pins_of(cell):
                    refresh[net.name] = net
            else:
                seeds.add(name)
            for net in nl.driver_nets_of(cell):
                refresh[net.name] = net
                for sink, _pin in net.sinks:
                    if not sink.is_sequential:
                        seeds.add(sink.name)
        for name in changed_nets:
            net = nl.nets.get(name)
            if net is None:
                continue
            refresh[net.name] = net
            for sink, _pin in net.sinks:
                if not sink.is_sequential:
                    seeds.add(sink.name)
        # Forward combinational cone of the seeds.
        cone = set(seeds)
        stack = list(seeds)
        while stack:
            name = stack.pop()
            for net in nl.driver_nets_of(nl.cells[name]):
                for sink, _pin in net.sinks:
                    if not sink.is_sequential and sink.name not in cone:
                        cone.add(sink.name)
                        stack.append(sink.name)
        # Topological recompute restricted to the cone; arrivals of cells
        # outside the cone are unchanged by construction.
        indeg: Dict[str, int] = {}
        for name in cone:
            count = 0
            for net, _pin in nl._input_pins.get(name, ()):
                driver = net.driver
                if not driver.is_sequential and driver.name in cone:
                    count += 1
            indeg[name] = count
        ready = deque(name for name, d in indeg.items() if d == 0)
        resolved = 0
        pins_visited = 0
        while ready:
            name = ready.popleft()
            resolved += 1
            cell = nl.cells[name]
            best = 0.0
            best_parent: Optional[Tuple[Cell, Net, float]] = None
            for net, pin in nl._input_pins.get(name, ()):
                pins_visited += 1
                incr = self._sink_delay(net, cell, pin)
                candidate = self._arrival[net.driver.name] + incr
                if candidate > best:
                    best = candidate
                    best_parent = (net.driver, net, incr)
            self._arrival[name] = best + cell.delay_ns
            if best_parent is not None:
                self._parent[name] = best_parent
            else:
                self._parent.pop(name, None)
            for net in nl.driver_nets_of(cell):
                refresh[net.name] = net
                for sink, _pin in net.sinks:
                    sname = sink.name
                    if sname in indeg:
                        indeg[sname] -= 1
                        if indeg[sname] == 0:
                            ready.append(sname)
        if resolved != len(indeg):
            unresolved = sorted(n for n, d in indeg.items() if d > 0)[:5]
            raise PhysicalError(f"combinational cycle at {unresolved}")
        obs.add("timing.pins_visited", pins_visited)
        for net in refresh.values():
            if net.name in nl.nets:
                self._refresh_net_endpoints(net)
        self._compact_heap()
        return len(cone)

    # -- endpoint bookkeeping ------------------------------------------
    def _refresh_net_endpoints(self, net: Net) -> None:
        """Recompute the endpoint totals contributed by one net."""
        old_keys = self._net_endpoint_keys.get(net.name)
        new_keys: Set[_EndpointKey] = set()
        if net.kind is not NetKind.CLOCKLESS:
            driver_arrival = self._arrival[net.driver.name]
            for idx, (cell, pin) in enumerate(net.sinks):
                if not cell.is_sequential:
                    continue
                total = driver_arrival + self._sink_delay(net, cell, pin) + SETUP_NS
                key = (net.name, cell.name, pin)
                new_keys.add(key)
                self._endpoints[key] = (total, cell, net)
                heapq.heappush(self._heap, (-total, net._seq, idx, key))
        if old_keys:
            for key in old_keys - new_keys:
                self._endpoints.pop(key, None)
        if new_keys or old_keys:
            self._net_endpoint_keys[net.name] = new_keys

    def _compact_heap(self) -> None:
        """Drop stale lazy-deletion entries once they dominate the heap."""
        if len(self._heap) > 64 and len(self._heap) > 4 * len(self._endpoints):
            self._heap = [
                (-total, net._seq, 0, key)
                for key, (total, _cell, net) in self._endpoints.items()
            ]
            heapq.heapify(self._heap)

    def worst_endpoint(self) -> Tuple[float, Cell, Net]:
        """(total delay, capturing cell, last net) of the worst endpoint.

        A heap peek with lazy deletion of stale entries; ties at the
        maximum resolve to the earliest-registered (net, sink) exactly as
        the reference analyzer's first-seen-wins scan does.
        """
        if not self._analyzed:
            self.propagate()
        while self._heap:
            neg_total, _seq, _idx, key = self._heap[0]
            entry = self._endpoints.get(key)
            if entry is None or entry[0] != -neg_total:
                heapq.heappop(self._heap)
                continue
            return entry
        raise PhysicalError(
            f"netlist {self.netlist.name!r} has no timing endpoints"
        )

    def worst_period_ns(self) -> float:
        """Critical period (ns), floored at :data:`MIN_PERIOD_NS`."""
        return max(self.worst_endpoint()[0], MIN_PERIOD_NS)

    # -- reporting ------------------------------------------------------
    def result(self) -> TimingResult:
        """Build a :class:`TimingResult` from the current timing state."""
        if not self._analyzed:
            self.propagate()
        total, sink, net = self.worst_endpoint()
        memo: Dict[str, Optional[NetKind]] = {}
        kind = self._classify(net, memo)
        class_periods: Dict[str, float] = {}
        for e_total, _e_cell, e_net in self._endpoints.values():
            key = self._classify(e_net, memo).value
            if e_total > class_periods.get(key, 0.0):
                class_periods[key] = e_total
        hops, startpoint = self._trace(sink, net)
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

    def _dominant(
        self, start: Cell, memo: Dict[str, Optional[NetKind]]
    ) -> Optional[NetKind]:
        """Dominant net kind along the parent chain above ``start``.

        Memoized per ``result()`` call, so classifying every endpoint costs
        one walk over the union of their critical cones instead of one walk
        per endpoint.
        """
        limit = len(self.netlist.cells) + 1
        chain: List[str] = []
        cursor = start
        while cursor.name in self._parent and cursor.name not in memo:
            chain.append(cursor.name)
            cursor = self._parent[cursor.name][0]
            if len(chain) > limit:
                raise PhysicalError(
                    f"timing classification walk exceeded {limit} cells at "
                    f"{cursor.name!r}: parent chain is corrupt"
                )
        tail = memo.get(cursor.name)
        for name in reversed(chain):
            kind = self._parent[name][1].kind
            if tail is not None and _CLASS_PRIORITY[tail] > _CLASS_PRIORITY[kind]:
                kind = tail
            memo[name] = kind
            tail = kind
        return tail

    def _classify(
        self, last_net: Net, memo: Dict[str, Optional[NetKind]]
    ) -> NetKind:
        """Dominant net kind along the critical cone into ``last_net``."""
        best = last_net.kind
        dominant = self._dominant(last_net.driver, memo)
        if dominant is not None and _CLASS_PRIORITY[dominant] > _CLASS_PRIORITY[best]:
            best = dominant
        return best

    def _trace(self, endpoint: Cell, last_net: Net) -> Tuple[List[PathHop], str]:
        """Reconstruct the critical path ending at ``endpoint``.

        Walks the parent map (which records the argmax input of every
        combinational cell) instead of re-running the argmax per hop.
        """
        hops: List[PathHop] = []
        end_pin = next((p for c, p in last_net.sinks if c is endpoint), "")
        incr = self._sink_delay(last_net, endpoint, end_pin)
        hops.append(
            PathHop(
                cell=endpoint.name,
                net=last_net.name,
                incr_ns=incr + SETUP_NS,
                arrival_ns=self._arrival[last_net.driver.name] + incr + SETUP_NS,
            )
        )
        cursor = last_net.driver
        limit = len(self.netlist.cells) + 1
        steps = 0
        while not cursor.is_sequential:
            entry = self._parent.get(cursor.name)
            if entry is None:
                break
            driver, net, step = entry
            hops.append(
                PathHop(
                    cell=cursor.name,
                    net=net.name,
                    incr_ns=step + cursor.delay_ns,
                    arrival_ns=self._arrival[cursor.name],
                )
            )
            cursor = driver
            steps += 1
            if steps > limit:
                raise PhysicalError(
                    f"critical-path trace exceeded {limit} hops at "
                    f"{cursor.name!r}: parent chain is corrupt"
                )
        hops.reverse()
        return hops, cursor.name
