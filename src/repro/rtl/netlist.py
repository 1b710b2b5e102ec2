"""Cells, nets and netlists.

This is a deliberately small structural netlist: enough fidelity for
placement, fanout analysis and static timing, without Verilog-level detail.

Cell granularity is one cell per *scheduled operator* (a 32-bit adder is one
cell of 32 LUTs), one cell per pipeline register bank, one per BRAM36, one
per FIFO controller, and one per FSM/controller.  Net granularity is one net
per logical signal; a net records its :class:`NetKind` so the timing engine
can classify critical paths into the paper's broadcast taxonomy.

Connectivity queries are backed by *maintained indexes*: the netlist keeps a
per-cell ``input_pins`` list (every ``(net, pin)`` the cell sinks) and a
per-cell driven-net list, updated on every structural mutation —
:meth:`Netlist.add_net`, :meth:`Net.add_sink`, whole-list ``net.sinks``
assignment, ``net.driver`` reassignment, :meth:`Netlist.remove_net` and
:meth:`Netlist.remove_cell`.  Consumers (STA, replication, retiming,
spreading) therefore never scan ``nets.values()`` to answer "what feeds this
cell"; a query is O(degree) instead of O(nets × sinks).

Index ordering is load-bearing: per-cell pin lists are kept sorted by net
*insertion sequence* (ties by position within the net's sink list), which is
exactly the iteration order the original scan-based queries produced.
Strict-inequality argmax loops in the timing engine break ties by first-seen
order, so preserving this order keeps results bit-for-bit identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import RTLError


class CellKind(enum.Enum):
    """Physical flavor of a cell; decides which fabric sites it can occupy."""

    LOGIC = "logic"  # LUT-implemented combinational operator
    DSP = "dsp"  # DSP-implemented operator (multipliers, float ops)
    FF = "ff"  # register bank (pipeline regs, replicated drivers)
    BRAM = "bram"  # one BRAM36 block
    FIFO = "fifo"  # FIFO controller (status flags live here)
    CTRL = "ctrl"  # FSM / pipeline controller
    PORT = "port"  # design boundary anchor (I/O, HBM port)

    @property
    def is_sequential(self) -> bool:
        """Does the cell's output launch from a clock edge?"""
        return self in (CellKind.FF, CellKind.BRAM, CellKind.FIFO, CellKind.CTRL, CellKind.PORT)


class NetKind(enum.Enum):
    """Signal class, used to attribute timing paths to broadcast types."""

    DATA = "data"  # datapath value (incl. §3.1 data broadcasts)
    MEM = "mem"  # data/address distribution to BRAM banks
    ENABLE = "enable"  # pipeline stall/enable broadcast (§3.3)
    SYNC = "sync"  # done-reduce / start-broadcast (§3.2)
    STATUS = "status"  # FIFO empty/full flags feeding control logic
    CLOCKLESS = "clockless"  # zero-delay logical connection (constants)


@dataclass
class Cell:
    """One placeable netlist element.

    Attributes:
        name: Unique name within the netlist.
        kind: :class:`CellKind` (drives legal sites and sequential-ness).
        delay_ns: Intrinsic delay — combinational propagation for LOGIC/DSP,
            clock-to-out for sequential kinds.
        luts/ffs/brams/dsps: Area in fabric primitives.
        tag: Provenance (op name, pipeline stage, controller id...).
        movable: True for registers inserted by broadcast-aware scheduling —
            the retiming pass may slide these along their chain.
        width: Bit width of the value this cell produces (0 when n/a).
    """

    name: str
    kind: CellKind
    delay_ns: float = 0.0
    luts: int = 0
    ffs: int = 0
    brams: int = 0
    dsps: int = 0
    tag: str = ""
    movable: bool = False
    width: int = 0

    @property
    def is_sequential(self) -> bool:
        return self.kind.is_sequential

    @property
    def site_count(self) -> int:
        """Rough number of fabric tiles the cell occupies (for spread)."""
        if self.kind is CellKind.BRAM:
            return 1
        if self.kind is CellKind.DSP:
            return max(1, self.dsps)
        return max(1, (self.luts + self.ffs // 2 + 63) // 64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cell {self.name} {self.kind.value}>"


class Net:
    """A signal from one driver cell to one or more sink cells.

    Sinks are (cell, pin) pairs; the pin string is informational except that
    distinct pins on the same cell count as distinct physical sinks.

    Once registered in a :class:`Netlist`, structural mutations — appending
    a sink, replacing the whole sink list, reassigning the driver — notify
    the owning netlist so its connectivity indexes stay exact.
    """

    __slots__ = ("name", "kind", "width", "_driver", "_sinks", "_owner", "_seq")

    def __init__(
        self,
        name: str,
        driver: Cell,
        sinks: Optional[List[Tuple[Cell, str]]] = None,
        kind: NetKind = NetKind.DATA,
        width: int = 1,
    ) -> None:
        self.name = name
        self.kind = kind
        self.width = width
        self._driver = driver
        self._sinks: List[Tuple[Cell, str]] = list(sinks) if sinks else []
        #: Owning netlist (set by :meth:`Netlist.add_net`).
        self._owner: Optional["Netlist"] = None
        #: Registration sequence number within the owner (insertion order).
        self._seq: int = -1

    # Pickle the seven slots as one positional tuple: FlowResults and
    # stage bundles carry thousands of nets, and a per-net state dict
    # (built and read back by Python code) costs more to dump, store and
    # load.  Field order is part of the store schemas.
    def __getstate__(self):
        return (
            self.name, self.kind, self.width, self._driver, self._sinks,
            self._owner, self._seq,
        )

    def __setstate__(self, state):
        (
            self.name, self.kind, self.width, self._driver, self._sinks,
            self._owner, self._seq,
        ) = state

    @property
    def driver(self) -> Cell:
        return self._driver

    @driver.setter
    def driver(self, cell: Cell) -> None:
        old = self._driver
        self._driver = cell
        if self._owner is not None:
            self._owner._reindex_driver(self, old, cell)

    @property
    def sinks(self) -> List[Tuple[Cell, str]]:
        return self._sinks

    @sinks.setter
    def sinks(self, new_sinks: List[Tuple[Cell, str]]) -> None:
        old = self._sinks
        self._sinks = list(new_sinks)
        if self._owner is not None:
            self._owner._reindex_sinks(self, old, self._sinks)

    @property
    def fanout(self) -> int:
        return len(self._sinks)

    def add_sink(self, cell: Cell, pin: str = "i") -> None:
        self._sinks.append((cell, pin))
        if self._owner is not None:
            self._owner._index_sink(self, cell, pin)

    def sink_cells(self) -> List[Cell]:
        return [cell for cell, _ in self._sinks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Net {self.name} {self.kind.value} f={self.fanout}>"


class Netlist:
    """A named collection of cells and nets with integrity checking.

    Alongside the ``cells`` and ``nets`` dictionaries, the netlist maintains
    connectivity indexes (see module docstring).  Mutate structure through
    the provided APIs (``connect``/``add_net``/``add_sink``/``sinks``
    setter/``driver`` setter/``remove_net``/``remove_cell``) — raw ``del``
    on the dictionaries bypasses index maintenance and will be caught by
    :meth:`validate`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self.nets: Dict[str, Net] = {}
        #: Monotonic registration counter; never reused, so ordering by
        #: ``Net._seq`` reproduces ``nets`` dict insertion order even after
        #: removals and re-additions.
        self._net_counter: int = 0
        #: cell name -> [(net, pin), ...] sorted by (net seq, sink position).
        self._input_pins: Dict[str, List[Tuple[Net, str]]] = {}
        #: cell name -> [net, ...] driven by the cell, sorted by net seq.
        self._driver_nets: Dict[str, List[Net]] = {}

    # -- construction ------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise RTLError(f"duplicate cell name {cell.name!r} in netlist {self.name!r}")
        self.cells[cell.name] = cell
        self._input_pins.setdefault(cell.name, [])
        self._driver_nets.setdefault(cell.name, [])
        return cell

    def new_cell(self, name: str, kind: CellKind, **kwargs) -> Cell:
        return self.add_cell(Cell(name=self._unique_cell_name(name), kind=kind, **kwargs))

    def _unique_cell_name(self, stem: str) -> str:
        if stem not in self.cells:
            return stem
        i = 1
        while f"{stem}.{i}" in self.cells:
            i += 1
        return f"{stem}.{i}"

    def add_net(self, net: Net) -> Net:
        if net.name in self.nets:
            raise RTLError(f"duplicate net name {net.name!r} in netlist {self.name!r}")
        if net.driver.name not in self.cells:
            raise RTLError(f"net {net.name!r} driven by foreign cell {net.driver.name!r}")
        self.nets[net.name] = net
        net._owner = self
        net._seq = self._net_counter
        self._net_counter += 1
        self._driver_nets.setdefault(net.driver.name, []).append(net)
        for cell, pin in net.sinks:
            self._index_sink(net, cell, pin)
        return net

    def remove_net(self, name: str) -> Net:
        """Unregister a net, keeping the connectivity indexes exact."""
        net = self.nets.pop(name, None)
        if net is None:
            raise RTLError(f"cannot remove unknown net {name!r} from netlist {self.name!r}")
        net._owner = None
        driven = self._driver_nets.get(net.driver.name)
        if driven is not None and net in driven:
            driven.remove(net)
        for cell_name in {cell.name for cell, _pin in net.sinks}:
            pins = self._input_pins.get(cell_name)
            if pins is not None:
                self._input_pins[cell_name] = [e for e in pins if e[0] is not net]
        return net

    def remove_cell(self, name: str) -> Cell:
        """Unregister a cell; it must no longer drive or sink any net."""
        cell = self.cells.get(name)
        if cell is None:
            raise RTLError(f"cannot remove unknown cell {name!r} from netlist {self.name!r}")
        if self._driver_nets.get(name):
            nets = [n.name for n in self._driver_nets[name]]
            raise RTLError(f"cannot remove cell {name!r}: still drives {nets}")
        if self._input_pins.get(name):
            nets = [n.name for n, _pin in self._input_pins[name]]
            raise RTLError(f"cannot remove cell {name!r}: still sinks {nets}")
        del self.cells[name]
        self._input_pins.pop(name, None)
        self._driver_nets.pop(name, None)
        return cell

    def connect(
        self,
        name: str,
        driver: Cell,
        sinks: Iterable[Tuple[Cell, str]],
        kind: NetKind = NetKind.DATA,
        width: int = 1,
    ) -> Net:
        """Create and register a net in one call (name uniquified)."""
        base = name
        i = 1
        while name in self.nets:
            name = f"{base}.{i}"
            i += 1
        net = Net(name=name, driver=driver, kind=kind, width=width)
        for cell, pin in sinks:
            net.add_sink(cell, pin)
        return self.add_net(net)

    # -- index maintenance -------------------------------------------------
    def _index_sink(self, net: Net, cell: Cell, pin: str) -> None:
        """Record one new (net, pin) input of ``cell``.

        Appends are O(1) in the common case (the net is the newest the cell
        has seen); a late ``add_sink`` on an older net triggers a stable
        re-sort by net sequence to restore scan order.
        """
        pins = self._input_pins.setdefault(cell.name, [])
        pins.append((net, pin))
        if len(pins) > 1 and pins[-2][0]._seq > net._seq:
            pins.sort(key=lambda entry: entry[0]._seq)

    def _reindex_sinks(
        self,
        net: Net,
        old_sinks: List[Tuple[Cell, str]],
        new_sinks: List[Tuple[Cell, str]],
    ) -> None:
        """Rebuild per-cell pin lists after a whole-list sink replacement."""
        affected = {cell.name for cell, _pin in old_sinks}
        affected.update(cell.name for cell, _pin in new_sinks)
        for cell_name in affected:
            pins = [e for e in self._input_pins.get(cell_name, ()) if e[0] is not net]
            pins.extend(
                (net, pin) for cell, pin in new_sinks if cell.name == cell_name
            )
            pins.sort(key=lambda entry: entry[0]._seq)
            self._input_pins[cell_name] = pins

    def _reindex_driver(self, net: Net, old: Cell, new: Cell) -> None:
        driven = self._driver_nets.get(old.name)
        if driven is not None and net in driven:
            driven.remove(net)
        pins = self._driver_nets.setdefault(new.name, [])
        pins.append(net)
        if len(pins) > 1 and pins[-2]._seq > net._seq:
            pins.sort(key=lambda n: n._seq)

    # -- queries ----------------------------------------------------------
    def driver_net_of(self, cell: Cell) -> Optional[Net]:
        """The net driven by ``cell``, if any (cells drive at most one net
        in this model; replication keeps that invariant)."""
        driven = self._driver_nets.get(cell.name)
        return driven[0] if driven else None

    def driver_nets_of(self, cell: Cell) -> List[Net]:
        """All nets driven by ``cell``, in registration order."""
        return list(self._driver_nets.get(cell.name, ()))

    def input_pins_of(self, cell: Cell) -> List[Tuple[Net, str]]:
        """Every (net, pin) input of ``cell``, one entry per physical sink
        pin, ordered by (net registration, sink position)."""
        return list(self._input_pins.get(cell.name, ()))

    def input_nets_of(self, cell: Cell) -> List[Net]:
        """Unique nets feeding ``cell``, in registration order."""
        nets: List[Net] = []
        seen: Set[int] = set()
        for net, _pin in self._input_pins.get(cell.name, ()):
            if id(net) not in seen:
                seen.add(id(net))
                nets.append(net)
        return nets

    def input_net_of(self, cell: Cell) -> Optional[Net]:
        """The first net feeding ``cell`` (registration order), or None."""
        pins = self._input_pins.get(cell.name)
        return pins[0][0] if pins else None

    def fanout_of(self, cell: Cell) -> int:
        net = self.driver_net_of(cell)
        return net.fanout if net is not None else 0

    def cells_of_kind(self, kind: CellKind) -> List[Cell]:
        return [cell for cell in self.cells.values() if cell.kind is kind]

    def nets_of_kind(self, kind: NetKind) -> List[Net]:
        return [net for net in self.nets.values() if net.kind is kind]

    def high_fanout_nets(self, threshold: int = 8) -> List[Net]:
        nets = [net for net in self.nets.values() if net.fanout >= threshold]
        nets.sort(key=lambda n: (-n.fanout, n.name))
        return nets

    # -- integrity ----------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`RTLError` on dangling references or comb loops."""
        for net in self.nets.values():
            if self.cells.get(net.driver.name) is not net.driver:
                raise RTLError(f"net {net.name!r}: stale driver {net.driver.name!r}")
            for cell, _pin in net.sinks:
                if self.cells.get(cell.name) is not cell:
                    raise RTLError(f"net {net.name!r}: stale sink {cell.name!r}")
            if net.fanout == 0:
                raise RTLError(f"net {net.name!r} has no sinks")
        self._check_indexes()
        self._check_comb_loops()

    def _check_indexes(self) -> None:
        """Verify the maintained indexes equal indexes rebuilt from ``nets``
        in insertion order: the same entries in the same order.  Catches
        raw dict mutation that bypassed the netlist APIs as well as a pin
        order that drifted from the one STA tie-breaks rely on."""
        input_pins: Dict[str, List[Tuple[Net, str]]] = {
            name: [] for name in self._input_pins
        }
        driver_nets: Dict[str, List[Net]] = {name: [] for name in self._driver_nets}
        for net in self.nets.values():
            if net._owner is not self:
                raise RTLError(f"net {net.name!r} not owned by netlist {self.name!r}")
            driver_nets.setdefault(net.driver.name, []).append(net)
            for cell, pin in net.sinks:
                input_pins.setdefault(cell.name, []).append((net, pin))
        for label, rebuilt, kept in (
            ("driver", driver_nets, self._driver_nets),
            ("input-pin", input_pins, self._input_pins),
        ):
            if rebuilt != kept:
                name = min(n for n in rebuilt if rebuilt[n] != kept.get(n))
                raise RTLError(
                    f"{label} index for {name!r} does not match the nets "
                    f"(missing, stale or out-of-order entries)"
                )

    def _check_comb_loops(self) -> None:
        """Detect combinational cycles (sequential cells break paths)."""
        succ: Dict[str, List[str]] = {name: [] for name in self.cells}
        indeg: Dict[str, int] = {name: 0 for name in self.cells}
        for net in self.nets.values():
            if net.driver.is_sequential:
                continue
            for cell, _pin in net.sinks:
                if cell.is_sequential:
                    continue
                succ[net.driver.name].append(cell.name)
                indeg[cell.name] += 1
        ready = [name for name, d in indeg.items() if d == 0]
        visited = 0
        while ready:
            name = ready.pop()
            visited += 1
            for nxt in succ[name]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if visited != len(self.cells):
            stuck = sorted(name for name, d in indeg.items() if d > 0)[:5]
            raise RTLError(
                f"combinational loop in netlist {self.name!r} involving {stuck}"
            )

    # -- stats ----------------------------------------------------------------
    def area(self) -> Dict[str, int]:
        """Total primitive usage: luts/ffs/brams/dsps."""
        totals = {"luts": 0, "ffs": 0, "brams": 0, "dsps": 0}
        for cell in self.cells.values():
            totals["luts"] += cell.luts
            totals["ffs"] += cell.ffs
            totals["brams"] += cell.brams
            totals["dsps"] += cell.dsps
        return totals

    def merge(self, other: "Netlist", prefix: str = "") -> Dict[str, Cell]:
        """Absorb ``other``'s cells and nets (optionally prefixed).

        Returns a map from the other netlist's cell names to the absorbed
        cells so callers can stitch cross-netlist connections.
        """
        mapping: Dict[str, Cell] = {}
        for cell in other.cells.values():
            clone = Cell(
                name=self._unique_cell_name(prefix + cell.name),
                kind=cell.kind,
                delay_ns=cell.delay_ns,
                luts=cell.luts,
                ffs=cell.ffs,
                brams=cell.brams,
                dsps=cell.dsps,
                tag=cell.tag,
                movable=cell.movable,
                width=cell.width,
            )
            self.add_cell(clone)
            mapping[cell.name] = clone
        for net in other.nets.values():
            self.connect(
                prefix + net.name,
                mapping[net.driver.name],
                [(mapping[cell.name], pin) for cell, pin in net.sinks],
                kind=net.kind,
                width=net.width,
            )
        return mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Netlist {self.name!r}: {len(self.cells)} cells, {len(self.nets)} nets>"
