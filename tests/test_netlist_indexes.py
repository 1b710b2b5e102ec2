"""Unit tests for the netlist connectivity indexes.

The maintained ``input_pins``/``driver_nets`` indexes back every hot query
in the physical layer, so they must stay exact across all mutation paths:
``connect``, ``add_sink``, whole-list ``sinks`` assignment, ``driver``
reassignment, ``remove_net`` and ``remove_cell``.  ``validate()`` doubles
as the consistency oracle.
"""

from __future__ import annotations

import pickle

import pytest

from repro.designs import build_design
from repro.errors import RTLError
from repro.flow import Flow
from repro.opt import FULL
from repro.physical.timing import TimingAnalyzer
from repro.rtl.netlist import Cell, CellKind, Net, NetKind, Netlist


def _mini() -> Netlist:
    nl = Netlist("idx")
    a = nl.new_cell("a", CellKind.FF, delay_ns=0.1)
    b = nl.new_cell("b", CellKind.LOGIC, delay_ns=0.2)
    c = nl.new_cell("c", CellKind.FF, delay_ns=0.1)
    nl.connect("n_ab", a, [(b, "i0")], kind=NetKind.DATA)
    nl.connect("n_bc", b, [(c, "d")], kind=NetKind.DATA)
    return nl


class TestQueries:
    def test_input_and_driver_queries(self):
        nl = _mini()
        a, b, c = nl.cells["a"], nl.cells["b"], nl.cells["c"]
        assert nl.driver_net_of(a).name == "n_ab"
        assert [n.name for n in nl.driver_nets_of(b)] == ["n_bc"]
        assert nl.input_pins_of(b) == [(nl.nets["n_ab"], "i0")]
        assert nl.input_net_of(c).name == "n_bc"
        assert nl.input_nets_of(a) == []
        assert nl.fanout_of(a) == 1
        nl.validate()

    def test_pin_order_follows_net_registration(self):
        nl = Netlist("order")
        a = nl.new_cell("a", CellKind.FF)
        b = nl.new_cell("b", CellKind.FF)
        sink = nl.new_cell("s", CellKind.LOGIC)
        n1 = nl.connect("n1", a, [(sink, "i0")])
        n2 = nl.connect("n2", b, [(sink, "i1")])
        # A late add_sink on the *older* net must keep seq order.
        n1.add_sink(sink, "i2")
        assert [(n.name, p) for n, p in nl.input_pins_of(sink)] == [
            ("n1", "i0"),
            ("n1", "i2"),
            ("n2", "i1"),
        ]
        assert [n.name for n in nl.input_nets_of(sink)] == ["n1", "n2"]
        nl.validate()


class TestMutations:
    def test_sinks_assignment_reindexes(self):
        nl = _mini()
        b, c = nl.cells["b"], nl.cells["c"]
        net = nl.nets["n_ab"]
        net.sinks = [(c, "d2")]
        assert nl.input_pins_of(b) == []
        assert [(n.name, p) for n, p in nl.input_pins_of(c)] == [
            ("n_ab", "d2"),
            ("n_bc", "d"),
        ]
        nl.validate()

    def test_driver_reassignment_reindexes(self):
        nl = _mini()
        a, b = nl.cells["a"], nl.cells["b"]
        net = nl.nets["n_ab"]
        d = nl.new_cell("d", CellKind.FF)
        net.driver = d
        assert nl.driver_net_of(a) is None
        assert nl.driver_net_of(d) is net
        nl.validate()

    def test_remove_net_and_cell(self):
        nl = _mini()
        with pytest.raises(RTLError):
            nl.remove_cell("b")  # still connected
        nl.remove_net("n_ab")
        nl.remove_net("n_bc")
        nl.remove_cell("b")
        assert "b" not in nl.cells
        with pytest.raises(RTLError):
            nl.remove_net("n_ab")  # already gone
        nl.validate()

    def test_seq_order_survives_remove_and_readd(self):
        nl = _mini()
        net = nl.remove_net("n_ab")
        nl.add_net(net)
        seqs = [n._seq for n in nl.nets.values()]
        assert seqs == sorted(seqs)
        assert list(nl.nets) == ["n_bc", "n_ab"]
        nl.validate()

    def test_raw_dict_mutation_is_caught(self):
        nl = _mini()
        del nl.nets["n_ab"]  # bypasses index maintenance
        with pytest.raises(RTLError):
            nl.validate()


class TestValidateCatchesCorruption:
    """Each way the indexes can drift from the nets fails ``validate``."""

    @staticmethod
    def _two_input() -> Netlist:
        nl = Netlist("corrupt")
        a = nl.new_cell("a", CellKind.FF)
        b = nl.new_cell("b", CellKind.FF)
        sink = nl.new_cell("s", CellKind.LOGIC)
        nl.connect("n1", a, [(sink, "i0")])
        nl.connect("n2", b, [(sink, "i1")])
        nl.validate()
        return nl

    def test_dropped_pin_entry(self):
        nl = self._two_input()
        del nl._input_pins["s"][1]
        with pytest.raises(RTLError, match="input-pin index for 's'"):
            nl.validate()

    def test_reordered_pin_list(self):
        nl = self._two_input()
        nl._input_pins["s"].reverse()  # same entries, scan order broken
        with pytest.raises(RTLError, match="input-pin index for 's'"):
            nl.validate()

    def test_stale_extra_driver_entry(self):
        nl = self._two_input()
        nl._driver_nets["a"].append(nl.nets["n2"])
        with pytest.raises(RTLError, match="driver index for 'a'"):
            nl.validate()

    def test_net_owned_by_another_netlist(self):
        nl = self._two_input()
        nl.nets["n1"]._owner = Netlist("other")
        with pytest.raises(RTLError, match="not owned"):
            nl.validate()


class TestPickling:
    def test_netlist_roundtrip(self):
        nl = _mini()
        clone = pickle.loads(pickle.dumps(nl))
        clone.validate()
        assert [(n.name, n._seq) for n in clone.nets.values()] == [
            (n.name, n._seq) for n in nl.nets.values()
        ]
        assert clone.input_net_of(clone.cells["c"]).name == "n_bc"

    def test_flow_netlist_roundtrip_times_identically(self, synthetic_table):
        """matmul's final netlist (after replication and retiming) survives
        the tuple-state pickle: indexes validate and STA is unchanged."""
        flow = Flow(calibration=synthetic_table, stage_cache=False)
        result = flow.run(build_design("matmul"), FULL)
        assert any(c.movable for c in result.gen.netlist.cells.values())
        netlist, placement = pickle.loads(
            pickle.dumps((result.gen.netlist, result.placement), protocol=4)
        )
        netlist.validate()
        assert [(n.name, n._seq) for n in netlist.nets.values()] == [
            (n.name, n._seq) for n in result.gen.netlist.nets.values()
        ]
        assert TimingAnalyzer(netlist, placement).analyze() == TimingAnalyzer(
            result.gen.netlist, result.placement
        ).analyze()
