"""Differential tests for the incremental timing engine.

The production :class:`TimingAnalyzer` (indexed, memoized, incremental)
must reproduce the seed scan-based analyzer — preserved verbatim as
:class:`oracles.sta.ReferenceTimingAnalyzer` — *bit for bit*:
same period/Fmax floats, same critical-path endpoints and hops, same
per-class attribution, on every registered design under both the baseline
and fully-optimized configs.  A second family of tests checks that
incremental ``update()`` after structural edits (retiming moves, undos,
placement moves) lands in exactly the state a from-scratch analysis of the
edited netlist produces.
"""

from __future__ import annotations

import random

import pytest

from repro.designs.registry import DESIGN_BUILDERS, build_design
from repro.errors import PhysicalError
from repro.flow import Flow
from repro.opt import BASELINE, FULL
from repro.physical.retiming import _apply_backward_move, _undo_backward_move
from repro.physical.timing import TimingAnalyzer
from repro.rtl.netlist import CellKind

from oracles.sta import ReferenceTimingAnalyzer


def _as_tuple(result):
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


def _assert_identical(got, expected):
    assert _as_tuple(got) == _as_tuple(expected)


@pytest.mark.parametrize("config", [BASELINE, FULL], ids=lambda c: c.label)
@pytest.mark.parametrize("name", sorted(DESIGN_BUILDERS))
def test_matches_reference_on_registered_designs(name, config, synthetic_table):
    """Full-flow netlists: production STA == seed STA, exactly."""
    flow = Flow(calibration=synthetic_table)
    res = flow.run(build_design(name), config)
    reference = ReferenceTimingAnalyzer(res.gen.netlist, res.placement).analyze()
    # The flow's own reported timing came from the production engine.
    _assert_identical(res.timing, reference)
    # And a fresh production run on the final netlist agrees too.
    fresh = TimingAnalyzer(res.gen.netlist, res.placement).analyze()
    _assert_identical(fresh, reference)


def _retimed_flow_state(synthetic_table, name="stream_buffer", config=FULL):
    """Netlist+placement after the flow, with retiming left to the test."""
    flow = Flow(calibration=synthetic_table, retime=False)
    res = flow.run(build_design(name), config)
    return res.gen.netlist, res.placement


def _retiming_update_args(record):
    return dict(
        changed_cells=[record.c.name] + [f.name for f in record.new_ffs],
        changed_nets=[net.name for net, _old in record.rewired]
        + [n.name for n in record.new_nets]
        + [record.n_out.name],
        removed_cells=[record.ff.name],
        removed_nets=[record.n_in.name],
    )


def _undo_update_args(record):
    return dict(
        changed_cells=[record.c.name, record.ff.name],
        changed_nets=[net.name for net, _old in record.rewired]
        + [record.n_in.name, record.n_out.name],
        removed_cells=[f.name for f in record.new_ffs],
        removed_nets=[n.name for n in record.new_nets],
    )


class TestIncrementalConsistency:
    def test_randomized_retiming_edits(self, synthetic_table):
        """After each random backward move, incremental state == full STA."""
        nl, pl = _retimed_flow_state(synthetic_table)
        analyzer = TimingAnalyzer(nl, pl)
        analyzer.propagate()
        rng = random.Random(2020)
        movable = sorted(
            c.name
            for c in nl.cells.values()
            if c.movable and c.kind is CellKind.FF
        )
        rng.shuffle(movable)
        applied = 0
        for name in movable:
            cell = nl.cells.get(name)
            if cell is None:
                continue
            record = _apply_backward_move(nl, pl, cell)
            if record is None:
                continue
            cone = analyzer.update(**_retiming_update_args(record))
            assert cone >= 0
            nl.validate()
            expected = TimingAnalyzer(nl, pl).analyze()
            _assert_identical(analyzer.result(), expected)
            _assert_identical(
                expected, ReferenceTimingAnalyzer(nl, pl).analyze()
            )
            applied += 1
            if applied >= 6:
                break
        assert applied >= 1, "flow produced no retimable registers"

    def test_undo_restores_timing_state(self, synthetic_table):
        nl, pl = _retimed_flow_state(synthetic_table)
        analyzer = TimingAnalyzer(nl, pl)
        before = analyzer.analyze()
        movable = sorted(
            c.name
            for c in nl.cells.values()
            if c.movable and c.kind is CellKind.FF
        )
        undone = 0
        for name in movable:
            cell = nl.cells.get(name)
            if cell is None:
                continue
            record = _apply_backward_move(nl, pl, cell)
            if record is None:
                continue
            analyzer.update(**_retiming_update_args(record))
            _undo_backward_move(nl, pl, record)
            analyzer.update(**_undo_update_args(record))
            nl.validate()
            _assert_identical(analyzer.result(), before)
            undone += 1
            if undone >= 3:
                break
        assert undone >= 1, "flow produced no retimable registers"

    def test_randomized_placement_moves(self, synthetic_table):
        """update() after placement.put() matches a from-scratch analysis."""
        nl, pl = _retimed_flow_state(synthetic_table)
        analyzer = TimingAnalyzer(nl, pl)
        analyzer.propagate()
        rng = random.Random(7)
        names = sorted(pl.pos)
        for name in rng.sample(names, min(10, len(names))):
            cell = nl.cells.get(name)
            if cell is None:
                continue
            x, y = pl.pos[name]
            pl.put(cell, x + rng.uniform(-20, 20), y + rng.uniform(-20, 20),
                   pl.radius.get(name, 0.0))
            analyzer.update(changed_cells=[name])
            expected = TimingAnalyzer(nl, pl).analyze()
            _assert_identical(analyzer.result(), expected)


class TestGuardOverflow:
    def test_corrupt_parent_chain_raises_in_classify(self, synthetic_table):
        nl, pl = _retimed_flow_state(synthetic_table)
        analyzer = TimingAnalyzer(nl, pl)
        analyzer.propagate()
        total, sink, net = analyzer.worst_endpoint()
        # Corrupt the parent map into a cycle: classification/trace must
        # fail loudly instead of silently truncating the walk.
        analyzer._parent[net.driver.name] = (net.driver, net, 0.0)
        with pytest.raises(PhysicalError):
            analyzer.result()
