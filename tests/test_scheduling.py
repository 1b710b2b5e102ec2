"""Tests for the chaining scheduler (repro.scheduling.chaining)."""

import pytest

from oracles import widths
from repro.delay.hls_model import HlsDelayModel
from repro.delay.tables import hls_predicted_delay
from repro.designs.registry import build_design, design_names
from repro.errors import SchedulingError
from repro.flow import DEFAULT_CLOCK_MHZ, Flow
from repro.ir.builder import DFGBuilder
from repro.ir.ops import Opcode
from repro.ir.program import Buffer, Fifo
from repro.ir.types import f32, i32
from repro.opt import CONFIG_LABELS
from repro.pipeline import PassManager, build_stages
from repro.scheduling.chaining import (
    CLOCK_MARGIN_NS,
    ChainingScheduler,
    effective_delay,
    effective_latency,
)

ADD = hls_predicted_delay(Opcode.ADD, i32)


def schedule(dfg, clock_ns=3.0, model=None):
    return ChainingScheduler(model or HlsDelayModel(), clock_ns).schedule(dfg)


class TestChaining:
    def test_short_chain_fits_one_cycle(self):
        b = DFGBuilder()
        x, y = b.input("x", i32), b.input("y", i32)
        s = b.add(x, y)
        d = b.sub(s, y)
        sched = schedule(b.build())
        assert sched.depth == 1
        assert sched.entry(d.producer).cycle == 0

    def test_chain_end_times_accumulate(self):
        b = DFGBuilder()
        x, y = b.input("x", i32), b.input("y", i32)
        s = b.add(x, y)
        d = b.sub(s, y)
        sched = schedule(b.build())
        assert sched.entry(s.producer).end_ns == pytest.approx(ADD)
        assert sched.entry(d.producer).end_ns == pytest.approx(2 * ADD, abs=0.01)

    def test_long_chain_splits(self):
        b = DFGBuilder()
        v = b.input("x", i32)
        for i in range(12):
            v = b.add(v, v, name=f"a{i}")
        sched = schedule(b.build(), clock_ns=2.0)
        assert sched.depth >= 2
        budget = 2.0 - CLOCK_MARGIN_NS
        for c in range(sched.depth):
            assert sched.critical_arrival(c) <= budget + 1e-9

    def test_new_cycle_starts_at_zero(self):
        b = DFGBuilder()
        v = b.input("x", i32)
        for i in range(12):
            v = b.add(v, v, name=f"a{i}")
        sched = schedule(b.build(), clock_ns=2.0)
        by_cycle = {}
        for entry in sched.entries.values():
            by_cycle.setdefault(entry.cycle, []).append(entry)
        for entries in by_cycle.values():
            assert min(e.start_ns for e in entries) == pytest.approx(0.0)

    def test_parallel_ops_share_cycle(self):
        b = DFGBuilder()
        x, y = b.input("x", i32), b.input("y", i32)
        for _ in range(20):
            b.add(x, y)
        sched = schedule(b.build())
        assert sched.depth == 1  # independent ops chain nothing

    def test_too_small_clock_rejected(self):
        with pytest.raises(SchedulingError):
            ChainingScheduler(HlsDelayModel(), CLOCK_MARGIN_NS / 2)


class TestSequentialOps:
    def test_load_delivers_next_cycle(self):
        buf = Buffer("m", i32, 64)
        b = DFGBuilder()
        addr = b.input("a", i32)
        data = b.load(buf, addr)
        out = b.add(data, data)
        sched = schedule(b.build(), clock_ns=4.0)
        load_entry = sched.entry(data.producer)
        assert load_entry.finish_cycle == load_entry.cycle + 1
        assert sched.entry(out.producer).cycle == load_entry.finish_cycle

    def test_load_consumers_chain_after_read_delay(self):
        buf = Buffer("m", i32, 64)
        b = DFGBuilder()
        addr = b.input("a", i32)
        data = b.load(buf, addr)
        out = b.add(data, data)
        sched = schedule(b.build(), clock_ns=4.0)
        assert sched.entry(out.producer).start_ns >= hls_predicted_delay(
            Opcode.LOAD, i32
        ) - 1e-9

    def test_load_consumer_spills_when_read_delay_fills_cycle(self):
        buf = Buffer("m", i32, 64)
        b = DFGBuilder()
        addr = b.input("a", i32)
        data = b.load(buf, addr)
        out = b.add(data, data)
        sched = schedule(b.build(), clock_ns=3.0)  # 2.1 + 0.78 > 2.7 budget
        load_entry = sched.entry(data.producer)
        assert sched.entry(out.producer).cycle == load_entry.finish_cycle + 1

    def test_reg_takes_one_cycle(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        r = b.reg(x)
        out = b.add(r, r)
        sched = schedule(b.build())
        assert sched.entry(out.producer).cycle == 1

    def test_call_latency_respected(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        call = b.call("pe", [x], i32, latency=5)
        out = b.add(call.result, call.result)
        sched = schedule(b.build())
        assert sched.entry(out.producer).cycle == 5

    def test_chained_calls_accumulate(self):
        b = DFGBuilder()
        v = b.input("x", i32)
        for i in range(3):
            v = b.call(f"pe{i}", [v], i32, latency=4).result
        sched = schedule(b.build())
        assert sched.depth == 12 + 1 or sched.depth == 12  # 3 x latency 4


class TestExtraLatency:
    def test_effective_delay_divides(self):
        b = DFGBuilder()
        x = b.input("x", f32)
        m = b.mul(x, x).producer
        m.attrs["extra_latency"] = 3
        assert effective_delay(m, 4.0) == pytest.approx(1.0)
        assert effective_latency(m) == 3

    def test_auto_pipelines_oversized_fmul(self):
        b = DFGBuilder()
        x = b.input("x", f32)
        m = b.mul(x, x, name="m")
        sched = schedule(b.build(), clock_ns=2.0)
        # hls fmul 3.25 > budget 1.7 -> auto extra stages stamped
        assert int(m.producer.attrs.get("extra_latency", 0)) >= 1
        assert not sched.violations

    def test_never_reduces_design_request(self):
        b = DFGBuilder()
        x = b.input("x", f32)
        m = b.mul(x, x)
        m.producer.attrs["extra_latency"] = 6
        schedule(b.build(), clock_ns=3.0)
        assert m.producer.attrs["extra_latency"] == 6

    def test_plain_add_not_auto_pipelined(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        a = b.add(x, x)
        schedule(b.build(), clock_ns=3.0)
        assert "extra_latency" not in a.producer.attrs


class TestMinCycle:
    def test_min_cycle_delays_issue(self):
        fifo = Fifo("c", f32)
        b = DFGBuilder()
        r = b.fifo_read(fifo)
        r.producer.attrs["min_cycle"] = 9
        sched = schedule(b.build())
        assert sched.entry(r.producer).cycle == 9


class TestViolations:
    def test_unpipelineable_oversize_records_violation(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        v = b.shl(x, x)  # dynamic shift, not in the pipelineable set
        sched = schedule(b.build(), clock_ns=0.6)
        assert sched.has_violations()
        assert "exceeds budget" in str(sched.violations[0])


class TestStageWidths:
    def test_value_crossing_counts(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        r = b.reg(x)  # x -> reg crosses boundary 0 inside the REG
        b.add(r, r)
        sched = schedule(b.build())
        assert sched.width_profile()[0] >= 32

    def test_call_stage_width_attr(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        call = b.call("pe", [x], i32, latency=4)
        call.attrs["stage_width"] = 100
        b.add(call.result, call.result)
        sched = schedule(b.build())
        profile = sched.width_profile()
        for boundary in range(0, 4):
            assert profile[boundary] >= 100

    def test_live_out_held_to_end(self):
        b = DFGBuilder()
        x = b.input("x", i32)
        y = b.reg(b.reg(x))  # live-out produced at cycle 2
        sched = schedule(b.build())
        assert sched.width_profile()[sched.depth - 1] >= 0
        assert y.type.bits == 32


@pytest.mark.parametrize("config", ("orig", "full"))
@pytest.mark.parametrize("name", design_names(include_extra=True))
def test_width_profile_matches_rescan(name, config, synthetic_table):
    """The one-sweep profile equals the per-boundary rescan on every
    loop schedule of every registered design, BASELINE and FULL."""
    stages = build_stages()
    through_scheduling = stages[: [s.name for s in stages].index("scheduling") + 1]
    design = build_design(name)
    clock_mhz = float(design.meta.get("clock_mhz", DEFAULT_CLOCK_MHZ))
    ctx, _journal = PassManager(through_scheduling).execute(
        Flow(calibration=synthetic_table),
        CONFIG_LABELS[config],
        {"design": design, "clock_ns": 1000.0 / clock_mhz},
    )
    assert ctx["schedules"]
    for key, sched in ctx["schedules"].items():
        assert sched.width_profile() == widths.width_profile(sched), key
