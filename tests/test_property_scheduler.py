"""Property-based tests of scheduler invariants over random DFGs.

Hypothesis generates random dataflow DAGs (mixing combinational ops,
registers, loads/stores and multi-cycle calls); the invariants below must
hold for *any* graph and clock target:

* data dependencies are respected in time (operand available before use);
* every chained arrival fits the budget unless recorded as a violation;
* report round-trips are lossless;
* the calibrated schedule never mis-orders what the HLS schedule ordered.
"""

from hypothesis import given, settings, strategies as st

from repro.delay.calibrated import CalibratedDelayModel
from repro.delay.hls_model import HlsDelayModel
from repro.ir.builder import DFGBuilder
from repro.ir.ops import Opcode
from repro.ir.program import Buffer
from repro.ir.types import i32
from repro.scheduling.chaining import (
    CLOCK_MARGIN_NS,
    ChainingScheduler,
    effective_latency,
)
from repro.scheduling.report import emit_report, parse_report

from conftest import make_synthetic_table
from oracles import widths

# Instruction stream encoding: each element appends one op whose operands
# are drawn (by index) from the values produced so far.
_OP_CHOICES = ("add", "sub", "mul", "min", "reg", "load", "store")


@st.composite
def random_dfg(draw):
    b = DFGBuilder("rand")
    buf = Buffer("m", i32, 256)
    values = [b.input("x", i32), b.input("y", i32), b.const(3, i32)]
    n_ops = draw(st.integers(min_value=1, max_value=24))
    for i in range(n_ops):
        kind = draw(st.sampled_from(_OP_CHOICES))
        a = values[draw(st.integers(0, len(values) - 1))]
        c = values[draw(st.integers(0, len(values) - 1))]
        if kind == "add":
            values.append(b.add(a, c, name=f"v{i}"))
        elif kind == "sub":
            values.append(b.sub(a, c, name=f"v{i}"))
        elif kind == "mul":
            values.append(b.mul(a, c, name=f"v{i}"))
        elif kind == "min":
            values.append(b.min_(a, c, name=f"v{i}"))
        elif kind == "reg":
            values.append(b.reg(a, name=f"v{i}"))
        elif kind == "load":
            values.append(b.load(buf, a, name=f"v{i}"))
        else:
            b.store(buf, a, c)
    return b.build()


def _check_dependencies(schedule):
    for entry in schedule.entries.values():
        for operand in entry.op.operands:
            producer = operand.producer
            if producer is None or producer.opcode is Opcode.CONST:
                continue
            p_entry = schedule.entries[producer.name]
            assert p_entry.finish_cycle <= entry.cycle, (
                f"{entry.op.name} consumes {operand.name} before it exists"
            )
            if (
                p_entry.finish_cycle == entry.cycle
                and entry.op.opcode is not Opcode.REG
                and producer.latency == 0
                and not producer.attrs.get("extra_latency")
            ):
                # Same-cycle chaining: the consumer starts no earlier than
                # the producer finishes within the cycle.
                assert entry.start_ns >= p_entry.end_ns - 1e-9


class TestSchedulerInvariants:
    @settings(max_examples=120, deadline=None)
    @given(dfg=random_dfg(), clock=st.sampled_from([2.0, 3.0, 5.0]))
    def test_dependencies_respected(self, dfg, clock):
        schedule = ChainingScheduler(HlsDelayModel(), clock).schedule(dfg)
        _check_dependencies(schedule)

    @settings(max_examples=120, deadline=None)
    @given(dfg=random_dfg(), clock=st.sampled_from([2.0, 3.0, 5.0]))
    def test_budget_or_violation(self, dfg, clock):
        schedule = ChainingScheduler(HlsDelayModel(), clock).schedule(dfg)
        budget = clock - CLOCK_MARGIN_NS
        flagged = {v.op.name for v in schedule.violations}
        for entry in schedule.entries.values():
            assert entry.end_ns <= budget + 1e-9 or entry.op.name in flagged

    @settings(max_examples=80, deadline=None)
    @given(dfg=random_dfg())
    def test_report_roundtrip(self, dfg):
        schedule = ChainingScheduler(HlsDelayModel(), 3.0).schedule(dfg)
        back = parse_report(emit_report(schedule), dfg)
        assert back.depth == schedule.depth
        for name, entry in schedule.entries.items():
            assert back.entries[name].cycle == entry.cycle

    @settings(max_examples=80, deadline=None)
    @given(dfg=random_dfg())
    def test_calibrated_depth_at_least_hls(self, dfg):
        """Calibrated delays can only push ops later, never earlier."""
        hls = ChainingScheduler(HlsDelayModel(), 3.0).schedule(dfg.clone())
        cal_model = CalibratedDelayModel(make_synthetic_table())
        cal = ChainingScheduler(cal_model, 3.0).schedule(dfg)
        assert cal.depth >= hls.depth

    @settings(max_examples=80, deadline=None)
    @given(dfg=random_dfg(), clock=st.sampled_from([2.0, 4.0]))
    def test_stage_widths_nonnegative_and_bounded(self, dfg, clock):
        schedule = ChainingScheduler(HlsDelayModel(), clock).schedule(dfg)
        total_bits = sum(
            v.type.bits for v in dfg.values.values() if not v.is_const
        )
        call_like = sum(
            1 for e in schedule.entries.values() if effective_latency(e.op) > 0
        )
        profile = schedule.width_profile()
        assert profile == widths.width_profile(schedule)
        for width in profile:
            assert width >= 0
            assert width <= total_bits + 32 * call_like
