"""Tests for the §4 fix chain (repro.analysis.diagnose.fix_chain/next_fix)."""

from types import SimpleNamespace

import pytest

from repro.analysis import FixChain, fix_chain, next_fix
from repro.control.styles import ControlStyle
from repro.opt import BASELINE, FULL, OptimizationConfig
from repro.physical.timing import TimingResult
from repro.rtl.netlist import NetKind

from conftest import make_mini_stream_design


@pytest.fixture(scope="module")
def chain() -> FixChain:
    """One mini-stream chain, built once for the loop and decision-log classes."""
    from repro.flow import Flow
    from conftest import make_synthetic_table

    flow = Flow(calibration=make_synthetic_table())
    return fix_chain(make_mini_stream_design(depth=1 << 18), flow=flow)


class TestPolicy:
    def test_data_critical_enables_scheduling(self):
        nxt, action = next_fix(BASELINE, NetKind.DATA)
        assert nxt.broadcast_aware
        assert "§4.1" in action

    def test_mem_critical_enables_scheduling(self):
        nxt, _ = next_fix(BASELINE, NetKind.MEM)
        assert nxt.broadcast_aware

    def test_enable_critical_switches_control(self):
        nxt, action = next_fix(BASELINE, NetKind.ENABLE)
        assert nxt.control is ControlStyle.SKID_MINAREA
        assert "§4.3" in action

    def test_sync_critical_prunes(self):
        nxt, action = next_fix(BASELINE, NetKind.SYNC)
        assert nxt.sync_pruning
        assert "§4.2" in action

    def test_exhausted_returns_none(self):
        nxt, action = next_fix(FULL, NetKind.DATA)
        assert nxt is None
        assert "all techniques applied" in action

    def test_preserves_other_knobs(self):
        start = OptimizationConfig(broadcast_aware=True)
        nxt, _ = next_fix(start, NetKind.ENABLE)
        assert nxt.broadcast_aware  # kept while adding skid control


class _FixedFmaxFlow:
    """Stands in for a Flow: every config compiles to 200 MHz, data-critical."""

    def run(self, design, config):
        timing = TimingResult(period_ns=5.0, fmax_mhz=200.0)
        return SimpleNamespace(config=config, timing=timing, fmax_mhz=200.0)


def test_chain_ends_at_full_and_ties_go_to_the_earliest_step():
    chain = fix_chain(design=None, flow=_FixedFmaxFlow())
    assert [step.config.label for step in chain.steps] == [
        "orig", "data", "data+skid_minarea", "data+sync+skid_minarea"
    ]
    assert chain.best.config == BASELINE


class TestLoop:
    def test_improves_over_baseline(self, chain):
        assert chain.best.fmax_mhz > chain.steps[0].fmax_mhz

    def test_log_explains_actions(self, chain):
        log = chain.log()
        assert "step 0: [orig]" in log
        assert "§4" in log

    def test_terminates(self, chain):
        # Three on/off techniques: at most four configs, the last one FULL.
        assert len(chain.steps) <= 4
        assert chain.final_config == FULL

    def test_final_config_addresses_mem_and_control(self, chain):
        cfg = chain.final_config
        # The big-buffer design has mem + enable broadcasts: both fixes on.
        assert cfg.broadcast_aware
        assert cfg.control.uses_skid

    def test_best_at_least_any_step(self, chain):
        assert chain.best.fmax_mhz == pytest.approx(
            max(step.fmax_mhz for step in chain.steps)
        )


class TestDecisionLog:
    """Regression: each logged action belongs to the step it *created*.

    An earlier version overwrote ``steps[-1].action`` unconditionally every
    iteration, so "baseline" vanished and every action was attributed to
    the step before the one it produced.
    """

    def test_step_zero_action_is_baseline(self, chain):
        assert chain.steps[0].action.startswith("baseline")

    def test_actions_match_the_config_delta_they_created(self, chain):
        for prev, step in zip(chain.steps, chain.steps[1:]):
            if step.config.broadcast_aware and not prev.config.broadcast_aware:
                assert "§4.1" in step.action
            if step.config.control.uses_skid and not prev.config.control.uses_skid:
                assert "§4.3" in step.action
            if step.config.sync_pruning and not prev.config.sync_pruning:
                assert "§4.2" in step.action

    def test_terminal_verdict_annotates_final_step(self, chain):
        final = chain.steps[-1].action
        assert "; " in final
        assert "floor" in final

    def test_every_step_changed_the_config(self, chain):
        for prev, step in zip(chain.steps, chain.steps[1:]):
            assert step.config != prev.config
