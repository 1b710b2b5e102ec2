"""``Flow.run`` keeps the cyclic collector paused, and restores it.

A cold run builds large, long-lived object graphs that CPython's
generational collector walks over and over while they grow; the run keeps
the collector off and hands the caller back exactly the state it had.
"""

from __future__ import annotations

import gc

import pytest

from repro.designs import build_design
from repro.errors import ReproError
from repro.flow import Flow
from repro.opt import BASELINE, FULL
from repro.pipeline import StageArtifactStore
from repro.pipeline.stages import PlacementStage

from conftest import make_mini_stream_design


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_callers_collector_state(synthetic_table, enabled):
    if not enabled:
        gc.disable()
    try:
        Flow(calibration=synthetic_table, stage_cache=False).run(
            make_mini_stream_design(), BASELINE
        )
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_raising_stage_restores_collector_state(
    synthetic_table, monkeypatch, enabled
):
    def boom(self, flow, config, ctx, span):
        raise ReproError("placement failed")

    monkeypatch.setattr(PlacementStage, "run", boom)
    if not enabled:
        gc.disable()
    try:
        flow = Flow(calibration=synthetic_table, stage_cache=False)
        with pytest.raises(ReproError, match="placement failed"):
            flow.run(make_mini_stream_design(), BASELINE)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_no_collection_inside_a_run(synthetic_table, tmp_path, monkeypatch):
    """A ``gc.callbacks`` probe sees no collection inside one matmul FULL
    run, store writes included."""
    inside = []
    collections = []
    real_run = Flow._run

    def probed_run(self, *args):
        inside.append(True)
        try:
            return real_run(self, *args)
        finally:
            inside.pop()

    def probe(phase, info):
        if phase == "start" and inside:
            collections.append(info["generation"])

    monkeypatch.setattr(Flow, "_run", probed_run)
    store = StageArtifactStore(root=str(tmp_path / "stages"))
    flow = Flow(calibration=synthetic_table, stage_cache=store)
    gc.callbacks.append(probe)
    try:
        result = flow.run(build_design("matmul"), FULL)
    finally:
        gc.callbacks.remove(probe)
    assert result.fmax_mhz > 0
    assert collections == []


def test_callers_collector_state_does_not_change_the_result(synthetic_table):
    def run():
        flow = Flow(calibration=synthetic_table, stage_cache=False)
        return flow.run(build_design("matmul"), FULL)

    on = run()
    gc.disable()
    try:
        off = run()
    finally:
        gc.enable()
    assert off.fingerprint() == on.fingerprint()
    assert off.result_digest() == on.result_digest()
