"""Sidecar-only checkpoints and the pass manager's one recovery path.

``placement``, ``spreading`` and ``replication`` store their sidecar with
an empty output bundle.  A run that needs a key such an entry cannot
supply — or whose payload fails to read, decompress or unpickle — must
still produce the store-off result, re-running exactly the stages it
could not serve, with one span and one journal record per stage.
"""

from __future__ import annotations

import glob
import os
import pickle
from collections import Counter

import pytest

from repro import obs
from repro.designs import build_design
from repro.flow import Flow
from repro.obs.journal import EventJournal, activate_journal
from repro.opt import BASELINE, FULL
from repro.physical.replication import ReplicationConfig
from repro.pipeline import StageArtifactStore, build_stages
from repro.pipeline.manager import PassManager

SIDECAR_ONLY = ("placement", "spreading", "replication")


def _actions(result):
    return {entry["stage"]: entry["action"] for entry in result.journal}


def _scratch(synthetic_table, config, **flow_kwargs):
    """The store-off reference run."""
    flow = Flow(calibration=synthetic_table, stage_cache=False, **flow_kwargs)
    return flow.run(build_design("matmul"), config)


@pytest.fixture()
def store(tmp_path):
    return StageArtifactStore(root=str(tmp_path / "stages"))


def _fill(store, synthetic_table, config):
    """A default ``Flow`` fills ``store``; returns its result."""
    flow = Flow(calibration=synthetic_table, stage_cache=store)
    return flow.run(build_design("matmul"), config)


def test_only_the_declared_stages_are_sidecar_only():
    declared = [s.name for s in build_stages() if s.sidecar_only]
    assert declared == list(SIDECAR_ONLY)


def test_cold_run_stores_empty_bundles_for_sidecar_only_stages(
    store, synthetic_table
):
    cold = _fill(store, synthetic_table, FULL)
    for entry in cold.journal:
        if not entry["cacheable"]:
            continue
        hit = store.get(entry["digest"])
        assert hit is not None, entry["stage"]
        outputs = hit.load()
        if entry["stage"] in SIDECAR_ONLY:
            assert outputs == {}, entry["stage"]
            # The sidecar still carries the replayable span snapshot.
            assert hit.meta["span"], entry["stage"]
        else:
            assert outputs, entry["stage"]


def test_default_store_serves_retime_off(store, synthetic_table, tmp_path):
    filled = _fill(store, synthetic_table, FULL)
    flow = Flow(calibration=synthetic_table, stage_cache=store, retime=False)
    journal = EventJournal(tmp_path / "events.jsonl")
    previous = activate_journal(journal)
    try:
        with obs.activate(obs.Tracer()) as tracer:
            result = flow.run(build_design("matmul"), FULL)
    finally:
        activate_journal(previous)
    reference = _scratch(synthetic_table, FULL, retime=False)
    assert result.fingerprint() == reference.fingerprint()
    assert result.result_digest() == reference.result_digest()
    # The front end replays; the sidecar-only chain re-runs because
    # retiming, its reader, missed.
    assert _actions(result) == {
        "pragmas": "skipped",
        "sync-pruning": "skipped",
        "calibration": "run",
        "scheduling": "skipped",
        "ii-analysis": "skipped",
        "rtl-gen": "skipped",
        "placement": "run",
        "spreading": "run",
        "replication": "run",
        "retiming": "run",
        "timing": "run",
    }
    # The discarded attempt leaves no spans behind: one per stage.
    (root,) = tracer.roots
    assert [span.name for span in root.children] == [
        stage.name for stage in build_stages()
    ]
    counters = tracer.aggregate_metrics().counters
    assert counters["pipeline.stages_skipped"].value == 5
    assert counters["pipeline.stages_run"].value == 6
    # One retry, reported once: the replication checkpoint retiming read.
    replication = {e["stage"]: e["digest"] for e in filled.journal}["replication"]
    events = journal.read()
    unloadable = [r for r in events if r["event"] == "stage.unloadable"]
    assert [(r["digest"], r.get("error")) for r in unloadable] == [
        (replication, None)
    ]
    # Cache events come from the attempt that served the run only: the
    # discarded attempt's placement/spreading/replication hits are absent.
    stage_events = [
        (r["event"], r["stage"], r["digest"])
        for r in events
        if r["event"] in ("stage.hit", "stage.miss")
    ]
    assert stage_events == [
        (
            "stage.hit" if entry["action"] == "skipped" else "stage.miss",
            entry["stage"],
            entry["digest"],
        )
        for entry in result.journal
        if entry["cacheable"]
    ]


def test_default_store_serves_replication_off(store, synthetic_table):
    _fill(store, synthetic_table, BASELINE)
    flow = Flow(
        calibration=synthetic_table,
        stage_cache=store,
        replication=ReplicationConfig(enabled=False),
    )
    result = flow.run(build_design("matmul"), BASELINE)
    reference = _scratch(
        synthetic_table, BASELINE, replication=ReplicationConfig(enabled=False)
    )
    assert result.fingerprint() == reference.fingerprint()
    assert result.result_digest() == reference.result_digest()
    actions = _actions(result)
    assert [s for s, a in actions.items() if a == "run"] == [
        "calibration", "placement", "spreading", "replication", "retiming",
        "timing",
    ]
    assert len(result.journal) == len(build_stages())


def test_truncated_payloads_read_as_misses(store, synthetic_table):
    """Every ``.pkl`` of a warm store cut in half: the re-run re-executes
    what it cannot load and matches the store-off result."""
    _fill(store, synthetic_table, FULL)
    for path in glob.glob(os.path.join(store.root, "*.pkl")):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
    rerun = _fill(store, synthetic_table, FULL)
    reference = _scratch(synthetic_table, FULL)
    assert rerun.result_digest() == reference.result_digest()
    assert rerun.fingerprint() == reference.fingerprint()
    # Every entry was damaged and every stage output is read, so every
    # stage ran — once, as one journal record.
    assert [entry["stage"] for entry in rerun.journal] == [
        stage.name for stage in build_stages()
    ]
    assert all(entry["action"] == "run" for entry in rerun.journal)
    # The re-run rewrote the damaged entries: the next run is all hits.
    again = _fill(store, synthetic_table, FULL)
    assert all(
        entry["action"] == "skipped" for entry in again.journal if entry["cacheable"]
    )


def test_damaged_store_recovers_in_one_retry(store, synthetic_table, monkeypatch):
    """Every ``.pkl`` truncated: the first attempt fails on one entry,
    and the retry loads each hit as it looks it up, so every other
    damaged entry is a miss inside that same attempt."""
    _fill(store, synthetic_table, FULL)
    reference = _scratch(synthetic_table, FULL)
    for path in glob.glob(os.path.join(store.root, "*.pkl")):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
    attempts, runs = [], Counter()
    real_attempt = PassManager._attempt

    def attempt(self, *args, **kwargs):
        attempts.append(1)
        return real_attempt(self, *args, **kwargs)

    def counting(stage_class):
        real_run = stage_class.run

        def run(self, *args, **kwargs):
            runs[self.name] += 1
            return real_run(self, *args, **kwargs)

        return run

    monkeypatch.setattr(PassManager, "_attempt", attempt)
    for stage in build_stages():
        monkeypatch.setattr(type(stage), "run", counting(type(stage)))
    rerun = _fill(store, synthetic_table, FULL)
    assert rerun.result_digest() == reference.result_digest()
    assert len(attempts) <= 2
    assert runs["scheduling"] == 1


def test_foreign_payload_reads_as_a_miss(store, synthetic_table):
    """A payload that decompresses and unpickles but is not a stage bundle
    (schema mismatch) re-runs only that stage's cone."""
    cold = _fill(store, synthetic_table, FULL)
    digest = {e["stage"]: e["digest"] for e in cold.journal}["timing"]
    store.put(digest, pickle.dumps({"schema": "other/1"}), {"stage": "timing"})
    rerun = _fill(store, synthetic_table, FULL)
    assert rerun.result_digest() == cold.result_digest()
    assert [s for s, a in _actions(rerun).items() if a == "run"] == [
        "calibration", "timing",
    ]



def test_foreign_payload_of_a_heavy_stage_reads_as_a_miss(store, synthetic_table):
    """A heavy bundle the warm run never unpickles is still checked: a
    payload with another schema's header, under a sidecar that lists the
    right keys, re-runs that stage inside the same ``Flow.run``."""
    cold = _fill(store, synthetic_table, FULL)
    digest = {e["stage"]: e["digest"] for e in cold.journal}["retiming"]
    store.put(
        digest,
        pickle.dumps({"schema": "other/1"}),
        {"stage": "retiming", "outputs": ["gen", "placement"]},
    )
    rerun = _fill(store, synthetic_table, FULL)
    assert rerun.result_digest() == cold.result_digest()
    # Retiming re-runs; the sidecar-only checkpoints before it re-run too,
    # because retiming reads their outputs.
    assert [s for s, a in _actions(rerun).items() if a == "run"] == [
        "calibration", "placement", "spreading", "replication", "retiming",
    ]
