"""Lazy results: a warm ``Flow.run`` unpickles only the small bundles its
fingerprint needs; ``schedules``, ``gen``, ``placement`` and
``sync_report`` unpickle on first read, from bytes the run verified.
"""

from __future__ import annotations

import glob
import os
import pickle
import sys
import threading
import time
from collections import Counter

import pytest

from repro import obs
from repro.designs import build_design
from repro.flow import Flow
from repro.opt import FULL
from repro.pipeline import StageArtifactStore
from repro.pipeline.manager import _Deferred
from repro.testing import heavy_outputs_view

#: The bundles a fully warm run's fingerprint reads.
SMALL = {"ii-analysis", "timing"}


@pytest.fixture()
def store(tmp_path):
    return StageArtifactStore(root=str(tmp_path / "stages"))


@pytest.fixture()
def loads(monkeypatch):
    """Counts unpickled bundles per producing stage."""
    counts: Counter = Counter()
    real_load = _Deferred.load

    def load(self):
        counts[self.stage] += 1
        return real_load(self)

    monkeypatch.setattr(_Deferred, "load", load)
    return counts


def _genome(store, synthetic_table):
    flow = Flow(calibration=synthetic_table, stage_cache=store)
    return flow.run(build_design("genome", unroll=4), FULL)


def test_warm_run_unpickles_only_the_small_bundles(store, synthetic_table, loads):
    cold = _genome(store, synthetic_table)
    assert not loads  # a cold run reads live objects
    with obs.activate(obs.Tracer()) as tracer:
        warm = _genome(store, synthetic_table)
    assert all(e["action"] == "skipped" for e in warm.journal if e["cacheable"])
    assert set(loads) == SMALL and set(loads.values()) == {1}
    counters = tracer.aggregate_metrics().counters
    assert counters["pipeline.bundles_loaded"].value == len(SMALL)
    for stage in SMALL:
        assert counters[f"pipeline.bundles_loaded.{stage}"].value == 1
    # Nothing the fingerprint or the summary reads is heavy.
    assert warm.result_digest() == cold.result_digest()
    warm.summary()
    assert set(loads) == SMALL
    warm.gen
    assert loads["retiming"] == 1 and "scheduling" not in loads
    warm.placement  # bundled with gen: no second load
    warm.schedules
    assert loads["retiming"] == 1 and loads["scheduling"] == 1
    assert "sync-pruning" not in loads
    warm.sync_report
    assert loads["sync-pruning"] == 1


def test_heavy_fields_equal_the_cold_runs(store, synthetic_table):
    cold = _genome(store, synthetic_table)
    warm = _genome(store, synthetic_table)
    assert heavy_outputs_view(warm) == heavy_outputs_view(cold)
    assert warm.sync_report == cold.sync_report
    assert warm.gen is warm.gen and warm.schedules is warm.schedules


def test_pickle_round_trip_ships_bytes_and_unpickles_equal(
    store, synthetic_table, loads
):
    cold = _genome(store, synthetic_table)
    warm = _genome(store, synthetic_table)
    before = dict(loads)
    data = pickle.dumps(warm, protocol=4)
    assert dict(loads) == before  # the heavy bundles travel as bytes
    copy = pickle.loads(data)
    assert copy.fingerprint() == warm.fingerprint()
    assert copy.result_digest() == cold.result_digest()
    assert heavy_outputs_view(copy) == heavy_outputs_view(cold)
    assert copy.sync_report == cold.sync_report
    # A cold result (live objects) round-trips too.
    cold_copy = pickle.loads(pickle.dumps(cold, protocol=4))
    assert cold_copy.fingerprint() == cold.fingerprint()
    assert heavy_outputs_view(cold_copy) == heavy_outputs_view(cold)


def test_verified_bytes_survive_eviction(store, synthetic_table):
    cold = _genome(store, synthetic_table)
    warm = _genome(store, synthetic_table)
    for path in glob.glob(os.path.join(store.root, "*")):
        os.unlink(path)
    assert heavy_outputs_view(warm) == heavy_outputs_view(cold)


def test_concurrent_readers_get_one_object(store, synthetic_table, monkeypatch):
    """More readers than cores, a short switch interval and a slow load:
    every reader of ``gen`` or ``placement`` (one bundle) gets the one
    object the single load produced."""
    _genome(store, synthetic_table)
    warm = _genome(store, synthetic_table)
    counts: Counter = Counter()
    real_load = _Deferred.load

    def slow_load(self):
        counts[self.stage] += 1
        time.sleep(0.05)  # widen the window a second reader could race
        return real_load(self)

    monkeypatch.setattr(_Deferred, "load", slow_load)
    readers = 8
    barrier = threading.Barrier(readers)
    seen = []

    def read(index):
        barrier.wait()
        seen.append(("gen", warm.gen) if index % 2 else ("placement", warm.placement))

    threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == readers
    assert {id(value) for name, value in seen if name == "gen"} == {id(warm.gen)}
    assert {id(value) for name, value in seen if name == "placement"} == {
        id(warm.placement)
    }
    assert counts["retiming"] == 1


def test_truncated_retiming_payload_runs_in_the_same_flow_run(
    store, synthetic_table
):
    cold = _genome(store, synthetic_table)
    retiming = {e["stage"]: e["digest"] for e in cold.journal}["retiming"]
    path = os.path.join(store.root, f"{retiming}.pkl")
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    rerun = _genome(store, synthetic_table)
    actions = {e["stage"]: e["action"] for e in rerun.journal}
    assert actions["retiming"] == "run"
    assert rerun.result_digest() == cold.result_digest()
    assert heavy_outputs_view(rerun) == heavy_outputs_view(cold)

