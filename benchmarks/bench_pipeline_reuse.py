"""Staged pipeline — stage-artifact reuse, measured.

Two measurements, recorded into ``BENCH_flow.json`` under
``pipeline_reuse``:

* ``compare``: ``Flow.compare`` (Orig + Opt on one design) run three ways —
  cold private store, warm store, cache disabled.  The cold run already
  reuses the shared front-end: the Opt run reads what the Orig run just
  stored; the warm run skips every cacheable stage of both configs.
* ``sweep``: a 3-point × 2-config inline sweep, cold vs warm.  The warm
  sweep re-runs only the non-cacheable calibration stage per point.  Its
  ``warm_s`` is the median of three warm sweeps, each after a
  ``gc.collect()``: one sweep takes ~0.02 s, so a single sample measured
  whichever full collection of earlier garbage landed in it.

Only result *equality* is asserted (digests, not timings): wall-clock
assertions flake on loaded CI runners, and the honest numbers in the
report are the deliverable.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.designs import build_design
from repro.experiments.sweep import sweep
from repro.flow import Flow
from repro.opt import BASELINE, FULL
from repro.pipeline import StageArtifactStore
from repro.testing import synthetic_calibration

DESIGN = "matmul"
SWEEP_VALUES = (2048, 4096, 8192)


def _flow(stage_cache):
    return Flow(calibration=synthetic_calibration(), stage_cache=stage_cache)


def test_compare_prefix_reuse(bench_extras, tmp_path):
    store = StageArtifactStore(root=str(tmp_path / "stages"))

    start = time.perf_counter()
    cold = _flow(store).compare(build_design(DESIGN))
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = _flow(store).compare(build_design(DESIGN))
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    plain = _flow(False).compare(build_design(DESIGN))
    plain_s = time.perf_counter() - start

    for cached_run, plain_run in zip(warm, plain):
        assert cached_run.result_digest() == plain_run.result_digest()
    for cold_run, warm_run in zip(cold, warm):
        assert cold_run.result_digest() == warm_run.result_digest()

    def skipped(results):
        return sum(
            1
            for result in results
            for entry in result.journal
            if entry["action"] == "skipped"
        )

    extras = bench_extras.setdefault("pipeline_reuse", {})
    extras["compare"] = {
        "design": DESIGN,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "disabled_s": round(plain_s, 3),
        "cold_stages_skipped": skipped(cold),
        "warm_stages_skipped": skipped(warm),
        "warm_speedup": round(plain_s / max(warm_s, 1e-9), 2),
    }
    assert skipped(cold) > 0  # front-end sharing through the store inside compare
    assert skipped(warm) > skipped(cold)


def test_sweep_prefix_reuse(bench_extras, tmp_path):
    store = StageArtifactStore(root=str(tmp_path / "sweep-stages"))

    def run(stage_cache):
        return sweep(
            lambda depth: build_design("stream_buffer", depth=depth),
            "depth",
            list(SWEEP_VALUES),
            configs={"orig": BASELINE, "full": FULL},
            flow=_flow(stage_cache),
        )

    start = time.perf_counter()
    cold = run(store)
    cold_s = time.perf_counter() - start

    warm_samples = []
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        warm = run(store)
        warm_samples.append(time.perf_counter() - start)
    warm_s = statistics.median(warm_samples)

    for cold_row, warm_row in zip(cold.rows, warm.rows):
        for label in cold_row.results:
            assert (
                cold_row.results[label].result_digest()
                == warm_row.results[label].result_digest()
            )

    extras = bench_extras.setdefault("pipeline_reuse", {})
    extras["sweep"] = {
        "design": "stream_buffer",
        "points": len(SWEEP_VALUES),
        "configs": 2,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_speedup": round(cold_s / max(warm_s, 1e-9), 2),
    }
