"""Equivalence proof: incremental recompilation can never change an answer.

For every registered design × {BASELINE, FULL} × perturbation, a flow on
a warm stage store (seeded by a prior run at the original operating point)
must produce bit-identical fingerprints and result digests to a fresh
flow compiling the perturbed point from scratch with the stage cache
disabled.  The perturbations are the three single-knob sweep moves the
stage store and its early cutoff are built for:

* **clock-bump** — same design, new clock target (scheduling re-runs,
  everything upstream of it is served from the store, and the backend is
  cut off when no schedule decision changed);
* **pragma-flip** — one loop's pipeline pragma toggled;
* **calibration-swap** — a perturbed calibration table injected
  (scheduling and downstream re-run; pragma/sync-pruning are skipped).
"""

from __future__ import annotations

import pytest

from repro.designs import build_design, design_names
from repro.flow import Flow
from repro.opt import BASELINE, FULL
from repro.pipeline import StageArtifactStore
from repro.pipeline.digest import schedules_digest

CONFIGS = {"orig": BASELINE, "full": FULL}
SCENARIOS = ("clock-bump", "pragma-flip", "calibration-swap")

#: Off every design's default operating point (registry designs pin 300 or
#: 333 MHz in their meta) — a bump to a design's own default is a no-op
#: the stage store would rightly skip end-to-end.
BUMPED_CLOCK_MHZ = 217

#: A bump of matmul's 300 MHz target that changes no FULL schedule
#: decision (asserted below as a precondition).
CUTOFF_CLOCK_MHZ = 290


def _flip_pragma(design):
    """Toggle the pipeline pragma of the design's first loop."""
    loop = design.kernels[0].loops[0]
    loop.pipeline = not loop.pipeline
    return design


def _perturbed_table(table):
    """A copy-by-reconstruction of ``table`` with one extra curve point."""
    from repro.delay.calibrated import CalibrationTable

    other = CalibrationTable()
    for key in table.keys():
        for factor, delay in table.points(key):
            other.add(key, factor, delay)
    key = table.keys()[0]
    factor, delay = table.points(key)[-1]
    other.add(key, factor * 2, delay * 1.5)
    return other


def _warm_flow(tmp_path, synthetic_table):
    """A flow over a private, initially empty stage store."""
    store = StageArtifactStore(root=str(tmp_path / "stages"))
    return Flow(calibration=synthetic_table, stage_cache=store)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("design_name", design_names())
def test_incremental_matches_scratch(
    design_name, config_key, scenario, synthetic_table, tmp_path
):
    config = CONFIGS[config_key]
    inc = _warm_flow(tmp_path, synthetic_table)
    inc.run(build_design(design_name), config)  # seed the store

    scratch_kwargs = dict(calibration=synthetic_table, stage_cache=False)
    perturb = lambda design: design  # noqa: E731 — per-scenario hook
    if scenario == "clock-bump":
        inc.clock_mhz = BUMPED_CLOCK_MHZ
        scratch_kwargs["clock_mhz"] = BUMPED_CLOCK_MHZ
    elif scenario == "pragma-flip":
        perturb = _flip_pragma
    else:
        table = _perturbed_table(synthetic_table)
        inc.calibration = table
        scratch_kwargs["calibration"] = table

    warm = inc.run(perturb(build_design(design_name)), config)
    scratch = Flow(**scratch_kwargs).run(
        perturb(build_design(design_name)), config
    )

    assert warm.fingerprint() == scratch.fingerprint()
    assert warm.result_digest() == scratch.result_digest()


def test_clock_bump_skips_upstream_of_scheduling(synthetic_table, tmp_path):
    """A clock-only change re-runs scheduling but skips everything above.

    Pragma lowering and synchronization pruning do not read the clock;
    their store entries must be byte-identical and serve the bumped run.
    """
    inc = _warm_flow(tmp_path, synthetic_table)
    inc.run(build_design("genome"), FULL)
    inc.clock_mhz = BUMPED_CLOCK_MHZ
    result = inc.run(build_design("genome"), FULL)
    actions = {e["stage"]: e["action"] for e in result.journal}
    assert actions["pragmas"] == "skipped"
    assert actions["sync-pruning"] == "skipped"
    assert actions["scheduling"] == "run"
    assert actions["timing"] == "run"


def test_identical_rerun_skips_via_store(synthetic_table, tmp_path):
    """A byte-identical re-run skips every cacheable stage from the store."""
    inc = _warm_flow(tmp_path, synthetic_table)
    first = inc.run(build_design("genome"), FULL)
    second = inc.run(build_design("genome"), FULL)
    assert second.fingerprint() == first.fingerprint()
    skipped = [e for e in second.journal if e["action"] == "skipped"]
    assert skipped, "store produced no skips on an identical re-run"
    assert all(e["source"] == "disk" for e in skipped)


def test_clock_bump_cuts_off_backend_when_schedules_unchanged(
    synthetic_table, tmp_path
):
    """Early cutoff: re-run scheduling, replay rtl-gen onward.

    Scheduling re-runs under the new clock, but when it reproduces the
    same decisions its content digest leaves rtl-gen's input digest
    unchanged, so rtl-gen and every stage after it are served from the
    store — and the result still equals a from-scratch compile.
    """
    inc = _warm_flow(tmp_path, synthetic_table)
    first = inc.run(build_design("matmul"), FULL)
    inc.clock_mhz = CUTOFF_CLOCK_MHZ
    bumped = inc.run(build_design("matmul"), FULL)
    assert schedules_digest(bumped.schedules) == schedules_digest(
        first.schedules
    ), "precondition: the bump must change no schedule decision"

    journal = {e["stage"]: e for e in bumped.journal}
    assert journal["scheduling"]["action"] == "run"
    for stage in ("rtl-gen", "placement", "spreading", "replication",
                  "retiming", "timing"):
        assert journal[stage]["action"] == "skipped", stage
        assert journal[stage]["source"] == "disk", stage

    scratch = Flow(
        calibration=synthetic_table,
        stage_cache=False,
        clock_mhz=CUTOFF_CLOCK_MHZ,
    ).run(build_design("matmul"), FULL)
    assert bumped.fingerprint() == scratch.fingerprint()
    assert bumped.result_digest() == scratch.result_digest()
