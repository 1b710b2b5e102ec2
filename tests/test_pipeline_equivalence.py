"""Equivalence proof: stage caching can never change a flow's answer.

For every registered design × {BASELINE, FULL}, three runs — cold private
store, warm same store, cache disabled — must produce bit-identical
fingerprints and result digests, and the warm run's heavy fields, read
back from the store, must hold the same netlist, schedule depths and
placement as the other two.  Each run rebuilds the design from the
registry, so the equality also covers digest stability across rebuilds
(a spurious design-digest mismatch would surface as a warm journal that
re-ran stages).
"""

from __future__ import annotations

import pytest

from repro.designs import build_design, design_names
from repro.flow import Flow
from repro.opt import BASELINE, FULL
from repro.pipeline import StageArtifactStore
from repro.testing import heavy_outputs_view

CONFIGS = {"orig": BASELINE, "full": FULL}


@pytest.mark.parametrize("design_name", design_names())
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
def test_cold_warm_disabled_are_bit_identical(
    design_name, config_key, tmp_path, synthetic_table
):
    config = CONFIGS[config_key]
    store = StageArtifactStore(root=str(tmp_path / "stages"))

    def run(stage_cache):
        flow = Flow(calibration=synthetic_table, stage_cache=stage_cache)
        return flow.run(build_design(design_name), config)

    cold = run(store)
    warm = run(store)
    plain = run(False)

    assert warm.fingerprint() == cold.fingerprint()
    assert plain.fingerprint() == cold.fingerprint()
    assert warm.result_digest() == cold.result_digest() == plain.result_digest()

    # The fingerprint's netlist counts come from the timing stage: read the
    # stored netlist, schedules and placement back and compare them too.
    warm_view = heavy_outputs_view(warm)
    assert (warm_view["cells"], warm_view["nets"]) == (
        warm.fingerprint()["cells"], warm.fingerprint()["nets"]
    )
    assert warm_view["depth_by_loop"] == warm.fingerprint()["depth_by_loop"]
    assert warm_view == heavy_outputs_view(cold)
    assert warm_view == heavy_outputs_view(plain)

    # The warm run must actually have been served from the store …
    for entry in warm.journal:
        if entry["cacheable"]:
            assert entry["action"] == "skipped", entry
    # … and the disabled run must not have touched it.
    assert all(entry["action"] == "run" for entry in plain.journal)
