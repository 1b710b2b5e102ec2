"""Hot-path profiler: self-time math, power-law fits, super-linear flags.

Operates on synthetic ``repro-run-report/1`` documents so the arithmetic
is exactly checkable; the end-to-end path over real reports is exercised
by the CLI (``repro profile``) and the profile benchmark.
"""

from __future__ import annotations

import pytest

from repro.obs.profiler import (
    FLOW_OVERHEAD_PATH,
    PROFILE_SCHEMA,
    SUPERLINEAR_MIN_SIGNAL_MS,
    SUPERLINEAR_SLOPE,
    fit_power_law,
    profile_reports,
    render_profile,
    stage_self_times,
)


def _stage(name, duration_ms, children=()):
    return {"name": name, "duration_ms": duration_ms, "children": list(children)}


def _report(stages, run_ms=None):
    if run_ms is None:
        run_ms = sum(s["duration_ms"] for s in stages)
    return {"runs": [{"duration_ms": run_ms, "stages": list(stages)}]}


class TestSelfTime:
    def test_self_time_subtracts_children(self):
        tree = _stage(
            "scheduling", 100.0,
            [_stage("calibration", 30.0), _stage("alap", 20.0)],
        )
        entries = dict(
            (path, self_ms) for path, self_ms, _total in stage_self_times(tree)
        )
        assert entries["scheduling"] == pytest.approx(50.0)
        assert entries["scheduling/calibration"] == pytest.approx(30.0)
        assert entries["scheduling/alap"] == pytest.approx(20.0)

    def test_self_time_clamps_at_zero(self):
        # Timer skew can make children sum past the parent; never negative.
        tree = _stage("fast", 1.0, [_stage("child", 5.0)])
        entries = {p: s for p, s, _t in stage_self_times(tree)}
        assert entries["fast"] == 0.0

    def test_paths_nest_with_slashes(self):
        tree = _stage("a", 9.0, [_stage("b", 6.0, [_stage("c", 3.0)])])
        paths = [p for p, _s, _t in stage_self_times(tree)]
        assert paths == ["a", "a/b", "a/b/c"]


class TestPowerLawFit:
    def test_linear_data_fits_slope_one(self):
        slope = fit_power_law([(1, 10.0), (2, 20.0), (4, 40.0)])
        assert slope == pytest.approx(1.0, abs=0.01)

    def test_quadratic_data_fits_slope_two(self):
        slope = fit_power_law([(1, 3.0), (2, 12.0), (4, 48.0), (8, 192.0)])
        assert slope == pytest.approx(2.0, abs=0.01)

    def test_constant_data_fits_slope_zero(self):
        slope = fit_power_law([(1, 5.0), (2, 5.0), (4, 5.0)])
        assert slope == pytest.approx(0.0, abs=0.01)

    def test_single_point_is_unfittable(self):
        assert fit_power_law([(2, 10.0)]) is None
        assert fit_power_law([(2, 10.0), (2, 12.0)]) is None  # same x

    def test_nonpositive_values_are_dropped(self):
        assert fit_power_law([(0, 1.0), (-1, 2.0)]) is None

    def test_subfloor_points_are_censored(self):
        # A 0.2 ms -> 2 ms transition is the timer becoming measurable,
        # not super-linear scaling: the sub-floor point must not steepen
        # the fit of the points that carry real signal.
        slope = fit_power_law([(2, 0.2), (4, 3.0), (8, 6.0)])
        assert slope == pytest.approx(1.0, abs=0.01)
        # All points censored -> unfittable, not a fabricated slope.
        assert fit_power_law([(2, 0.1), (4, 0.2), (8, 0.4)]) is None


class TestProfileReports:
    def _sweep(self):
        # quadratic stage grows with factor^2; linear with factor^1.
        return [
            (
                float(f),
                _report(
                    [
                        _stage("placement", 10.0 * f * f),
                        _stage("scheduling", 5.0 * f),
                    ]
                ),
            )
            for f in (1, 2, 4)
        ]

    def test_schema_and_ranking(self):
        doc = profile_reports(self._sweep(), top=5)
        assert doc["schema"] == PROFILE_SCHEMA
        paths = [spot["path"] for spot in doc["hotspots"]]
        assert paths[0] == "placement"  # 10+40+160 dominates
        assert "scheduling" in paths
        shares = [spot["share"] for spot in doc["hotspots"]]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)

    def test_superlinear_stage_is_flagged(self):
        doc = profile_reports(self._sweep())
        by_path = {spot["path"]: spot for spot in doc["hotspots"]}
        assert by_path["placement"]["slope"] == pytest.approx(2.0, abs=0.05)
        assert by_path["placement"]["superlinear"] is True
        assert by_path["scheduling"]["slope"] == pytest.approx(1.0, abs=0.05)
        assert by_path["scheduling"]["superlinear"] is False
        assert doc["superlinear_paths"] == ["placement"]
        assert doc["factors"] == [1.0, 2.0, 4.0]
        assert doc["slope_threshold"] == SUPERLINEAR_SLOPE

    def test_flow_overhead_is_accounted(self):
        report = _report([_stage("placement", 40.0)], run_ms=100.0)
        doc = profile_reports([(None, report)], top=10)
        by_path = {spot["path"]: spot for spot in doc["hotspots"]}
        assert by_path[FLOW_OVERHEAD_PATH]["self_ms"] == pytest.approx(60.0)

    def test_no_factor_profile_has_no_slopes(self):
        report = _report([_stage("placement", 40.0)])
        doc = profile_reports([(None, report)])
        assert "factors" not in doc
        assert all("slope" not in spot for spot in doc["hotspots"])

    def test_top_k_truncates(self):
        stages = [_stage(f"s{i}", float(100 - i)) for i in range(20)]
        doc = profile_reports([(None, _report(stages))], top=3)
        assert len(doc["hotspots"]) == 3
        assert doc["hotspots"][0]["path"] == "s0"

    def test_repeat_reduce_min_keeps_fastest_reading_per_path(self):
        # Three repeats at each factor; one repeat per factor is polluted
        # by a 50 ms collector pause on the placement span.  The min
        # reduction must recover the clean linear readings.
        reports = []
        for f in (2, 4, 8):
            for rep in range(3):
                noise = 50.0 if rep == 1 else 0.0
                reports.append(
                    (float(f), _report([_stage("placement", 10.0 * f + noise)]))
                )
        doc = profile_reports(reports)
        by_path = {spot["path"]: spot for spot in doc["hotspots"]}
        spot = by_path["placement"]
        assert spot["by_factor"] == {"2": 20.0, "4": 40.0, "8": 80.0}
        assert spot["self_ms"] == pytest.approx(140.0)  # sum of minima
        assert spot["slope"] == pytest.approx(1.0, abs=0.01)
        assert spot["superlinear"] is False

    def test_steep_subsignal_path_reports_slope_but_is_not_flagged(self):
        # A path whose top reading never outgrows the noise floor fits a
        # steep slope from floor-adjacent, high-relative-noise points; it
        # must not fail a run.  The same shape scaled up must be flagged.
        small = [
            (float(f), _report([_stage("wobble", 0.9 * f)])) for f in (2, 4, 8)
        ]
        doc = profile_reports(small, slope_threshold=0.5)
        spot = doc["hotspots"][0]
        assert spot["path"] == "wobble"
        assert max(spot["by_factor"].values()) < SUPERLINEAR_MIN_SIGNAL_MS
        assert spot["slope"] > 0.5
        assert spot["superlinear"] is False
        assert doc["superlinear_paths"] == []

        big = [
            (float(f), _report([_stage("wobble", 9.0 * f)])) for f in (2, 4, 8)
        ]
        doc = profile_reports(big, slope_threshold=0.5)
        assert doc["hotspots"][0]["superlinear"] is True

    def test_cache_replayed_children_do_not_count(self):
        # A replayed child carries zero live duration_ms (its original cost
        # sits in cached_duration_ms) — the parent keeps its full self time.
        tree = _stage(
            "rtl-gen", 30.0,
            [{"name": "emit", "duration_ms": 0.0, "cached_duration_ms": 25.0}],
        )
        doc = profile_reports([(None, _report([tree]))])
        by_path = {spot["path"]: spot for spot in doc["hotspots"]}
        assert by_path["rtl-gen"]["self_ms"] == pytest.approx(30.0)


class TestRender:
    def test_render_mentions_superlinear_paths(self):
        doc = profile_reports(
            [
                (float(f), _report([_stage("placement", 10.0 * f * f)]))
                for f in (1, 2, 4)
            ]
        )
        text = render_profile(doc)
        assert "SUPER-LINEAR" in text
        assert "placement" in text
        assert "sweep over factors 1, 2, 4" in text

    def test_render_plain_profile(self):
        doc = profile_reports([(None, _report([_stage("scheduling", 10.0)]))])
        text = render_profile(doc)
        assert "hot paths by self-time" in text
        assert "scheduling" in text
