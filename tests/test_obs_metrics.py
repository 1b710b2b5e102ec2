"""Bounded-reservoir histograms: exact aggregates, deterministic sampling.

The daemon observes a latency per job forever; the reservoir bounds memory
while ``count``/``sum``/``min``/``max`` stay exact and percentiles stay an
unbiased estimate of the stream.
"""

from __future__ import annotations

from repro.obs.metrics import (
    RESERVOIR_SIZE,
    Histogram,
    MetricsRegistry,
)


class TestReservoirBounds:
    def test_samples_never_exceed_limit(self):
        hist = Histogram()
        for value in range(RESERVOIR_SIZE * 5):
            hist.observe(float(value))
        assert len(hist.samples) == RESERVOIR_SIZE

    def test_aggregates_exact_past_the_bound(self):
        hist = Histogram()
        n = RESERVOIR_SIZE * 3
        for value in range(1, n + 1):
            hist.observe(value)
        assert hist.count == n
        assert hist.total == n * (n + 1) // 2
        assert hist.min_value == 1
        assert hist.max_value == n

    def test_below_bound_percentile_is_exact(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(100) == 100

    def test_reservoir_percentile_tracks_distribution(self):
        hist = Histogram()
        for value in range(1, RESERVOIR_SIZE * 10 + 1):
            hist.observe(value)
        # Uniform stream over [1, 10240]: the sampled median must land
        # near the true median (well within a quartile).
        true_median = RESERVOIR_SIZE * 5
        assert abs(hist.percentile(50) - true_median) < true_median / 2

    def test_identical_streams_build_identical_reservoirs(self):
        a, b = Histogram(), Histogram()
        for value in range(RESERVOIR_SIZE * 2):
            a.observe(value * 0.5)
            b.observe(value * 0.5)
        assert a.samples == b.samples  # fixed-seed RNG: replay-stable

    def test_legacy_samples_construction_adopts_stream(self):
        hist = Histogram(samples=[3.0, 1.0, 2.0])
        assert hist.count == 3
        assert hist.total == 6.0
        assert (hist.min_value, hist.max_value) == (1.0, 3.0)


class TestMerge:
    def test_merge_sums_exact_aggregates(self):
        a, b = Histogram(), Histogram()
        for value in (1.0, 2.0, 3.0):
            a.observe(value)
        for value in (10.0, 20.0):
            b.observe(value)
        a.merge_from(b)
        assert a.count == 5
        assert a.total == 36.0
        assert (a.min_value, a.max_value) == (1.0, 20.0)

    def test_merge_downsample_is_deterministic(self):
        def build():
            a, b = Histogram(), Histogram()
            for value in range(RESERVOIR_SIZE):
                a.observe(float(value))
                b.observe(float(value) + 0.5)
            a.merge_from(b)
            return a

        one, two = build(), build()
        assert one.samples == two.samples
        assert len(one.samples) == RESERVOIR_SIZE
        assert one.count == RESERVOIR_SIZE * 2

    def test_merge_empty_is_identity(self):
        a = Histogram()
        a.observe(7.0)
        before = (list(a.samples), a.count, a.total)
        a.merge_from(Histogram())
        assert (list(a.samples), a.count, a.total) == before


class TestStateDict:
    def test_round_trip_preserves_exact_aggregates(self):
        hist = Histogram()
        for value in range(RESERVOIR_SIZE * 2):
            hist.observe(float(value))
        clone = Histogram.from_state(hist.state_dict())
        assert clone.samples == hist.samples
        assert clone.count == hist.count
        assert clone.total == hist.total
        assert clone.min_value == hist.min_value
        assert clone.max_value == hist.max_value


class TestRegistry:
    def test_registry_merge_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("latency", 1.0)
        b.observe("latency", 3.0)
        merged = MetricsRegistry.merged([a, b])
        hist = merged.histograms["latency"]
        assert hist.count == 2
        assert hist.total == 4.0
