"""Unit tests for the labeled counter/gauge/histogram registry."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    q_error,
)


class TestInstruments:
    def test_counter_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("counters.matcher_calls")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("counters.x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("timings.analysis_seconds")
        gauge.set(1.5)
        gauge.add(0.5)
        assert gauge.value == 2.0

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("metrics.latency")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_empty_histogram_view(self):
        histogram = MetricsRegistry().histogram("metrics.latency")
        assert histogram.value_view() == {
            "count": 0,
            "sum": 0.0,
            "min": 0.0,
            "max": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }


class TestHistogramQuantiles:
    def test_exact_below_reservoir_capacity(self):
        histogram = MetricsRegistry().histogram("metrics.latency")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert histogram.quantile(0.5) == pytest.approx(50.5)
        assert histogram.quantile(0.95) == pytest.approx(95.05)
        assert histogram.quantile(0.99) == pytest.approx(99.01)

    def test_value_view_includes_quantile_keys(self):
        histogram = MetricsRegistry().histogram("metrics.latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        view = histogram.value_view()
        assert {"p50", "p95", "p99"} <= set(view)
        assert view["p50"] == pytest.approx(2.5)

    def test_quantile_validates_range(self):
        histogram = MetricsRegistry().histogram("metrics.latency")
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        histogram = MetricsRegistry().histogram("metrics.latency")
        assert histogram.quantile(0.5) == 0.0

    def test_reservoir_bounds_memory_and_stays_representative(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        histogram = MetricsRegistry().histogram("metrics.latency")
        for value in range(10 * RESERVOIR_SIZE):
            histogram.observe(float(value))
        assert len(histogram._reservoir) == RESERVOIR_SIZE
        assert histogram.count == 10 * RESERVOIR_SIZE
        # a uniform sample of U[0, N) keeps the median near N/2
        median = histogram.quantile(0.5)
        assert 0.3 * 10 * RESERVOIR_SIZE < median < 0.7 * 10 * RESERVOIR_SIZE

    def test_quantiles_deterministic_for_fixed_sequence(self):
        views = []
        for _ in range(2):
            histogram = MetricsRegistry().histogram("metrics.latency")
            for value in range(2000):
                histogram.observe(float(value % 97))
            views.append(histogram.value_view())
        assert views[0] == views[1]

    def test_merge_combines_reservoirs(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for value in (1.0, 2.0):
            a.histogram("metrics.latency").observe(value)
        for value in (9.0, 10.0):
            b.histogram("metrics.latency").observe(value)
        a.merge(b)
        merged = a.histogram("metrics.latency")
        assert merged.count == 4
        assert merged.quantile(0.0) == 1.0
        assert merged.quantile(1.0) == 10.0
        assert merged.quantile(0.5) == pytest.approx(5.5)

    def test_a_full_reservoir_skips_ahead_and_stays_representative(self):
        """Algorithm L over 100 reservoirs' worth of a rising stream: p50
        and p95 sit within four of the reservoir's own standard errors of
        the stream's, for several seeds, and the RNG is drawn from for
        kept samples only: a seventh as many draws as observations."""
        from repro.obs.metrics import RESERVOIR_SIZE

        total = 100 * RESERVOIR_SIZE
        for name in ("service.latency_ms", "metrics.a", "metrics.b", "metrics.c"):
            histogram = MetricsRegistry().histogram(name)
            draws = [0]
            rng = histogram._rng
            for method in ("random", "randrange"):
                def counting(*args, _call=getattr(rng, method)):
                    draws[0] += 1
                    return _call(*args)

                setattr(rng, method, counting)
            for value in range(total):
                histogram.observe(float(value))
            assert len(histogram._reservoir) == RESERVOIR_SIZE
            for q in (0.5, 0.95):
                error = (q * (1.0 - q) / RESERVOIR_SIZE) ** 0.5
                assert abs(histogram.quantile(q) / total - q) < 4.0 * error, (name, q)
            # about RESERVOIR_SIZE * ln(100) = 2,358 kept samples, three
            # draws each; one draw per observation would be 50,688
            assert draws[0] < total // 5

    def test_merge_weights_each_side_by_its_count(self):
        """100 ones into 100,000 zeros (and the other way round): the
        ones are 0.1 % of the stream, so the merged reservoir holds about
        half a slot of them, not a share of their own reservoir's size."""
        from repro.obs.metrics import RESERVOIR_SIZE

        for ones_into_zeros in (True, False):
            zeros, ones = MetricsRegistry(), MetricsRegistry()
            for _ in range(100_000):
                zeros.histogram("service.latency_ms").observe(0.0)
            for _ in range(100):
                ones.histogram("service.latency_ms").observe(1.0)
            into, other = (zeros, ones) if ones_into_zeros else (ones, zeros)
            into.merge(other)
            merged = into.histogram("service.latency_ms")
            assert merged.count == 100_100
            assert len(merged._reservoir) == RESERVOIR_SIZE
            assert sum(merged._reservoir) / RESERVOIR_SIZE < 0.02
            for value in range(1000):  # and it goes on sampling
                merged.observe(2.0)
            assert len(merged._reservoir) == RESERVOIR_SIZE


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("counters.a") is registry.counter("counters.a")
        assert len(registry) == 1

    def test_labels_address_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("counters.calls", engine="bitmask").inc()
        registry.counter("counters.calls", engine="legacy").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "calls{engine=bitmask}": 1.0,
            "calls{engine=legacy}": 2.0,
        }

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("counters.a")
        with pytest.raises(TypeError):
            registry.gauge("counters.a")

    def test_snapshot_nests_by_dotted_namespace(self):
        registry = MetricsRegistry()
        registry.gauge("timings.analysis_seconds").set(0.5)
        registry.counter("counters.matcher_calls").inc(3)
        registry.counter("bare_name").inc()
        snapshot = registry.snapshot()
        assert snapshot["timings"] == {"analysis_seconds": 0.5}
        assert snapshot["counters"] == {"matcher_calls": 3.0}
        assert snapshot["metrics"] == {"bare_name": 1.0}

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("counters.calls").inc(1)
        a.gauge("caches.memo_entries").set(10)
        a.histogram("metrics.latency").observe(1.0)
        b.counter("counters.calls").inc(2)
        b.gauge("caches.memo_entries").set(20)
        b.histogram("metrics.latency").observe(3.0)
        a.merge(b)
        assert a.counter("counters.calls").value == 3.0
        assert a.gauge("caches.memo_entries").value == 20.0
        merged = a.histogram("metrics.latency")
        assert merged.count == 2 and merged.min == 1.0 and merged.max == 3.0

    def test_iter_and_kinds(self):
        registry = MetricsRegistry()
        registry.counter("counters.a")
        registry.gauge("timings.b")
        registry.histogram("metrics.c")
        kinds = {type(instrument) for instrument in registry}
        assert kinds == {Counter, Gauge, HistogramMetric}

    def test_to_json_is_valid(self):
        registry = MetricsRegistry()
        registry.counter("counters.a", table="R").inc()
        payload = json.loads(registry.to_json())
        assert payload == {"counters": {"a{table=R}": 1.0}}


class TestQError:
    def test_identity_is_one(self):
        assert q_error(100.0, 100.0) == pytest.approx(1.0)

    def test_symmetric(self):
        assert q_error(10.0, 40.0) == q_error(40.0, 10.0)

    def test_zero_guarded(self):
        assert q_error(0.0, 0.0) == pytest.approx(1.0)
        assert q_error(0.0, 10.0) > 1e9
