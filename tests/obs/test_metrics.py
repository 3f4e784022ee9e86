"""Counters, gauges, histograms and the registry."""

import random
import threading

import pytest

from repro.obs.metrics import (
    BoundedHistogram,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("jobs")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = Counter("jobs")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_thread_safety(self):
        c = Counter("jobs")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("occupancy")
        g.set(4.0)
        g.add(-1.5)
        assert g.value == 2.5


class TestHistogram:
    def test_observe_and_snapshot(self):
        h = Histogram("latency")
        h.observe(1.0)
        h.observe_many([2.0, 3.0])
        assert h.count == 3
        snap = h.snapshot()
        assert snap["count"] == 3.0
        assert snap["sum"] == 6.0
        assert snap["mean"] == 2.0

    def test_empty_snapshot(self):
        snap = Histogram("empty").snapshot()
        assert snap["count"] == 0.0
        assert snap["p95"] == 0.0


class TestBoundedHistogram:
    def test_count_sum_min_max_are_exact(self):
        h = BoundedHistogram("latency")
        values = [0.001, 0.5, 2.0, 0.003, 7.5]
        h.observe_many(values)
        snap = h.snapshot()
        assert snap["count"] == 5.0
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["mean"] == pytest.approx(sum(values) / 5)
        assert snap["max"] == 7.5

    def test_quantiles_within_the_bucket_error_bound(self):
        # quarter-octave buckets bound the relative error at ~half a
        # bucket width; check against the exact backend on a skewed
        # latency-like distribution
        rng = random.Random(7)
        values = [rng.lognormvariate(-5.0, 1.2) for _ in range(20_000)]
        exact = Histogram("e")
        bounded = BoundedHistogram("b")
        exact.observe_many(values)
        bounded.observe_many(values)
        es, bs = exact.snapshot(), bounded.snapshot()
        for q in ("p50", "p95", "p99"):
            assert bs[q] == pytest.approx(es[q], rel=0.10), q

    def test_memory_stays_flat_on_a_soak(self):
        # the exact histogram holds every observation; the bounded one
        # must hold only its fixed bucket array no matter the volume
        h = BoundedHistogram("soak")
        baseline_buckets = len(h._counts)
        rng = random.Random(3)
        for _ in range(100_000):
            h.observe(rng.expovariate(100.0))
        assert len(h._counts) == baseline_buckets
        assert h.count == 100_000
        assert len(h.buckets()) <= baseline_buckets

    def test_under_and_overflow_observations_kept(self):
        h = BoundedHistogram("x", lo=1e-3, hi=1e3)
        h.observe(0.0)       # underflow bucket
        h.observe(-1.0)      # negative → underflow
        h.observe(1e6)       # overflow bucket
        snap = h.snapshot()
        assert snap["count"] == 3.0
        assert snap["max"] == 1e6
        # quantiles clamp to the observed range, never a bucket edge
        assert -1.0 <= snap["p50"] <= 1e6

    def test_empty_snapshot(self):
        snap = BoundedHistogram("empty").snapshot()
        assert snap["count"] == 0.0
        assert snap["p99"] == 0.0

    def test_raw_values_are_gone(self):
        h = BoundedHistogram("x")
        h.observe(1.0)
        with pytest.raises(TypeError):
            h.values()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BoundedHistogram("x", lo=0.0)
        with pytest.raises(ValueError):
            BoundedHistogram("x", growth=1.0)


class TestMetricsRegistry:
    def test_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_is_plain_and_prefixed(self):
        reg = MetricsRegistry(prefix="engine.")
        reg.counter("jobs").inc(3)
        reg.gauge("inflight").set(2.0)
        reg.histogram("wait").observe(1.0)
        snap = reg.snapshot()
        assert snap["engine.jobs"] == 3
        assert snap["engine.inflight"] == 2.0
        assert snap["engine.wait"]["count"] == 1.0
        assert reg.names() == ["inflight", "jobs", "wait"]

    def test_bounded_backend_selection(self):
        reg = MetricsRegistry(bounded_histograms=True)
        assert isinstance(reg.histogram("h"), BoundedHistogram)
        # per-call override beats the registry default
        assert not isinstance(
            reg.histogram("exact", bounded=False), BoundedHistogram
        )
        exact_reg = MetricsRegistry()
        assert not isinstance(exact_reg.histogram("h"), BoundedHistogram)
        assert isinstance(
            exact_reg.histogram("b", bounded=True), BoundedHistogram
        )

    def test_first_creator_decides_the_backend(self):
        reg = MetricsRegistry()
        first = reg.histogram("h", bounded=True)
        # later callers share the instance regardless of their flag
        assert reg.histogram("h") is first
        assert reg.histogram("h", bounded=False) is first

    def test_serving_registries_default_to_bounded(self):
        """Gateway/tier/engine registries hold flat memory on soaks."""
        from repro.engine.engine import ExecutionEngine
        from repro.serve.gateway import AdmissionGateway
        from repro.serve.sharding import ShardedEngine

        tier = ShardedEngine(n_shards=1, n_workers=1)
        gateway = AdmissionGateway(tier)
        assert gateway.metrics.bounded_histograms
        assert tier.metrics.bounded_histograms
        engine = ExecutionEngine(n_workers=1)
        assert isinstance(
            engine.metrics.histogram("queue_wait_s"), BoundedHistogram
        )

    def test_engine_populates_metrics(self):
        """The execution engine feeds its registry during a run."""
        from repro.engine.bench import make_job_mix
        from repro.engine.engine import ExecutionEngine

        with ExecutionEngine(n_workers=1, max_batch=4) as engine:
            engine.run(make_job_mix(n_jobs=4, n_samples=64))
        snap = engine.metrics.snapshot()
        assert snap["engine.jobs_submitted"] == 4
        assert snap["engine.jobs_completed"] == 4
        assert snap["engine.batches"] >= 1
        assert snap["engine.queue_wait_s"]["count"] == 4.0
