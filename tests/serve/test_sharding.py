"""Consistent-hash ring + sharded engine tier."""

import pytest

from repro.engine.jobs import GammaJob
from repro.engine.queue import JobQueueFull
from repro.serve.sharding import ShardedEngine, ShardRing, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(("gamma", "Config1", 1.39)) == stable_hash(
            ("gamma", "Config1", 1.39)
        )

    def test_seed_changes_hash(self):
        key = ("gamma", "Config1", 1.39)
        assert stable_hash(key, seed=0) != stable_hash(key, seed=1)


class TestShardRing:
    def test_route_is_deterministic(self):
        a = ShardRing(["s0", "s1", "s2", "s3"])
        b = ShardRing(["s3", "s2", "s1", "s0"])  # order-insensitive
        keys = [("gamma", "Config1", v) for v in (0.1, 0.5, 1.39, 4.45)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_all_shards_reachable(self):
        ring = ShardRing(["s0", "s1", "s2", "s3"])
        hit = {ring.route(("key", i)) for i in range(200)}
        assert hit == {"s0", "s1", "s2", "s3"}

    def test_preference_order_starts_with_owner(self):
        ring = ShardRing(["s0", "s1", "s2"])
        key = ("key", 7)
        prefs = ring.preference(key)
        assert prefs[0] == ring.route(key)
        assert sorted(prefs) == ["s0", "s1", "s2"]

    def test_guards(self):
        with pytest.raises(ValueError):
            ShardRing([])
        with pytest.raises(ValueError):
            ShardRing(["s0", "s0"])


def _job(variance=1.39, n=256, seed=1):
    return GammaJob(config="Config1", variance=variance, n_samples=n, seed=seed)


class TestShardedEngine:
    def test_routes_by_batch_key_and_completes(self):
        with ShardedEngine(n_shards=3, n_workers=1, queue_depth=32) as tier:
            jobs = [_job(variance=v, seed=i) for i, v in enumerate(
                [0.35, 1.39, 4.45] * 8
            )]
            expected = [tier.route(j) for j in jobs]
            handles = [tier.submit(j) for j in jobs]
            results = [h.result(timeout=30) for h in handles]
        # same key -> same shard, deterministically
        by_key = {}
        for job, shard in zip(jobs, expected):
            assert by_key.setdefault(job.batch_key(), shard) == shard
        assert all(len(r.payload) == 256 for r in results)
        assert tier.metrics.counter("jobs_submitted").value == len(jobs)

    def test_worker_names_are_shard_scoped(self):
        tier = ShardedEngine(n_shards=2, n_workers=2)
        names = {
            w.name
            for shard in tier.shards.values()
            for w in shard.pool.workers
        }
        assert names == {"s0w0", "s0w1", "s1w0", "s1w1"}

    def test_spillover_on_full_primary(self):
        with ShardedEngine(n_shards=2, n_workers=1, spill=1) as tier:
            job = _job()
            primary = tier.route(job)

            def _full(job):
                raise JobQueueFull("simulated full queue")

            tier.shards[primary].submit = _full  # owner always sheds
            handle = tier.submit(job)  # must spill, not raise
            handle.result(timeout=30)
        assert tier.metrics.counter("reroutes_shed").value == 1
        assert tier.metrics.counter("jobs_spilled").value == 1

    def test_shed_when_all_candidates_full(self):
        with ShardedEngine(n_shards=2, n_workers=1, spill=1) as tier:
            def _full(job):
                raise JobQueueFull("simulated full queue")

            for shard in tier.shards.values():
                shard.submit = _full
            with pytest.raises(JobQueueFull):
                tier.submit(_job())
        assert tier.metrics.counter("jobs_shed").value == 1

    def test_stats_dict_aggregates(self):
        with ShardedEngine(n_shards=2, n_workers=1) as tier:
            handles = [tier.submit(_job(seed=i)) for i in range(10)]
            for h in handles:
                h.result(timeout=30)
        report = tier.stats_dict()
        assert report["n_shards"] == 2
        assert report["totals"]["jobs_completed"] == 10
        assert set(report["shards"]) == {"shard0", "shard1"}

    def test_unresolved_handles_zero_after_shutdown(self):
        with ShardedEngine(n_shards=2, n_workers=1) as tier:
            handles = [tier.submit(_job(seed=i)) for i in range(8)]
        assert tier.unresolved_handles(handles) == 0


class TestUnhealthySubmit:
    def test_all_candidates_unhealthy_touches_only_primary(self):
        """When every candidate shard is unhealthy the job goes to the
        primary owner alone — the condemned spillover shards are never
        probed within that submit."""
        with ShardedEngine(n_shards=3, n_workers=1, spill=2) as tier:
            job = _job()
            primary = tier.route(job)
            tier.shard_healthy = lambda name: False  # everything condemned
            attempted = []
            for name, shard in tier.shards.items():
                real = shard.submit
                def _recording(j, _name=name, _real=real):
                    attempted.append(_name)
                    return _real(j)
                shard.submit = _recording
            handle = tier.submit(job)
            handle.result(timeout=30)
        assert attempted == [primary]
        # the spillover candidates were skipped for breaker health
        assert tier.metrics.counter("reroutes_breaker").value == 2

    def test_breaker_skipped_shard_not_retried_as_spillover(self):
        """A shard skipped for health is out of the submit entirely: when
        the remaining healthy candidates all shed, the typed error
        propagates without ever touching the skipped shard."""
        with ShardedEngine(n_shards=3, n_workers=1, spill=2) as tier:
            job = _job()
            prefs = tier.ring.preference(job.batch_key())
            sick = prefs[1]  # a spillover candidate, not the primary
            real_healthy = ShardedEngine.shard_healthy
            tier.shard_healthy = (
                lambda name: name != sick and real_healthy(tier, name)
            )
            attempted = []

            def _full(j, _name=None):
                attempted.append(_name)
                raise JobQueueFull("simulated full queue")

            for name, shard in tier.shards.items():
                shard.submit = (
                    lambda j, _name=name: _full(j, _name)
                )
            with pytest.raises(JobQueueFull):
                tier.submit(job)
        assert sick not in attempted
        assert attempted == [prefs[0], prefs[2]]
        assert tier.metrics.counter("reroutes_breaker").value == 1
        assert tier.metrics.counter("jobs_shed").value == 1
