"""Admission gateway: token buckets, pre-shedding, asyncio bridge."""

import asyncio
import sys
import threading

import pytest

from repro.engine.engine import ExecutionEngine
from repro.engine.jobs import GammaJob
from repro.engine.resilience import JobDeadlineExceeded
from repro.serve.gateway import (
    AdmissionGateway,
    ServiceEstimate,
    TenantPolicy,
    TenantThrottled,
    TokenBucket,
)
from repro.engine.queue import JobQueueFull
from repro.serve.loadgen import WorkloadSpec, generate_trace, job_from_event


def _job(seed=1, n=256, deadline_s=None):
    return GammaJob(
        config="Config1", n_samples=n, seed=seed, deadline_s=deadline_s
    )


class TestTokenBucket:
    def test_burst_then_dry(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert all(bucket.try_acquire(now=0.0) for _ in range(3))
        assert not bucket.try_acquire(now=0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        assert bucket.try_acquire(now=0.0)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.0)
        # half a second refills one token at 2/s
        assert bucket.try_acquire(now=0.5)
        assert not bucket.try_acquire(now=0.5)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        bucket.try_acquire(now=0.0)
        assert bucket.available(now=1000.0) == pytest.approx(2.0)

    def test_virtual_clock_is_pure(self):
        a = TokenBucket(rate=5.0, burst=10)
        b = TokenBucket(rate=5.0, burst=10)
        times = [0.0, 0.01, 0.02, 0.5, 0.5, 0.6, 2.0]
        assert [a.try_acquire(now=t) for t in times] == [
            b.try_acquire(now=t) for t in times
        ]

    def test_guards(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestServiceEstimate:
    def test_first_observation_seeds_estimate(self):
        est = ServiceEstimate(alpha=0.5)
        est.observe(2.0)
        assert est.value == pytest.approx(2.0)

    def test_ewma_converges(self):
        est = ServiceEstimate(alpha=0.5)
        est.observe(2.0)
        est.observe(4.0)
        assert est.value == pytest.approx(3.0)


class _RecordingTier:
    """Captures submits; hands back inert handles (no engine involved)."""

    def __init__(self):
        self.submitted = []

    def submit(self, job):
        from repro.engine.engine import JobHandle

        self.submitted.append(job)
        return JobHandle(job)


class TestAdmissionSync:
    def test_throttles_over_contract(self):
        tier = _RecordingTier()
        gw = AdmissionGateway(
            tier, default_policy=TenantPolicy(rate=1.0, burst=2.0)
        )
        gw.admit_sync("t1", _job(seed=1), now=0.0)
        gw.admit_sync("t1", _job(seed=2), now=0.0)
        with pytest.raises(TenantThrottled):
            gw.admit_sync("t1", _job(seed=3), now=0.0)
        # TenantThrottled IS a JobQueueFull: one except clause catches both
        assert issubclass(TenantThrottled, JobQueueFull)
        # other tenants have their own bucket
        gw.admit_sync("t2", _job(seed=4), now=0.0)
        assert gw.metrics.counter("tenant_throttled").value == 1

    def test_per_tenant_policy_override(self):
        tier = _RecordingTier()
        gw = AdmissionGateway(
            tier,
            default_policy=TenantPolicy(rate=1.0, burst=1.0),
            policies={"vip": TenantPolicy(rate=100.0, burst=10.0)},
        )
        for i in range(5):
            gw.admit_sync("vip", _job(seed=i), now=0.0)
        with pytest.raises(TenantThrottled):
            gw.admit_sync("small", _job(seed=9), now=0.0)
            gw.admit_sync("small", _job(seed=10), now=0.0)

    def test_deadline_preshed_needs_evidence(self):
        tier = _RecordingTier()
        gw = AdmissionGateway(tier, deadline_headroom=1.0)
        # no completions yet: the gateway has no opinion, job passes
        gw.admit_sync("t", _job(seed=1, deadline_s=0.001), now=0.0)
        gw.estimate.observe(10.0)  # service far beyond any budget
        with pytest.raises(JobDeadlineExceeded):
            gw.admit_sync("t", _job(seed=2, deadline_s=0.001), now=1.0)
        assert gw.metrics.counter("deadline_preshed").value == 1
        # jobs without a deadline never pre-shed
        gw.admit_sync("t", _job(seed=3), now=2.0)


class TestTenantMap:
    """Full buckets leave the map; admission does not change."""

    def test_same_decisions_as_an_unbounded_map(self):
        # Zipf tenants at 2,000 jobs/s against 5 jobs/s per tenant: the
        # heavy hitters are throttled, the long tail is not
        events = generate_trace(
            WorkloadSpec(seed=11, n_jobs=40_000, rate_jps=2000.0, size_min=256)
        )
        policy = TenantPolicy(rate=5.0, burst=3.0)
        gw = AdmissionGateway(
            _RecordingTier(), default_policy=policy, deadline_headroom=0.0
        )
        unbounded: dict = {}
        decisions, expected, peaks = [], [], [0, 0]
        for i, event in enumerate(events):
            try:
                gw.admit_sync(event.tenant, job_from_event(event), now=event.t)
                decisions.append(True)
            except TenantThrottled:
                decisions.append(False)
            bucket = unbounded.setdefault(
                event.tenant, TokenBucket(policy.rate, policy.burst)
            )
            expected.append(bucket.try_acquire(now=event.t))
            half = 2 * i // len(events)
            peaks[half] = max(peaks[half], len(gw._buckets))
        assert decisions == expected
        assert 0.2 < decisions.count(False) / len(events) < 0.9
        # the map follows the tenants active within a refill time, not
        # every tenant seen: it does not grow over the second half
        assert peaks[1] <= 1.25 * peaks[0]
        assert max(peaks) < len(unbounded) / 8
        snap = gw.snapshot()
        assert snap["gateway.live_tenant_buckets"] == len(gw._buckets)
        assert snap["gateway.tenant_throttled"] == decisions.count(False)

    def test_concurrent_admissions_never_double_a_burst(self):
        # every round starts one refill later, so each bucket is full
        # again: old tenants are spent afresh while each round's new
        # tenants grow the map and sweep those not yet spent.  Every
        # tenant gets exactly one burst per round, so no admission ran
        # on a bucket that a sweep had dropped
        gw = AdmissionGateway(
            _RecordingTier(),
            default_policy=TenantPolicy(rate=1.0, burst=3.0),
            deadline_headroom=0.0,
        )
        old = [f"old{i}" for i in range(64)]
        counts: dict = {}
        counts_lock = threading.Lock()

        def hammer(tenants, now):
            for _ in range(4):
                for tenant in tenants:
                    try:
                        gw.admit_sync(tenant, _job(), now=now)
                    except TenantThrottled:
                        continue
                    with counts_lock:
                        counts[now, tenant] = counts.get((now, tenant), 0) + 1

        expected = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(24):
                now = 100.0 * r
                new = [[f"new{r}.{k}.{i}" for i in range(32)] for k in range(4)]
                threads = [
                    threading.Thread(target=hammer, args=(group, now))
                    for group in [old] * 4 + new
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                expected.update(
                    {(now, t): 3 for t in old + [t for g in new for t in g]}
                )
        finally:
            sys.setswitchinterval(interval)
        assert counts == expected
        # a sweep keeps at most one round's spent buckets, and the map
        # grows to twice that before the next
        assert len(gw._buckets) <= 2 * (len(old) + 4 * 32) + 1


class TestAsyncBridge:
    def test_submit_and_await_result(self):
        async def scenario():
            with ExecutionEngine(n_workers=1) as engine:
                gw = AdmissionGateway(engine)
                future = await gw.submit("tenant", _job(seed=5))
                result = await asyncio.wait_for(future, timeout=30)
                return result

        result = asyncio.run(scenario())
        assert len(result.payload) == 256

    def test_await_reraises_typed_error(self):
        from repro.engine.resilience import FaultPlan, FaultRule, WorkerFault

        plan = FaultPlan(
            rules=[FaultRule(scope="job", mode="fail", probability=1.0)],
            seed=6,
        )

        async def scenario():
            with ExecutionEngine(n_workers=1, faults=plan) as engine:
                gw = AdmissionGateway(engine)
                future = await gw.submit("tenant", _job(seed=6))
                with pytest.raises(WorkerFault):
                    await asyncio.wait_for(future, timeout=30)

        asyncio.run(scenario())

    def test_completion_feeds_estimate(self):
        async def scenario():
            with ExecutionEngine(n_workers=1) as engine:
                gw = AdmissionGateway(engine)
                futures = [
                    await gw.submit("tenant", _job(seed=i)) for i in range(4)
                ]
                await asyncio.gather(*futures)
                return gw

        gw = asyncio.run(scenario())
        assert gw.estimate.count == 4
        assert gw.estimate.value > 0.0
        snap = gw.snapshot()
        assert snap["gateway.completed"] == 4
        assert snap["gateway.live_tenant_buckets"] == 1
