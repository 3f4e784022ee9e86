"""Deterministic load replay: same seed, same trace, same simulation.

The acceptance property of the serving benchmark: every number in
``BENCH_serving.json`` is a pure function of the pinned seed.  These
tests pin each link of that chain — trace generation, JSON round-trip,
shard assignment, and the virtual-time simulation itself.
"""

import asyncio
import json

import pytest

from repro.serve.gateway import TenantPolicy
from repro.serve.loadgen import (
    TierSpec,
    TraceEvent,
    WorkloadSpec,
    generate_trace,
    job_from_event,
    offered_load_sweep,
    replay_trace,
    simulate_tier,
    trace_from_json,
    trace_to_json,
)

SPEC = WorkloadSpec(seed=11, n_jobs=400, rate_jps=2000.0,
                    deadline_s=0.05, deadline_fraction=0.3)
TIER = TierSpec(n_shards=4, workers_per_shard=2,
                tenant_policy=TenantPolicy(rate=150.0, burst=300.0))


class TestTraceDeterminism:
    def test_same_seed_identical_trace(self):
        a, b = generate_trace(SPEC), generate_trace(SPEC)
        assert a == b
        assert [e.t for e in a] == [e.t for e in b]
        assert [e.n_samples for e in a] == [e.n_samples for e in b]
        assert [e.tenant for e in a] == [e.tenant for e in b]

    def test_different_seed_different_trace(self):
        other = WorkloadSpec(**{**SPEC.__dict__, "seed": 12})
        assert generate_trace(SPEC) != generate_trace(other)

    def test_arrivals_increase_and_rate_is_honest(self):
        trace = generate_trace(SPEC)
        ts = [e.t for e in trace]
        assert ts == sorted(ts)
        observed_rate = len(trace) / ts[-1]
        # heavy-tailed gaps: the realized rate still tracks the spec
        assert observed_rate == pytest.approx(SPEC.rate_jps, rel=0.25)

    def test_heavy_tail_and_caps(self):
        trace = generate_trace(SPEC)
        sizes = [e.n_samples for e in trace]
        assert min(sizes) >= SPEC.size_min
        assert max(sizes) <= SPEC.size_cap
        assert max(sizes) > 4 * min(sizes)  # the tail is real

    def test_tenants_are_zipf_skewed(self):
        trace = generate_trace(SPEC)
        tenants = [e.tenant for e in trace]
        top = max(tenants.count(t) for t in set(tenants))
        assert top > len(trace) / 20  # a heavy hitter exists
        assert max(tenants) <= SPEC.n_users

    def test_per_event_seeds_unique(self):
        trace = generate_trace(SPEC)
        seeds = [e.seed for e in trace]
        assert len(set(seeds)) == len(seeds)


class TestTraceRoundTrip:
    def test_json_round_trip_exact(self):
        trace = generate_trace(SPEC)
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_json_is_plain_data(self):
        payload = json.loads(trace_to_json(generate_trace(SPEC)[:3]))
        assert isinstance(payload, list)
        assert set(payload[0]) == {
            "index", "t", "tenant", "config", "variance",
            "n_samples", "seed", "deadline_s",
        }

    def test_job_materialization_matches_event(self):
        event = generate_trace(SPEC)[0]
        job = job_from_event(event)
        assert job.batch_key() == event.batch_key()
        assert job.seed == event.seed
        assert job.n_samples == event.n_samples
        assert job.deadline_s == event.deadline_s


class TestSimulationDeterminism:
    def test_identical_reports(self):
        trace = generate_trace(SPEC)
        a = simulate_tier(trace, TIER)
        b = simulate_tier(trace, TIER)
        assert a == b

    def test_identical_through_json(self):
        # the whole chain: regenerate + round-trip the trace, re-simulate
        a = simulate_tier(generate_trace(SPEC), TIER)
        b = simulate_tier(
            trace_from_json(trace_to_json(generate_trace(SPEC))), TIER
        )
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_shard_assignment_stable(self):
        trace = generate_trace(SPEC)
        a = simulate_tier(trace, TIER)["assignment"]
        b = simulate_tier(trace, TIER)["assignment"]
        assert a == b
        # keyed on batch key: equal keys always land together
        by_key = {}
        for event, shard in zip(
            sorted(trace, key=lambda e: (e.t, e.index)), a
        ):
            assert by_key.setdefault(event.batch_key(), shard) == shard

    def test_accounting_balances(self):
        report = simulate_tier(generate_trace(SPEC), TIER)
        assert (
            report["completed"] + report["shed_total"]
            == report["offered_jobs"]
        )
        assert report["latency_s"]["p50"] <= report["latency_s"]["p99"]
        assert report["latency_s"]["p99"] <= report["latency_s"]["max"]


class TestOfferedLoadSweep:
    def test_monotone_pressure(self):
        steps = offered_load_sweep(SPEC, [0.25, 1.0, 8.0], TIER)
        assert [s["load_multiplier"] for s in steps] == [0.25, 1.0, 8.0]
        p99 = [s["latency_s"]["p99"] for s in steps]
        shed = [s["shed_rate"] for s in steps]
        assert p99[0] <= p99[-1]
        assert shed[0] <= shed[-1]

    def test_sweep_deterministic(self):
        a = offered_load_sweep(SPEC, [0.5, 2.0], TIER)
        b = offered_load_sweep(SPEC, [0.5, 2.0], TIER)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class _TimedGateway:
    """Fake gateway: job ``seed``'s future resolves after ``delays[seed]``.

    A delay of None leaves the future unresolved.
    """

    def __init__(self, delays):
        self.delays = delays

    async def submit(self, tenant, job):
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        delay = self.delays[job.seed]
        if delay is not None:
            loop.call_later(delay, future.set_result, job.seed)
        return future


def _events(n):
    return [
        TraceEvent(index=i, t=0.0, tenant=1, config="Config1",
                   variance=1.39, n_samples=64, seed=i, deadline_s=None)
        for i in range(n)
    ]


class TestWallClockReplay:
    def test_latency_is_stamped_at_resolution(self):
        # job 0 resolves at 200 ms, job 1 at 10 ms; job 1 must not be
        # stamped when the replay gets round to it after job 0
        out = replay_trace(_TimedGateway({0: 0.2, 1: 0.01}), _events(2))
        assert out["completed"] == 2
        assert out["unresolved"] == 0
        latency = out["latency_s"]
        job1 = latency["count"] * latency["mean"] - latency["max"]
        assert latency["max"] >= 0.2
        assert job1 < 0.1

    def test_unresolved_futures_are_reported_after_max_wait(self):
        out = replay_trace(
            _TimedGateway({0: 0.01, 1: None}), _events(2), max_wait_s=0.05
        )
        assert out["completed"] == 1
        assert out["unresolved"] == 1
        assert out["failed"] == 0
