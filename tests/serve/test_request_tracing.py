"""Trace propagation through the live tier and the virtual simulator.

The invariants under test, per the observability contract in
``docs/observability.md``:

* every admitted request's chain carries **exactly one terminal**
  event, even with multiple layers (engine funnel, sharding, gateway
  catch-all) all entitled to close it;
* parentage is linear and survives a retry that re-dispatches to a
  different worker;
* spillover reroutes and breaker skips appear as explicit shard-stage
  events in the rerouted request's own chain;
* the seeded virtual-time simulator exports byte-identical logs, and
  its always-on p99 exemplar ids match a traced re-run.
"""

import pytest

from repro.engine.engine import ExecutionEngine
from repro.engine.jobs import GammaJob
from repro.engine.queue import JobQueueFull
from repro.engine.resilience import FaultPlan, FaultRule, RetryPolicy
from repro.obs import RequestTraceLog, use_request_log
from repro.serve.gateway import AdmissionGateway, TenantPolicy
from repro.serve.loadgen import (
    TierSpec,
    WorkloadSpec,
    generate_trace,
    simulate_tier,
)
from repro.serve.sharding import ShardedEngine


def _job(seed=1, n=128, variance=1.39):
    return GammaJob(
        config="Config1", variance=variance, n_samples=n, seed=seed
    )


def _assert_single_terminal(events):
    terminals = [e for e in events if e.terminal]
    assert len(terminals) == 1, [
        (e.stage, e.kind, e.terminal) for e in events
    ]
    assert events[-1] is terminals[0]
    return terminals[0]


def _assert_linear_parentage(events):
    seen = set()
    for i, e in enumerate(events):
        if i == 0:
            assert e.parent_id is None
        else:
            assert e.parent_id in seen, (e.stage, e.kind)
        seen.add(e.span_id)


class TestLiveTier:
    def test_complete_chain_through_every_stage(self):
        log = RequestTraceLog()
        with use_request_log(log):
            with ShardedEngine(n_shards=2, n_workers=1) as tier:
                gateway = AdmissionGateway(tier)
                handles = [
                    gateway.admit_sync(f"tenant{i % 3}", _job(seed=i))
                    for i in range(12)
                ]
                for h in handles:
                    h.result(timeout=30)
        chains = log.chains()
        assert len(chains) == 12
        assert log.terminal_counts() == {"complete": 12}
        assert log.snapshot()["pending"] == 0
        for events in chains.values():
            terminal = _assert_single_terminal(events)
            assert terminal.kind == "complete"
            _assert_linear_parentage(events)
            stages = [e.stage for e in events]
            # gateway → shard routing → queue admission → queue wait →
            # batch formation → execute → resolution, in order
            for a, b in zip(
                ["gateway", "shard", "queue", "batch", "worker", "request"],
                ["shard", "queue", "batch", "worker", "request", None],
            ):
                assert a in stages
                if b is not None:
                    assert stages.index(a) < stages.index(b)

    def test_baggage_minted_at_the_gateway(self):
        log = RequestTraceLog()
        with use_request_log(log):
            with ShardedEngine(n_shards=1, n_workers=1) as tier:
                gateway = AdmissionGateway(tier)
                job = _job(seed=5)
                handle = gateway.admit_sync("acme", job)
                handle.result(timeout=30)
        assert job.trace.tenant == "acme"
        assert job.trace.batch_key == job.batch_key()

    def test_latency_exemplars_surface_in_stats(self):
        log = RequestTraceLog()
        with use_request_log(log):
            with ShardedEngine(n_shards=2, n_workers=1) as tier:
                gateway = AdmissionGateway(tier)
                handles = [
                    gateway.admit_sync("t", _job(seed=i)) for i in range(8)
                ]
                for h in handles:
                    h.result(timeout=30)
                report = tier.stats_dict()
        exemplars = report["latency_exemplars"]
        assert exemplars
        assert report["trace_sampling"] == 1.0
        chains = log.chains()
        for ex in exemplars:
            assert ex["trace_id"] in chains
            assert ex["total_s"] > 0
            assert ex["shard"] in report["shards"]

    def test_untraced_jobs_stay_untraced(self):
        # no log installed: the tier must not mint or emit anything
        with ShardedEngine(n_shards=1, n_workers=1) as tier:
            gateway = AdmissionGateway(tier)
            job = _job(seed=9)
            gateway.admit_sync("t", job).result(timeout=30)
        assert job.trace is None


class TestRetryParentage:
    def _run_killed_worker_scenario(self, attempt):
        log = RequestTraceLog()
        plan = FaultPlan([FaultRule(scope="worker", mode="kill", match="w0")])
        eng = ExecutionEngine(
            n_workers=2,
            max_batch=4,
            faults=plan,
            retry=RetryPolicy(max_attempts=3, base_s=0.01, jitter=0.0),
            breaker_config={"failure_threshold": 1, "cooldown_s": 30.0},
        )
        jobs = [_job(seed=i) for i in range(8)]
        for i, job in enumerate(jobs):
            job.trace = log.mint(("retry", attempt, i))
        with eng:
            eng.run(jobs, timeout=60.0)
        return log

    def test_retry_redispatch_keeps_the_chain(self):
        # kill w0 after its first batch: jobs retry onto w1; their
        # chains must show both execute attempts under one trace with
        # an explicit retry_scheduled hop between them.  Whether w0
        # gets a batch before w1 finishes everything is a thread-
        # scheduling race, so rerun the seeded scenario until the kill
        # actually bites; the chain invariants hold on every run.
        for attempt in range(10):
            log = self._run_killed_worker_scenario(attempt)
            chains = log.chains()
            assert len(chains) == 8
            retried = self._check_chains(chains)
            if retried:
                break
        assert retried > 0

    def _check_chains(self, chains):
        retried = 0
        for events in chains.values():
            terminal = _assert_single_terminal(events)
            assert terminal.kind == "complete"
            _assert_linear_parentage(events)
            executes = [e for e in events if e.kind == "execute"]
            if len(executes) > 1:
                retried += 1
                workers = [e.attrs["worker"] for e in executes]
                assert workers[0] != workers[-1]  # re-dispatched
                assert executes[0].attrs["attempt"] < executes[-1].attrs[
                    "attempt"
                ]
                assert any(e.kind == "retry_scheduled" for e in events)
                assert executes[-1].status == "ok"
                assert executes[0].status == "error"
        return retried

    def test_exhausted_retries_close_with_failed(self):
        log = RequestTraceLog(sample_rate=0.0)  # errors must survive 0%
        plan = FaultPlan([FaultRule(scope="batch", mode="fail")])
        eng = ExecutionEngine(
            n_workers=1,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, base_s=0.01, jitter=0.0),
            breaker_config={"failure_threshold": 100},
        )
        job = _job(seed=3)
        job.trace = log.mint("doomed")
        with eng:
            handle = eng.submit(job)
            with pytest.raises(Exception):
                handle.result(30.0)
        events = log.chains()[job.trace.trace_id]
        terminal = _assert_single_terminal(events)
        assert terminal.kind == "failed"
        assert terminal.status == "error"
        assert len([e for e in events if e.kind == "execute"]) == 2


class TestReroutes:
    def test_spillover_emits_spill_then_completes(self):
        log = RequestTraceLog()
        with ShardedEngine(n_shards=2, n_workers=1, spill=1) as tier:
            job = _job()
            job.trace = log.mint("spilled")
            primary = tier.route(job)

            def _full(job):
                raise JobQueueFull("simulated full queue")

            tier.shards[primary].submit = _full
            tier.submit(job).result(timeout=30)
        events = log.chains()[job.trace.trace_id]
        terminal = _assert_single_terminal(events)
        assert terminal.kind == "complete"
        spill = next(e for e in events if e.kind == "spill")
        assert spill.attrs["from_shard"] == primary
        assert spill.attrs["to_shard"] != primary
        assert spill.attrs["error"] == "JobQueueFull"
        route = next(e for e in events if e.kind == "route")
        assert events.index(route) < events.index(spill)

    def test_all_candidates_full_is_one_queue_full_terminal(self):
        # tier closes the chain; the gateway's catch-all then tries to
        # close it again — first-terminal-wins keeps the chain sane
        log = RequestTraceLog()
        with use_request_log(log):
            with ShardedEngine(n_shards=2, n_workers=1, spill=1) as tier:
                gateway = AdmissionGateway(tier)

                def _full(job):
                    raise JobQueueFull("simulated full queue")

                for shard in tier.shards.values():
                    shard.submit = _full
                with pytest.raises(JobQueueFull):
                    gateway.admit_sync("t", _job())
        [events] = log.chains().values()
        terminal = _assert_single_terminal(events)
        assert (terminal.stage, terminal.kind) == ("shard", "queue_full")
        assert log.snapshot()["duplicate_terminals"] == 1

    def test_breaker_skip_event(self):
        log = RequestTraceLog()
        with ShardedEngine(n_shards=2, n_workers=1, spill=1) as tier:
            job = _job()
            job.trace = log.mint("skipped")
            primary = tier.route(job)
            # force the primary unhealthy: every breaker refuses
            for breaker in tier.shards[primary].pool.breakers.values():
                breaker.can_admit = lambda: False
            tier.submit(job).result(timeout=30)
        events = log.chains()[job.trace.trace_id]
        skip = next(e for e in events if e.kind == "breaker_skip")
        assert skip.attrs["shard"] == primary
        route = next(e for e in events if e.kind == "route")
        assert route.attrs["shard"] != primary
        assert _assert_single_terminal(events).kind == "complete"

    def test_throttled_terminal_at_the_gateway(self):
        log = RequestTraceLog(sample_rate=0.0)
        with use_request_log(log):
            with ShardedEngine(n_shards=1, n_workers=1) as tier:
                gateway = AdmissionGateway(
                    tier,
                    default_policy=TenantPolicy(rate=1.0, burst=1.0),
                )
                gateway.admit_sync("t", _job(seed=1), now=0.0).result(
                    timeout=30
                )
                with pytest.raises(JobQueueFull):
                    gateway.admit_sync("t", _job(seed=2), now=0.0)
        # sheds survive 0% sampling; the throttled chain is two events
        throttled = [
            events
            for events in log.chains().values()
            if events[-1].kind == "throttled"
        ]
        assert len(throttled) == 1
        assert [e.kind for e in throttled[0]] == ["admit", "throttled"]


class TestVirtualSimulator:
    SPEC = WorkloadSpec(seed=77, n_jobs=300, rate_jps=2400.0)
    TIER = TierSpec(
        n_shards=2, workers_per_shard=1, queue_depth=8, max_batch=4,
        spill=1,
    )
    FAULTS = FaultPlan(
        [FaultRule(scope="batch", mode="fail", probability=0.15)], seed=7
    )

    def _run(self, rlog):
        trace = generate_trace(self.SPEC)
        return simulate_tier(trace, self.TIER, faults=self.FAULTS, rlog=rlog)

    def test_traced_export_is_deterministic(self):
        exports = []
        for _ in range(2):
            log = RequestTraceLog(seed=self.SPEC.seed)
            self._run(log)
            exports.append(log.to_json())
        assert exports[0] == exports[1]

    def test_every_request_resolves_exactly_once(self):
        log = RequestTraceLog(seed=self.SPEC.seed)
        report = self._run(log)
        snap = log.snapshot()
        assert snap["minted"] == self.SPEC.n_jobs
        assert snap["pending"] == 0
        assert snap["duplicate_terminals"] == 0
        assert sum(snap["terminals"].values()) == self.SPEC.n_jobs
        assert report["retries"] > 0 and report["spilled"] > 0
        for events in log.chains().values():
            _assert_single_terminal(events)
            _assert_linear_parentage(events)

    def test_untraced_exemplar_ids_match_a_traced_rerun(self):
        # the always-on p99 exemplars derive trace ids without a log in
        # hand; they must name the same chains a default-seed traced
        # run (what `--trace-requests` installs) commits
        untraced = self._run(None)
        log = RequestTraceLog()
        traced = self._run(log)
        assert untraced["p99_exemplars"] == traced["p99_exemplars"]
        chains = log.chains()
        for ex in untraced["p99_exemplars"]:
            events = chains[ex["trace_id"]]
            terminal = _assert_single_terminal(events)
            assert terminal.kind == "complete"
            assert terminal.attrs["latency_s"] == pytest.approx(
                ex["latency_s"]
            )

    def test_retry_and_spill_hops_visible_in_chains(self):
        log = RequestTraceLog(seed=self.SPEC.seed)
        self._run(log)
        kinds = {
            e.kind for events in log.chains().values() for e in events
        }
        assert {"admit", "route", "enqueue", "wait", "batch",
                "execute", "complete"} <= kinds
        assert "retry_scheduled" in kinds
        assert "spill" in kinds
