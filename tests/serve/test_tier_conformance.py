"""The virtual tier answers to the live one.

Every recorded serving number comes from the virtual-time tier
(:func:`repro.serve.loadgen.simulate_tier`).  Both tiers schedule each
shard with one :class:`~repro.engine.ShardCore` (batches form with
:func:`repro.engine.queue.take_batch` when a worker takes them), price
batches with :func:`repro.engine.pool.batch_service_seconds` and inject
faults through one :class:`~repro.engine.FaultPlan`, retried under the
default ``RetryPolicy`` with one default ``CircuitBreaker`` per worker;
these tests pin that the two then agree on the same seeded traffic:

* (a) the batch rule: the same queued jobs, about 30 % of them already
  expired, form the same batch sequence and shed the same jobs; and
  jobs that arrive while a ``latency`` fault holds every worker join
  the same batches in both tiers;
* (b) routing and outcome: at low load every job lands on the same
  shard and completes in both tiers;
* (c) billing: on (a)'s queues, with and without a fault plan, each
  virtual attempt holds its worker for the seconds a live
  :class:`~repro.engine.DeviceWorker` with the same plan bills the same
  jobs at the same attempt (0 for a failed one), and the shard's device
  time sums to that worker's clock;
* (d) faults: under a plan with batch- and job-scope failures, a live
  one-shard, three-worker tier and the virtual one end every job in the
  same terminal class and retry the same number of jobs (marker
  ``chaos``);
* (e) the virtual fault semantics the live pool implies: a retry avoids
  every worker that already failed it and waits out its backoff without
  holding a worker, a breaker fences a killed worker, ``latency`` and
  ``wedge`` hold the worker without billing the device, and a run never
  changes the caller's plan.
"""

import dataclasses
import time

import pytest

from repro.engine import (
    Batch,
    CircuitBreaker,
    DeviceWorker,
    EngineError,
    ExecutionEngine,
    FaultPlan,
    FaultRule,
    InjectedFault,
)
from repro.obs import RequestTraceLog
from repro.obs.rtrace import derive_trace_id
from repro.serve import (
    ShardedEngine,
    TenantPolicy,
    TierSpec,
    TraceEvent,
    WorkloadSpec,
    default_serve_chaos_plan,
    generate_trace,
    job_from_event,
    simulate_tier,
)

MAX_BATCH = 4
#: no tenant of a seeded trace is ever throttled
OPEN_POLICY = TenantPolicy(rate=1000.0, burst=1000.0)


def _queued_trace(seed: int, n_events: int = 120) -> list:
    """``n_events`` over 2 configs x 3 variances, ~30 % already expired.

    Every event arrives at ``t=0``, so all of them are queued before the
    first batch forms, and an expired one carries ``deadline_s=0``: it
    is expired at any service start, on either clock.
    """
    spec = WorkloadSpec(
        seed=seed, n_jobs=n_events, size_min=2048, size_cap=16384,
        configs=("Config1", "Config2"), variances=(0.35, 1.39, 4.45),
        deadline_s=0.0, deadline_fraction=0.3,
    )
    return [dataclasses.replace(e, t=0.0) for e in generate_trace(spec)]


def _recording(worker, index, batches):
    """Wrap ``worker.execute`` to record each batch's event indices."""
    execute = worker.execute

    def recorded(batch):
        batches.append([index[job.job_id] for job in batch.jobs])
        return execute(batch)

    worker.execute = recorded


def _live_batches(trace):
    """Batch sequence and shed set of a live one-worker engine whose
    worker takes its batches from the filled, closed queue."""
    engine = ExecutionEngine(
        n_workers=1, queue_depth=len(trace), max_batch=MAX_BATCH
    )
    index = {}
    past = time.monotonic() - 1.0
    for event in trace:
        job = job_from_event(event)
        if event.deadline_s is not None:
            job.deadline_at = past
        index[job.job_id] = event.index
        engine.queue.put(job)
    engine.queue.close()
    batches, shed = [], []
    engine._expire_job = lambda job: shed.append(index[job.job_id])
    _recording(engine.pool.workers[0], index, batches)
    engine.start()
    engine.pool.join(60.0)  # the worker ends once the queue is empty
    engine.shutdown()
    return batches, sorted(shed)


def _fail_plan(seed: int) -> FaultPlan:
    """Batch- and job-scope failures on every worker."""
    return FaultPlan(
        [
            FaultRule(scope="batch", mode="fail", probability=0.2),
            FaultRule(scope="job", mode="fail", probability=0.1),
        ],
        seed=seed,
    )


def _virtual_run(trace, workers=1, faults=None, max_batch=MAX_BATCH):
    """One-shard virtual run: the report and each event's span chain."""
    log = RequestTraceLog()
    tier = TierSpec(
        n_shards=1, workers_per_shard=workers, queue_depth=len(trace),
        max_batch=max_batch, tenant_policy=OPEN_POLICY,
    )
    report = simulate_tier(trace, tier, faults=faults, rlog=log)
    assert report["shed_throttled"] == report["shed_queue_full"] == 0
    event_of = {
        derive_trace_id(log.seed, ("", e.index)): e.index for e in trace
    }
    chains = {
        event_of[trace_id]: spans for trace_id, spans in log.chains().items()
    }
    return report, chains


def _virtual_batches(trace, **run):
    """The same, read from the virtual tier's request-trace spans."""
    _, chains = _virtual_run(trace, **run)
    members: dict[int, list[int]] = {}
    shed = []
    for index, spans in chains.items():
        for span in spans:
            if span.kind == "batch":
                members.setdefault(span.attrs["batch_id"], []).append(index)
        if spans[-1].kind == "deadline":
            shed.append(index)
    batches = [sorted(members[batch_id]) for batch_id in sorted(members)]
    return batches, sorted(shed)


@pytest.mark.parametrize("seed", range(12))
def test_batch_rule_matches_live_and_virtual(seed):
    trace = _queued_trace(seed)
    expired = sorted(e.index for e in trace if e.deadline_s is not None)
    live_batches, live_shed = _live_batches(trace)
    virtual_batches, virtual_shed = _virtual_batches(trace)
    assert live_batches == virtual_batches
    assert live_shed == virtual_shed == expired


#: every batch holds its worker this long: the arrivals below fall
#: well inside a hold, so host jitter cannot reorder them
HOLD_S = 0.2
ARRIVALS = {
    # one worker: job 0 holds it while 1-3 arrive, keys k1, k2, k1;
    # the batch forms when the worker frees, so 3 joins 1
    "one worker": (1, [(0.0, 0.35), (0.05, 1.39), (0.06, 0.35), (0.07, 1.39)]),
    # two workers, both held while 2-5 arrive over both keys
    "two workers": (2, [
        (0.0, 0.35), (0.01, 1.39), (0.05, 0.35), (0.06, 1.39),
        (0.07, 0.35), (0.08, 1.39),
    ]),
}


@pytest.mark.parametrize("shape", sorted(ARRIVALS))
def test_arrivals_join_the_batch_a_freed_worker_forms(shape):
    workers, arrivals = ARRIVALS[shape]
    trace = [
        TraceEvent(
            index=i, t=t, tenant=1, config="Config1", variance=variance,
            n_samples=2048, seed=i,
        )
        for i, (t, variance) in enumerate(arrivals)
    ]
    plan = FaultPlan(
        [FaultRule(scope="batch", mode="latency", latency_s=HOLD_S)]
    )
    virtual, _ = _virtual_batches(trace, workers=workers, faults=plan)
    live, index = [], {}
    with ShardedEngine(
        n_shards=1, n_workers=workers, queue_depth=len(trace),
        max_batch=MAX_BATCH, faults=plan,
    ) as tier:
        for worker in tier.shards["shard0"].pool.workers:
            _recording(worker, index, live)
        t0 = time.monotonic()
        handles = []
        for event in trace:
            time.sleep(max(0.0, t0 + event.t - time.monotonic()))
            job = job_from_event(event)
            index[job.job_id] = event.index
            handles.append(tier.submit(job))
        for handle in handles:
            handle.result(timeout=30.0)
    assert sorted(sorted(b) for b in live) == sorted(virtual)
    if shape == "one worker":
        assert virtual == [[0], [1, 3], [2]]


def _execute_spans(chains, worker=None):
    """Each execute span with the event index it belongs to."""
    return [
        (index, span)
        for index, spans in chains.items()
        for span in spans
        if span.kind == "execute"
        and worker in (None, span.attrs["worker"])
    ]


@pytest.mark.parametrize("seed", range(12))
def test_virtual_batches_bill_what_a_live_worker_bills(seed):
    trace = _queued_trace(seed)
    for plan in (None, _fail_plan(seed)):
        report, chains = _virtual_run(trace, faults=plan)
        attempts: dict[int, tuple[float, int, list[int]]] = {}
        for index, span in _execute_spans(chains):
            attempts.setdefault(
                span.attrs["batch_id"], (span.dur, span.attrs["attempt"], [])
            )[2].append(index)
        worker = DeviceWorker("live")
        worker.fault_plan = plan
        for batch_id in sorted(attempts):
            service, attempt, members = attempts[batch_id]
            batch = Batch(
                jobs=[job_from_event(trace[i]) for i in sorted(members)],
                attempt=attempt,
            )
            try:
                billed = worker.execute(batch).batch_device_seconds
            except InjectedFault:
                billed = 0.0  # a failed attempt fails before compute
            # the live clock adds (t0 + kernel) + read, the shard kernel + read
            assert service == pytest.approx(billed, rel=1e-9)
        assert report["device_busy_s"] == pytest.approx(
            worker.device_busy_s, rel=1e-9
        )
        assert plan is None or report["retries"] > 0


def test_virtual_retry_avoids_every_worker_that_failed_it():
    plan = FaultPlan([FaultRule(scope="batch", mode="fail", probability=0.5)])
    retried = 0
    for seed in range(12):
        trace = _queued_trace(seed, n_events=60)
        report, chains = _virtual_run(trace, workers=3, faults=plan)
        retried += report["retries"]
        for spans in chains.values():
            workers = [s.attrs["worker"] for s in spans if s.kind == "execute"]
            assert len(workers) == len(set(workers)), workers
    assert retried > 0


def test_a_retry_waits_out_its_backoff_without_holding_a_worker():
    # two batch keys queued at t=0 on one worker, every attempt fails:
    # the second batch runs while the first one's retry backs off
    trace = [
        TraceEvent(
            index=i, t=0.0, tenant=1, config="Config1", variance=variance,
            n_samples=2048, seed=i,
        )
        for i, variance in enumerate((0.35, 1.39))
    ]
    _, chains = _virtual_run(
        trace, faults=FaultPlan([FaultRule(scope="batch", mode="fail")])
    )
    starts = {
        index: [s.t for s in spans if s.kind == "execute"]
        for index, spans in chains.items()
    }
    assert starts[1][0] < starts[0][1]


def test_a_breaker_fences_a_killed_worker():
    # about 5 s of traffic, so several breaker cooldowns elapse
    trace = generate_trace(
        WorkloadSpec(n_jobs=200, rate_jps=40.0, size_min=2048, size_cap=16384)
    )
    plan = FaultPlan(
        [FaultRule(scope="worker", mode="kill", match="s0w1", after_batches=1)]
    )
    report, chains = _virtual_run(trace, workers=3, faults=plan)
    assert report["completed"] == len(trace)
    on_killed = {
        span.attrs["batch_id"]: span
        for _, span in _execute_spans(chains, worker="s0w1")
    }
    assert sum(s.status == "ok" for s in on_killed.values()) == 1
    failed = sorted(s.t for s in on_killed.values() if s.status == "error")
    # the breaker opens at its failure_threshold-th failure; every later
    # failure is a half-open probe, one per elapsed cooldown
    breaker = CircuitBreaker()
    opened = breaker.failure_threshold - 1
    assert len(failed) > breaker.failure_threshold
    for before, after in zip(failed[opened:], failed[opened + 1:]):
        assert after - before >= breaker.cooldown_s


@pytest.mark.parametrize(
    "rule, hold_s",
    [
        (FaultRule(scope="batch", mode="latency", latency_s=0.01), 0.01),
        (FaultRule(scope="batch", mode="wedge", wedge_s=0.02), 0.02),
    ],
    ids=["latency", "wedge"],
)
def test_latency_and_wedge_hold_the_worker_without_billing(rule, hold_s):
    trace = _queued_trace(0)
    base, base_chains = _virtual_run(trace)
    held, held_chains = _virtual_run(trace, faults=FaultPlan([rule]))

    def durations(chains):
        return {
            (index, span.attrs["batch_id"]): span.dur
            for index, span in _execute_spans(chains)
        }

    base_dur, held_dur = durations(base_chains), durations(held_chains)
    assert base_dur.keys() == held_dur.keys()
    for key, dur in base_dur.items():
        assert held_dur[key] == pytest.approx(dur + hold_s)
    assert held["device_busy_s"] == base["device_busy_s"]


def test_one_plan_replays_and_stays_untouched():
    trace = generate_trace(WorkloadSpec(n_jobs=200, rate_jps=2000.0))
    plan = default_serve_chaos_plan()
    tier = TierSpec(n_shards=2, workers_per_shard=2)
    first = simulate_tier(trace, tier, faults=plan)
    assert first["retries"] > 0
    assert simulate_tier(trace, tier, faults=plan) == first
    assert set(plan.injected.values()) == {0}


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(12))
def test_fault_outcomes_match_live_and_virtual(seed):
    # max_batch=1: batch membership cannot depend on live thread timing
    trace = generate_trace(
        WorkloadSpec(
            seed=seed, n_jobs=40, rate_jps=400.0, size_min=2048,
            size_cap=16384,
        )
    )
    plan = _fail_plan(seed)
    report, chains = _virtual_run(trace, workers=3, faults=plan, max_batch=1)
    virtual = {index: spans[-1].kind for index, spans in chains.items()}
    live = {}
    with ShardedEngine(
        n_shards=1, n_workers=3, queue_depth=len(trace), max_batch=1,
        faults=plan,
    ) as tier:
        handles = {e.index: tier.submit(job_from_event(e)) for e in trace}
        for index, handle in handles.items():
            try:
                handle.result(timeout=60.0)
                live[index] = "complete"
            except EngineError:
                live[index] = "failed"
        live_retries = tier.stats_dict()["totals"]["retries"]
    assert live == virtual
    assert live_retries == report["retries"] > 0


def test_routing_and_outcome_match_live_and_virtual():
    trace = generate_trace(
        WorkloadSpec(n_jobs=48, rate_jps=50.0, size_min=2048, size_cap=4096)
    )
    virtual = simulate_tier(
        trace,
        TierSpec(n_shards=2, workers_per_shard=2, tenant_policy=OPEN_POLICY),
    )
    assert virtual["completed"] == len(trace)
    # 48 jobs never fill a 64-deep shard queue, so nothing spills
    with ShardedEngine(n_shards=2, n_workers=2, queue_depth=64) as tier:
        handles = [tier.submit(job_from_event(e)) for e in trace]
        results = [handle.result(timeout=60.0) for handle in handles]
        assert tier.metrics.snapshot().get("tier.jobs_spilled", 0) == 0
    # worker "s1w0" is shard1's first worker
    shards = [f"shard{r.worker[1:].split('w')[0]}" for r in results]
    assert shards == virtual["assignment"]
