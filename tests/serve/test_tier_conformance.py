"""The virtual tier answers to the live one.

Every recorded serving number comes from the virtual-time tier
(:func:`repro.serve.loadgen.simulate_tier`).  Both tiers form batches
with :func:`repro.engine.queue.take_batch` and price them with
:func:`repro.engine.pool.batch_service_seconds`; these tests pin that
the two then agree on the same seeded traffic:

* (a) the batch rule: the same queued jobs, about 30 % of them already
  expired, form the same batch sequence and shed the same jobs;
* (b) routing and outcome: at low load every job lands on the same
  shard and completes in both tiers;
* (c) billing: on (a)'s queues each virtual batch holds its worker for
  the seconds a live :class:`~repro.engine.DeviceWorker` bills the same
  jobs, and the shard's device time sums to that worker's clock;
* (d) retry placement: a virtual retry avoids every worker that already
  failed the batch, as the live pool's ``Batch.avoid`` does.

Fault injection is still mirrored by hand (``VirtualChaos`` against
``FaultPlan``, see ``docs/serving.md``), so (d) checks placement only,
and no live fault plan runs here.
"""

import dataclasses
import time

import pytest

from repro.engine import Batch, Batcher, BoundedJobQueue, DeviceWorker
from repro.obs import RequestTraceLog
from repro.obs.rtrace import derive_trace_id
from repro.serve import (
    ShardedEngine,
    TenantPolicy,
    TierSpec,
    VirtualChaos,
    WorkloadSpec,
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


def _live_batches(trace):
    """Batch sequence and shed set of the live queue + batcher."""
    queue = BoundedJobQueue(depth=len(trace))
    index = {}
    past = time.monotonic() - 1.0
    for event in trace:
        job = job_from_event(event)
        if event.deadline_s is not None:
            job.deadline_at = past
        index[job.job_id] = event.index
        queue.put(job)
    queue.close()
    shed = []
    batcher = Batcher(queue, max_batch=MAX_BATCH, on_expired=shed.append)
    batches = []
    while len(queue):
        batch = batcher.next_batch(timeout=0.0)
        if batch is not None:
            batches.append([index[job.job_id] for job in batch.jobs])
    return batches, sorted(index[job.job_id] for job in shed)


def _virtual_run(trace, workers=1, chaos=None):
    """One-shard virtual run: the report and each event's span chain."""
    log = RequestTraceLog()
    tier = TierSpec(
        n_shards=1, workers_per_shard=workers, queue_depth=len(trace),
        max_batch=MAX_BATCH, tenant_policy=OPEN_POLICY,
    )
    report = simulate_tier(trace, tier, chaos=chaos, rlog=log)
    assert report["shed_throttled"] == report["shed_queue_full"] == 0
    event_of = {
        derive_trace_id(log.seed, ("", e.index)): e.index for e in trace
    }
    chains = {
        event_of[trace_id]: spans for trace_id, spans in log.chains().items()
    }
    return report, chains


def _virtual_batches(trace):
    """The same, read from the virtual tier's request-trace spans."""
    _, chains = _virtual_run(trace)
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


@pytest.mark.parametrize("seed", range(12))
def test_virtual_batches_bill_what_a_live_worker_bills(seed):
    trace = _queued_trace(seed)
    report, chains = _virtual_run(trace)
    executes: dict[int, tuple[float, list[int]]] = {}
    for index, spans in chains.items():
        for span in spans:
            if span.kind == "execute":
                executes.setdefault(
                    span.attrs["batch_id"], (span.dur, [])
                )[1].append(index)
    worker = DeviceWorker("live")
    for batch_id in sorted(executes):
        service, members = executes[batch_id]
        outcome = worker.execute(
            Batch(jobs=[job_from_event(trace[i]) for i in sorted(members)])
        )
        # the live clock adds (t0 + kernel) + read, the shard kernel + read
        assert service == pytest.approx(
            outcome.batch_device_seconds, rel=1e-9
        )
    assert report["device_busy_s"] == pytest.approx(
        worker.device_busy_s, rel=1e-9
    )


def test_virtual_retry_avoids_every_worker_that_failed_it():
    chaos = VirtualChaos(fail_rate=0.5, max_attempts=3)
    retried = 0
    for seed in range(12):
        trace = _queued_trace(seed, n_events=60)
        report, chains = _virtual_run(trace, workers=3, chaos=chaos)
        retried += report["retries"]
        for spans in chains.values():
            workers = [s.attrs["worker"] for s in spans if s.kind == "execute"]
            assert len(workers) == len(set(workers)), workers
    assert retried > 0


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
