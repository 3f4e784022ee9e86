"""The virtual tier answers to the live one.

Every recorded serving number comes from the virtual-time tier
(:func:`repro.serve.loadgen.simulate_tier`).  Both tiers form batches
with :func:`repro.engine.queue.take_batch`; these tests pin that the
two then agree on the same seeded traffic:

* (a) the batch rule: the same queued jobs, about 30 % of them already
  expired, form the same batch sequence and shed the same jobs;
* (b) routing and outcome: at low load every job lands on the same
  shard and completes in both tiers.

Retry placement and fault injection are still mirrored by hand (see
``docs/serving.md``), so no fault plan runs here.
"""

import dataclasses
import time

import pytest

from repro.engine import Batcher, BoundedJobQueue
from repro.obs import RequestTraceLog
from repro.obs.rtrace import derive_trace_id
from repro.serve import (
    ShardedEngine,
    TenantPolicy,
    TierSpec,
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


def _virtual_batches(trace):
    """The same, read from the virtual tier's request-trace spans."""
    log = RequestTraceLog()
    tier = TierSpec(
        n_shards=1, workers_per_shard=1, queue_depth=len(trace),
        max_batch=MAX_BATCH, tenant_policy=OPEN_POLICY,
    )
    report = simulate_tier(trace, tier, rlog=log)
    assert report["shed_throttled"] == report["shed_queue_full"] == 0
    event_of = {
        derive_trace_id(log.seed, ("", e.index)): e.index for e in trace
    }
    members: dict[int, list[int]] = {}
    shed = []
    for trace_id, spans in log.chains().items():
        for span in spans:
            if span.kind == "batch":
                members.setdefault(span.attrs["batch_id"], []).append(
                    event_of[trace_id]
                )
        if spans[-1].kind == "deadline":
            shed.append(event_of[trace_id])
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
