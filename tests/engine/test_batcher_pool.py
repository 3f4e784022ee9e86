"""Batch formation at pickup, the pickup rules, and device workers.

Batches form on the :class:`~repro.engine.ShardCore` path both tiers
share: a free worker takes the queue head with ``take_batch`` when it
starts an attempt.
"""

import threading
import time
from collections import deque

import pytest

from repro.engine import (
    Batch,
    DeviceWorker,
    ExecutionEngine,
    FaultPlan,
    FaultRule,
    GammaJob,
    JobQueueFull,
    ShardCore,
)
from repro.engine.pool import batch_service_seconds


def _job(seed=1, variance=1.39, n=64):
    return GammaJob(n_samples=n, seed=seed, variance=variance)


def _expired(job):
    job.deadline_at = time.monotonic() - 1.0
    return job


def _form(jobs, max_batch, batches=None):
    """Seeds of the batches a one-worker core forms from ``jobs`` in
    turn, and of the jobs it sheds; ``batches`` caps the attempts."""
    core = ShardCore(["w0"], [None], max_batch)
    waiting = deque(jobs)
    formed, shed = [], []
    now = time.monotonic()
    while batches is None or len(formed) < batches:
        pick = core.next_start(waiting)
        if pick is None:
            break
        attempt = core.begin(pick, now, waiting)
        shed += [j.seed for j in attempt.expired]
        if attempt.jobs:
            formed.append([j.seed for j in attempt.jobs])
            core.finish(attempt.worker, now)
    return formed, shed, waiting


class TestBatcher:
    """The batch rule where a worker takes its batch."""

    def test_batches_by_key(self):
        a = [_job(i, 1.39) for i in range(3)]
        b = [_job(10 + i, 0.35) for i in range(2)]
        formed, _, _ = _form([a[0], b[0], a[1], b[1], a[2]], max_batch=8)
        assert formed == [[0, 1, 2], [10, 11]]

    def test_max_batch_one_disables_coalescing(self):
        formed, _, _ = _form([_job(i) for i in range(3)], max_batch=1)
        assert formed == [[0], [1], [2]]

    def test_empty_queue_returns_none(self):
        assert ShardCore(["w0"], [None], 4).next_start(deque()) is None

    def test_batch_requires_jobs(self):
        with pytest.raises(ValueError):
            Batch(jobs=[])

    def test_expired_head_does_not_fix_the_key(self):
        jobs = [_expired(_job(1, 1.39)), _job(2, 0.35), _job(3, 1.39)]
        formed, shed, _ = _form(jobs, max_batch=4)
        assert formed == [[2], [3]]
        assert shed == [1]

    def test_expired_job_does_not_take_a_slot(self):
        jobs = [_job(1), _expired(_job(2)), _job(3)]
        formed, _, waiting = _form(jobs, max_batch=2, batches=1)
        assert formed == [[1, 3]]
        assert not waiting

    def test_expired_job_of_another_key_waits_for_its_scan(self):
        jobs = [_job(1, 1.39), _expired(_job(2, 0.35)), _job(3, 2.3)]
        formed, shed, waiting = _form(jobs, max_batch=4, batches=1)
        assert formed == [[1]]
        assert shed == [] and len(waiting) == 2  # the 1.39 scan passed it by
        # the next pickup reaches it first: shed, and the batch behind
        # it forms in the same pickup
        formed, shed, _ = _form(waiting, max_batch=4, batches=1)
        assert formed == [[3]]
        assert shed == [2]

    def test_on_expired_sees_each_expired_job_once(self):
        # two keys, every third job expired: each job lands exactly
        # once, an expired one among the shed and a live one in a full
        # batch (no slot goes to a job that is then dropped)
        jobs = []
        for i, variance in enumerate([1.39, 0.35] * 6):
            job = _job(i, variance)
            jobs.append(_expired(job) if i % 3 == 0 else job)
        formed, shed, _ = _form(jobs, max_batch=2)
        assert formed == [[1, 5], [2, 4], [7, 11], [8, 10]]
        assert sorted(shed) == [0, 3, 6, 9]


class TestPolicies:
    def _core(self, policy, loads=(0.0, 0.0, 0.0)):
        return ShardCore(
            ["w0", "w1", "w2"], [None] * 3, 4, policy=policy,
            load=loads.__getitem__,
        )

    def test_make_policy_names(self):
        for name in ("fifo", "least-loaded"):
            assert self._core(name).policy == name
        for name in ("round-trip", "device-affinity"):
            with pytest.raises(ValueError, match="unknown scheduling policy"):
                self._core(name)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ExecutionEngine(n_workers=1, policy="device-affinity")

    def test_fifo_uses_shared_queue(self):
        # every worker takes from the one queue: the one idle longest
        # first, in list order on ties
        core = self._core("fifo", loads=(0.0, 5.0, 9.0))
        core.free_at[:] = [3.0, 1.0, 1.0]
        pick = core.next_start(deque([_job()]))
        assert (pick.worker, pick.start) == (1, 1.0)

    def test_least_loaded_picks_smallest_backlog(self):
        core = self._core("least-loaded", loads=(5.0, 0.0, 3.0))
        pick = core.next_start(deque([_job()]))
        assert pick.worker == 1
        core.free_at[1] = float("inf")  # w1 busy: the lighter free one
        assert core.next_start(deque([_job()])).worker == 2
        # a pickup at now=3 sees every worker freed by then, not only
        # the one idle longest
        core.free_at[:] = [1.0, 2.0, 4.0]
        assert core.next_start(deque([_job()]), now=3.0).worker == 1
        assert core.next_start(deque([_job()])).worker == 0

    def test_a_retry_goes_to_the_worker_idle_longest_it_has_not_failed(self):
        core = self._core("fifo")
        core.free_at[:] = [1.0, 2.0, 3.0]
        retry = [_job(7)]
        core.finish(0, 4.0, fault=True, failed=retry, batch_id=1)
        ready_at = core.retrying[0][0]
        pick = core.next_start(deque())
        assert (pick.worker, pick.start) == (1, ready_at)
        # a fresh batch that starts at the same time goes after it
        core.free_at[:] = [ready_at, ready_at, ready_at]
        pick = core.next_start(deque([_job(8)]))
        assert pick.retry is not None and pick.worker == 1


class TestDeviceWorker:
    def test_batch_advances_device_timeline(self):
        worker = DeviceWorker("w0")
        before = worker.device_busy_s
        outcome = worker.execute(Batch(jobs=[_job(n=256)]))
        assert worker.device_busy_s > before
        assert outcome.batch_device_seconds > 0
        assert outcome.errors == [None]

    def test_batched_transaction_cheaper_than_split(self):
        """One combined transaction beats two singles on the same timeline
        (the §III-E economics: fixed costs amortize across the batch)."""
        combined = DeviceWorker("a").execute(
            Batch(jobs=[_job(1, n=256), _job(2, n=256)])
        )
        split_worker = DeviceWorker("b")
        split_worker.execute(Batch(jobs=[_job(1, n=256)]))
        split_worker.execute(Batch(jobs=[_job(2, n=256)]))
        assert combined.batch_device_seconds < split_worker.device_busy_s

    @pytest.mark.parametrize("device_name", ["FPGA", "CPU"])
    def test_estimate_is_what_a_fresh_worker_bills(self, device_name):
        """``batch_service_seconds``, what a virtual shard bills, includes
        the readback a fresh live worker bills."""
        batch = Batch(jobs=[_job(1, n=256), _job(2, n=4096)])
        pricing = DeviceWorker("a", device_name=device_name)
        kernel_s, read_s = batch_service_seconds(
            pricing.device,
            [job.device_seconds(pricing.model) for job in batch.jobs],
            batch.result_bytes(),
        )
        billed = DeviceWorker("b", device_name=device_name).execute(batch)
        assert kernel_s + read_s == billed.batch_device_seconds

    def test_job_fault_is_isolated(self):
        class BrokenJob(GammaJob):
            def compute(self):
                raise RuntimeError("boom")

        worker = DeviceWorker("w0")
        good = _job(1, n=64)
        outcome = worker.execute(
            Batch(jobs=[good, BrokenJob(n_samples=64, seed=2)])
        )
        assert outcome.errors[0] is None
        assert isinstance(outcome.errors[1], RuntimeError)
        assert outcome.payloads[0] is not None

    def test_fixed_platform_worker(self):
        worker = DeviceWorker("cpu0", device_name="CPU")
        outcome = worker.execute(Batch(jobs=[_job(n=128)]))
        assert outcome.batch_device_seconds > 0


class TestPoolBackpressure:
    def test_queue_holds_every_waiting_job(self):
        """With every worker busy no formed batch waits outside the
        queue: the queue holds each waiting job, and the next one sheds."""
        plan = FaultPlan([FaultRule(scope="batch", mode="latency", latency_s=0.3)])
        with ExecutionEngine(
            n_workers=1, queue_depth=3, max_batch=8, admission="shed",
            faults=plan,
        ) as eng:
            held = eng.submit(_job(0))
            deadline = time.monotonic() + 5.0
            while held.picked_up_at is None and time.monotonic() < deadline:
                time.sleep(0.005)
            waiting = [eng.submit(_job(i, variance)) for i, variance in (
                (1, 1.39), (2, 0.35), (3, 1.39)
            )]
            assert len(eng.queue) == 3
            with pytest.raises(JobQueueFull):
                eng.submit(_job(4))
            for handle in [held, *waiting]:
                handle.result(10.0)
        assert eng.stats().queue.high_water == 3


class TestWorkerPickup:
    """The one wait of the engine's workers: ``BoundedJobQueue.wait``
    with the engine's pickup, driven here without starting threads."""

    def test_a_worker_waits_through_a_put_another_worker_takes(self):
        eng = ExecutionEngine(n_workers=2, max_batch=4)
        got = []
        second = threading.Thread(
            target=lambda: got.append(eng._take(1)), daemon=True
        )
        second.start()
        time.sleep(0.02)
        first_job, second_job = _job(1), _job(2, 0.35)
        eng.queue.put(first_job)  # w0, as idle as w1, comes first
        time.sleep(0.05)
        assert second.is_alive()  # woken, but not the one to take it
        assert eng._take(0).jobs == [first_job]
        eng.queue.put(second_job)  # w0 is busy now
        second.join(2.0)
        assert got[0].jobs == [second_job]

    def test_close_ends_an_idle_workers_wait(self):
        eng = ExecutionEngine(n_workers=1)
        got = []
        worker = threading.Thread(
            target=lambda: got.append(eng._take(0)), daemon=True
        )
        worker.start()
        time.sleep(0.05)
        assert worker.is_alive()
        t0 = time.monotonic()
        eng.queue.close()
        worker.join(2.0)
        assert time.monotonic() - t0 < 1.0
        assert got == [None]

    def test_a_started_2x2_tier_runs_one_thread_per_worker_and_a_timer(self):
        from repro.serve import ShardedEngine

        before = {t.ident for t in threading.enumerate()}
        with ShardedEngine(n_shards=2, n_workers=2) as tier:
            names = sorted(
                t.name for t in threading.enumerate()
                if t.ident not in before and t.name.startswith("repro-engine-")
            )
            assert len(tier.shards) == 2
        assert names == [
            "repro-engine-s0w0", "repro-engine-s0w1",
            "repro-engine-s1w0", "repro-engine-s1w1",
            "repro-engine-timer", "repro-engine-timer",
        ]
