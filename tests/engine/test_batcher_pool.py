"""Batcher coalescing and worker-pool scheduling policies."""

import threading
import time

import pytest

from repro.engine import (
    Batch,
    Batcher,
    BoundedJobQueue,
    DeviceWorker,
    GammaJob,
    WorkerPool,
    make_policy,
)
from repro.engine.pool import (
    DeviceAffinityPolicy,
    FifoPolicy,
    LeastLoadedPolicy,
)


def _job(seed=1, variance=1.39, n=64):
    return GammaJob(n_samples=n, seed=seed, variance=variance)


def _expired(job):
    job.deadline_at = time.monotonic() - 1.0
    return job


def _drain(batcher):
    """Seeds of every batch ``batcher`` forms until its queue is empty."""
    batcher.queue.close()
    batches = []
    while True:
        batch = batcher.next_batch(timeout=0.0)
        if batch is not None:
            batches.append([j.seed for j in batch.jobs])
        elif not len(batcher.queue):
            return batches


class TestBatcher:
    def test_batches_by_key(self):
        q = BoundedJobQueue(depth=16)
        a = [_job(i, 1.39) for i in range(3)]
        b = [_job(10 + i, 0.35) for i in range(2)]
        for job in (a[0], b[0], a[1], b[1], a[2]):
            q.put(job)
        batcher = Batcher(q, max_batch=8)
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert [j.seed for j in first.jobs] == [0, 1, 2]
        assert [j.seed for j in second.jobs] == [10, 11]

    def test_max_batch_one_disables_coalescing(self):
        q = BoundedJobQueue(depth=8)
        for i in range(3):
            q.put(_job(i))
        batcher = Batcher(q, max_batch=1)
        assert batcher.next_batch().size == 1

    def test_empty_queue_returns_none(self):
        batcher = Batcher(BoundedJobQueue(depth=2), max_batch=4)
        assert batcher.next_batch(timeout=0.01) is None

    def test_linger_tops_up_partial_batch(self):
        import threading
        import time

        q = BoundedJobQueue(depth=8)
        q.put(_job(0))

        def late_producer():
            time.sleep(0.03)
            q.put(_job(1))

        t = threading.Thread(target=late_producer, daemon=True)
        t.start()
        batcher = Batcher(q, max_batch=4, linger_s=0.5)
        batch = batcher.next_batch()
        t.join(2.0)
        assert batch.size == 2

    def test_batch_requires_jobs(self):
        with pytest.raises(ValueError):
            Batch(jobs=[])

    def test_expired_head_does_not_fix_the_key(self):
        q = BoundedJobQueue(depth=8)
        for job in (_expired(_job(1, 1.39)), _job(2, 0.35), _job(3, 1.39)):
            q.put(job)
        shed = []
        batcher = Batcher(q, max_batch=4, on_expired=shed.append)
        assert _drain(batcher) == [[2], [3]]
        assert [j.seed for j in shed] == [1]

    def test_expired_job_does_not_take_a_slot(self):
        q = BoundedJobQueue(depth=8)
        for job in (_job(1), _expired(_job(2)), _job(3)):
            q.put(job)
        batcher = Batcher(q, max_batch=2, on_expired=lambda job: None)
        assert batcher.next_batch().jobs[1].seed == 3
        assert not len(q)

    def test_expired_job_of_another_key_waits_for_its_scan(self):
        q = BoundedJobQueue(depth=8)
        for job in (_job(1, 1.39), _expired(_job(2, 0.35)), _job(3, 2.3)):
            q.put(job)
        shed = []
        batcher = Batcher(q, max_batch=4, on_expired=shed.append)
        assert [j.seed for j in batcher.next_batch().jobs] == [1]
        assert shed == [] and len(q) == 2  # the 1.39 scan passed it by
        # the next scan reaches it first: shed, and the batch behind it
        # forms in the same call
        assert [j.seed for j in batcher.next_batch(timeout=0.0).jobs] == [3]
        assert [j.seed for j in shed] == [2]

    def test_on_expired_sees_each_expired_job_once(self):
        # two keys, every third job expired: each job lands exactly
        # once, an expired one in on_expired and a live one in a full
        # batch (no slot goes to a job that is then dropped)
        q = BoundedJobQueue(depth=16)
        for i, variance in enumerate([1.39, 0.35] * 6):
            job = _job(i, variance)
            q.put(_expired(job) if i % 3 == 0 else job)
        shed = []
        batcher = Batcher(q, max_batch=2, on_expired=shed.append)
        assert _drain(batcher) == [[1, 5], [2, 4], [7, 11], [8, 10]]
        assert sorted(j.seed for j in shed) == [0, 3, 6, 9]

    def test_linger_sheds_expired_arrivals_and_keeps_waiting(self):
        import threading

        q = BoundedJobQueue(depth=8)
        for job in (_job(1), _job(2, 0.35), _expired(_job(3)), _job(4)):
            q.put(job)

        def late_producer():
            time.sleep(0.03)
            q.put(_expired(_job(5)))
            q.put(_job(6))

        t = threading.Thread(target=late_producer, daemon=True)
        t.start()
        shed = []
        batcher = Batcher(q, max_batch=3, linger_s=2.0, on_expired=shed.append)
        batch = batcher.next_batch()
        t.join(2.0)
        assert not t.is_alive()
        assert [j.seed for j in batch.jobs] == [1, 4, 6]
        assert [j.seed for j in shed] == [3, 5]
        assert [j.seed for j in q.get_batch(4)[0]] == [2]


class TestPolicies:
    @pytest.fixture(scope="class")
    def workers(self):
        return [DeviceWorker(f"w{i}") for i in range(3)]

    def test_make_policy_names(self):
        for name, cls in (
            ("fifo", FifoPolicy),
            ("least-loaded", LeastLoadedPolicy),
            ("device-affinity", DeviceAffinityPolicy),
        ):
            assert isinstance(make_policy(name), cls)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("round-trip")

    def test_fifo_uses_shared_queue(self, workers):
        batch = Batch(jobs=[_job()])
        pending = {w.name: 0.0 for w in workers}
        assert FifoPolicy().select(batch, workers, pending) is None

    def test_least_loaded_picks_smallest_backlog(self, workers):
        batch = Batch(jobs=[_job()])
        pending = {"w0": 5.0, "w1": 0.0, "w2": 3.0}
        chosen = LeastLoadedPolicy().select(batch, workers, pending)
        assert chosen.name == "w1"

    def test_affinity_is_stable_per_key(self, workers):
        policy = DeviceAffinityPolicy()
        pending = {w.name: 0.0 for w in workers}
        first = policy.select(Batch(jobs=[_job(1)]), workers, pending)
        for seed in range(2, 6):
            batch = Batch(jobs=[_job(seed)])  # same key, different job
            assert policy.select(batch, workers, pending) is first


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
        """The pending estimate includes the readback, so least-loaded
        placement adds it to a ``device_busy_s`` that already does."""
        batch = Batch(jobs=[_job(1, n=256), _job(2, n=4096)])
        estimate = DeviceWorker(
            "a", device_name=device_name
        ).estimate_batch_seconds(batch)
        billed = DeviceWorker("b", device_name=device_name).execute(batch)
        assert estimate == billed.batch_device_seconds

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
    def test_dispatch_blocks_at_two_batches_per_worker(self):
        """Unstarted pool: nothing completes, so the cap holds until stop."""
        pool = WorkerPool([DeviceWorker("w0")])
        pool.dispatch(Batch(jobs=[_job(1)]))
        pool.dispatch(Batch(jobs=[_job(2)]))
        third = threading.Thread(
            target=pool.dispatch, args=(Batch(jobs=[_job(3)]),), daemon=True
        )
        third.start()
        third.join(0.3)
        assert third.is_alive()
        pool.stop()
        third.join(5.0)
        assert not third.is_alive()
