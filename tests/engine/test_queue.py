"""Bounded job queue: backpressure, shedding, close semantics, stats."""

import threading
import time

import pytest

from repro.core import FifoStats, Stream
from repro.engine import (
    BoundedJobQueue,
    GammaJob,
    JobQueueClosed,
    JobQueueFull,
    SubmitTimeout,
)


def _job(seed=1, variance=1.39):
    return GammaJob(n_samples=8, seed=seed, variance=variance)


def _taking(key):
    """A ``wait`` pick that takes the first job of ``key`` and nothing
    else, as a worker takes only the batch it is picked for; it gives
    up with ``"closed"`` once the queue closes."""

    def pick(fifo, now, closed):
        for job in fifo:
            if job.batch_key() == key:
                fifo.remove(job)
                return job, None
        return ("closed" if closed else None), None

    return pick


class TestAdmission:
    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth"):
            BoundedJobQueue(depth=0)

    def test_put_get_roundtrip(self):
        q = BoundedJobQueue(depth=4)
        job = _job()
        q.put(job)
        assert q.occupancy == 1
        assert q.get_batch(1) == ([job], [])
        assert q.occupancy == 0

    def test_shed_policy_raises_typed_error(self):
        q = BoundedJobQueue(depth=2)
        q.put(_job(1))
        q.put(_job(2))
        with pytest.raises(JobQueueFull):
            q.put(_job(3), block=False)
        assert q.stats.write_stalls == 1

    def test_blocking_put_times_out(self):
        q = BoundedJobQueue(depth=1)
        q.put(_job(1))
        t0 = time.monotonic()
        with pytest.raises(SubmitTimeout):
            q.put(_job(2), block=True, timeout=0.05)
        assert time.monotonic() - t0 >= 0.04

    def test_blocking_put_unblocks_when_space_frees(self):
        q = BoundedJobQueue(depth=1)
        q.put(_job(1))
        admitted = threading.Event()

        def producer():
            q.put(_job(2), block=True, timeout=5.0)
            admitted.set()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.02)
        assert not admitted.is_set()  # backpressured while full
        q.get_batch(1)
        assert admitted.wait(2.0)
        t.join(2.0)

    def test_put_after_close_raises(self):
        q = BoundedJobQueue(depth=2)
        q.close()
        with pytest.raises(JobQueueClosed):
            q.put(_job())

    def test_close_releases_blocked_producer(self):
        q = BoundedJobQueue(depth=1)
        q.put(_job(1))
        errors = []

        def producer():
            try:
                q.put(_job(2), block=True, timeout=5.0)
            except JobQueueClosed as exc:
                errors.append(exc)

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.02)
        q.close()
        t.join(2.0)
        assert len(errors) == 1


class TestBatchDrain:
    def test_get_batch_coalesces_equal_keys(self):
        q = BoundedJobQueue(depth=8)
        a = [_job(i, variance=1.39) for i in range(3)]
        b = _job(9, variance=0.35)
        for job in (a[0], a[1], b, a[2]):
            q.put(job)
        batch, _ = q.get_batch(max_size=4)
        assert batch == a  # same-key jobs coalesce across the stranger
        assert q.get_batch(max_size=4) == ([b], [])

    def test_get_batch_respects_max_size(self):
        q = BoundedJobQueue(depth=8)
        jobs = [_job(i) for i in range(5)]
        for job in jobs:
            q.put(job)
        assert q.get_batch(max_size=2) == (jobs[:2], [])
        assert q.get_batch(max_size=2) == (jobs[2:4], [])

    def test_closed_and_empty_returns_empty(self):
        q = BoundedJobQueue(depth=2)
        q.close()
        assert q.get_batch(1, timeout=0.01) == ([], [])

    def test_close_leaves_pending_readable(self):
        q = BoundedJobQueue(depth=2)
        job = _job()
        q.put(job)
        q.close()
        assert q.get_batch(1) == ([job], [])
        assert q.get_batch(1, timeout=0.01) == ([], [])

    def test_wait_takes_only_what_its_pick_takes(self):
        q = BoundedJobQueue(depth=8)
        a = _job(1, variance=1.39)
        b = _job(2, variance=0.35)
        q.put(a)
        q.put(b)
        assert q.wait(_taking(b.batch_key()), timeout=0.01) is b
        assert q.stats.total_reads == 1
        assert q.get_batch(1) == ([a], [])  # untouched, order preserved

    def test_expired_jobs_return_separately_and_count_as_reads(self):
        q = BoundedJobQueue(depth=8)
        live, dead = _job(1), _job(2)
        dead.deadline_at = time.monotonic() - 1.0
        q.put(dead)
        q.put(live)
        assert q.get_batch(max_size=4) == ([live], [dead])
        assert q.stats.total_reads == 2
        assert q.occupancy == 0


class TestWaitDeadlines:
    """Regressions for the timeout-drift family: every blocking wait
    holds one monotonic deadline across wakeups instead of restarting
    (or abandoning) its timeout on each one."""

    def test_wait_outlasts_puts_its_pick_does_not_take(self):
        # a single-wait read would return empty as soon as ANY put woke
        # it, even one another worker takes — a worker waiting for
        # key B must keep waiting until B arrives or time runs out
        q = BoundedJobQueue(depth=8)
        b = _job(9, variance=0.35)
        got = []

        def reader():
            got.append(q.wait(_taking(b.batch_key()), timeout=2.0))

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        time.sleep(0.02)
        q.put(_job(1, variance=1.39))  # wrong key: wakes, must not satisfy
        time.sleep(0.05)
        assert t.is_alive()  # still waiting, not returned-empty
        q.put(b)
        t.join(2.0)
        assert got == [b]

    def test_get_batch_survives_spurious_wakeup(self):
        q = BoundedJobQueue(depth=4)
        job = _job()
        got = []

        def reader():
            got.extend(q.get_batch(1, timeout=2.0)[0])

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        time.sleep(0.02)
        with q._not_empty:  # spurious wakeup, no data
            q._not_empty.notify_all()
        time.sleep(0.05)
        assert t.is_alive()  # kept waiting instead of returning []
        q.put(job)
        t.join(2.0)
        assert got == [job]

    def test_get_batch_timeout_is_a_deadline_not_a_restart(self):
        # wakeups must not extend the total wait: hammer the condition
        # with notifies and check the empty return lands near the
        # requested timeout, neither early nor drifting late
        q = BoundedJobQueue(depth=4)
        stop = threading.Event()

        def poker():
            while not stop.is_set():
                with q._not_empty:
                    q._not_empty.notify_all()
                time.sleep(0.005)

        t = threading.Thread(target=poker, daemon=True)
        t.start()
        t0 = time.monotonic()
        assert q.get_batch(1, timeout=0.15) == ([], [])
        elapsed = time.monotonic() - t0
        stop.set()
        t.join(2.0)
        assert 0.13 <= elapsed < 1.0

    def test_put_prefers_closed_over_timeout(self):
        # when the queue closes while a blocked put's timeout is also
        # expiring, the producer must see the terminal JobQueueClosed
        # (retrying is pointless), not the transient SubmitTimeout
        q = BoundedJobQueue(depth=1)
        q.put(_job(1))
        errors = []

        def producer():
            try:
                q.put(_job(2), block=True, timeout=0.08)
            except (JobQueueClosed, SubmitTimeout) as exc:
                errors.append(exc)

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.03)
        q.close()
        t.join(2.0)
        assert len(errors) == 1
        assert isinstance(errors[0], JobQueueClosed)

    def test_close_wakes_both_producers_and_consumers(self):
        # a producer blocked on a full queue (waits on not_full) and a
        # worker waiting for a key that never arrives (waits on
        # not_empty) must BOTH wake promptly when close() fires — it
        # has to notify both conditions
        q = BoundedJobQueue(depth=1)
        q.put(_job(1, variance=1.39))
        absent_key = _job(9, variance=0.35).batch_key()
        outcomes = []

        def producer():
            try:
                q.put(_job(2), block=True, timeout=10.0)
            except JobQueueClosed:
                outcomes.append("producer-closed")

        def consumer():
            outcomes.append(
                ("consumer", q.wait(_taking(absent_key), timeout=10.0))
            )

        threads = [
            threading.Thread(target=producer, daemon=True),
            threading.Thread(target=consumer, daemon=True),
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)
        q.close()
        t0 = time.monotonic()
        for t in threads:
            t.join(2.0)
        assert time.monotonic() - t0 < 1.0  # woken by close, not timeout
        assert not any(t.is_alive() for t in threads)
        assert "producer-closed" in outcomes
        assert ("consumer", "closed") in outcomes


class TestSharedFifoAccounting:
    """The queue reports the same FifoStats vocabulary as core Stream."""

    def test_stats_type_shared_with_stream(self):
        q = BoundedJobQueue(depth=4, name="q")
        s = Stream("s", depth=4)
        assert isinstance(q.stats, FifoStats)
        assert isinstance(s.stats, FifoStats)
        assert type(q.stats) is type(s.stats)

    def test_high_water_and_counts(self):
        q = BoundedJobQueue(depth=4)
        for i in range(3):
            q.put(_job(i))
        q.get_batch(max_size=2)
        st = q.stats
        assert st.high_water == 3
        assert st.total_writes == 3
        assert st.total_reads == 2
        assert st.occupancy == 1
        assert st.headroom == 1
        assert st.utilization == pytest.approx(0.75)

    def test_stream_stats_snapshot_matches_counters(self):
        s = Stream("s", depth=2)
        s.write("x")
        s.write("y")
        s.can_write()  # full -> stall tallied
        s.read()
        st = s.stats
        assert (st.total_writes, st.total_reads) == (2, 1)
        assert st.write_stalls == 1
        assert st.high_water == 2

    def test_empty_poll_counts_read_stall(self):
        q = BoundedJobQueue(depth=2)
        q.get_batch(1, timeout=0.01)
        assert q.stats.read_stalls == 1
