"""Resilience layer: retry backoff, breakers, fault plans, deadlines.

All timing-sensitive state machines run against injectable clocks
(:class:`repro.engine.ManualClock`) or pure functions
(:meth:`RetryPolicy.delay_s`), so none of these tests sleep to observe
a transition.
"""

import threading
import time

import pytest

from repro.engine import (
    CircuitBreaker,
    ExecutionEngine,
    FaultPlan,
    FaultRule,
    GammaJob,
    InjectedFault,
    JobDeadlineExceeded,
    ManualClock,
    RetryPolicy,
    TimerThread,
    WorkerFault,
)
from repro.engine.queue import EngineError
from repro.engine.resilience import unit_draw
from repro.obs import ChromeTracer


def _jobs(n=8, samples=64, base_seed=900):
    return [
        GammaJob(
            n_samples=samples,
            seed=base_seed + i,
            variance=(1.39, 0.35)[i % 2],
        )
        for i in range(n)
    ]


class SlowJob(GammaJob):
    delay_s = 0.08

    def compute(self):
        time.sleep(self.delay_s)
        return super().compute()


class TestUnitDraw:
    def test_deterministic(self):
        assert unit_draw(7, "a", 1) == unit_draw(7, "a", 1)
        assert unit_draw(7, "a", 1) != unit_draw(8, "a", 1)

    def test_roughly_uniform_over_sequential_keys(self):
        # sequential keys (job seeds, batch ids) must still spread: a
        # p=0.05 rule over ~200 entities should fire a plausible number
        # of times, not zero (the failure mode of checksum-based draws)
        draws = [unit_draw(0, "job", "fail", 1000 + i) for i in range(200)]
        hits = sum(d < 0.05 for d in draws)
        assert 1 <= hits <= 30
        assert 0.3 < sum(draws) / len(draws) < 0.7


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        p = RetryPolicy(base_s=0.1, multiplier=2.0, max_s=10.0, jitter=0.0)
        assert p.delay_s(1) == pytest.approx(0.1)
        assert p.delay_s(2) == pytest.approx(0.2)
        assert p.delay_s(3) == pytest.approx(0.4)

    def test_cap_at_max_s(self):
        p = RetryPolicy(base_s=1.0, multiplier=10.0, max_s=2.5, jitter=0.0)
        assert p.delay_s(5) == pytest.approx(2.5)

    def test_jitter_bounds_and_determinism(self):
        p = RetryPolicy(base_s=0.1, multiplier=2.0, jitter=0.5)
        for attempt in (1, 2, 3):
            raw = min(p.max_s, p.base_s * p.multiplier ** (attempt - 1))
            d1 = p.delay_s(attempt, key=42)
            d2 = p.delay_s(attempt, key=42)
            assert d1 == d2  # pure function of (attempt, key)
            assert raw * 0.5 <= d1 <= raw
        # different keys de-synchronize (spread a retry storm)
        assert p.delay_s(1, key=1) != p.delay_s(1, key=2)

    def test_retryable_only_worker_faults(self):
        p = RetryPolicy()
        assert p.retryable(WorkerFault("x"))
        assert p.retryable(InjectedFault("x"))
        assert not p.retryable(RuntimeError("x"))
        assert not p.retryable(JobDeadlineExceeded("x"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(0)


class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        kw.setdefault("failure_threshold", 2)
        kw.setdefault("cooldown_s", 1.0)
        return CircuitBreaker(clock=clock, **kw)

    def test_opens_after_consecutive_failures(self):
        clock = ManualClock()
        b = self._breaker(clock)
        b.record_failure()
        assert b.state == CircuitBreaker.CLOSED
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN
        assert not b.can_admit()
        assert b.times_opened == 1

    def test_success_resets_the_consecutive_count(self):
        clock = ManualClock()
        b = self._breaker(clock)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CircuitBreaker.CLOSED  # never 2 in a row

    def test_cooldown_moves_open_to_half_open(self):
        clock = ManualClock()
        b = self._breaker(clock)
        b.record_failure()
        b.record_failure()
        clock.advance(0.99)
        assert b.state == CircuitBreaker.OPEN
        clock.advance(0.02)
        assert b.state == CircuitBreaker.HALF_OPEN

    def test_half_open_admits_limited_probes(self):
        clock = ManualClock()
        b = self._breaker(clock, half_open_probes=1)
        b.record_failure()
        b.record_failure()
        clock.advance(1.1)
        assert b.admit()  # the probe
        assert not b.admit()  # probe slot taken
        assert not b.can_admit()

    def test_probe_success_closes(self):
        clock = ManualClock()
        b = self._breaker(clock)
        b.record_failure()
        b.record_failure()
        clock.advance(1.1)
        assert b.admit()
        b.record_success()
        assert b.state == CircuitBreaker.CLOSED
        assert b.can_admit()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = ManualClock()
        b = self._breaker(clock)
        b.record_failure()
        b.record_failure()
        clock.advance(1.1)
        assert b.admit()
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN
        assert b.times_opened == 2
        clock.advance(0.5)
        assert b.state == CircuitBreaker.OPEN  # cooldown restarted
        clock.advance(0.6)
        assert b.state == CircuitBreaker.HALF_OPEN

    def test_transition_hook_sees_every_change(self):
        clock = ManualClock()
        seen = []
        b = self._breaker(clock)
        b.on_transition = lambda old, new: seen.append((old, new))
        b.record_failure()
        b.record_failure()
        clock.advance(1.1)
        assert b.admit()
        b.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert b.transitions == 3

    def test_snapshot_fields(self):
        b = self._breaker(ManualClock())
        b.record_failure()
        snap = b.snapshot()
        assert snap["state"] == "closed"
        assert snap["failures"] == 1
        assert snap["consecutive_failures"] == 1
        assert set(snap) >= {"successes", "times_opened", "transitions"}


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="scope"):
            FaultRule(scope="universe")
        with pytest.raises(ValueError, match="mode"):
            FaultRule(mode="explode")
        with pytest.raises(ValueError):
            FaultRule(probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(scope="job", mode="kill")
        with pytest.raises(ValueError):
            FaultRule(scope="job", mode="wedge")

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            rules=[
                FaultRule(scope="worker", mode="kill", match="w1", after_batches=2),
                FaultRule(scope="job", mode="fail", probability=0.25),
            ],
            seed=99,
        )
        path = tmp_path / "plan.json"
        import json

        path.write_text(json.dumps(plan.to_dict()))
        loaded = FaultPlan.from_json(str(path))
        assert loaded.seed == 99
        assert loaded.rules == plan.rules

    def test_job_fault_is_deterministic_and_seed_keyed(self):
        plan = FaultPlan([FaultRule(scope="job", mode="fail", probability=0.3)])
        jobs = _jobs(n=40)
        first = [plan.job_fault("w0", j) is not None for j in jobs]
        # same decision on any worker, any call: keyed on the job seed
        second = [plan.job_fault("w7", j) is not None for j in jobs]
        assert first == second
        assert any(first) and not all(first)

    def test_kill_arms_after_batches_and_stays_dead(self):
        plan = FaultPlan(
            [FaultRule(scope="worker", mode="kill", match="w0", after_batches=2)]
        )

        class FakeBatch:
            batch_id = 1
            attempt = 1
            jobs = ()

        plan.before_batch("w0", FakeBatch(), batches_done=0)  # not armed yet
        plan.before_batch("w0", FakeBatch(), batches_done=1)
        with pytest.raises(InjectedFault):
            plan.before_batch("w0", FakeBatch(), batches_done=2)
        with pytest.raises(InjectedFault):  # dead forever
            plan.before_batch("w0", FakeBatch(), batches_done=0)
        plan.before_batch("w1", FakeBatch(), batches_done=9)  # others fine
        assert plan.injected["kill"] == 1

    def test_release_unblocks_a_wedge(self):
        plan = FaultPlan([FaultRule(scope="batch", mode="wedge", wedge_s=30.0)])

        class FakeBatch:
            batch_id = 5
            attempt = 1
            jobs = ()

        done = threading.Event()

        def wedged():
            plan.before_batch("w0", FakeBatch(), batches_done=0)
            done.set()

        t = threading.Thread(target=wedged, daemon=True)
        t.start()
        assert not done.wait(0.05)  # genuinely wedged
        plan.release()
        assert done.wait(2.0)
        t.join(2.0)
        assert plan.injected["wedge"] == 1


class TestTimerThread:
    def test_callbacks_fire_in_due_order(self):
        timer = TimerThread().start()
        fired = []
        done = threading.Event()
        now = time.monotonic()
        timer.schedule(now + 0.05, lambda: fired.append("b"))
        timer.schedule(now + 0.01, lambda: fired.append("a"))
        timer.schedule(now + 0.08, lambda: (fired.append("c"), done.set()))
        assert done.wait(2.0)
        assert fired == ["a", "b", "c"]
        timer.stop()

    def test_stop_cancels_pending(self):
        timer = TimerThread().start()
        timer.schedule(time.monotonic() + 60.0, lambda: None)
        timer.schedule(time.monotonic() + 61.0, lambda: None)
        assert timer.pending == 2
        assert timer.stop(timeout=2.0) == 2
        assert timer.pending == 0

    def test_callback_exception_counted_not_fatal(self):
        timer = TimerThread().start()
        done = threading.Event()

        def boom():
            raise RuntimeError("kaput")

        timer.schedule(time.monotonic(), boom)
        timer.schedule(time.monotonic() + 0.01, done.set)
        assert done.wait(2.0)  # the thread survived the exception
        assert timer.errors == 1
        timer.stop()


class TestDeadlines:
    def test_job_deadline_stamped_at_admission(self):
        with ExecutionEngine(n_workers=1, default_deadline_s=5.0) as eng:
            job = GammaJob(n_samples=16, seed=1)
            handle = eng.submit(job)
            assert job.deadline_at is not None
            assert job.deadline_s == 5.0
            handle.result(10.0)

    def test_own_deadline_beats_the_default(self):
        with ExecutionEngine(n_workers=1, default_deadline_s=5.0) as eng:
            job = GammaJob(n_samples=16, seed=1, deadline_s=9.0)
            eng.submit(job).result(10.0)
            assert job.deadline_s == 9.0

    def test_expired_mid_queue_jobs_are_shed_typed(self):
        # one worker pinned by slow jobs; the tail of the queue cannot
        # possibly meet a short deadline and must shed, not compute
        eng = ExecutionEngine(n_workers=1, max_batch=1, queue_depth=64)
        with eng:
            blockers = [eng.submit(SlowJob(n_samples=32, seed=i)) for i in range(3)]
            doomed = [
                eng.submit(GammaJob(n_samples=16, seed=100 + i, deadline_s=0.05))
                for i in range(4)
            ]
            for h in blockers:
                h.result(30.0)
            shed = 0
            for h in doomed:
                with pytest.raises(JobDeadlineExceeded):
                    h.result(30.0)
                shed += 1
        stats = eng.stats()
        assert shed == 4
        assert stats.jobs_deadline_shed == 4
        assert eng.metrics.snapshot()["engine.jobs_deadline_shed"] == 4

    def test_deadline_shed_jobs_never_occupy_the_device(self):
        eng = ExecutionEngine(n_workers=1, max_batch=1)
        with eng:
            blocker = eng.submit(SlowJob(n_samples=32, seed=1))
            doomed = eng.submit(
                GammaJob(n_samples=16, seed=2, deadline_s=0.02)
            )
            blocker.result(30.0)
            with pytest.raises(JobDeadlineExceeded):
                doomed.result(30.0)
        stats = eng.stats()
        assert stats.jobs_completed == 1  # only the blocker ran
        # the doomed job resolved with the deadline error and no result,
        # and no worker ever picked it up
        assert isinstance(doomed.error, JobDeadlineExceeded)
        assert doomed.picked_up_at is None


class TestRetriesEndToEnd:
    def test_killed_worker_jobs_land_on_the_survivor(self):
        plan = FaultPlan(
            [FaultRule(scope="worker", mode="kill", match="w0")]
        )
        eng = ExecutionEngine(
            n_workers=2,
            max_batch=4,
            faults=plan,
            retry=RetryPolicy(max_attempts=3, base_s=0.01, jitter=0.0),
            breaker_config={"failure_threshold": 1, "cooldown_s": 30.0},
            # the first batch goes to w0 (both backlogs empty); under
            # fifo a fast w1 can drain the shared queue before w0 wakes
            policy="least-loaded",
        )
        jobs = _jobs(n=12)
        with eng:
            results = eng.run(jobs, timeout=60.0)
        stats = eng.stats()
        assert len(results) == 12  # every job completed despite the kill
        by_worker = {w.name: w.jobs for w in stats.workers}
        assert by_worker["w0"] == 0  # nothing completed on the corpse
        assert by_worker["w1"] == 12
        assert stats.retries > 0
        assert stats.breakers["w0"]["state"] == "open"
        snap = eng.metrics.snapshot()
        assert snap["engine.job_retries"] >= stats.retries
        assert snap["engine.breaker_transitions"] >= 1

    def test_retries_exhaust_to_the_typed_injected_fault(self):
        # every worker fails every batch: retries run out, the typed
        # error surfaces, nothing hangs
        plan = FaultPlan([FaultRule(scope="batch", mode="fail")])
        eng = ExecutionEngine(
            n_workers=2,
            max_batch=2,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, base_s=0.01, jitter=0.0),
            breaker_config={"failure_threshold": 100},
        )
        with eng:
            handles = [eng.submit(j) for j in _jobs(n=4)]
            for h in handles:
                with pytest.raises(InjectedFault):
                    h.result(30.0)
        assert eng.stats().retries == 4  # one retry per job, then done

    def test_retry_backoff_is_keyed_on_the_job_seed(self):
        # two runs of the same seeds back off identically: the jitter is
        # keyed on the job seed, not on the per-process job id
        def retry_delays():
            tracer = ChromeTracer()
            eng = ExecutionEngine(
                n_workers=2,
                max_batch=1,
                faults=FaultPlan(
                    [FaultRule(scope="batch", mode="fail", probability=0.5)]
                ),
                retry=RetryPolicy(base_s=0.01, jitter=0.5),
                breakers=False,
                tracer=tracer,
            )
            with eng:
                for handle in [eng.submit(j) for j in _jobs(n=8)]:
                    try:
                        handle.result(30.0)
                    except InjectedFault:
                        pass
            return sorted(
                e["args"]["delay_ms"]
                for e in tracer.events()
                if e.get("name") == "retry_scheduled"
            )

        first = retry_delays()
        assert first
        assert retry_delays() == first

    def test_graceful_shutdown_runs_a_pending_retry(self):
        # the first attempt fails and its retry backs off; a graceful
        # shutdown runs the retry instead of waiting out its drain
        # timeout and then abandoning the job
        plan = FaultPlan([FaultRule(scope="batch", mode="fail")])
        eng = ExecutionEngine(
            n_workers=1,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, base_s=0.2, jitter=0.0),
            breakers=False,
        ).start()
        handle = eng.submit(GammaJob(n_samples=16, seed=1))
        deadline = time.monotonic() + 10.0
        while eng.stats().retries == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        t0 = time.monotonic()
        eng.shutdown(drain=True, timeout=10.0)
        assert time.monotonic() - t0 < 5.0
        assert isinstance(handle.error, InjectedFault)
        assert plan.injected["fail"] == 2

    def test_retries_disabled_with_single_attempt(self):
        plan = FaultPlan([FaultRule(scope="batch", mode="fail")])
        eng = ExecutionEngine(
            n_workers=1,
            faults=plan,
            retry=RetryPolicy(max_attempts=1),
            breakers=False,
        )
        with eng:
            handle = eng.submit(GammaJob(n_samples=16, seed=1))
            with pytest.raises(InjectedFault):
                handle.result(30.0)
        assert eng.stats().retries == 0

    def test_faults_injected_reported_in_stats(self):
        plan = FaultPlan([FaultRule(scope="batch", mode="fail")])
        eng = ExecutionEngine(
            n_workers=1,
            faults=plan,
            retry=RetryPolicy(max_attempts=1),
            breakers=False,
        )
        with eng:
            try:
                eng.submit(GammaJob(n_samples=16, seed=1)).result(30.0)
            except EngineError:
                pass
        assert eng.stats().faults_injected["fail"] >= 1
