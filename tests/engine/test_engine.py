"""End-to-end engine behaviour: determinism, backpressure, drain."""

import sys
import time

import numpy as np
import pytest

from repro.engine import (
    ExecutionEngine,
    FaultPlan,
    FaultRule,
    GammaJob,
    InjectedFault,
    JobFailed,
    JobQueueClosed,
    JobQueueFull,
    PortfolioJob,
    RetryPolicy,
)
from repro.finance import Obligor, Portfolio, Sector


def _jobs(n=12, samples=256, base_seed=500):
    return [
        GammaJob(
            n_samples=samples,
            seed=base_seed + i,
            variance=(1.39, 0.35)[i % 2],
        )
        for i in range(n)
    ]


class SlowJob(GammaJob):
    """A job whose compute really blocks the worker (backpressure tests)."""

    delay_s = 0.08

    def compute(self):
        time.sleep(self.delay_s)
        return super().compute()


def _payloads_by_seed(results, jobs):
    by_id = {r.job_id: r.payload for r in results}
    return {job.seed: by_id[job.job_id] for job in jobs}


class TestDeterminism:
    def test_results_identical_across_worker_counts(self):
        baselines = None
        for n_workers in (1, 3):
            jobs = _jobs()
            with ExecutionEngine(n_workers=n_workers, max_batch=4) as eng:
                results = eng.run(jobs)
            payloads = _payloads_by_seed(results, jobs)
            if baselines is None:
                baselines = payloads
            else:
                assert baselines.keys() == payloads.keys()
                for seed, payload in payloads.items():
                    np.testing.assert_array_equal(baselines[seed], payload)

    def test_results_identical_across_policies_and_batching(self):
        reference = None
        for policy, max_batch in (
            ("fifo", 1),
            ("least-loaded", 4),
            ("fifo", 6),
        ):
            jobs = _jobs()
            with ExecutionEngine(
                n_workers=2, max_batch=max_batch, policy=policy
            ) as eng:
                results = eng.run(jobs)
            payloads = _payloads_by_seed(results, jobs)
            if reference is None:
                reference = payloads
            else:
                for seed, payload in payloads.items():
                    np.testing.assert_array_equal(reference[seed], payload)

    def test_engine_matches_serial_payloads(self):
        jobs = _jobs(n=6)
        serial_payloads = {job.seed: job.compute() for job in _jobs(n=6)}
        with ExecutionEngine(n_workers=2, max_batch=3) as eng:
            results = eng.run(jobs)
        for seed, payload in _payloads_by_seed(results, jobs).items():
            np.testing.assert_array_equal(serial_payloads[seed], payload)


class TestBackpressure:
    def test_shed_admission_raises_typed_error(self):
        eng = ExecutionEngine(
            n_workers=1, queue_depth=2, max_batch=1, admission="shed"
        )
        with eng:
            shed = 0
            for i in range(30):
                try:
                    eng.submit(SlowJob(n_samples=32, seed=i))
                except JobQueueFull:
                    shed += 1
            assert shed > 0
        stats = eng.stats()
        assert stats.jobs_shed == shed
        assert stats.queue.write_stalls >= shed
        # everything admitted still completed (graceful drain on exit)
        assert stats.jobs_completed == 30 - shed

    def test_blocking_admission_stalls_then_completes(self):
        eng = ExecutionEngine(
            n_workers=1,
            queue_depth=1,
            max_batch=1,
            admission="block",
            submit_timeout_s=10.0,
        )
        with eng:
            handles = [eng.submit(SlowJob(n_samples=32, seed=i)) for i in range(4)]
            results = [h.result(30.0) for h in handles]
        assert len(results) == 4
        assert eng.stats().queue.write_stalls > 0

    def test_submit_after_shutdown_raises_closed(self):
        eng = ExecutionEngine(n_workers=1).start()
        eng.shutdown()
        with pytest.raises(JobQueueClosed):
            eng.submit(GammaJob(n_samples=16, seed=1))


class TestShutdown:
    def test_graceful_drain_completes_all_handles(self):
        eng = ExecutionEngine(n_workers=2, queue_depth=64, max_batch=4).start()
        handles = [eng.submit(job) for job in _jobs(n=10, samples=128)]
        eng.shutdown(drain=True)
        assert all(h.done for h in handles)
        results = [h.result(0.1) for h in handles]
        assert len({r.job_id for r in results}) == 10
        assert eng.stats().jobs_completed == 10

    def test_abandoning_shutdown_fails_pending_handles(self):
        eng = ExecutionEngine(n_workers=1, queue_depth=64, max_batch=1).start()
        handles = [
            eng.submit(SlowJob(n_samples=32, seed=i)) for i in range(12)
        ]
        eng.shutdown(drain=False)
        outcomes = {"done": 0, "abandoned": 0}
        for h in handles:
            try:
                h.result(10.0)
                outcomes["done"] += 1
            except JobQueueClosed:
                outcomes["abandoned"] += 1
        assert sum(outcomes.values()) == 12
        assert outcomes["abandoned"] > 0

    def test_shutdown_is_idempotent(self):
        eng = ExecutionEngine(n_workers=1).start()
        eng.shutdown()
        eng.shutdown()

    def test_shutdown_under_load_joins_threads_promptly(self):
        # shutdown while workers are mid-batch and the queue is full
        # must complete within a tight bound and leave no engine thread
        # behind — the hang this guards against is a worker or the
        # dispatcher waiting on a condition nobody will ever notify
        import threading

        before = {t.ident for t in threading.enumerate()}
        eng = ExecutionEngine(n_workers=2, queue_depth=32, max_batch=2).start()
        handles = [
            eng.submit(SlowJob(n_samples=32, seed=i)) for i in range(8)
        ]
        time.sleep(0.05)  # workers are now genuinely busy
        t0 = time.monotonic()
        eng.shutdown(drain=False, timeout=10.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        assert all(h.done for h in handles)  # resolved, not hung
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftover = [
                t
                for t in threading.enumerate()
                if t.ident not in before and t.is_alive()
            ]
            if not leftover:
                break
            time.sleep(0.01)
        assert not leftover, f"engine threads survived shutdown: {leftover}"


class TestConcurrency:
    def test_every_job_runs_and_resolves_once_under_contention(self):
        """More workers than cores share one core under the queue lock,
        switching threads every few microseconds, with retries in
        flight: each job succeeds in exactly one batch or fails typed,
        and the core ends with nothing running, queued or retrying."""
        jobs = [
            GammaJob(n_samples=16, seed=i, variance=(1.39, 0.35, 2.3)[i % 3])
            for i in range(150)
        ]
        eng = ExecutionEngine(
            n_workers=6, queue_depth=16, max_batch=3,
            faults=FaultPlan([FaultRule(scope="batch", mode="fail", probability=0.2)]),
            retry=RetryPolicy(base_s=0.001, jitter=0.5),
            breakers=False,
        )
        ran: dict[int, int] = {}
        for worker in eng.pool.workers:
            def execute(batch, _execute=worker.execute):
                outcome = _execute(batch)  # a failed attempt raises first
                for job in batch.jobs:
                    ran[job.job_id] = ran.get(job.job_id, 0) + 1
                return outcome
            worker.execute = execute
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with eng:
                handles = [eng.submit(job) for job in jobs]
                outcomes = {"ok": 0, "failed": 0}
                for handle in handles:
                    try:
                        handle.result(30.0)
                        outcomes["ok"] += 1
                    except InjectedFault:
                        outcomes["failed"] += 1
                assert eng.drain(30.0)
                assert eng.core.idle and not eng.core.retrying
        finally:
            sys.setswitchinterval(interval)
        stats = eng.stats()
        assert sum(outcomes.values()) == len(jobs)
        assert all(count == 1 for count in ran.values())
        assert len(ran) == outcomes["ok"] == stats.jobs_completed
        assert stats.retries > 0
        assert stats.queue.total_reads == stats.queue.total_writes == len(jobs)


class TestStatsAndJobs:
    def test_stats_report_shape(self):
        jobs = _jobs(n=8)
        with ExecutionEngine(n_workers=2, max_batch=4) as eng:
            eng.run(jobs)
        stats = eng.stats()
        assert stats.jobs_completed == 8
        assert stats.batches >= 2
        assert stats.mean_batch_occupancy > 1.0
        assert stats.modeled_makespan_s > 0
        assert stats.modeled_device_seconds >= stats.modeled_makespan_s
        assert len(stats.workers) == 2
        assert sum(w.jobs for w in stats.workers) == 8
        rendered = stats.render()
        assert "jobs: 8 completed" in rendered
        assert stats.wall_throughput_jps > 0
        assert stats.modeled_throughput_jps > 0

    def test_latency_fields_populated(self):
        with ExecutionEngine(n_workers=1, max_batch=2) as eng:
            results = eng.run(_jobs(n=4))
        for r in results:
            assert r.total_s >= r.queue_wait_s >= 0
            assert r.service_s > 0
            assert r.device_seconds > 0
            assert r.batch_size >= 1

    def test_portfolio_job_roundtrip(self):
        sectors = [Sector(name="s0", variance=1.39)]
        portfolio = Portfolio(sectors=sectors)
        portfolio.add(Obligor.single_sector(100.0, 0.01, 0))
        job = PortfolioJob(portfolio=portfolio, scenarios=64, seed=3)
        twin = PortfolioJob(portfolio=portfolio, scenarios=64, seed=3)
        with ExecutionEngine(n_workers=1) as eng:
            result = eng.run([job])[0]
        np.testing.assert_array_equal(
            result.payload.losses, twin.compute().losses
        )

    def test_job_validation(self):
        with pytest.raises(ValueError):
            GammaJob(n_samples=0)
        with pytest.raises(ValueError):
            GammaJob(variance=-1.0)
        with pytest.raises(ValueError):
            GammaJob(config="Config9")
        with pytest.raises(ValueError):
            PortfolioJob()

    def test_failed_job_raises_jobfailed_with_cause(self):
        class BrokenJob(GammaJob):
            def compute(self):
                raise RuntimeError("kaput")

        with ExecutionEngine(n_workers=1) as eng:
            handle = eng.submit(BrokenJob(n_samples=16, seed=1))
            with pytest.raises(JobFailed) as excinfo:
                handle.result(10.0)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_serial_engine_report(self):
        # the serial baseline is the engine with one device and no batching
        with ExecutionEngine(n_workers=1, max_batch=1) as eng:
            eng.run(_jobs(n=5, samples=128))
        stats = eng.stats()
        assert stats.jobs_completed == 5
        assert stats.batches == 5
        assert stats.max_batch_occupancy == 1
        assert stats.modeled_makespan_s > 0
