"""Chaos acceptance: the engine under the seeded fault plan.

The scenario the resilience layer exists for: three workers, one
killed mid-run by the plan, ~5% of batches wedged, ~5% of jobs failed.
The properties asserted — every submitted job terminates with a result
or a typed error, no engine thread survives shutdown, breaker
transitions land in the exported metrics and trace — are the
acceptance criteria of the fault-injection layer, marked ``chaos`` so
CI can run them as a dedicated job (``pytest -m chaos``).
"""

import threading
import time

import pytest

from repro.engine import (
    EngineError,
    ExecutionEngine,
    FaultPlan,
    FaultRule,
    GammaJob,
    RetryPolicy,
)
from repro.obs import ChromeTracer
from repro.serve.bench import run_chaos

pytestmark = pytest.mark.chaos

SEED = 20170529


def _jobs(n=48, samples=256):
    return [
        GammaJob(
            n_samples=samples,
            seed=SEED + i,
            variance=(1.39, 0.35)[i % 2],
        )
        for i in range(n)
    ]


def _chaos_plan():
    return FaultPlan(
        rules=[
            FaultRule(scope="worker", mode="kill", match="w1", after_batches=2),
            FaultRule(scope="batch", mode="wedge", probability=0.05, wedge_s=0.15),
            FaultRule(scope="job", mode="fail", probability=0.05),
        ],
        seed=SEED,
    )


class TestChaosRun:
    def test_every_job_terminates_and_no_thread_hangs(self):
        before = {t.ident for t in threading.enumerate()}
        tracer = ChromeTracer()
        plan = _chaos_plan()
        eng = ExecutionEngine(
            n_workers=3,
            max_batch=4,
            queue_depth=64,
            policy="least-loaded",
            faults=plan,
            default_deadline_s=20.0,
            retry=RetryPolicy(max_attempts=3, base_s=0.01, jitter=0.5),
            breaker_config={"failure_threshold": 2, "cooldown_s": 0.2},
            tracer=tracer,
        )
        jobs = _jobs()
        outcomes = {"result": 0, "typed_error": 0}
        with eng:
            handles = [eng.submit(job) for job in jobs]
            for handle in handles:
                try:
                    handle.result(timeout=30.0)
                    outcomes["result"] += 1
                except EngineError:
                    outcomes["typed_error"] += 1
                # anything else (TimeoutError, bare exception) fails the test

        # 1. every job terminated, one way or the other
        assert sum(outcomes.values()) == len(jobs)
        assert outcomes["result"] > 0  # the pool survived the chaos

        # 2. the kill really happened and drove retries + a breaker trip
        stats = eng.stats()
        assert stats.faults_injected["kill"] == 1
        assert stats.retries > 0
        assert stats.breakers["w1"]["times_opened"] >= 1

        # 3. breaker transitions are visible in the exported metrics...
        snap = eng.metrics.snapshot()
        assert snap["engine.breaker_transitions"] >= 1
        assert snap["engine.breaker_to_open"] >= 1

        # ...and in the trace event stream
        names = {e.get("name") for e in tracer.events()}
        assert "breaker:w1" in names

        # 4. no engine thread outlives shutdown
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
        assert not leftover, f"threads survived shutdown: {leftover}"

    def test_chaos_replays_identically(self):
        # same plan seed, same job seeds => the same faults fire, so
        # the same set of job seeds fails on both runs
        def run_once():
            plan = _chaos_plan()
            eng = ExecutionEngine(
                n_workers=3,
                max_batch=4,
                policy="least-loaded",
                faults=plan,
                retry=RetryPolicy(max_attempts=3, base_s=0.01, jitter=0.0),
                breaker_config={"failure_threshold": 2, "cooldown_s": 0.2},
            )
            failed_seeds = set()
            with eng:
                handles = [(job, eng.submit(job)) for job in _jobs(n=32)]
                for job, handle in handles:
                    try:
                        handle.result(timeout=30.0)
                    except EngineError:
                        failed_seeds.add(job.seed)
            return failed_seeds

        assert run_once() == run_once()

    def test_run_chaos_driver_reports_full_termination(self):
        # the `chaos` preset: serve-chaos on one shard of three workers
        result = run_chaos()
        row = dict(zip(result.headers, result.rows[0]))
        assert row["jobs"] == 96
        assert row["unresolved"] == 0
        assert row["completed"] > 0
        accounted = ("completed", "throttled", "queue shed",
                     "deadline shed", "failed")
        assert sum(row[k] for k in accounted) == 96
        assert result.series["faults_injected"]["kill"] == 1
        assert "s0w1" in result.series["tier"]["shards"]["shard0"]["breakers"]
        assert result.series["plan"]["seed"] == SEED

    def test_wedged_worker_cannot_outlive_shutdown(self):
        # a 30s wedge on every batch: shutdown must still complete
        # quickly because it releases the plan and force-resolves
        plan = FaultPlan([FaultRule(scope="batch", mode="wedge", wedge_s=30.0)])
        eng = ExecutionEngine(
            n_workers=1, faults=plan, breakers=False
        ).start()
        handle = eng.submit(GammaJob(n_samples=16, seed=1))
        time.sleep(0.05)  # the worker is now wedged mid-batch
        t0 = time.monotonic()
        eng.shutdown(drain=True, timeout=10.0)
        assert time.monotonic() - t0 < 5.0
        assert handle.done  # resolved (result or typed error), not hung
