"""JobHandle done callbacks (the gateway's asyncio bridge and EWMA feed)."""

import threading

from repro.engine.engine import ExecutionEngine
from repro.engine.jobs import GammaJob


def _jobs(n, seed0=0, samples=256):
    return [
        GammaJob(config="Config1", n_samples=samples, seed=seed0 + i)
        for i in range(n)
    ]


class TestDoneCallbacks:
    def test_callback_fires_on_completion(self):
        fired = threading.Event()
        seen = []
        with ExecutionEngine(n_workers=1) as engine:
            handle = engine.submit(_jobs(1)[0])
            handle.add_done_callback(
                lambda h: (seen.append(h), fired.set())
            )
            handle.result(timeout=30)
            assert fired.wait(5)
        assert seen[0] is handle
        assert seen[0].error is None

    def test_callback_after_done_fires_immediately(self):
        with ExecutionEngine(n_workers=1) as engine:
            handle = engine.submit(_jobs(1)[0])
            handle.result(timeout=30)
            seen = []
            handle.add_done_callback(seen.append)
            assert seen == [handle]

    def test_callback_exception_is_swallowed(self):
        with ExecutionEngine(n_workers=1) as engine:
            handle = engine.submit(_jobs(1)[0])

            def _boom(h):
                raise RuntimeError("observer bug")

            handle.add_done_callback(_boom)
            # the resolving thread must not be wedged by the bad observer
            assert handle.result(timeout=30) is not None

    def test_error_visible_to_callback(self):
        from repro.engine.resilience import FaultPlan, FaultRule, WorkerFault

        plan = FaultPlan(
            rules=[FaultRule(scope="job", mode="fail", probability=1.0)],
            seed=3,
        )
        done = threading.Event()
        captured = []
        with ExecutionEngine(n_workers=1, faults=plan) as engine:
            handle = engine.submit(_jobs(1, seed0=3)[0])
            handle.add_done_callback(
                lambda h: (captured.append(h.error), done.set())
            )
            assert done.wait(10)
        assert isinstance(captured[0], WorkerFault)
