"""repro.engine — concurrent multi-device execution engine.

The serving layer of the reproduction: accepts simulation jobs, admits
them through a bounded queue with backpressure (``hls::stream``
semantics at the serving layer, §III-A), and runs them on a pool of
simulated device workers, each of which coalesces compatible jobs into
one device batch (§III-E combining applied to requests) when it takes
its next batch.  See ``docs/engine.md`` for the architecture.

* :mod:`repro.engine.jobs` — job types, batches and results,
* :mod:`repro.engine.queue` — the bounded admission queue and the
  batch rule,
* :mod:`repro.engine.shard` — the clock-free scheduler of one shard,
  shared with the virtual tier,
* :mod:`repro.engine.pool` — device workers and their threads,
* :mod:`repro.engine.engine` — the orchestrating ExecutionEngine,
* :mod:`repro.engine.resilience` — fault injection, deadlines,
  retries and circuit breakers (see ``docs/resilience.md``),
* :mod:`repro.engine.stats` — latency/throughput accounting,
* :mod:`repro.engine.bench` — the `serve-bench` driver (the seeded
  `chaos` run lives with `serve-chaos` in :mod:`repro.serve.bench`).
"""

from repro.engine.bench import make_job_mix, run_serve_bench
from repro.engine.engine import ExecutionEngine, JobFailed, JobHandle
from repro.engine.jobs import Batch, GammaJob, Job, JobResult, PortfolioJob
from repro.engine.pool import BatchOutcome, DeviceWorker, WorkerPool
from repro.engine.queue import (
    BoundedJobQueue,
    EngineError,
    JobQueueClosed,
    JobQueueFull,
    SubmitTimeout,
)
from repro.engine.resilience import (
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    InjectedFault,
    JobDeadlineExceeded,
    ManualClock,
    RetryPolicy,
    TimerThread,
    WorkerFault,
)
from repro.engine.shard import ShardCore
from repro.engine.stats import EngineStats, WorkerStats

__all__ = [
    "Batch",
    "BatchOutcome",
    "BoundedJobQueue",
    "CircuitBreaker",
    "DeviceWorker",
    "EngineError",
    "EngineStats",
    "ExecutionEngine",
    "FaultPlan",
    "FaultRule",
    "GammaJob",
    "InjectedFault",
    "Job",
    "JobDeadlineExceeded",
    "JobFailed",
    "JobHandle",
    "JobQueueClosed",
    "JobQueueFull",
    "JobResult",
    "ManualClock",
    "PortfolioJob",
    "RetryPolicy",
    "ShardCore",
    "SubmitTimeout",
    "TimerThread",
    "WorkerFault",
    "WorkerPool",
    "WorkerStats",
    "make_job_mix",
    "run_serve_bench",
]
