"""repro.engine — concurrent multi-device execution engine.

The serving layer of the reproduction: accepts simulation jobs, admits
them through a bounded queue with backpressure (``hls::stream``
semantics at the serving layer, §III-A), coalesces compatible jobs into
device batches (§III-E combining applied to requests), and dispatches
batches across a pool of simulated device workers under a pluggable
scheduling policy.  See ``docs/engine.md`` for the architecture.

* :mod:`repro.engine.jobs` — job types and results,
* :mod:`repro.engine.queue` — the bounded admission queue,
* :mod:`repro.engine.batcher` — request coalescing,
* :mod:`repro.engine.pool` — device workers and scheduling policies,
* :mod:`repro.engine.engine` — the orchestrating ExecutionEngine,
* :mod:`repro.engine.resilience` — fault injection, deadlines,
  retries and circuit breakers (see ``docs/resilience.md``),
* :mod:`repro.engine.stats` — latency/throughput accounting,
* :mod:`repro.engine.bench` — the `serve-bench` driver (the seeded
  `chaos` run lives with `serve-chaos` in :mod:`repro.serve.bench`).
"""

from repro.engine.batcher import Batch, Batcher
from repro.engine.bench import make_job_mix, run_serve_bench
from repro.engine.engine import ExecutionEngine, JobFailed, JobHandle
from repro.engine.jobs import GammaJob, Job, JobResult, PortfolioJob
from repro.engine.pool import (
    BatchOutcome,
    DeviceWorker,
    SchedulingPolicy,
    WorkerPool,
    make_policy,
)
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
from repro.engine.stats import EngineStats, JobRecord, WorkerStats

__all__ = [
    "Batch",
    "Batcher",
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
    "JobRecord",
    "JobResult",
    "ManualClock",
    "PortfolioJob",
    "RetryPolicy",
    "SchedulingPolicy",
    "SubmitTimeout",
    "TimerThread",
    "WorkerFault",
    "WorkerPool",
    "WorkerStats",
    "make_job_mix",
    "make_policy",
    "run_serve_bench",
]
