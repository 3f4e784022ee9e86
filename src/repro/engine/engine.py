"""The execution engine: admission → batching → multi-device execution.

Wires the pieces into the serving pipeline the ROADMAP's north star
asks for, shaped exactly like the paper's §III dataflow one level up:

.. code-block:: text

    submit() ──▶ BoundedJobQueue ──▶ device workers ──▶ results
                 (backpressure,       (each takes its next §III-E
                  hls::stream          batch when free; ShardCore
                  semantics)           decides which and when)

* **Admission** is a bounded FIFO: a full queue blocks the submitter
  (``admission="block"``, the ``hls::stream`` semantics) or sheds it
  with the typed :class:`~repro.engine.queue.JobQueueFull`
  (``admission="shed"``, the load-balancer semantics).
* **Pickup**: a free worker forms its batch when it takes it, coalescing
  jobs with equal batch keys into one device transaction, which
  amortizes kernel-launch and PCIe fixed costs.  No formed batch waits
  outside the queue, so the queue's depth is the whole buffer.  Every
  decision — which jobs, which worker, when a retry is ready, breaker
  fences, deadline sheds — is the clock-free
  :class:`~repro.engine.shard.ShardCore`'s, driven here by the worker
  threads under the queue's lock on ``time.monotonic()`` and by
  :func:`repro.serve.loadgen.simulate_tier` on a virtual clock.
* **Workers** each advance their own simulated device timeline, so
  throughput is measured on modeled hardware time and is
  deterministic.
* **Determinism**: every job computes from its own seed, so results are
  bit-identical regardless of worker count, batch shape or policy —
  the serving-layer mirror of the decoupled work-items' independence.
"""

from __future__ import annotations

import functools
import heapq
import threading
import time
from typing import Iterable, Sequence

from repro.engine.jobs import Batch, Job, JobResult, _next_batch_id
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
    JobDeadlineExceeded,
    RetryPolicy,
    TimerThread,
)
from repro.engine.shard import Attempt, ShardCore
from repro.engine.stats import EngineStats, WorkerStats
from repro.obs import MetricsRegistry, get_tracer

__all__ = ["ExecutionEngine", "JobFailed", "JobHandle"]

#: what a worker's pickup returns once a closed engine has nothing left
_STOP = object()


class JobFailed(EngineError):
    """The job's compute raised; the original exception is ``__cause__``."""


class JobHandle:
    """Future-like handle returned by :meth:`ExecutionEngine.submit`."""

    def __init__(self, job: Job):
        self.job = job
        self.submitted_at = time.monotonic()
        self.picked_up_at: float | None = None
        self._done = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self._callbacks_lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def error(self) -> BaseException | None:
        """The resolving error, if any — non-blocking peek for observers."""
        return self._error

    def add_done_callback(self, fn) -> None:
        """Run ``fn(handle)`` once the handle resolves (maybe immediately).

        The callback fires from whichever thread resolves the handle
        (worker, watchdog, shutdown) — callers bridging to an event
        loop must trampoline with ``loop.call_soon_threadsafe``, which
        is exactly what :mod:`repro.serve.gateway` does.  Exceptions in
        callbacks are swallowed: a broken observer must never wedge the
        resolving thread.
        """
        with self._callbacks_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        try:
            fn(self)
        except Exception:
            pass

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for the job's result; re-raises a failure as JobFailed."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job.job_id} not done within {timeout}s"
            )
        if self._error is not None:
            if isinstance(self._error, EngineError):
                raise self._error  # typed engine errors pass through
            raise JobFailed(
                f"job {self.job.job_id} failed: {self._error}"
            ) from self._error
        assert self._result is not None
        return self._result

    def _fulfill(self, result: JobResult | None, error: BaseException | None):
        self._result = result
        self._error = error
        with self._callbacks_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn(self)
            except Exception:
                pass


class ExecutionEngine:
    """Concurrent multi-device engine with bounded admission and batching.

    Parameters
    ----------
    n_workers:
        Device workers to spawn (ignored when ``workers`` is given).
    device, config:
        Device name and Table I configuration of the spawned workers.
    queue_depth:
        Bounded admission queue capacity.
    max_batch:
        Batch occupancy ceiling; 1 disables coalescing.
    policy:
        Which free worker takes the next batch: "fifo" (the one idle
        longest) or "least-loaded" (the one with the least modeled
        device time).
    admission:
        "block" (stall the submitter when full) or "shed" (raise
        :class:`JobQueueFull` immediately).
    submit_timeout_s:
        Under "block": raise :class:`SubmitTimeout` after this long.
    workers:
        Pre-built heterogeneous workers, overriding ``n_workers``.
    tracer:
        Explicit :class:`repro.obs.Tracer`; ``None`` resolves the
        global tracer at construction.  When enabled, the engine emits
        per-job spans plus shed, retry and breaker events; disabled
        keeps every hot path event-free.
    retry:
        :class:`~repro.engine.resilience.RetryPolicy` for retryable
        (worker-level) failures; ``None`` uses the default policy.
        ``RetryPolicy(max_attempts=1)`` disables retries.
    faults:
        Optional :class:`~repro.engine.resilience.FaultPlan` threaded
        through every managed worker's ``execute`` for reproducible
        chaos runs; released automatically at shutdown.
    default_deadline_s:
        End-to-end deadline applied to jobs that don't carry their own
        ``deadline_s``; ``None`` (default) leaves such jobs unbounded.
    breakers:
        ``True`` (default) builds one circuit breaker per worker —
        tuned by ``breaker_config`` kwargs for
        :class:`~repro.engine.resilience.CircuitBreaker` — ``False``
        disables them, and a ``{worker_name: CircuitBreaker}`` dict
        supplies pre-built ones, each keeping its own clock.

    Attributes
    ----------
    metrics:
        A :class:`repro.obs.MetricsRegistry` (prefix ``engine.``)
        counting admissions, sheds, completions and batch shapes, and
        observing the latency series; snapshot with
        ``engine.metrics.snapshot()``.
    """

    def __init__(
        self,
        n_workers: int = 2,
        device: str = "FPGA",
        config: str = "Config1",
        queue_depth: int = 64,
        max_batch: int = 8,
        policy: str = "fifo",
        admission: str = "block",
        submit_timeout_s: float | None = None,
        workers: Sequence[DeviceWorker] | None = None,
        tracer=None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        default_deadline_s: float | None = None,
        breakers: bool | dict[str, CircuitBreaker] = True,
        breaker_config: dict | None = None,
        name: str = "engine",
        worker_prefix: str = "w",
    ):
        if admission not in ("block", "shed"):
            raise ValueError(
                f"admission must be 'block' or 'shed', got {admission!r}"
            )
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if workers is None:
            if n_workers < 1:
                raise ValueError("need at least one worker")
            workers = [
                DeviceWorker(
                    f"{worker_prefix}{i}", device_name=device, config=config
                )
                for i in range(n_workers)
            ]
        self.name = name
        self.admission = admission
        self.submit_timeout_s = submit_timeout_s
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.fault_plan = faults
        self.default_deadline_s = default_deadline_s
        self.tracer = tracer if tracer is not None else get_tracer()
        # bounded histograms: an engine inside a serving tier observes
        # latencies for as long as the tier lives, so the registry must
        # not grow with job count
        self.metrics = MetricsRegistry(
            prefix="engine.", bounded_histograms=True
        )
        self.queue = BoundedJobQueue(depth=queue_depth, name=f"{name}_admission")
        self.queue.attach_tracer(self.tracer)
        breaker_map = self._build_breakers(list(workers), breakers, breaker_config)
        self.pool = WorkerPool(list(workers), breakers=breaker_map)
        pool_workers = self.pool.workers
        #: every scheduling decision; touched only under the queue's lock
        self.core = ShardCore(
            [w.name for w in pool_workers],
            [breaker_map.get(w.name) for w in pool_workers],
            max_batch,
            policy=policy,
            retry=self.retry_policy,
            load=lambda index: pool_workers[index].device_busy_s,
        )
        for worker in pool_workers:
            if worker.tracer is None:
                worker.tracer = self.tracer
            if faults is not None and worker.fault_plan is None:
                worker.fault_plan = faults
        self._jobs_track = (
            self.tracer.track("engine", "jobs")
            if self.tracer.enabled
            else None
        )
        self._breaker_track = (
            self.tracer.track("engine", "breakers")
            if self.tracer.enabled
            else None
        )
        self._handles: dict[int, JobHandle] = {}
        # slowest-K latency exemplars: (total_s, job_id, trace_id,
        # worker, batch_id) min-heap, kept only for traced jobs so the
        # BENCH p99 rows carry debuggable trace ids
        self._exemplars: list[tuple] = []
        self._exemplar_k = 8
        self._trace_sampling: float | None = None
        self._state_lock = threading.Lock()
        self._jobs_shed = 0
        self._jobs_deadline_shed = 0
        self._retries = 0
        self._admitted = 0
        self._resolved = 0
        #: the deadline watchdog
        self._timer = TimerThread()
        self._started = False
        self._shut_down = False
        self._started_at: float | None = None
        self._stopped_at: float | None = None

    def _build_breakers(
        self,
        workers: list[DeviceWorker],
        breakers: bool | dict[str, CircuitBreaker],
        breaker_config: dict | None,
    ) -> dict[str, CircuitBreaker]:
        """One breaker per worker, wired into metrics and the trace."""
        if breakers is False:
            return {}
        if breakers is True:
            built = {
                w.name: CircuitBreaker(**(breaker_config or {}))
                for w in workers
            }
        else:
            built = dict(breakers)
        for name, breaker in built.items():
            if breaker.on_transition is None:
                breaker.on_transition = (
                    lambda old, new, _name=name: self._on_breaker_transition(
                        _name, old, new
                    )
                )
        return built

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ExecutionEngine":
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        self._started_at = time.monotonic()
        self._timer.start()
        self.pool.start(self._take, self._done)
        return self

    def __enter__(self) -> "ExecutionEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- submission --------------------------------------------------------------

    def submit(self, job: Job) -> JobHandle:
        """Admit one job through the bounded queue.

        Raises the typed backpressure errors: :class:`JobQueueFull`
        (shed), :class:`SubmitTimeout` (blocked too long),
        :class:`JobQueueClosed` (after shutdown began) or
        :class:`JobDeadlineExceeded` (the job's deadline expired while
        admission was blocked).

        The job's deadline — its own ``deadline_s`` or the engine's
        ``default_deadline_s`` — is stamped as an absolute monotonic
        instant here and enforced end-to-end: blocking admission never
        outlasts it, a worker taking a batch or starting a retry sheds
        expired jobs instead of running them, workers skip them instead
        of computing them, and a watchdog resolves the handle the moment
        it passes even if the job is stuck on a wedged worker.
        """
        if not self._started:
            raise RuntimeError("engine not started (use start() or `with`)")
        handle = JobHandle(job)
        deadline_s = (
            job.deadline_s
            if job.deadline_s is not None
            else self.default_deadline_s
        )
        if deadline_s is not None:
            job.deadline_s = deadline_s
            job.deadline_at = handle.submitted_at + deadline_s
        with self._state_lock:
            self._handles[job.job_id] = handle
        timeout = self.submit_timeout_s
        if job.deadline_at is not None:
            remaining = job.deadline_at - time.monotonic()
            timeout = remaining if timeout is None else min(timeout, remaining)
        try:
            if timeout is not None and timeout <= 0:
                raise SubmitTimeout(
                    f"job {job.job_id} deadline expired before admission"
                )
            self.queue.put(
                job,
                block=self.admission == "block",
                timeout=timeout,
            )
        except EngineError as exc:
            with self._state_lock:
                self._handles.pop(job.job_id, None)
            if job.trace is not None:
                # non-terminal: a sharded tier may still spill this job
                # to another shard; whoever decides finality (sharding,
                # gateway) emits the terminal shed
                job.trace.emit(
                    "queue", "queue_shed", t=time.monotonic(),
                    status="shed", engine=self.name,
                    error=type(exc).__name__,
                )
            if isinstance(exc, SubmitTimeout) and job.expired():
                # the deadline, not the submit timeout, was binding
                with self._state_lock:
                    self._jobs_deadline_shed += 1
                self.metrics.counter("jobs_deadline_shed").inc()
                raise JobDeadlineExceeded(
                    f"job {job.job_id} missed its {deadline_s:.3f}s "
                    "deadline while blocked in admission"
                ) from exc
            with self._state_lock:
                self._jobs_shed += 1
            self.metrics.counter("jobs_shed").inc()
            raise
        with self._state_lock:
            self._admitted += 1
        self.metrics.counter("jobs_submitted").inc()
        if job.trace is not None:
            job.trace.emit(
                "queue", "enqueue", t=handle.submitted_at,
                engine=self.name, occupancy=len(self.queue),
            )
        if job.deadline_at is not None:
            # watchdog: resolve the handle the instant the deadline
            # passes, wherever the job is stuck (queue, backoff, worker)
            self._timer.schedule(
                job.deadline_at, lambda: self._expire_job(job)
            )
        return handle

    def run(
        self, jobs: Iterable[Job], timeout: float | None = 120.0
    ) -> list[JobResult]:
        """Submit every job (blocking admission) and wait for all results."""
        handles = [self.submit(job) for job in jobs]
        return [h.result(timeout) for h in handles]

    # -- shutdown ----------------------------------------------------------------

    def drain(self, timeout: float | None = 60.0) -> bool:
        """Wait until everything admitted so far has *resolved*.

        Resolution counts results, typed errors, deadline sheds and
        abandoned handles alike — pending retries included — so this is
        the "no caller is still blocked on a handle" condition, not
        merely "the queue is empty".  Then it waits until no worker
        still runs a batch (one whose jobs the watchdog resolved).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._state_lock:
                if self._resolved >= self._admitted:
                    break
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.002)
        while not self.queue.wait(lambda fifo, now, closed: (self.core.idle, None)):
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.002)
        return True

    def shutdown(self, drain: bool = True, timeout: float | None = 60.0) -> None:
        """Stop admitting; optionally drain pending work, then stop workers.

        With ``drain=True`` (graceful) every admitted job completes and
        its handle resolves.  With ``drain=False`` pending jobs are
        abandoned: their handles fail with :class:`JobQueueClosed`.
        Either way no failure retries once shutdown began, and the
        shutdown is *total*: the fault plan's wedges are released, the
        workers end once nothing is queued, retrying or running, the
        watchdog stops, and any handle still pending — work a timed-out
        drain left, a batch stuck on a wedged device — resolves with
        :class:`JobQueueClosed` rather than hanging its waiter.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self.queue.close()
        if self.fault_plan is not None:
            # end current and future wedges so drain terminates promptly
            self.fault_plan.release()
        if not self._started:
            return
        if drain:
            self.drain(timeout)
        abandoned = self.queue.wait(
            lambda fifo, now, closed: (self.core.abandon(fifo), None)
        )
        for job in abandoned:
            with self._state_lock:
                handle = self._handles.pop(job.job_id, None)
            if handle is not None:
                self._finish(
                    handle,
                    None,
                    JobQueueClosed(f"job {job.job_id} abandoned by shutdown"),
                )
        self.pool.join(timeout)
        self._timer.stop()
        # nothing may hang past shutdown: any handle still tracked
        # (a batch lost on a stopped/wedged worker) resolves with the
        # typed closed error
        with self._state_lock:
            leftovers = list(self._handles.values())
            self._handles.clear()
        for handle in leftovers:
            self._finish(
                handle,
                None,
                JobQueueClosed(
                    f"job {handle.job.job_id} unresolved at engine shutdown"
                ),
            )
        self._stopped_at = time.monotonic()

    # -- internals ---------------------------------------------------------------

    def _finish(
        self,
        handle: JobHandle,
        result: JobResult | None,
        error: BaseException | None,
    ) -> None:
        """Single funnel for handle resolution (keeps drain accounting).

        Also the single *terminal* emitter for admitted traced jobs:
        every resolution path (worker completion, terminal failure,
        deadline watchdog, shutdown abandonment) funnels through here,
        so a chain gets exactly one terminal — and the log's
        first-terminal-wins idempotency covers outer layers (gateway
        catch-all) that close chains the engine never admitted.
        """
        job = handle.job
        if job.trace is not None:
            now = time.monotonic()
            if error is None:
                kind, status = "complete", "ok"
            elif isinstance(error, JobDeadlineExceeded):
                kind, status = "deadline", "shed"
            elif isinstance(error, JobQueueClosed):
                kind, status = "closed", "error"
            else:
                kind, status = "failed", "error"
            job.trace.emit(
                "request", kind, t=now, status=status, terminal=True,
                latency_s=now - handle.submitted_at, engine=self.name,
            )
        handle._fulfill(result, error)
        with self._state_lock:
            self._resolved += 1

    def _expire_job(self, job: Job) -> None:
        """Deadline watchdog / pickup shed: fail the handle if pending."""
        with self._state_lock:
            handle = self._handles.pop(job.job_id, None)
        if handle is None:
            return  # already resolved (or being resolved) elsewhere
        with self._state_lock:
            self._jobs_deadline_shed += 1
        self.metrics.counter("jobs_deadline_shed").inc()
        if self._jobs_track is not None:
            self.tracer.instant(
                self._jobs_track, "deadline_shed",
                args={"job_id": job.job_id},
            )
        self._finish(
            handle,
            None,
            JobDeadlineExceeded(
                f"job {job.job_id} missed its "
                f"{(job.deadline_s or 0.0):.3f}s deadline"
            ),
        )

    def _on_breaker_transition(self, worker: str, old: str, new: str) -> None:
        self.metrics.counter("breaker_transitions").inc()
        self.metrics.counter(f"breaker_to_{new}").inc()
        if self._breaker_track is not None:
            self.tracer.instant(
                self._breaker_track, f"breaker:{worker}",
                args={"worker": worker, "from": old, "to": new},
            )

    def _retry_candidate(self, job: Job, error: BaseException, attempt: int) -> bool:
        """Should this failed job go back out to a different worker?"""
        if self._shut_down:
            return False
        if not self.retry_policy.retryable(error):
            return False
        if job.expired():
            return False
        with self._state_lock:
            if job.job_id not in self._handles:
                return False  # watchdog already resolved it
        return attempt < self.retry_policy.max_attempts

    # -- worker threads ------------------------------------------------------------

    def _pickup(self, index: int, fifo, now: float, closed: bool):
        """Worker ``index``'s turn at the core, under the queue lock."""
        pick = self.core.next_start(fifo, now)
        if pick is None:
            # nothing queued or retrying: a closed engine whose workers
            # are all free has nothing left to do
            return (_STOP if closed and self.core.idle else None), None
        if pick.worker != index:
            return None, None  # whoever is picked was woken too
        if pick.start > now:
            return None, pick.start  # a retry's backoff or a breaker fence
        return self.core.begin(pick, now, fifo), None

    def _take(self, index: int) -> Batch | None:
        """Block until worker ``index`` takes its next batch; None ends it."""
        pickup = functools.partial(self._pickup, index)
        while True:
            attempt = self.queue.wait(pickup)
            if attempt is _STOP:
                return None
            for job in attempt.expired:
                self._expire_job(job)
            if attempt.jobs:
                return self._batch(attempt)

    def _batch(self, attempt: Attempt) -> Batch:
        """The started attempt's batch; a fresh one stamps its pickup."""
        batch = Batch(
            jobs=attempt.jobs, attempt=attempt.attempt, avoid=attempt.avoid
        )
        if attempt.batch_id is not None:
            batch.batch_id = attempt.batch_id  # as its retry was announced
            return batch
        now = attempt.start
        with self._state_lock:
            handles = [self._handles.get(job.job_id) for job in batch.jobs]
        for job, handle in zip(batch.jobs, handles):
            if handle is None:
                continue
            handle.picked_up_at = now
            if job.trace is not None:
                job.trace.emit(
                    "queue", "wait", t=handle.submitted_at,
                    dur=now - handle.submitted_at, engine=self.name,
                )
                job.trace.emit(
                    "batch", "batch", t=now,
                    batch_id=batch.batch_id, size=batch.size,
                    attempt=batch.attempt,
                )
        return batch

    def _done(self, index: int, outcome: BatchOutcome) -> None:
        """Resolve a finished batch, then hand the worker back to the core."""
        retry_jobs = self._on_batch(outcome)
        batch = outcome.batch
        retry_id = None
        if retry_jobs:
            retry_id = _next_batch_id()
            self._announce_retry(
                retry_jobs, outcome, retry_id,
                self.core.backoff(batch.attempt, retry_jobs),
            )
        self.queue.wait(
            lambda fifo, now, closed: (
                self.core.finish(
                    index, now, outcome.worker_fault is not None,
                    retry_jobs, batch.attempt, batch.avoid, retry_id,
                ),
                None,
            )
        )

    def _announce_retry(
        self, jobs: list[Job], outcome: BatchOutcome, batch_id: int, delay: float
    ) -> None:
        attempt = outcome.batch.attempt + 1
        avoid = sorted(outcome.batch.avoid | {outcome.worker})
        with self._state_lock:
            self._retries += len(jobs)
        self.metrics.counter("job_retries").inc(len(jobs))
        retry_at = time.monotonic()
        for j in jobs:
            if j.trace is not None:
                j.trace.emit(
                    "retry", "retry_scheduled", t=retry_at,
                    attempt=attempt, delay_s=delay, avoid=avoid,
                    batch_id=batch_id,
                )
        if self._jobs_track is not None:
            self.tracer.instant(
                self._jobs_track, "retry_scheduled",
                args={
                    "batch_id": batch_id,
                    "jobs": len(jobs),
                    "attempt": attempt,
                    "delay_ms": round(1e3 * delay, 3),
                    "avoid": avoid,
                },
            )

    def _on_batch(self, outcome: BatchOutcome) -> list[Job]:
        """Resolve a batch's jobs; returns the ones that should retry."""
        now = time.monotonic()
        fixed_overhead = outcome.batch_device_seconds - sum(
            outcome.device_seconds
        )
        overhead_share = max(0.0, fixed_overhead) / outcome.batch.size
        retry_jobs: list[Job] = []
        for job, payload, error, dev_s in zip(
            outcome.batch.jobs,
            outcome.payloads,
            outcome.errors,
            outcome.device_seconds,
        ):
            if job.trace is not None:
                job.trace.emit(
                    "worker", "execute",
                    t=now - outcome.service_wall_s,
                    dur=outcome.service_wall_s,
                    status="ok" if error is None else "error",
                    worker=outcome.worker,
                    batch_id=outcome.batch.batch_id,
                    attempt=outcome.batch.attempt,
                    **(
                        {"error": type(error).__name__}
                        if error is not None
                        else {}
                    ),
                )
            if error is not None and self._retry_candidate(
                job, error, outcome.batch.attempt
            ):
                retry_jobs.append(job)
                continue  # the handle stays pending until the retry lands
            with self._state_lock:
                handle = self._handles.pop(job.job_id, None)
            if handle is None:
                continue
            if error is not None:
                # terminal failure (exhausted retries or not retryable):
                # resolve the handle but keep it out of the completion
                # series — failed jobs are not throughput
                self.metrics.counter("jobs_failed").inc()
                self._finish(handle, None, error)
                continue
            queue_wait = (
                (handle.picked_up_at or now) - handle.submitted_at
            )
            result = JobResult(
                job_id=job.job_id,
                payload=payload,
                worker=outcome.worker,
                batch_id=outcome.batch.batch_id,
                batch_size=outcome.batch.size,
                queue_wait_s=queue_wait,
                service_s=outcome.service_wall_s,
                total_s=now - handle.submitted_at,
                device_seconds=dev_s + overhead_share,
            )
            self.metrics.counter("jobs_completed").inc()
            self.metrics.histogram("queue_wait_s").observe(queue_wait)
            self.metrics.histogram("service_s").observe(outcome.service_wall_s)
            self.metrics.histogram("total_s").observe(result.total_s)
            if job.trace is not None:
                # slowest-K exemplars make the BENCH p99 rows debuggable:
                # a tail latency comes with the trace id to pull its chain
                entry = (
                    result.total_s,
                    job.job_id,
                    job.trace.trace_id,
                    outcome.worker,
                    outcome.batch.batch_id,
                )
                with self._state_lock:
                    if self._trace_sampling is None:
                        self._trace_sampling = job.trace.log.sample_rate
                    if len(self._exemplars) < self._exemplar_k:
                        heapq.heappush(self._exemplars, entry)
                    elif entry > self._exemplars[0]:
                        heapq.heapreplace(self._exemplars, entry)
            if self._jobs_track is not None:
                self.tracer.complete(
                    self._jobs_track,
                    f"job{job.job_id}",
                    ts_us=self.tracer.wall_us(handle.submitted_at),
                    dur_us=result.total_s * 1e6,
                    args={
                        "worker": outcome.worker,
                        "batch_id": outcome.batch.batch_id,
                        "queue_wait_ms": round(1e3 * queue_wait, 3),
                    },
                )
            self._finish(handle, result, None)
        self.metrics.counter("batches").inc()
        self.metrics.histogram("batch_occupancy").observe(outcome.batch.size)
        if outcome.worker_fault is not None:
            self.metrics.counter("worker_faults").inc()
        return retry_jobs

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> EngineStats:
        """Aggregate report over everything completed so far.

        Taken from the engine's bounded metrics, so it costs the same
        however many jobs the engine served.
        """
        with self._state_lock:
            shed = self._jobs_shed
            deadline_shed = self._jobs_deadline_shed
            retries = self._retries
            exemplars = sorted(self._exemplars, reverse=True)
            trace_sampling = self._trace_sampling
        occupancy = self.metrics.histogram("batch_occupancy").snapshot()
        end = self._stopped_at or time.monotonic()
        wall = end - self._started_at if self._started_at else 0.0
        workers = [
            WorkerStats(
                name=w.name,
                device=w.device_name,
                jobs=w.jobs_done,
                batches=w.batches_done,
                device_busy_s=w.device_busy_s,
            )
            for w in self.pool.workers
        ]
        busy = [w.device_busy_s for w in workers]
        return EngineStats(
            jobs_completed=self.metrics.counter("jobs_completed").value,
            jobs_shed=shed,
            batches=self.metrics.counter("batches").value,
            mean_batch_occupancy=occupancy["mean"],
            max_batch_occupancy=int(occupancy["max"]),
            queue_wait_s=self._summary("queue_wait_s"),
            service_s=self._summary("service_s"),
            total_s=self._summary("total_s"),
            wall_seconds=wall,
            modeled_makespan_s=max(busy, default=0.0),
            modeled_device_seconds=sum(busy),
            queue=self.queue.stats,
            jobs_deadline_shed=deadline_shed,
            retries=retries,
            breakers={
                name: breaker.snapshot()
                for name, breaker in self.pool.breakers.items()
            },
            faults_injected=(
                dict(self.fault_plan.injected)
                if self.fault_plan is not None
                else {}
            ),
            workers=workers,
            latency_exemplars=[
                {
                    "total_s": total_s,
                    "job_id": job_id,
                    "trace_id": trace_id,
                    "worker": worker,
                    "batch_id": batch_id,
                }
                for total_s, job_id, trace_id, worker, batch_id in exemplars
            ],
            trace_sampling=trace_sampling,
        )

    def _summary(self, name: str) -> dict[str, float]:
        """count/mean/p50/p95/p99/max of one latency histogram."""
        snap = self.metrics.histogram(name).snapshot()
        summary = {k: snap[k] for k in ("mean", "p50", "p95", "p99", "max")}
        return {"count": int(snap["count"]), **summary}
