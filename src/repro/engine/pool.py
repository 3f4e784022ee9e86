"""Device worker pool: N simulated accelerators behind one dispatcher.

Each :class:`DeviceWorker` is a device model plus a modeled device
clock: the device comes from the worker's
:class:`repro.harness.KernelSession` context, its kernel timing from
:class:`~repro.devices.FpgaModel` (FPGA workers) or
:class:`~repro.devices.FixedArchitectureModel` (CPU/GPU/PHI).  Each
worker runs on its own host thread, exactly the decoupled-work-item
picture lifted one level: independent engines fed from bounded FIFOs,
stalling when starved, never interfering with each other's state.

A batch is still one §III-E device transaction on the worker's modeled
clock: a single kernel covering every job in the batch followed by a
single combined PCIe readback, so the per-transaction fixed costs —
kernel launch, PCIe round-trip latency — amortize across the batch
occupancy.  :func:`batch_service_seconds` prices that transaction for
both serving tiers: the live worker here and the virtual shard of
:func:`repro.serve.loadgen.simulate_tier`.  The clock advances by the
same arithmetic, in the same order, as the in-order
:class:`repro.opencl.CommandQueue` would, but keeps no buffers or
events: a worker's memory stays flat however many batches it serves.

The dispatcher chooses the worker per batch through a pluggable
:class:`SchedulingPolicy`:

* ``fifo`` — batches land in a shared run queue; the first worker to go
  idle takes the oldest batch (work-conserving, no placement smarts);
* ``least-loaded`` — the batch goes to the worker whose modeled device
  timeline has the smallest backlog;
* ``device-affinity`` — the batch key hashes to a fixed worker, keeping
  a configuration's jobs on one device (warm state, stable batching).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.devices import FixedArchitectureModel, FpgaModel
from repro.engine.batcher import Batch
from repro.engine.jobs import Job
from repro.engine.resilience import CircuitBreaker, JobDeadlineExceeded
from repro.harness.configs import CONFIGURATIONS, Configuration
from repro.harness.session import KernelSession
from repro.obs import get_tracer
from repro.opencl.platform import Device

__all__ = [
    "BatchOutcome",
    "DeviceWorker",
    "SchedulingPolicy",
    "WorkerPool",
    "batch_service_seconds",
    "make_policy",
]


def batch_service_seconds(
    device: Device, kernel_seconds: Iterable[float], result_bytes: int
) -> tuple[float, float]:
    """Modeled cost of one §III-E batch transaction on ``device``.

    Returns ``(kernel_s, read_s)``: the jobs' kernel seconds back to
    back, then one PCIe read of the combined result buffer, padded to
    whole 4-byte words.  A live :class:`DeviceWorker` advances its
    clock by the kernel, then the read; a virtual shard holds its
    worker for their sum.
    """
    nbytes = max(4, -(-result_bytes // 4) * 4)
    return (
        sum(kernel_seconds),
        device.pcie_latency_s + nbytes / device.pcie_bandwidth_bps,
    )


@dataclass
class BatchOutcome:
    """What one batch execution produced, per job plus batch totals."""

    batch: Batch
    worker: str
    payloads: list[Any]  # aligned with batch.jobs
    errors: list[BaseException | None]  # aligned with batch.jobs
    device_seconds: list[float]  # modeled per-job kernel time
    batch_device_seconds: float  # modeled timeline advance of the batch
    service_wall_s: float  # host wall time inside the worker
    #: set when the *worker* (not a job) failed the attempt — the
    #: retryable family the circuit breaker counts
    worker_fault: BaseException | None = None


class DeviceWorker:
    """One simulated accelerator plus the thread that drives it."""

    def __init__(
        self,
        name: str,
        device_name: str = "FPGA",
        config: str | Configuration = "Config1",
    ):
        self.name = name
        self.device_name = device_name
        self.configuration = (
            CONFIGURATIONS[config] if isinstance(config, str) else config
        )
        self.session = KernelSession(device_name, self.configuration)
        self.device = self.session.context.device
        if device_name == "FPGA":
            self.model: FpgaModel | FixedArchitectureModel = FpgaModel(
                n_work_items=self.configuration.fpga_work_items
            )
        else:
            self.model = FixedArchitectureModel(self.device)
        self.jobs_done = 0
        self.batches_done = 0
        self._timeline_lock = threading.Lock()
        #: modeled device time at which the last batch's readback ends
        self._device_now = 0.0
        #: explicit tracer override; None resolves the global tracer at
        #: execute() time (so `--trace` reaches pre-built workers too)
        self.tracer = None
        #: optional :class:`repro.engine.resilience.FaultPlan`; the
        #: engine wires its plan into every worker it manages
        self.fault_plan = None

    # -- modeled timeline --------------------------------------------------------

    @property
    def device_busy_s(self) -> float:
        """Simulated device-timeline occupancy so far."""
        with self._timeline_lock:
            return self._device_now

    def estimate_batch_seconds(self, batch: Batch) -> float:
        """Modeled cost of a batch on *this* worker (dispatch heuristic).

        The same kernel-plus-readback bill :meth:`execute` charges, so a
        pending estimate adds to :attr:`device_busy_s` like for like.
        """
        kernel_s, read_s = batch_service_seconds(
            self.device,
            (job.device_seconds(self.model) for job in batch.jobs),
            batch.result_bytes(),
        )
        return kernel_s + read_s

    # -- execution ---------------------------------------------------------------

    def execute(self, batch: Batch) -> BatchOutcome:
        """Run one batch: compute payloads, advance the device timeline.

        Raises :class:`~repro.engine.resilience.WorkerFault` (via the
        fault plan) when the *worker* fails the whole attempt; job-level
        failures and per-job deadline misses stay isolated in the
        outcome's ``errors``.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        wall0 = time.monotonic()
        if self.fault_plan is not None:
            # may raise InjectedFault (fail/kill), sleep (latency) or
            # hang until released/expired (wedge)
            self.fault_plan.before_batch(self.name, batch, self.batches_done)
        payloads: list[Any] = []
        errors: list[BaseException | None] = []
        device_seconds: list[float] = []
        for job in batch.jobs:
            if job.expired():
                # the deadline passed between dispatch and device
                # execution: shed instead of burning device time
                payloads.append(None)
                device_seconds.append(0.0)
                errors.append(
                    JobDeadlineExceeded(
                        f"job {job.job_id} expired before device "
                        f"execution on worker {self.name!r}"
                    )
                )
                continue
            injected = (
                None
                if self.fault_plan is None
                else self.fault_plan.job_fault(self.name, job)
            )
            if injected is not None:
                payloads.append(None)
                device_seconds.append(0.0)
                errors.append(injected)
                continue
            try:
                payloads.append(job.compute())
                device_seconds.append(job.device_seconds(self.model))
                errors.append(None)
            except Exception as exc:  # job-level fault isolation
                payloads.append(None)
                device_seconds.append(0.0)
                errors.append(exc)
        kernel_s, read_s = batch_service_seconds(
            self.device, device_seconds, batch.result_bytes()
        )
        with self._timeline_lock:
            t0 = self._device_now
            kernel_end = t0 + kernel_s
            self._device_now = kernel_end + read_s
            device_end = self._device_now
        batch_device_s = device_end - t0
        if tracer.enabled:
            # the batch's kernel and readback spans on the modeled timeline
            track = tracer.track(
                "devices (modeled)", f"{self.name} [{self.device_name}]"
            )
            for span, command, start, end in (
                (f"batch{batch.batch_id}_{self.configuration.name}",
                 "task", t0, kernel_end),
                (f"batch{batch.batch_id}_result",
                 "read_buffer", kernel_end, device_end),
            ):
                tracer.complete(
                    track, span, ts_us=start * 1e6,
                    dur_us=(end - start) * 1e6, cat="modeled",
                    args={"command": command},
                )
        self.jobs_done += batch.size
        self.batches_done += 1
        if tracer.enabled:
            tracer.complete(
                tracer.track("engine", f"worker:{self.name}"),
                f"batch{batch.batch_id}",
                ts_us=tracer.wall_us(wall0),
                dur_us=(time.monotonic() - wall0) * 1e6,
                args={
                    "jobs": batch.size,
                    "key": str(batch.key),
                    "attempt": batch.attempt,
                },
            )
        return BatchOutcome(
            batch=batch,
            worker=self.name,
            payloads=payloads,
            errors=errors,
            device_seconds=device_seconds,
            batch_device_seconds=batch_device_s,
            service_wall_s=time.monotonic() - wall0,
        )


# ---------------------------------------------------------------------------
# scheduling policies
# ---------------------------------------------------------------------------


class SchedulingPolicy:
    """Chooses the worker for a batch; None means the shared FIFO."""

    name = "base"

    def select(
        self,
        batch: Batch,
        workers: list[DeviceWorker],
        pending_seconds: dict[str, float],
    ) -> DeviceWorker | None:
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Shared run queue: the first idle worker takes the oldest batch."""

    name = "fifo"

    def select(self, batch, workers, pending_seconds):
        return None


class LeastLoadedPolicy(SchedulingPolicy):
    """Send the batch to the smallest modeled backlog."""

    name = "least-loaded"

    def select(self, batch, workers, pending_seconds):
        return min(
            workers,
            key=lambda w: w.device_busy_s + pending_seconds[w.name],
        )


class DeviceAffinityPolicy(SchedulingPolicy):
    """Pin each batch key to one worker via a stable hash."""

    name = "device-affinity"

    def select(self, batch, workers, pending_seconds):
        digest = zlib.crc32(repr(batch.key).encode())
        return workers[digest % len(workers)]


_POLICIES = {
    p.name: p for p in (FifoPolicy, LeastLoadedPolicy, DeviceAffinityPolicy)
}


def make_policy(policy: str | SchedulingPolicy) -> SchedulingPolicy:
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return _POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; "
            f"known: {sorted(_POLICIES)}"
        ) from None


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """Worker threads pulling batches from per-worker and shared inboxes.

    Parameters
    ----------
    workers:
        The device workers (>= 1).
    policy:
        Scheduling policy name or instance.
    on_batch:
        Callback invoked (from the worker thread) with each
        :class:`BatchOutcome`.
    breakers:
        Optional per-worker :class:`repro.engine.resilience.CircuitBreaker`
        map.  When present, every policy consults it: dispatch places
        batches only on workers whose breaker admits them (``fifo``
        workers additionally self-gate at shared-queue pickup), worker
        faults are recorded as failures, successful batches as
        successes.  A batch with no admitting worker waits in the
        shared queue until a breaker half-opens.
    """

    def __init__(
        self,
        workers: list[DeviceWorker],
        policy: str | SchedulingPolicy = "fifo",
        on_batch: Callable[[BatchOutcome], None] | None = None,
        breakers: dict[str, CircuitBreaker] | None = None,
    ):
        if not workers:
            raise ValueError("pool needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"worker names must be unique, got {names}")
        self.workers = workers
        self.policy = make_policy(policy)
        self.on_batch = on_batch
        self.max_inflight = 2 * len(workers)
        if breakers is not None:
            unknown = set(breakers) - {w.name for w in workers}
            if unknown:
                raise ValueError(
                    f"breakers for unknown workers: {sorted(unknown)}"
                )
        self.breakers = breakers or {}
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._shared: deque[Batch] = deque()
        self._private: dict[str, deque[Batch]] = {w.name: deque() for w in workers}
        self._pending_seconds: dict[str, float] = {w.name: 0.0 for w in workers}
        # batch_id -> (worker name, estimate) for batches counted in
        # _pending_seconds; the estimate is released at batch completion
        # (not pickup), so in-execution work stays visible to the
        # least-loaded policy
        self._counted: dict[int, tuple[str, float]] = {}
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self.tracer = None
        self._track = None

    def attach_tracer(
        self, tracer, process: str = "engine", thread: str = "dispatcher"
    ) -> None:
        """Emit a dispatch instant per batch handed to a worker."""
        self.tracer = tracer
        self._track = tracer.track(process, thread) if tracer.enabled else None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("pool already started")
        for worker in self.workers:
            t = threading.Thread(
                target=self._run_worker,
                args=(worker,),
                name=f"repro-engine-{worker.name}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def _admitting(self, worker: DeviceWorker) -> bool:
        breaker = self.breakers.get(worker.name)
        return breaker is None or breaker.can_admit()

    def _select_target(self, batch: Batch) -> DeviceWorker | None:
        """Pick the batch's worker, consulting avoid-set and breakers.

        Retries (``batch.avoid`` non-empty) go least-loaded among the
        admitting non-avoided workers — the whole point is a *different*
        device.  If every worker's breaker refuses, the batch falls to
        the shared queue, where workers self-gate and the first breaker
        to half-open picks it up as a probe.
        """
        candidates = [w for w in self.workers if w.name not in batch.avoid]
        if not candidates:  # every worker already failed it: relax avoid
            candidates = self.workers
        admitting = [w for w in candidates if self._admitting(w)]
        if not admitting:
            return None
        if batch.avoid:
            return min(
                admitting,
                key=lambda w: w.device_busy_s + self._pending_seconds[w.name],
            )
        return self.policy.select(
            batch, admitting, dict(self._pending_seconds)
        )

    def dispatch(self, batch: Batch, wait_capacity: bool = True) -> None:
        """Hand a batch to the policy-selected inbox.

        Blocks at two outstanding batches per worker — the
        pool-side half of the backpressure chain (worker slots fill →
        dispatch stalls → admission queue fills → submitters stall or
        shed).  Retry re-dispatches pass ``wait_capacity=False``: the
        jobs were already admitted once and counted against the cap,
        and the retry path must never block the timer thread.
        """
        with self._lock:
            while (
                wait_capacity
                and self._inflight >= self.max_inflight
                and not self._stopping
            ):
                self._idle.wait(0.5)
            target = self._select_target(batch)
            if target is None:
                self._shared.append(batch)
            else:
                self._private[target.name].append(batch)
                estimate = target.estimate_batch_seconds(batch)
                self._pending_seconds[target.name] += estimate
                self._counted[batch.batch_id] = (target.name, estimate)
            self._inflight += 1
            self._work_ready.notify_all()
        if self._track is not None:
            self.tracer.instant(
                self._track, "dispatch",
                args={
                    "batch_id": batch.batch_id,
                    "size": batch.size,
                    "attempt": batch.attempt,
                    "target": target.name if target is not None else "shared",
                },
            )

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every dispatched batch completed (graceful drain)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the worker threads (pending batches still drain first)."""
        with self._lock:
            self._stopping = True
            self._work_ready.notify_all()
        for t in self._threads:
            t.join(timeout)

    # -- worker loop -------------------------------------------------------------

    def _take(self, worker: DeviceWorker) -> Batch | None:
        """Next batch for this worker: private inbox first, then shared.

        Shared-queue pickup is breaker-gated: an open breaker keeps
        this worker from taking batches (they wait for another worker
        or for this breaker's cooldown), and a half-open one admits
        only its probe quota — the ``fifo`` policy's consultation of
        the breaker.
        """
        breaker = self.breakers.get(worker.name)
        with self._work_ready:
            while True:
                private = self._private[worker.name]
                if private:
                    return private.popleft()
                if self._shared and (breaker is None or breaker.admit()):
                    return self._shared.popleft()
                if self._stopping:
                    return None
                self._work_ready.wait(0.5)

    def _run_worker(self, worker: DeviceWorker) -> None:
        while True:
            batch = self._take(worker)
            if batch is None:
                return
            try:
                outcome = worker.execute(batch)
            except Exception as exc:  # worker-level fault: fail the batch
                outcome = BatchOutcome(
                    batch=batch,
                    worker=worker.name,
                    payloads=[None] * batch.size,
                    errors=[exc] * batch.size,
                    device_seconds=[0.0] * batch.size,
                    batch_device_seconds=0.0,
                    service_wall_s=0.0,
                    worker_fault=exc,
                )
            breaker = self.breakers.get(worker.name)
            if breaker is not None:
                if outcome.worker_fault is not None:
                    breaker.record_failure()
                else:
                    breaker.record_success()
            if self.on_batch is not None:
                self.on_batch(outcome)
            with self._idle:
                counted = self._counted.pop(batch.batch_id, None)
                if counted is not None:
                    name, estimate = counted
                    self._pending_seconds[name] -= estimate
                self._inflight -= 1
                self._idle.notify_all()
