"""Device workers: N simulated accelerators, one host thread each.

Each :class:`DeviceWorker` is a device model plus a modeled device
clock: the device comes from the worker's
:class:`repro.harness.KernelSession` context, its kernel timing from
:class:`~repro.devices.FpgaModel` (FPGA workers) or
:class:`~repro.devices.FixedArchitectureModel` (CPU/GPU/PHI).  Each
worker runs on its own host thread, exactly the decoupled-work-item
picture lifted one level: like a work-item of the paper's Listing 1
that pulls its next token from its stream when it is free, a free
worker takes its next batch from the admission queue, and workers never
interfere with each other's state.  Which worker takes which batch,
and when, is the :class:`~repro.engine.shard.ShardCore` decision.

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
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.devices import FixedArchitectureModel, FpgaModel
from repro.engine.jobs import Batch
from repro.engine.resilience import CircuitBreaker, JobDeadlineExceeded
from repro.harness.configs import CONFIGURATIONS, Configuration
from repro.harness.session import KernelSession
from repro.obs import get_tracer
from repro.opencl.platform import Device

__all__ = [
    "BatchOutcome",
    "DeviceWorker",
    "WorkerPool",
    "batch_service_seconds",
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
                # the deadline passed between pickup and device
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


class WorkerPool:
    """The device workers, their breakers and one host thread each.

    Parameters
    ----------
    workers:
        The device workers (>= 1, unique names).
    breakers:
        Optional per-worker :class:`~repro.engine.resilience.CircuitBreaker`
        map; the engine's :class:`~repro.engine.shard.ShardCore` fences
        workers by it and records their outcomes on it.

    A worker's thread loops: ``take(index)`` blocks until the worker's
    next batch (None ends the thread), the worker executes it, and
    ``done(index, outcome)`` reports the :class:`BatchOutcome`.  An
    exception out of ``execute`` is a worker-level fault: it fails every
    job of the batch and sets ``worker_fault``.
    """

    def __init__(
        self,
        workers: list[DeviceWorker],
        breakers: dict[str, CircuitBreaker] | None = None,
    ):
        if not workers:
            raise ValueError("pool needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"worker names must be unique, got {names}")
        if breakers is not None:
            unknown = set(breakers) - set(names)
            if unknown:
                raise ValueError(
                    f"breakers for unknown workers: {sorted(unknown)}"
                )
        self.workers = workers
        self.breakers = breakers or {}
        self._threads: list[threading.Thread] = []

    def start(
        self,
        take: Callable[[int], Batch | None],
        done: Callable[[int, BatchOutcome], None],
    ) -> None:
        if self._threads:
            raise RuntimeError("pool already started")
        for index, worker in enumerate(self.workers):
            t = threading.Thread(
                target=self._run,
                args=(index, take, done),
                name=f"repro-engine-{worker.name}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def join(self, timeout: float | None = 10.0) -> None:
        for t in self._threads:
            t.join(timeout)

    def _run(self, index: int, take, done) -> None:
        worker = self.workers[index]
        while True:
            batch = take(index)
            if batch is None:
                return
            try:
                # through the instance attribute, so a wrapped execute
                # (benchmark probes) sees every batch
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
            done(index, outcome)
