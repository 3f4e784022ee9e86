"""Engine accounting: the aggregate report of one engine.

:class:`EngineStats` summarizes the engine's bounded metrics (queue
wait, service and total latency histograms, batch counts and
occupancy) together with the bounded queue's
:class:`repro.core.FifoStats` snapshot and each worker's simulated
device timeline; nothing in it grows with the number of jobs served.
Throughput comes in two flavours:

* **wall throughput** — jobs per real second, what a load generator
  observes;
* **modeled throughput** — jobs per simulated device-second of the
  busiest worker (the makespan on the modeled hardware), which is what
  the paper's timing models predict and what the benchmark asserts on
  (deterministic, immune to host scheduling noise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.stream import FifoStats
from repro.obs.percentiles import summarize as _summarize

__all__ = ["WorkerStats", "EngineStats", "summarize"]


@dataclass(frozen=True)
class WorkerStats:
    """One device worker's share of the run."""

    name: str
    device: str
    jobs: int
    batches: int
    device_busy_s: float  # simulated device-timeline occupancy


@dataclass
class EngineStats:
    """Aggregate report of one engine run."""

    jobs_completed: int
    jobs_shed: int
    batches: int
    mean_batch_occupancy: float
    max_batch_occupancy: int
    queue_wait_s: dict[str, float]  # count/mean/p50/p95/p99/max over jobs
    service_s: dict[str, float]
    total_s: dict[str, float]
    wall_seconds: float
    modeled_makespan_s: float  # busiest worker's simulated timeline
    modeled_device_seconds: float  # summed over all workers
    queue: FifoStats
    jobs_deadline_shed: int = 0  # handles failed with JobDeadlineExceeded
    retries: int = 0  # job re-dispatches after worker faults
    breakers: dict = field(default_factory=dict)  # worker -> breaker snapshot
    faults_injected: dict = field(default_factory=dict)  # mode -> count
    workers: list[WorkerStats] = field(default_factory=list)
    #: slowest-K completed jobs with their trace ids (traced runs only):
    #: [{total_s, job_id, trace_id, worker, batch_id}], slowest first —
    #: the debuggable handle behind a BENCH p99 row
    latency_exemplars: list[dict] = field(default_factory=list)
    #: head-sampling rate of the request log that produced the
    #: exemplars (None = request tracing was off)
    trace_sampling: float | None = None

    # -- derived ----------------------------------------------------------------

    @property
    def wall_throughput_jps(self) -> float:
        """Jobs per real second."""
        return self.jobs_completed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def modeled_throughput_jps(self) -> float:
        """Jobs per simulated device-second of makespan (deterministic)."""
        if not self.modeled_makespan_s:
            return 0.0
        return self.jobs_completed / self.modeled_makespan_s

    def to_dict(self) -> dict:
        """Plain-dict form for ``--json`` output and trace/metrics sinks."""
        return {
            "jobs_completed": self.jobs_completed,
            "jobs_shed": self.jobs_shed,
            "batches": self.batches,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "max_batch_occupancy": self.max_batch_occupancy,
            "queue_wait_s": dict(self.queue_wait_s),
            "service_s": dict(self.service_s),
            "total_s": dict(self.total_s),
            "wall_seconds": self.wall_seconds,
            "modeled_makespan_s": self.modeled_makespan_s,
            "modeled_device_seconds": self.modeled_device_seconds,
            "wall_throughput_jps": self.wall_throughput_jps,
            "modeled_throughput_jps": self.modeled_throughput_jps,
            "queue": self.queue.to_dict(),
            "jobs_deadline_shed": self.jobs_deadline_shed,
            "retries": self.retries,
            "breakers": {name: dict(snap) for name, snap in self.breakers.items()},
            "faults_injected": dict(self.faults_injected),
            "workers": [asdict(w) for w in self.workers],
            "latency_exemplars": [dict(e) for e in self.latency_exemplars],
            "trace_sampling": self.trace_sampling,
        }

    def render(self) -> str:
        lines = [
            f"jobs: {self.jobs_completed} completed, {self.jobs_shed} shed, "
            f"{self.batches} batches "
            f"(occupancy mean {self.mean_batch_occupancy:.2f}, "
            f"max {self.max_batch_occupancy})",
            f"queue: depth {self.queue.depth}, "
            f"high-water {self.queue.high_water}, "
            f"submit stalls {self.queue.write_stalls}, "
            f"empty polls {self.queue.read_stalls}",
            f"latency [ms]: wait {1e3 * self.queue_wait_s['mean']:.2f} "
            f"(p95 {1e3 * self.queue_wait_s['p95']:.2f}, "
            f"p99 {1e3 * self.queue_wait_s.get('p99', 0.0):.2f}), "
            f"service {1e3 * self.service_s['mean']:.2f}, "
            f"total {1e3 * self.total_s['mean']:.2f} "
            f"(p99 {1e3 * self.total_s.get('p99', 0.0):.2f})",
            f"modeled: makespan {1e3 * self.modeled_makespan_s:.2f} ms, "
            f"throughput {self.modeled_throughput_jps:.1f} jobs/s",
        ]
        if self.jobs_deadline_shed or self.retries or self.faults_injected:
            faults = (
                ", ".join(
                    f"{mode} x{count}"
                    for mode, count in sorted(self.faults_injected.items())
                )
                or "none"
            )
            lines.append(
                f"resilience: {self.jobs_deadline_shed} deadline shed, "
                f"{self.retries} retries, faults injected: {faults}"
            )
        for name, snap in sorted(self.breakers.items()):
            if not snap.get("transitions"):
                continue
            lines.append(
                f"  breaker {name}: {snap.get('state')}, "
                f"opened {snap.get('times_opened', 0)}x, "
                f"{snap.get('failures', 0)} failures / "
                f"{snap.get('successes', 0)} successes"
            )
        for w in self.workers:
            lines.append(
                f"  worker {w.name} [{w.device}]: {w.jobs} jobs in "
                f"{w.batches} batches, device busy "
                f"{1e3 * w.device_busy_s:.2f} ms"
            )
        return "\n".join(lines)


def summarize(values: list[float]) -> dict[str, float]:
    """mean/p50/p95/p99/max summary of a latency series (empty-safe).

    Delegates to the shared interpolated-percentile estimator in
    :mod:`repro.obs.percentiles`: ``p50`` is the true median (the old
    upper-median index was biased high on even-length series) and
    ``p95`` interpolates instead of rounding up to the maximum on short
    series (``int(0.95 * n)`` hit the max for any ``n <= 20``).
    """
    return _summarize(values)
