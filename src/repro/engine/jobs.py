"""Simulation jobs: the engine's unit of admission and batching.

A *job* is one self-contained simulation request — "draw N gamma
variates under Table I configuration X", "price this CreditRisk+
portfolio" — carrying its own deterministic seed.  Jobs are the serving
layer's analogue of the paper's work-items: independent streams of work
that the engine keeps decoupled (each computes from its own seed, so
results never depend on scheduling) while sharing the device resources
behind bounded FIFOs.

Each job exposes three facets the engine needs:

* :meth:`Job.batch_key` — jobs with equal keys are *compatible* and may
  be coalesced into one device batch, mirroring how §III-E combines the
  per-work-item buffers into one device buffer;
* :meth:`Job.compute` — the functional payload, a pure function of the
  job's seed (this is what makes results reproducible regardless of
  worker count);
* :meth:`Job.device_seconds` — the modeled kernel time this job
  occupies on the worker's device model, which drives the simulated
  device timeline and the throughput accounting.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from repro.devices import FixedArchitectureModel, FpgaModel, measured_path_rates
from repro.finance.montecarlo import MonteCarloEngine
from repro.finance.portfolio import Portfolio
from repro.harness.configs import CONFIGURATIONS
from repro.rng.gamma import gamma_samples

__all__ = ["Batch", "Job", "GammaJob", "PortfolioJob", "JobResult"]

_job_ids = itertools.count(1)
_batch_ids = itertools.count(1)
_ids_lock = threading.Lock()


def _next_job_id() -> int:
    with _ids_lock:
        return next(_job_ids)


def _next_batch_id() -> int:
    with _ids_lock:
        return next(_batch_ids)


@dataclass
class Job:
    """Base class: one simulation request with a deterministic seed.

    Subclasses define the payload.  ``job_id`` is assigned automatically
    and unique per process; ``seed`` fully determines :meth:`compute`.

    ``deadline_s`` is the job's end-to-end latency budget, measured
    from admission: once it elapses the job is shed with the typed
    :class:`repro.engine.resilience.JobDeadlineExceeded` wherever it
    happens to be — waiting in the queue, backing off before a retry,
    or running on a wedged worker — instead of occupying capacity.
    ``None`` (the default) means no deadline.  The engine stamps the
    absolute ``deadline_at`` (monotonic seconds) at admission; every
    later stage compares against that single value, so the budget never
    resets as the job moves through the pipeline.
    """

    seed: int = 7
    deadline_s: float | None = None
    job_id: int = field(default_factory=_next_job_id, init=False)
    #: absolute monotonic deadline, stamped by the engine at admission
    deadline_at: float | None = field(default=None, init=False, compare=False)
    #: per-request :class:`repro.obs.TraceContext`, attached by the
    #: admission gateway when request tracing is on (None = untraced;
    #: every pipeline hop guards on that one attribute)
    trace: object | None = field(
        default=None, init=False, compare=False, repr=False
    )

    # -- engine contract -----------------------------------------------------------

    def expired(self, now: float | None = None) -> bool:
        """True once the admission-stamped deadline has passed."""
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at

    def batch_key(self) -> Hashable:
        """Coalescing key: equal keys may share one device batch."""
        raise NotImplementedError

    def compute(self) -> Any:
        """Functional payload; must depend only on the job's fields."""
        raise NotImplementedError

    def device_seconds(self, model: FpgaModel | FixedArchitectureModel) -> float:
        """Modeled kernel-execution time on the worker's device model."""
        raise NotImplementedError

    def result_bytes(self) -> int:
        """Device→host readback volume (drives the PCIe timeline)."""
        raise NotImplementedError


@dataclass
class GammaJob(Job):
    """Draw ``n_samples`` gamma variates for one CreditRisk+ sector.

    Parameters
    ----------
    config:
        Table I configuration name; selects the transform whose measured
        rejection rate sets the modeled attempt count.
    variance:
        Sector variance ``v`` (shape ``1/v``, scale ``v``, so E = 1).
    n_samples:
        Output count for this job.
    """

    config: str = "Config1"
    variance: float = 1.39
    n_samples: int = 4096

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.variance <= 0.0:
            raise ValueError("variance must be positive")
        if self.config not in CONFIGURATIONS:
            raise ValueError(f"unknown configuration {self.config!r}")

    def batch_key(self) -> Hashable:
        return ("gamma", self.config, self.variance)

    def rejection_rate(self) -> float:
        cfg = CONFIGURATIONS[self.config]
        key = (
            "marsaglia_bray"
            if cfg.transform == "marsaglia_bray"
            else "icdf_fpga"
        )
        return 1.0 - measured_path_rates(key, self.variance).combined_accept

    def compute(self) -> np.ndarray:
        return gamma_samples(
            1.0 / self.variance,
            self.n_samples,
            scale=self.variance,
            seed=self.seed,
        ).astype(np.float32)

    def device_seconds(self, model: FpgaModel | FixedArchitectureModel) -> float:
        if isinstance(model, FpgaModel):
            return model.estimate(
                self.n_samples, 1, self.rejection_rate()
            ).seconds
        # fixed platforms: scale the calibrated full-workload estimate is
        # overkill for a single sector draw; bill pipeline attempts at
        # the device clock as a first-order stand-in
        attempts = self.n_samples * (1.0 + self.rejection_rate())
        return attempts / model.device.frequency_hz

    def result_bytes(self) -> int:
        return self.n_samples * 4


@dataclass
class PortfolioJob(Job):
    """Run a CreditRisk+ Monte-Carlo portfolio simulation.

    The sector factors come from the job's own deterministic draw (the
    role the FPGA pipeline plays in the examples); the loss engine is
    :class:`repro.finance.MonteCarloEngine`.

    Parameters
    ----------
    portfolio:
        Obligors and sector universe.
    scenarios:
        Monte-Carlo scenario count.
    portfolio_key:
        Label used for batching: jobs sharing a label (same portfolio
        shape) may coalesce.
    """

    portfolio: Portfolio | None = None
    scenarios: int = 1024
    portfolio_key: str = "default"

    def __post_init__(self):
        if self.portfolio is None:
            raise ValueError("PortfolioJob requires a portfolio")
        if self.scenarios < 1:
            raise ValueError("need at least one scenario")

    def batch_key(self) -> Hashable:
        return ("portfolio", self.portfolio_key)

    def compute(self):
        engine = MonteCarloEngine(self.portfolio, seed=self.seed)
        return engine.run(scenarios=self.scenarios)

    def device_seconds(self, model: FpgaModel | FixedArchitectureModel) -> float:
        sectors = len(self.portfolio.sectors)
        draws = self.scenarios * sectors
        rejection = 1.0 - measured_path_rates(
            "marsaglia_bray", self.portfolio.sectors[0].variance
        ).combined_accept
        if isinstance(model, FpgaModel):
            return model.estimate(draws, sectors, rejection).seconds
        attempts = draws * (1.0 + rejection)
        return attempts / model.device.frequency_hz

    def result_bytes(self) -> int:
        return self.scenarios * 8  # one float64 loss per scenario


@dataclass
class Batch:
    """One coalesced device transaction: jobs sharing one batch key.

    ``attempt`` counts the attempts at this job set (1 = first try;
    retries of a failed attempt re-batch with ``attempt + 1``), and
    ``avoid`` names workers a retry must steer away from (the ones
    that already failed it).
    """

    jobs: list[Job]
    attempt: int = 1
    avoid: frozenset[str] = frozenset()
    batch_id: int = field(default_factory=_next_batch_id, init=False)

    def __post_init__(self):
        if not self.jobs:
            raise ValueError("a batch needs at least one job")

    @property
    def key(self) -> Hashable:
        return self.jobs[0].batch_key()

    @property
    def size(self) -> int:
        return len(self.jobs)

    def result_bytes(self) -> int:
        return sum(job.result_bytes() for job in self.jobs)


@dataclass
class JobResult:
    """Completed job: payload plus the latency/accounting record."""

    job_id: int
    payload: Any
    worker: str
    batch_id: int
    batch_size: int
    queue_wait_s: float  # wall time from submit to batch pickup
    service_s: float  # wall time inside the worker
    total_s: float  # wall time from submit to completion
    device_seconds: float  # modeled device-timeline share of this job
