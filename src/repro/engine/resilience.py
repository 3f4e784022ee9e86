"""Fault injection and resilience: deadlines, retries, circuit breakers.

The paper's argument is that decoupled work-items keep making progress
when one pipeline stalls on a data-dependent branch; the engine lifts
that picture to device workers, and this module supplies the missing
robustness half: when a worker *fails* (rather than merely stalls), the
rest of the pool must keep serving.  Four pieces, all deterministic so
chaos runs reproduce:

* :class:`FaultPlan` — seeded fault injection threaded through
  :meth:`repro.engine.pool.DeviceWorker.execute` and through each
  virtual worker of :func:`repro.serve.loadgen.simulate_tier`.  Rules
  fire from a hash of ``(seed, scope, entity)``, never from wall time
  or thread interleaving, so the same plan injects the same faults
  into the same jobs/batches/workers on every run, on either clock.
* :class:`RetryPolicy` — exponential backoff with deterministic jitter
  for retryable (worker-level) failures; the delay is a pure function
  of ``(attempt, key)``, testable without sleeping.
* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine, one per worker: an opened breaker fences its worker from
  pickup until the cooldown ends (see
  :class:`~repro.engine.shard.ShardCore`), so a flapping device
  degrades pool capacity gracefully instead of black-holing batches.
* :class:`TimerThread` — one background thread running the deadline
  watchdog's callbacks at monotonic due times.

Typed errors extend the :class:`~repro.engine.queue.EngineError`
family: :class:`JobDeadlineExceeded` (the job's end-to-end deadline
passed), :class:`WorkerFault` (worker-level failure, retryable on
another worker) and its :class:`InjectedFault` subclass (a fault the
plan injected).  See ``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.engine.queue import EngineError

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "JobDeadlineExceeded",
    "ManualClock",
    "RetryPolicy",
    "TimerThread",
    "WorkerFault",
    "unit_draw",
]


class JobDeadlineExceeded(EngineError):
    """The job's end-to-end deadline passed before it produced a result."""


class WorkerFault(EngineError):
    """A worker-level failure: the device (not the job) is at fault.

    Worker faults are the retryable family — the same job may succeed
    on a different worker — and the only kind the per-worker circuit
    breakers count.
    """


class InjectedFault(WorkerFault):
    """A fault the :class:`FaultPlan` injected (chaos, not a real bug)."""


def unit_draw(seed: int, *key: Hashable) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed on ``(seed, *key)``.

    Hash-based rather than sequential (``random.Random``) so the result
    depends only on the entity being decided about, never on how many
    draws other threads made first — the property that makes fault
    plans and retry jitter reproducible under free thread interleaving.
    blake2b rather than a checksum: sequential keys (job seeds, batch
    ids) differ in a few characters, and a draw without avalanche over
    such inputs is badly non-uniform.
    """
    digest = hashlib.blake2b(
        repr((seed,) + key).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay_s(attempt, key)`` is a pure function: attempt ``n`` backs
    off ``base_s * multiplier**(n-1)`` capped at ``max_s``, then a
    jitter fraction keyed on ``(seed, key, attempt)`` shrinks it into
    ``[delay * (1 - jitter), delay]`` — spreading retry storms without
    introducing run-to-run nondeterminism.
    """

    max_attempts: int = 3
    base_s: float = 0.05
    multiplier: float = 2.0
    max_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_s < 0 or self.max_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay_s(self, attempt: int, key: Hashable = 0) -> float:
        """Backoff before retry ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = min(self.max_s, self.base_s * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter * unit_draw(self.seed, "retry", key, attempt))

    def retryable(self, error: BaseException) -> bool:
        """Only worker-level faults are worth a different worker."""
        return isinstance(error, WorkerFault)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Closed/open/half-open breaker guarding one worker.

    * **closed** — normal service; ``failure_threshold`` *consecutive*
      worker faults trip it open.
    * **open** — the worker receives no batches until ``cooldown_s``
      elapses (read through the injectable ``clock``, so state tests
      never sleep).
    * **half-open** — after the cooldown, up to ``half_open_probes``
      batches are admitted as probes: a success closes the breaker, a
      failure re-opens it (and restarts the cooldown).

    ``on_transition(old, new)`` fires outside the breaker lock for
    every state change — the engine wires it into metrics and the
    trace.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_inflight = 0
        self.failures = 0  # lifetime worker-fault count
        self.successes = 0
        self.times_opened = 0
        self.transitions = 0

    # -- state machine (lock held; returns the transition to announce) ----------

    def _set_state(self, new: str) -> tuple[str, str] | None:
        old = self._state
        if old == new:
            return None
        self._state = new
        self.transitions += 1
        if new == self.OPEN:
            self.times_opened += 1
            self._opened_at = self.clock()
        if new != self.HALF_OPEN:
            self._probes_inflight = 0
        return (old, new)

    def _tick(self) -> tuple[str, str] | None:
        """Lazy open → half-open transition once the cooldown elapsed."""
        if (
            self._state == self.OPEN
            and self.clock() - self._opened_at >= self.cooldown_s
        ):
            return self._set_state(self.HALF_OPEN)
        return None

    def _announce(self, transition: tuple[str, str] | None) -> None:
        if transition is not None and self.on_transition is not None:
            self.on_transition(*transition)

    # -- queries and admissions --------------------------------------------------

    @property
    def state(self) -> str:
        """Current state (applies the lazy cooldown transition)."""
        with self._lock:
            transition = self._tick()
        self._announce(transition)
        with self._lock:
            return self._state

    def can_admit(self) -> bool:
        """Would :meth:`admit` succeed right now?  No probe reserved."""
        with self._lock:
            transition = self._tick()
            if self._state == self.CLOSED:
                ok = True
            elif self._state == self.HALF_OPEN:
                ok = self._probes_inflight < self.half_open_probes
            else:
                ok = False
        self._announce(transition)
        return ok

    def admit(self) -> bool:
        """Admit one batch; in half-open this reserves a probe slot."""
        with self._lock:
            transition = self._tick()
            if self._state == self.CLOSED:
                ok = True
            elif self._state == self.HALF_OPEN:
                ok = self._probes_inflight < self.half_open_probes
                if ok:
                    self._probes_inflight += 1
            else:
                ok = False
        self._announce(transition)
        return ok

    # -- outcomes ----------------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                transition = self._set_state(self.CLOSED)
            else:
                transition = None
        self._announce(transition)

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                transition = self._set_state(self.OPEN)
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                transition = self._set_state(self.OPEN)
            else:
                transition = None
        self._announce(transition)

    def snapshot(self) -> dict:
        """Plain-dict view for ``EngineStats`` / ``--json`` output."""
        with self._lock:
            return {
                "state": self._state,
                "failures": self.failures,
                "successes": self.successes,
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "transitions": self.transitions,
            }


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------

_RULE_SCOPES = ("worker", "batch", "job")
_RULE_MODES = ("fail", "kill", "latency", "wedge")


@dataclass(frozen=True)
class FaultRule:
    """One fault-injection rule.

    Parameters
    ----------
    scope:
        What the probability draw is keyed on: ``"worker"`` (one
        decision per worker), ``"batch"`` (per batch attempt: the
        batch's job seeds plus the attempt number) or ``"job"`` (per
        job seed inside the batch; the batch itself survives — this
        is how partially-failed batches are made).
    mode:
        ``"fail"`` raises :class:`InjectedFault` (retryable);
        ``"kill"`` does the same but permanently — every later batch on
        that worker fails too (a dead device); ``"latency"`` holds
        the worker for ``latency_s``; ``"wedge"`` hangs the attempt for
        up to ``wedge_s`` (released early by :meth:`FaultPlan.release`,
        which engine shutdown calls).  Neither bills device time.
    probability:
        Chance the rule fires for a given entity; the draw is a pure
        hash of ``(plan seed, scope, entity key)``, so it is
        reproducible across runs and thread schedules.
    match:
        Restrict to one worker name (``None`` matches all workers).
    after_batches:
        Arm the rule only once the worker has completed this many
        batches (kill a worker *mid-run*).
    """

    scope: str = "batch"
    mode: str = "fail"
    probability: float = 1.0
    match: str | None = None
    after_batches: int = 0
    latency_s: float = 0.05
    wedge_s: float = 30.0

    def __post_init__(self):
        if self.scope not in _RULE_SCOPES:
            raise ValueError(f"scope must be one of {_RULE_SCOPES}, got {self.scope!r}")
        if self.mode not in _RULE_MODES:
            raise ValueError(f"mode must be one of {_RULE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.scope == "job" and self.mode in ("kill", "wedge"):
            raise ValueError(f"mode {self.mode!r} needs worker or batch scope")
        if self.latency_s < 0 or self.wedge_s < 0:
            raise ValueError("fault durations must be >= 0")

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "mode": self.mode,
            "probability": self.probability,
            "match": self.match,
            "after_batches": self.after_batches,
            "latency_s": self.latency_s,
            "wedge_s": self.wedge_s,
        }


class FaultPlan:
    """A seeded, deterministic set of :class:`FaultRule` entries.

    Threaded through :meth:`DeviceWorker.execute` and the virtual
    shard: the worker calls :meth:`before_batch` once per attempt
    (worker/batch-scoped rules) and :meth:`job_fault` once per job
    (job-scoped rules).  Whether a rule fires depends only on
    ``(seed, scope, entity)``, never on wall time or scheduling, so a
    chaos run replays exactly.

    ``release()`` unblocks every in-progress and future wedge — engine
    shutdown calls it so wedged workers never outlive the run.
    """

    def __init__(self, rules: list[FaultRule] | None = None, seed: int = 0):
        self.rules = list(rules or [])
        self.seed = seed
        self._release = threading.Event()
        self._lock = threading.Lock()
        self._dead: set[str] = set()
        self.injected: dict[str, int] = {mode: 0 for mode in _RULE_MODES}

    # -- bookkeeping -------------------------------------------------------------

    def _count(self, mode: str) -> None:
        with self._lock:
            self.injected[mode] += 1

    def release(self) -> None:
        """End every wedge, current and future (shutdown calls this)."""
        self._release.set()

    @property
    def released(self) -> bool:
        return self._release.is_set()

    def _fires(self, rule: FaultRule, *key: Hashable) -> bool:
        if rule.probability >= 1.0:
            return True
        if rule.probability <= 0.0:
            return False
        return unit_draw(self.seed, rule.scope, rule.mode, *key) < rule.probability

    # -- worker hooks ------------------------------------------------------------

    def before_batch(
        self,
        worker_name: str,
        batch,
        batches_done: int,
        wait: Callable[[float], object] | None = None,
    ) -> None:
        """Apply worker/batch-scoped rules to one execute attempt.

        Raises :class:`InjectedFault` for fail/kill rules; holds the
        worker through ``wait(seconds)`` for latency rules and for wedge
        rules (up to ``wedge_s``).  ``wait`` defaults to waiting on the
        release event, so a live wedge ends early at shutdown; the
        virtual tier passes a callable that adds virtual seconds.  A
        batch-scope draw is keyed on the batch's job seeds and attempt,
        which both tiers agree on once batch membership agrees.  Called
        with no locks held.
        """
        wait = self._release.wait if wait is None else wait
        with self._lock:
            if worker_name in self._dead:
                raise InjectedFault(
                    f"worker {worker_name!r} was killed by the fault plan"
                )
        for rule in self.rules:
            if rule.scope == "job":
                continue
            if rule.match is not None and rule.match != worker_name:
                continue
            if batches_done < rule.after_batches:
                continue
            key: tuple[Hashable, ...] = (
                (worker_name,)
                if rule.scope == "worker"
                else (tuple(job.seed for job in batch.jobs), batch.attempt)
            )
            if not self._fires(rule, *key):
                continue
            if rule.mode == "latency":
                self._count("latency")
                wait(rule.latency_s)
            elif rule.mode == "wedge":
                self._count("wedge")
                wait(rule.wedge_s)
            elif rule.mode == "kill":
                with self._lock:
                    self._dead.add(worker_name)
                self._count("kill")
                raise InjectedFault(
                    f"worker {worker_name!r} killed by the fault plan "
                    f"(after {batches_done} batches)"
                )
            else:  # fail
                self._count("fail")
                raise InjectedFault(
                    f"injected failure on worker {worker_name!r} "
                    f"(batch {batch.batch_id}, attempt {batch.attempt})"
                )

    def job_fault(
        self,
        worker_name: str,
        job,
        wait: Callable[[float], object] | None = None,
    ) -> InjectedFault | None:
        """Job-scoped fault for one job, or None.

        A latency rule holds the worker through ``wait(latency_s)``
        (see :meth:`before_batch`).
        """
        wait = self._release.wait if wait is None else wait
        for rule in self.rules:
            if rule.scope != "job":
                continue
            if rule.match is not None and rule.match != worker_name:
                continue
            # keyed on the job's seed: stable across retries and runs
            if not self._fires(rule, job.seed):
                continue
            if rule.mode == "latency":
                self._count("latency")
                wait(rule.latency_s)
                continue
            self._count("fail")
            return InjectedFault(
                f"injected job failure (seed {job.seed}) on "
                f"worker {worker_name!r}"
            )
        return None

    # -- (de)serialization: `serve-bench --faults PLAN.json` ---------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        rules = [
            FaultRule(**{k: v for k, v in rule.items() if v is not None})
            for rule in data.get("rules", [])
        ]
        return cls(rules=rules, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# timers
# ---------------------------------------------------------------------------


class TimerThread:
    """One background thread running callbacks at monotonic due times.

    The engine uses one instance as its deadline watchdog ("fail this
    handle if it is still pending at T"); a retry's backoff is a
    worker's timed wait on the admission queue, not a timer.
    Callbacks run outside the timer lock; an exception in one is
    counted (``errors``) but never kills the thread.
    """

    def __init__(self, name: str = "repro-engine-timer"):
        self.name = name
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._stopped = False
        self._thread: threading.Thread | None = None
        self.errors = 0

    def start(self) -> "TimerThread":
        if self._thread is not None:
            raise RuntimeError("timer already started")
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def schedule(self, due_s: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``time.monotonic()`` reaches ``due_s``."""
        with self._cond:
            if self._stopped:
                return
            heapq.heappush(self._heap, (due_s, next(self._seq), callback))
            self._cond.notify()

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._heap)

    def stop(self, timeout: float | None = 5.0) -> int:
        """Stop the thread; returns how many callbacks were cancelled."""
        with self._cond:
            self._stopped = True
            cancelled = len(self._heap)
            self._heap.clear()
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
        return cancelled

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                if not self._heap:
                    self._cond.wait()
                    continue
                due = self._heap[0][0]
                now = time.monotonic()
                if due > now:
                    self._cond.wait(due - now)
                    continue
                _, _, callback = heapq.heappop(self._heap)
            try:
                callback()
            except Exception:
                self.errors += 1


class ManualClock:
    """Advance-by-hand monotonic clock for timing tests (no sleeping).

    Inject as ``CircuitBreaker(clock=ManualClock())`` and drive state
    transitions with :meth:`advance` — cooldown tests then run in
    microseconds of real time.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("a monotonic clock never goes backwards")
        with self._lock:
            self._now += seconds
            return self._now
