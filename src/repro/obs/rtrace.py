"""Per-request tracing for the serving tier: spans, sampling, exemplars.

Where :mod:`repro.obs.tracer` answers "what was each *actor* doing over
time" (one lane per worker / process), this module answers "where did
*this request's* latency go": every admitted job carries a
:class:`TraceContext` minted at the admission gateway, and every hop —
ring routing, spillover reroutes, queue wait, batch formation,
dispatch, execute attempts, retries, breaker skips, completion or
typed error — emits one :class:`SpanEvent` into the request's chain.
The producer→consumer accounting the paper does per work-item
(§III's decoupled streams), applied per request one level up.

Retention policy (the part that makes this safe to leave on in a
long-running tier):

* chains buffer **inside the request's own context** while in flight
  (no shared state touched per hop) and are committed — or dropped —
  with one log-lock acquisition at the terminal event; an abandoned
  request's chain is freed with its job, never retained here;
* **head sampling** applies to successful requests only: the keep
  decision is a deterministic hash of the trace id against
  ``sample_rate``, made at mint time;
* **errors, sheds and deadline misses are always captured** — the
  chains worth debugging are exactly the ones sampling would lose;
* a **slowest-K reservoir** keeps the p99-tail exemplars keyed on
  end-to-end latency even when head sampling dropped them;
* committed chains live in a bounded ring (a ``deque`` with
  ``maxlen``), so memory is flat no matter how long the tier runs.

One invariant is enforced here rather than at the call sites: a trace
accepts exactly **one terminal event**.  The first wins; later attempts
are counted in ``duplicate_terminals`` and dropped, so belt-and-braces
emitters (the gateway's catch-all next to the engine's resolution
funnel) cannot double-close a chain.

Chrome export shares :class:`~repro.obs.tracer.ChromeTracer`'s clock
conventions: spans land under ``cat="request"`` with ``ts`` in
microseconds — virtual-clock seconds for the tier simulator (the
``modeled`` domain's convention) or host wall time for live runs.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import threading
from collections import deque
from dataclasses import asdict, dataclass, field

from repro.obs.tracer import ChromeTracer

__all__ = [
    "SpanEvent",
    "TraceContext",
    "RequestTraceLog",
    "critical_path",
    "critical_path_report",
    "derive_trace_id",
    "request_trace_from_json",
]

#: terminal kinds that are always captured regardless of head sampling
_ALWAYS_CAPTURE = frozenset(
    {"failed", "deadline", "queue_full", "throttled", "closed", "shed"}
)

#: indices into the raw event tuples the hot path records (the field
#: order of :class:`SpanEvent`; readers materialize the dataclass)
_KIND, _T, _TERMINAL, _ATTRS = 4, 5, 8, 9


@dataclass(frozen=True)
class SpanEvent:
    """One hop of one request.

    ``t`` is seconds in the emitting clock domain (virtual seconds for
    the tier simulator, ``time.monotonic()`` for the live tier);
    ``dur`` is zero for point events.  ``parent_id`` links the span
    chain: every event except the root names an earlier span of the
    same trace, so parentage survives retries that re-dispatch to a
    different worker.
    """

    trace_id: str
    span_id: int
    parent_id: int | None
    stage: str  # gateway | shard | queue | batch | worker | retry | request
    kind: str  # admit, route, spill, enqueue, wait, execute, complete, ...
    t: float
    dur: float = 0.0
    status: str = "ok"  # ok | error | shed
    terminal: bool = False
    attrs: dict = field(default_factory=dict)


class TraceContext:
    """Per-request identity + baggage, carried by the job end-to-end.

    Holds the trace id, the propagated baggage (tenant, batch key,
    deadline budget) and a reference to the owning
    :class:`RequestTraceLog`, so instrumentation points only need the
    context — ``job.trace.emit(...)`` — without any registry lookup.
    Thread-safe: the live engine emits from gateway, worker and
    watchdog threads.
    """

    __slots__ = (
        "trace_id",
        "tenant",
        "batch_key",
        "deadline_s",
        "sampled",
        "finished",
        "_log",
        "_seq",
        "_last_span",
        "_events",
        "_lock",
    )

    def __init__(
        self,
        trace_id: str,
        log: "RequestTraceLog",
        tenant=None,
        batch_key=None,
        deadline_s: float | None = None,
        sampled: bool = True,
    ):
        self.trace_id = trace_id
        self.tenant = tenant
        self.batch_key = batch_key
        self.deadline_s = deadline_s
        self.sampled = sampled
        self.finished = False
        self._log = log
        self._seq = 0
        self._last_span: int | None = None
        self._events: list = []
        self._lock = threading.Lock()

    @property
    def log(self) -> "RequestTraceLog":
        """The owning log (consumers read its ``sample_rate``)."""
        return self._log

    def emit(
        self,
        stage: str,
        kind: str,
        t: float,
        dur: float = 0.0,
        status: str = "ok",
        terminal: bool = False,
        parent: int | None = None,
        **attrs,
    ) -> int | None:
        """Record one hop; returns its span id (None if dropped).

        The parent defaults to the previous span of this context — a
        linear chain, which is what the sequential pipeline is — and
        may be overridden (retries parent on their ``retry_scheduled``
        span).  A terminal emit closes the chain; later terminals are
        dropped and counted by the log.

        Hot-path shape: events buffer in the context as plain tuples
        (field order matches :class:`SpanEvent`; readers materialize
        the dataclass), and the owning log's lock is taken exactly
        once per request — at the terminal commit — so concurrent
        emitters on different requests never contend.
        """
        with self._lock:
            if self.finished:
                if terminal:
                    self._log._count_duplicate_terminal()
                return None
            self._seq += 1
            span_id = self._seq
            parent_id = parent if parent is not None else self._last_span
            self._last_span = span_id
            self._events.append(
                (
                    self.trace_id, span_id, parent_id, stage, kind,
                    float(t), float(dur), status, terminal, attrs,
                )
            )
            if not terminal:
                return span_id
            self.finished = True
            chain = self._events
        self._log._commit(self, chain)
        return span_id


def _sample_draw(seed: int, trace_id: str) -> float:
    """Deterministic uniform in [0, 1) keyed on the trace id."""
    digest = hashlib.blake2b(
        repr((seed, trace_id)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def _trace_id(seed: int, key) -> str:
    return hashlib.blake2b(
        repr((seed, key)).encode(), digest_size=8
    ).hexdigest()


def derive_trace_id(seed: int, key) -> str:
    """The trace id :meth:`RequestTraceLog.mint` would assign to ``key``.

    Public so consumers that report trace ids without a log in hand
    (the virtual-time simulator's always-on p99 exemplars) stay
    consistent with a log-attached run of the same seed.
    """
    return _trace_id(seed, key)


class RequestTraceLog:
    """Bounded, lock-cheap store of per-request span chains.

    Parameters
    ----------
    capacity:
        Committed-chain ring size; the oldest chain falls off when the
        ring is full (memory stays flat on a soak run).
    sample_rate:
        Head-sampling keep probability for *successful* chains; the
        decision is a deterministic hash of the trace id, so the same
        seed + workload keeps the same chains.  Errors, sheds and
        deadline misses ignore the rate.
    exemplar_k:
        Slowest-K reservoir size for p99-tail exemplars (kept even
        when head sampling would drop the chain).
    seed:
        Salt for trace-id derivation and the sampling hash.

    In-flight chains buffer inside their :class:`TraceContext` (owned
    by the job, freed with it), so the log itself holds only committed
    chains: an abandoned request can never grow the log, and emitters
    on different requests never contend on the log lock.
    """

    def __init__(
        self,
        capacity: int = 16384,
        sample_rate: float = 1.0,
        exemplar_k: int = 16,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if exemplar_k < 0:
            raise ValueError("exemplar_k must be >= 0")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.exemplar_k = exemplar_k
        self.seed = seed
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)  # (trace_id, events)
        # min-heap of (latency, tiebreak, trace_id, events)
        self._exemplars: list = []
        self._exemplar_seq = 0
        self._minted = 0
        self._terminated = 0
        self._terminals: dict[str, int] = {}
        self._duplicate_terminals = 0
        self._dropped_unsampled = 0

    # -- context lifecycle -------------------------------------------------------

    def mint(
        self,
        key,
        tenant=None,
        batch_key=None,
        deadline_s: float | None = None,
    ) -> TraceContext:
        """New per-request context; ``key`` must be unique per request.

        The trace id and the head-sampling decision are both
        deterministic functions of ``(log seed, key)``, which is what
        makes a seeded virtual-time run export byte-identical logs.
        """
        trace_id = _trace_id(self.seed, key)
        sampled = (
            self.sample_rate >= 1.0
            or _sample_draw(self.seed, trace_id) < self.sample_rate
        )
        with self._lock:
            self._minted += 1
        return TraceContext(
            trace_id,
            self,
            tenant=tenant,
            batch_key=batch_key,
            deadline_s=deadline_s,
            sampled=sampled,
        )

    # -- recording (called by TraceContext) --------------------------------------

    def _commit(self, ctx: TraceContext, chain: list) -> None:
        # ``chain`` is the context's buffered raw SpanEvent field
        # tuples (see _KIND/_T/... for the indices read here), handed
        # over exactly once at the terminal event; readers materialize
        # the dataclasses
        event = chain[-1]
        kind = event[_KIND]
        with self._lock:
            self._terminated += 1
            self._terminals[kind] = self._terminals.get(kind, 0) + 1
            keep = ctx.sampled or kind in _ALWAYS_CAPTURE
            latency = event[_ATTRS].get("latency_s")
            if latency is None:
                latency = chain[-1][_T] - chain[0][_T]
            tail = False
            if self.exemplar_k and kind == "complete":
                if len(self._exemplars) < self.exemplar_k:
                    tail = True
                elif latency > self._exemplars[0][0]:
                    tail = True
                if tail:
                    self._exemplar_seq += 1
                    heapq.heappush(
                        self._exemplars,
                        (latency, self._exemplar_seq, ctx.trace_id, chain),
                    )
                    if len(self._exemplars) > self.exemplar_k:
                        heapq.heappop(self._exemplars)
            if keep:
                self._ring.append((ctx.trace_id, chain))
            else:
                self._dropped_unsampled += 1

    def _count_duplicate_terminal(self) -> None:
        with self._lock:
            self._duplicate_terminals += 1

    # -- accessors ---------------------------------------------------------------

    def chains(self) -> dict[str, list[SpanEvent]]:
        """Committed chains, oldest first (the bounded ring's view)."""
        with self._lock:
            ring = [(tid, list(events)) for tid, events in self._ring]
        return {
            tid: [SpanEvent(*e) for e in events] for tid, events in ring
        }

    def events(self) -> list[SpanEvent]:
        """Every committed event, in chain commit order."""
        with self._lock:
            raw = [e for _tid, chain in self._ring for e in chain]
        return [SpanEvent(*e) for e in raw]

    def exemplars(self) -> list[dict]:
        """Slowest-K completed chains, slowest first."""
        with self._lock:
            top = sorted(self._exemplars, reverse=True)
        return [
            {
                "trace_id": tid,
                "latency_s": latency,
                "events": [SpanEvent(*e) for e in chain],
            }
            for latency, _seq, tid, chain in top
        ]

    def terminal_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._terminals)

    def snapshot(self) -> dict:
        """Retention accounting for ``--json`` sinks and assertions."""
        with self._lock:
            return {
                "minted": self._minted,
                "pending": self._minted - self._terminated,
                "committed": len(self._ring),
                "capacity": self.capacity,
                "sample_rate": self.sample_rate,
                "dropped_unsampled": self._dropped_unsampled,
                "duplicate_terminals": self._duplicate_terminals,
                "terminals": dict(self._terminals),
                "exemplars": len(self._exemplars),
            }

    # -- serialization -----------------------------------------------------------

    def to_payload(self) -> dict:
        """Plain-dict form: snapshot + chains + exemplars."""
        return {
            "request_trace": self.snapshot(),
            "chains": {
                tid: [asdict(e) for e in chain]
                for tid, chain in self.chains().items()
            },
            "exemplars": [
                {
                    "trace_id": ex["trace_id"],
                    "latency_s": ex["latency_s"],
                    "events": [asdict(e) for e in ex["events"]],
                }
                for ex in self.exemplars()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), separators=(",", ":"))

    def export(self, path: str) -> int:
        """Write the JSON payload; returns the committed-chain count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        return len(self.chains())

    # -- Chrome export -----------------------------------------------------------

    def export_chrome(
        self, path: str | None = None, tracer: ChromeTracer | None = None
    ) -> ChromeTracer:
        """Render committed chains as Chrome ``trace_event`` spans.

        One viewer *process* (``"requests"``) with one lane per
        pipeline stage; each event becomes a ``cat="request"`` complete
        span with the trace id in ``args``, timestamps in µs on the
        chain's native clock (the same convention as the ``cycle`` and
        ``modeled`` domains).  Pass an existing :class:`ChromeTracer`
        to merge request spans into an actor-centric trace.
        """
        tracer = tracer or ChromeTracer()
        chains = self.chains()
        all_events = [e for chain in chains.values() for e in chain]
        t_base = min((e.t for e in all_events), default=0.0)
        for tid, chain in chains.items():
            for e in chain:
                track = tracer.track("requests", e.stage)
                args = {
                    "trace_id": tid,
                    "span_id": e.span_id,
                    "parent_id": e.parent_id,
                    "status": e.status,
                    **e.attrs,
                }
                if e.dur > 0:
                    tracer.complete(
                        track,
                        f"{e.stage}:{e.kind}",
                        ts_us=(e.t - t_base) * 1e6,
                        dur_us=e.dur * 1e6,
                        cat="request",
                        args=args,
                    )
                else:
                    tracer.instant(
                        track,
                        f"{e.stage}:{e.kind}",
                        ts_us=(e.t - t_base) * 1e6,
                        cat="request",
                        args=args,
                    )
        if path is not None:
            tracer.export(path)
        return tracer


def request_trace_from_json(text: str) -> dict:
    """Parse an exported payload back into :class:`SpanEvent` chains.

    Returns ``{"request_trace": snapshot, "chains": {...}, "exemplars":
    [...]}`` with events rehydrated, accepted by
    :func:`critical_path_report`.
    """
    payload = json.loads(text)
    if "request_trace" not in payload:
        raise ValueError("not a request-trace export (--trace-requests)")

    def _events(items):
        return [SpanEvent(**item) for item in items]

    return {
        "request_trace": payload["request_trace"],
        "chains": {
            tid: _events(chain)
            for tid, chain in payload.get("chains", {}).items()
        },
        "exemplars": [
            {
                "trace_id": ex["trace_id"],
                "latency_s": ex["latency_s"],
                "events": _events(ex["events"]),
            }
            for ex in payload.get("exemplars", [])
        ],
    }


# -- critical-path decomposition ----------------------------------------------------


def critical_path(events: list[SpanEvent]) -> dict:
    """Decompose one completed chain into latency segments.

    The four segments partition the end-to-end window exactly::

        queue_s   admit → dequeued for batch formation
        batch_s   dequeue → first execute start, plus the completion
                  tail after the last execute (resolution overhead)
        retry_s   first execute start → last execute start (failed
                  attempts and their backoff gaps; 0 without retries)
        execute_s the final attempt's service time

    so ``queue + batch + retry + execute == total`` to float precision,
    which is what lets a p99 row be read as "where the budget went"
    rather than a loose narrative.
    """
    if not events:
        raise ValueError("empty chain")
    t0 = events[0].t
    terminal = next((e for e in events if e.terminal), events[-1])
    total = terminal.t - t0
    executes = sorted(
        (e for e in events if e.kind == "execute"), key=lambda e: e.t
    )
    if not executes:
        return {
            "queue_s": total,
            "batch_s": 0.0,
            "retry_s": 0.0,
            "execute_s": 0.0,
            "total_s": total,
            "attempts": 0,
        }
    dequeue = next(
        (e.t for e in events if e.stage == "batch"), executes[0].t
    )
    first, last = executes[0], executes[-1]
    queue_s = dequeue - t0
    batch_s = (first.t - dequeue) + (terminal.t - (last.t + last.dur))
    retry_s = last.t - first.t
    return {
        "queue_s": queue_s,
        "batch_s": batch_s,
        "retry_s": retry_s,
        "execute_s": last.dur,
        "total_s": total,
        "attempts": len(executes),
    }


def critical_path_report(payload, top: int = 10) -> list[dict]:
    """Segment decomposition of the slowest exemplar chains.

    Accepts a live :class:`RequestTraceLog` or the parsed payload from
    :func:`request_trace_from_json`; returns one row per exemplar
    (slowest first), each carrying the trace id, the segments and the
    terminal status.
    """
    if isinstance(payload, RequestTraceLog):
        exemplars = payload.exemplars()
    else:
        exemplars = payload.get("exemplars", [])
    rows = []
    for ex in exemplars[:top]:
        events = ex["events"]
        segments = critical_path(events)
        terminal = next(
            (e for e in events if e.terminal), events[-1]
        )
        rows.append(
            {
                "trace_id": ex["trace_id"],
                "latency_s": ex["latency_s"],
                "terminal": terminal.kind,
                "stages": sorted({e.stage for e in events}),
                **segments,
            }
        )
    return rows
