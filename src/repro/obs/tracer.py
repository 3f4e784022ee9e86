"""Span/event tracer with Chrome ``trace_event`` JSON export.

Every instrumented layer talks to the same small :class:`Tracer`
interface; the two implementations are

* :class:`NullTracer` — the default, every call a no-op behind a single
  ``enabled`` check, so uninstrumented runs pay (asserted by
  ``benchmarks/test_obs_overhead.py``) essentially nothing, and
* :class:`ChromeTracer` — records events in the Chrome ``trace_event``
  JSON format [1], openable in ``chrome://tracing`` or
  https://ui.perfetto.dev.

Tracks
------
A :class:`Track` is one (process row, thread lane) pair in the viewer.
The instrumentation convention in this repo:

* one *process* per domain (a ``DataflowRegion`` name, ``"engine"``,
  ``"devices (modeled)"``),
* one *thread* per concurrent actor (a dataflow process / work-item,
  an engine worker, the admission queue).

Timestamps
----------
``ts`` is microseconds, but three clock domains coexist (the ``cat``
field names the domain):

* ``cat="cycle"`` — simulated clock cycles, 1 µs == 1 cycle, fully
  deterministic (same seed + config ⇒ byte-identical events);
* ``cat="modeled"`` — the simulated device timeline, 1 µs == 1 modeled
  microsecond (deterministic);
* everything else — host wall time relative to tracer creation.

[1] https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, NamedTuple

__all__ = ["Track", "Tracer", "NullTracer", "ChromeTracer"]


class Track(NamedTuple):
    """One (pid, tid) lane in the trace viewer."""

    pid: int
    tid: int


_NULL_TRACK = Track(0, 0)


class Tracer:
    """The tracing interface every instrumented layer accepts.

    Subclasses override the emission methods; call sites only ever need
    the ``enabled`` flag to skip argument construction on hot paths::

        if tracer.enabled:
            tracer.complete(track, "burst", ts_us=t0, dur_us=dt, cat="cycle")
    """

    enabled: bool = False

    # -- track management --------------------------------------------------------

    def track(self, process: str, thread: str) -> Track:
        """Register (or look up) the lane for one actor."""
        return _NULL_TRACK

    def has_process(self, process: str) -> bool:
        """True once a track of ``process`` exists (a trace process row)."""
        return False

    # -- event emission ----------------------------------------------------------

    def complete(
        self,
        track: Track,
        name: str,
        ts_us: float,
        dur_us: float,
        cat: str = "",
        args: dict | None = None,
    ) -> None:
        """A span with explicit start/duration (Chrome ``ph="X"``)."""

    def instant(
        self,
        track: Track,
        name: str,
        ts_us: float | None = None,
        cat: str = "",
        args: dict | None = None,
    ) -> None:
        """A point event (Chrome ``ph="i"``); default ts = wall clock."""

    def counter(
        self,
        track: Track,
        name: str,
        values: dict[str, float],
        ts_us: float | None = None,
        cat: str = "",
    ) -> None:
        """A sampled counter series (Chrome ``ph="C"``)."""

    # -- wall clock --------------------------------------------------------------

    def wall_us(self, monotonic_s: float | None = None) -> float:
        """Host wall time in trace µs (relative to tracer creation)."""
        return 0.0

    @contextmanager
    def span(self, track: Track, name: str, cat: str = "", args: dict | None = None):
        """Wall-clock span around a code block."""
        yield


class NullTracer(Tracer):
    """The no-op default: near-zero overhead, nothing recorded."""

    enabled = False


class ChromeTracer(Tracer):
    """Collects trace events; exports Chrome ``trace_event`` JSON.

    Thread-safe: the engine emits from worker and watchdog threads.
    Event order is insertion order; the cycle/modeled clock domains are
    deterministic, so identical runs export identical JSON (the
    determinism pinned by ``tests/obs/test_tracer.py``).
    """

    enabled = True

    def __init__(self):
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[str, str], Track] = {}
        self._t0 = time.monotonic()

    # -- tracks ------------------------------------------------------------------

    def track(self, process: str, thread: str) -> Track:
        """Lane for one actor, creating pid/tid + metadata on first use."""
        with self._lock:
            existing = self._tids.get((process, thread))
            if existing is not None:
                return existing
            pid = self._pids.get(process)
            if pid is None:
                pid = len(self._pids) + 1
                self._pids[process] = pid
                self._events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": process},
                    }
                )
            tid = sum(1 for (p, _t) in self._tids if p == process) + 1
            track = Track(pid, tid)
            self._tids[(process, thread)] = track
            self._events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
            return track

    def has_process(self, process: str) -> bool:
        with self._lock:
            return process in self._pids

    # -- events ------------------------------------------------------------------

    def _append(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def complete(self, track, name, ts_us, dur_us, cat="", args=None):
        event = {
            "name": name,
            "ph": "X",
            "pid": track.pid,
            "tid": track.tid,
            "ts": round(float(ts_us), 3),
            "dur": round(float(dur_us), 3),
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self._append(event)

    def instant(self, track, name, ts_us=None, cat="", args=None):
        event = {
            "name": name,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "pid": track.pid,
            "tid": track.tid,
            "ts": round(self.wall_us() if ts_us is None else float(ts_us), 3),
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self._append(event)

    def counter(self, track, name, values, ts_us=None, cat=""):
        event = {
            "name": name,
            "ph": "C",
            "pid": track.pid,
            "tid": track.tid,
            "ts": round(self.wall_us() if ts_us is None else float(ts_us), 3),
            "args": dict(values),
        }
        if cat:
            event["cat"] = cat
        self._append(event)

    # -- wall clock --------------------------------------------------------------

    def wall_us(self, monotonic_s: float | None = None) -> float:
        t = time.monotonic() if monotonic_s is None else monotonic_s
        return (t - self._t0) * 1e6

    @contextmanager
    def span(self, track: Track, name: str, cat: str = "", args: dict | None = None):
        t0 = self.wall_us()
        try:
            yield
        finally:
            self.complete(track, name, t0, self.wall_us() - t0, cat=cat, args=args)

    # -- export ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def to_dict(self) -> dict:
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "clockDomains": "cycle: 1us==1cycle; modeled: device "
                "timeline; request: per-request spans on the emitting "
                "tier's clock (virtual or wall); default: host wall time",
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=None, separators=(",", ":"))

    def export(self, path: str) -> int:
        """Write the trace JSON; returns the number of events."""
        payload = self.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return len(self)
