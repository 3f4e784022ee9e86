"""Process abstraction for the cycle-level dataflow co-simulation.

Each HLS dataflow function (``GammaRNG``, ``Transfer``, …) becomes a
:class:`Process`: an object advanced one clock cycle at a time by the
:class:`~repro.core.dataflow.DataflowRegion`.  A process reports whether
it made *progress* in a cycle — the region uses this for deadlock
detection — and whether it has *finished* its program.

Processes may additionally publish a :meth:`Process.next_event` hint
("no state change before cycle N") that lets the region's fast path
park a stalled process until its wait ends — a burst-grant wait, a
full or empty FIFO — and jump over windows in which every process is
parked, while keeping the cycle accounting identical to the reference
one-cycle-at-a-time loop (see ``docs/simulator_fastpath.md``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.stream import Stream

__all__ = ["NO_SELF_EVENT", "Process", "ProcessStats"]

#: :meth:`Process.next_event` return value meaning "my ticks are pure
#: stall repeats for as long as nothing I observe (streams, channel
#: requests) changes state" — an unbounded but *conditional* guarantee.
NO_SELF_EVENT = float("inf")


@dataclass
class ProcessStats:
    """Per-process cycle accounting, reported by every simulation run.

    The three cycle buckets are disjoint and sum to ``cycles``:

    * ``active_cycles`` — real work issued (an iteration, a stream
      write, a burst grant);
    * ``stall_cycles`` — blocked with no progress: the tick returned
      False (empty/full stream, waiting on the shared channel);
    * ``pipeline_cycles`` — initiation-interval bubbles: time passes by
      design (the tick returns True for deadlock detection) but no work
      issues.  Matches the ``pipeline`` class of
      :mod:`repro.obs.stall`.
    """

    cycles: int = 0  # cycles the process was live (not yet done)
    active_cycles: int = 0  # cycles with real work (an iteration issued)
    stall_cycles: int = 0  # cycles spent blocked on a stream or the bus
    pipeline_cycles: int = 0  # II bubbles: time passing by design
    iterations: int = 0  # loop-body executions issued
    extra: dict = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Fraction of live cycles doing useful work."""
        return self.active_cycles / self.cycles if self.cycles else 0.0


class Process(abc.ABC):
    """One dataflow function instance in the simulated region.

    Subclasses implement :meth:`tick`, which advances exactly one clock
    cycle and returns True when the cycle did useful work (False = the
    process stalled).  ``tick`` is never called again once :meth:`done`
    returns True.  ``done`` is monotone: once True it stays True.
    """

    def __init__(self, name: str):
        self.name = name
        self.stats = ProcessStats()

    @abc.abstractmethod
    def tick(self, cycle: int) -> bool:
        """Advance one clock cycle; return True if progress was made."""

    @abc.abstractmethod
    def done(self) -> bool:
        """True once the process has completed its program."""

    def inputs(self) -> tuple[Stream, ...]:
        """Streams this process consumes (for dataflow ordering checks)."""
        return ()

    def outputs(self) -> tuple[Stream, ...]:
        """Streams this process produces."""
        return ()

    def stall_reason(self) -> str | None:
        """Why the *next* tick would stall, if the process knows.

        Sampled on traced runs *before* each ``tick()`` and consulted
        only when the tick shows no progress and no FIFO poll failed —
        the cases the stream counters cannot explain (channel-grant
        waits, initiation-interval bubbles).  A parked process is not
        sampled: it repeats the class of its last stalled tick.  Values
        are the :mod:`repro.obs.stall` state names; ``None`` means "no
        specific reason" and classifies as a generic pipeline bubble.
        """
        return None

    # -- cycle-skipping fast path hints --------------------------------------------

    def next_event(self, cycle: int) -> int | float | None:
        """Earliest future cycle at which this process might act.

        The contract powering the region's fast path:

        * an ``int`` N (``> cycle``) — every tick from ``cycle`` up to
          (excluding) N is a pure repeat of the current stall/bubble
          accounting; at N the process may change state (its own timer
          fires: an II bubble drains, its burst's predicted completion
          is observed).  The answer holds while other processes act:
          nothing they do moves N (later bursts queue behind);
        * :data:`NO_SELF_EVENT` (``inf``) — pure repeats until the next
          ``write``, ``read`` or ``close`` on one of this process's
          streams (e.g. blocked on a full/empty FIFO with no own
          timer);
        * ``None`` — no guarantee: the next tick may do real work, or
          the process cannot predict itself.  The process is not
          parked.

        The loop asks only between cycles, with every channel grant
        and completion before ``cycle``, the next cycle to run, applied:
        :meth:`~repro.core.memory.MemoryChannel.predict_done` caches
        its answer, so a hint read mid-cycle would cache a completion
        one cycle early.

        The default is ``None``, so unknown :class:`Process` subclasses
        tick every cycle, as in the reference loop.  A subclass
        that overrides :meth:`tick` without revisiting this hint must
        return ``None`` (the built-in implementations guard on the
        exact ``tick`` identity for this reason).
        """
        return None

    def skip_cycles(self, cycle: int, count: int) -> None:
        """Apply ``count`` cycles of bulk stall accounting.

        Called by the fast path only for cycles validated by
        :meth:`next_event`: when a parked process wakes, or the run
        aborts, with the ``count`` cycles it slept from ``cycle`` on.
        Other processes may have acted since the hint was read, so the
        crediting depends only on this process's own state, which a
        parked process keeps.  Must leave this process (and its
        streams' counters) in exactly the state ``count`` reference
        ticks would have.
        """
        raise RuntimeError(
            f"{type(self).__name__}({self.name!r}) advertised a skippable "
            "window via next_event() but does not implement skip_cycles()"
        )

    # -- bookkeeping helpers ---------------------------------------------------------

    def _account(self, progressed: bool) -> bool:
        """Bookkeeping helper subclasses call at the end of tick()."""
        self.stats.cycles += 1
        if progressed:
            self.stats.active_cycles += 1
        else:
            self.stats.stall_cycles += 1
        return progressed

    def _account_bubble(self) -> bool:
        """Account one initiation-interval bubble cycle.

        Bubbles are *time passing by design*: no work issues (so the
        cycle is not active) but the pipeline is not blocked either (so
        deadlock detection must see progress).  They land in the
        dedicated ``pipeline_cycles`` bucket and the tick reports
        progress — one consistent contract for both consumers.
        """
        self.stats.cycles += 1
        self.stats.pipeline_cycles += 1
        return True

    def __repr__(self) -> str:
        state = "done" if self.done() else "running"
        return f"{type(self).__name__}({self.name!r}, {state})"
