"""Fused work-item chains: source, stream and Transfer engine in closed form.

In Listing 1 every work-item is a private ``GammaRNG → hls::stream →
Transfer`` pipeline, and the work-items share only the memory channel
(Section III-E, Fig 3).  Between two of its burst submissions such a
chain touches nothing shared, so the fast cycle loop
(:func:`~repro.core.dataflow.run_cycles`) does not tick it: it fuses the
chain into one wake-calendar entry, a :class:`FusedChain`, that moves the
producer P, its stream S and the engine E from one burst submission to
the next in one step, the way hybrid performance models predict
independent sub-workloads analytically and step only the hardware they
share.  Only the memory channel then steps event by event.

**Eligibility** (:func:`fuse_chains`).  P has no inputs and the stock
``tick`` of :class:`~repro.core.transfer.DummySource` or
:class:`~repro.core.kernel.GammaRNGProcess` (so the lanes of
:class:`~repro.core.lanes.VectorGammaRNGProcess` too); S is P's one output
stream; E is the :class:`~repro.core.transfer.TransferEngine` of the same
run that reads S, with the stock ``tick`` and ``_ingest`` and the
paper's II=1 packing loop (``dependence_false``), on a channel the run
advances.  All three start fresh: E in its first ``PACK`` phase with an
empty stream, P not blocked or in a bubble.  Anything else keeps
per-tick stepping: a subclass that overrides ``tick``, the II=2 pack
ablation, a producer with inputs (a pricing stage), an engine outside
the run or on a channel the run does not advance.

**The recurrence.**  Value k of S is written by P at

    w_k = max(a_k, r_{k-D} + 1)

where D is the stream depth and a_k the cycle of the record that made
it; a write blocked past a_k holds P (``fifo_full``) and pushes every
later record of P past its flush.  A :class:`~repro.core.transfer.DummySource`
tries its next value the cycle after its last write.  E reads value k at

    r_k = max(w_k, r_{k-1} + 1)

and the first value of a burst no earlier than two cycles after the
previous burst completes (E observes the completion one cycle late, and
its grant bookkeeping takes that cycle).  The read that fills a burst is
its submission: the chain's wake.  At the wake the entry packs the
burst's raw values (:func:`~repro.fixedpoint.pack_floats`), calls
``channel.submit`` and gets the completion from ``predict_done``, which
under FIFO arbitration is fixed once submitted; with it the next burst's
reads, and P through the next submission, follow in closed form.  Every
stat is credited in bulk.

**Exits.**  A chain never computes past the run's ``max_cycles``, so an
abort there writes the exact partial state back into P, S (occupancy and
values) and E (:meth:`FusedChain.settle`).  A chain whose engine starves
after its producer finished, or whose producer blocks for good after its
engine finished, wakes once more at the first cycle it makes no progress
and is then stuck; until then a live chain counts as progress for the
loop's deadlock test, and the loop raises at the reference loop's cycle.

**Traced runs** fuse too.  The entry pushes each class change of P and E
(:mod:`repro.obs.stall` names) onto the loop's mark heap as
``(cycle, group, topological index, name, state)``; the loop records
them at their own cycle, in the reference loop's order, as it passes it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush

from repro.core.kernel import ADVANCE, GammaRNGProcess
from repro.core.process import NO_SELF_EVENT
from repro.core.transfer import DummySource, TransferEngine, _State
from repro.obs import stall as _stall

__all__ = ["FusedChain", "fuse_chains"]

_COMPUTE = _stall.COMPUTE
_FULL = _stall.FIFO_FULL
_EMPTY = _stall.FIFO_EMPTY
_PIPELINE = _stall.PIPELINE
_MEMORY = _stall.MEMORY
_TRANSFER = _stall.TRANSFER

# what the entry does at its next wake, and the state after the last
_SUBMIT, _FINISH, _STUCK, _LIMIT, _DONE = range(5)


def _fresh_producer(proc) -> bool:
    tick = type(proc).tick
    if tick is DummySource.tick:
        return True
    return (
        tick is GammaRNGProcess.tick
        and proc._pending is None
        and proc._stall_budget == 0
    )


def _fresh_engine(proc) -> bool:
    cls = type(proc)
    return (
        cls.tick is TransferEngine.tick
        and cls._ingest is TransferEngine._ingest
        and proc.dependence_false
        and proc._state is _State.PACK
        and proc._pack_stall == 0
        and not proc._values
    )


def fuse_chains(
    ordered, channels, calendar, limit: int, marks
) -> list[FusedChain]:
    """The eligible chains among ``ordered`` (a run's processes in
    topological order, advancing ``channels``), each as a
    :class:`FusedChain`.

    ``calendar.fused`` counts the live chains; ``limit`` is the run's
    ``max_cycles``; ``marks`` is the loop's mark heap on a traced run,
    else ``None``.
    """
    consumer = {}
    for j, proc in enumerate(ordered):
        for stream in proc.inputs():
            consumer[stream] = j
    chains = []
    for i, proc in enumerate(ordered):
        if proc.done() or proc.inputs() or not _fresh_producer(proc):
            continue
        stream = proc.sink
        j = consumer.get(stream)
        if j is None or stream._fifo or stream.closed:
            continue
        engine = ordered[j]
        if (
            engine.done()
            or not _fresh_engine(engine)
            or not any(engine.channel is channel for channel in channels)
        ):
            continue
        chains.append(FusedChain(proc, i, engine, j, calendar, limit, marks))
    return chains


class FusedChain:
    """One fused ``P → S → E`` chain on the fast loop's wake calendar.

    To the loop it is one more process, keyed on E's topological
    ``index``: :meth:`tick` runs at each wake (a burst submission, the
    chain's last cycle, or its first stuck cycle), :meth:`next_event`
    names the next wake, and :meth:`skip_cycles` does nothing, since the
    chain accounts its own cycles.  In between, the chain holds P, S and
    E in computed time: the writes and reads it has worked out, which
    run ahead of the loop up to the next wake.  Their counts go into the
    three objects as they are worked out; :meth:`settle`, at the chain's
    end or at an abort, adds what depends on the cycle the run stops at
    (the stalls since, a write still pending, E's partial burst or
    pending request, the values left in S).
    """

    def __init__(self, producer, p_index, engine, index, calendar, limit, marks):
        stream = engine.source
        self.producer = producer
        self.engine = engine
        self.stream = stream
        self.name = f"{producer.name} -> {engine.name}"
        self.p_index = p_index
        self.index = index
        self.calendar = calendar
        self.limit = limit
        self.marks = marks
        self.gamma = isinstance(producer, GammaRNGProcess)
        self.depth = stream.depth
        self.bursts = engine._total_bursts - engine._burst_index
        # S: values written and not yet read, with their write cycles;
        # the read cycle of value i is rd[i - base]
        self.buf: deque = deque()
        self.nw = 0
        self.nr = 0
        self.rd: list[int] = []
        self.base = 0
        self.hr = 0  # reads before the latest write (for the high water)
        # P: its ticks before p_at are computed; with ``pend`` set it is
        # writing (value, bubbles after it) from the tick p_at on
        self.p_at = 0
        self.pend = None
        self.p_done: int | None = None
        # E: its ticks before e_at are computed; ``reading`` in a PACK
        # phase (its values so far in ``engine._values``), else waiting
        # on ``engine._pending`` or done at e_done
        self.e_at = 0
        self.reading = True
        self.e_done: int | None = None
        self.mode = _LIMIT
        self.wake: int | float = limit
        # traced: the class each process was last marked with
        self.p_class = self.e_class = None

    # -- the loop's view ---------------------------------------------------------

    def done(self) -> bool:
        return self.mode == _DONE

    def inputs(self) -> tuple:
        return ()

    def outputs(self) -> tuple:
        return ()

    def next_event(self, cycle: int) -> int | float:
        return self.wake

    def skip_cycles(self, cycle: int, count: int) -> None:
        """Nothing to credit: the chain accounts its own cycles."""

    @property
    def done_cycles(self) -> dict[str, int]:
        """The cycle at which P and E each finished."""
        return {self.producer.name: self.p_done, self.engine.name: self.e_done}

    def start(self) -> None:
        """Work out the chain from cycle 0 up to its first wake."""
        self._advance()

    def tick(self, cycle: int) -> bool:
        """The wake at ``cycle``.  Returns True on the chain's last
        cycle; a submission returns False (the loop parks the entry
        until its next wake, and counts the chain as progress while
        ``calendar.fused`` does), and so does the first stuck cycle."""
        mode = self.mode
        if mode == _SUBMIT:
            self._submit(cycle)
            self._advance()
            return False
        self.calendar.fused -= 1
        if mode == _FINISH:
            self.settle(cycle + 1)
            self.mode = _DONE
            return True
        self.wake = NO_SELF_EVENT  # stuck: nothing wakes it again
        return False

    # -- computed time ------------------------------------------------------------

    def _mark_p(self, cycle: int, state: str) -> None:
        if state != self.p_class:
            self.p_class = state
            heappush(
                self.marks, (cycle, 1, self.p_index, self.producer.name, state)
            )

    def _mark_e(self, cycle: int, state: str) -> None:
        if state != self.e_class:
            self.e_class = state
            heappush(self.marks, (cycle, 1, self.index, self.engine.name, state))

    def _mark_done(self, cycle: int, index: int, name: str) -> None:
        heappush(self.marks, (cycle, 0, index, name, _stall.DONE))

    def _submit(self, cycle: int) -> None:
        """E submits its full burst at ``cycle``; works out its wait."""
        engine = self.engine
        channel = engine.channel
        request = engine._submit(cycle)
        done = channel.predict_done(request, cycle)
        if self.marks is not None:
            # the burst drains, and E is ``transfer``, over [grant, done)
            grant = done - channel.config.burst_cycles(engine.burst_words) + 1
            self._mark_e(cycle, _TRANSFER if grant == cycle < done else _COMPUTE)
            if grant > cycle + 1:
                self._mark_e(cycle + 1, _MEMORY)
            if cycle < grant < done:
                self._mark_e(grant, _TRANSFER)
            if done > cycle:
                self._mark_e(done, _MEMORY)
        if done + 1 >= self.limit:  # still waiting when the run stops
            self.e_at = cycle + 1
            return
        # WAIT_BURST through ``done``, then the grant bookkeeping tick
        stats = engine.stats
        stats.stall_cycles += done - cycle
        stats.active_cycles += 1
        engine._burst_index += 1
        self.e_at = done + 2
        if self.marks is not None:
            self._mark_e(done + 1, _COMPUTE)
        self.bursts -= 1
        if self.bursts:
            self.reading = True
        else:
            self.e_done = done + 2
            if self.marks is not None:
                self._mark_done(done + 2, self.index, engine.name)

    def _advance(self) -> None:
        """Work out P, S and E up to the chain's next wake.

        E first reads the values P wrote while it waited; then P runs,
        and E reads each value as P writes it, until E's burst is full
        (its submission is the next wake) and P is computed through that
        cycle, or until P finishes, blocks for good, or the run's limit
        cuts both off.
        """
        producer, engine, stream = self.producer, self.engine, self.stream
        limit = self.limit
        depth = self.depth
        marks = self.marks
        traced = marks is not None
        gamma = self.gamma
        buf, rd = self.buf, self.rd
        nw, nr = self.nw, self.nr
        hr, hw = self.hr, stream.high_water
        # drop the read cycles no later write (or high-water step) needs
        keep = nw - depth if hw == depth else min(hr, nw - depth)
        if keep - self.base > 256:
            del rd[: keep - self.base]
            self.base = keep
        base = self.base
        values = engine._values
        room = engine.values_per_burst - len(values)  # reads left in the burst
        reading = self.reading  # E takes values now (until full or cut off)
        e_at = self.e_at
        e_stall = 0
        reads0 = nr
        horizon = limit  # P is computed through the cycle before this
        submit = None

        # E reads back to back what P wrote while it waited on the
        # channel: P is worked out only through the submission, and E
        # reads again two cycles after the completion at the earliest
        while reading and buf:
            if e_at >= limit:
                reading = False
                break
            value = buf.popleft()[1]
            r = e_at
            values.append(value)
            rd.append(r)
            nr += 1
            e_at = r + 1
            room -= 1
            if not room:
                submit = r  # the submission's class is marked when it runs
                reading = False
                horizon = min(r + 1, limit)
            elif traced:
                self._mark_e(r, _COMPUTE)

        # P runs; E reads each value as it lands
        p_at, pend, p_done = self.p_at, self.pend, self.p_done
        p_active = p_stall = p_pipe = w_stalls = iterations = 0
        if gamma:
            next_record = producer._next_record
            produced = producer.produced
            ii1 = producer.config.ii - 1
            accepts = overrun = 0
        else:
            left = producer.remaining
            dummy = producer.value
        while p_done is None:
            if pend is None:
                if p_at >= horizon:
                    break
                if not gamma:
                    pend = (dummy, 0)
                else:
                    record = next_record()
                    p_active += 1
                    if traced:
                        self._mark_p(p_at, _COMPUTE)
                    if record is ADVANCE:
                        p_at += 1
                        producer._advance_sector()
                        if producer._done:
                            p_done = p_at
                            if traced:
                                self._mark_done(p_at, self.p_index, producer.name)
                        continue
                    ok, wrote, value, bubbles = record
                    iterations += 1
                    producer._k += 1
                    budget = ii1 + bubbles
                    if not wrote:
                        if ok:
                            overrun += 1
                        p_at += 1
                        if budget:
                            p_pipe += budget
                            if traced:
                                self._mark_p(p_at, _PIPELINE)
                            p_at += budget
                        continue
                    accepts += 1
                    produced.append(value)
                    pend = (value, budget)
            # P writes value nw, trying from the tick p_at on (a gamma
            # kernel's record tick, which also tries it), once the read
            # of value nw - depth has freed a slot
            w = p_at
            if nw >= depth:
                j = nw - depth
                if j < nr:
                    if rd[j - base] >= w:
                        w = rd[j - base] + 1
                else:
                    # that read is not worked out: E takes values as
                    # they land until its burst is full, so the read lies
                    # past the horizon, or never comes
                    w = horizon
            if w >= horizon:  # blocked through the horizon
                if traced and p_at + gamma < horizon:
                    self._mark_p(p_at + gamma, _FULL)
                break
            value, budget = pend
            pend = None
            blocked = w - p_at
            w_stalls += blocked
            if gamma:
                if blocked:  # stalled after the record tick, then flushed
                    p_stall += blocked - 1
                    p_active += 1
                    if traced:
                        if blocked > 1:
                            self._mark_p(p_at + 1, _FULL)
                        self._mark_p(w, _COMPUTE)
            else:
                p_stall += blocked
                p_active += 1
                iterations += 1
                left -= 1
                if traced:
                    if blocked:
                        self._mark_p(p_at, _FULL)
                    self._mark_p(w, _COMPUTE)
            if hw < depth:  # occupancy right after the write
                while hr < nr and rd[hr - base] < w:
                    hr += 1
                if nw + 1 - hr > hw:
                    hw = nw + 1 - hr
            nw += 1
            p_at = w + 1
            if budget:
                p_pipe += budget
                if traced:
                    self._mark_p(p_at, _PIPELINE)
                p_at += budget
            elif not gamma and not left:
                p_done = p_at
                if traced:
                    self._mark_done(p_at, self.p_index, producer.name)
            if reading and not buf:  # E reads it as soon as it can
                r = w if w > e_at else e_at
                if r < limit:
                    if r > e_at:
                        e_stall += r - e_at
                        if traced:
                            self._mark_e(e_at, _EMPTY)
                    values.append(value)
                    rd.append(r)
                    nr += 1
                    e_at = r + 1
                    room -= 1
                    if not room:
                        submit = r
                        reading = False
                        horizon = min(r + 1, limit)
                    elif traced:
                        self._mark_e(r, _COMPUTE)
                    continue
                reading = False
            buf.append((w, value))

        # write the bulk counts back
        stats = producer.stats
        stats.active_cycles += p_active
        stats.stall_cycles += p_stall
        stats.pipeline_cycles += p_pipe
        stats.iterations += iterations
        if gamma:
            producer.attempts += iterations
            producer.accepts += accepts
            producer.outputs_produced += accepts
            producer.overrun_iterations += overrun
        else:
            producer.remaining = left
        reads = nr - reads0
        stats = engine.stats
        stats.active_cycles += reads
        stats.iterations += reads
        stats.stall_cycles += e_stall
        stream.total_writes += nw - self.nw
        stream.total_reads += reads
        stream.write_stalls += w_stalls
        stream.read_stalls += e_stall
        stream.high_water = hw
        self.nw, self.nr, self.hr = nw, nr, hr
        self.p_at, self.pend, self.p_done = p_at, pend, p_done
        self.e_at = e_at
        if submit is not None:
            self.reading = False  # its last read is the submission

        # the next wake
        if submit is not None:
            self.mode, self.wake = _SUBMIT, submit
        elif self.e_done is not None:
            if p_done is not None:
                self.mode = _FINISH
                self.wake = max(p_done, self.e_done) - 1
            elif pend is not None and nw - depth >= nr:
                # E read its last value: P blocks for good
                self.mode = _STUCK
                self.wake = max(self.e_done, p_at + gamma)
            else:
                self.mode, self.wake = _LIMIT, limit
        elif self.reading and p_done is not None and not buf:
            # P finished, and E starves before its burst is full
            self.mode = _STUCK
            self.wake = max(p_done, e_at)
        else:
            self.mode, self.wake = _LIMIT, limit
        if traced and self.reading and not buf and e_at < limit:
            self._mark_e(e_at, _EMPTY)  # starved from here on

    # -- writing back -------------------------------------------------------------

    def settle(self, end: int) -> None:
        """Write the chain's state at cycle ``end`` into P, S and E, as
        if the reference loop had ticked them through ``end - 1``.

        ``end`` lies at or before the next wake, and a chain is never
        worked out past the run's limit, so every write, read and record
        it holds lies before ``end``; a stuck chain only stalls on.
        """
        producer, engine, stream = self.producer, self.engine, self.stream
        stats = producer.stats
        if self.p_done is not None:
            stats.cycles += self.p_done
        else:
            stats.cycles += end
            if self.pend is not None:
                # every tick from p_at on polls the full sink and fails
                polls = end - self.p_at
                stream.write_stalls += polls
                stats.stall_cycles += polls - self.gamma
                if self.gamma:
                    producer._pending, producer._stall_budget = self.pend
            elif self.p_at > end:  # inside the bubbles after a record
                stats.pipeline_cycles -= self.p_at - end
                producer._stall_budget = self.p_at - end
        stats = engine.stats
        if self.e_done is not None:
            stats.cycles += self.e_done
            engine._state, engine._pending = _State.DONE, None
        else:
            stats.cycles += end
            stalled = end - self.e_at
            stats.stall_cycles += stalled
            if self.reading:  # else still waiting on its last burst
                stream.read_stalls += stalled
                engine._state, engine._pending = _State.PACK, None
        stream._fifo.extend(value for _w, value in self.buf)
        self.buf.clear()
