"""Fused work-item trees: source, tee and Transfer engines in closed form.

In Listing 1 every work-item is a private ``GammaRNG → hls::stream →
Transfer`` pipeline, and the work-items share only the memory channel
(Section III-E, Fig 3).  A pricing work-item (:mod:`repro.core.pricing`)
has the same property one level up: ``GammaRNG → gammaPipe → Pricer``,
whose tee feeds ``pricedPipe → Aggregate`` and ``rawStream → Archive``.
Between two of its burst submissions such a work-item touches nothing
shared, so the fast cycle loop (:func:`~repro.core.dataflow.run_cycles`)
does not tick it: it fuses it into one :class:`FusedTree` — a producer P,
its stream S, an optional tee T and one leaf engine per tee sink (a
chain is a tree without a tee: its one leaf reads S) — and works the
tree out in closed form from one burst submission to the next, the way
hybrid performance models predict independent sub-workloads
analytically and step only the hardware they share.  Only the memory
channel then steps event by event.

**Eligibility** (:func:`fuse_chains`).  P has no inputs and the stock
``tick`` of :class:`~repro.core.transfer.DummySource` or
:class:`~repro.core.kernel.GammaRNGProcess` (so the lanes of
:class:`~repro.core.lanes.VectorGammaRNGProcess` too), not blocked or in a
bubble; S is P's one output stream.  S's reader is either a leaf or T,
a :class:`~repro.core.pricing.PricingProcess` with the stock ``tick`` that
has read nothing and holds no pending write.  Each leaf is the
:class:`~repro.core.transfer.TransferEngine` of the same run that reads S
or one of T's sinks, with the stock ``tick``, the ``_ingest`` of
``TransferEngine`` or :class:`~repro.core.pricing.AggregatingTransferEngine`
and the paper's II=1 packing loop (``dependence_false``), in its first
``PACK`` phase, on a channel the run advances.  Every stream starts
empty and open.  If any part fails, the whole tree keeps per-tick
stepping: a subclass that overrides ``tick``, the II=2 pack ablation, an
engine outside the run or on a channel the run does not advance, and
the regions of a sequential pipeline, none of which holds a whole tree.

**The recurrences** follow the ticks.  D_X is the depth of stream X;
T's sinks are A (priced) and B (raw), read by leaves of the same name,
and with no tee the leaf reads S directly (q = r).  Value k is written
by P at

    w_k = max(a_k, q_{k-D_S} + 1)

where a_k is the cycle of the record that made it; a write blocked
past a_k holds P (``fifo_full``) and pushes every later record past its
flush (a :class:`~repro.core.transfer.DummySource` tries its next value
the cycle after its last write).  T reads value k at
``q_k = max(w_k, t_k)``, writes sink X at
``f^X_k = max(q_k, r^X_{k-D_X} + 1)`` (each cycle of
``[q_k, f^X_k)`` is one failed poll of X; a cycle after q_k that lands a
write is active, any other a stall) and is free again at
``t_{k+1} = max(q_k, f^A_k, f^B_k) + 1``; the cycles of ``[t_k, q_k)``
are starved polls of S.  Leaf X reads value k at

    r^X_k = max(f^X_k, r^X_{k-1} + 1)

and the first value of a burst no earlier than two cycles after the
previous burst completes (the engine observes the completion one cycle
late, and its grant bookkeeping takes that cycle).  T finishes, closing
both sinks, on its first free tick after ``count`` values, or once S is
drained (a ``limit_max`` cap that closes S early).  An
:class:`~repro.core.pricing.AggregatingTransferEngine` folds each value in
as it is read, so its ``total`` is bit-identical.

**Constant-source runs.**  A :class:`~repro.core.transfer.DummySource`
chain takes each steady stretch in one step.  When S is empty, the leaf
is reading and P has no write pending, let p be P's next tick and e the
leaf's.  If ``p <= e < p + D_S``, value i of the run is written at
``p + i`` and read at ``e + i``, until the burst fills, P's count runs
out or the run's limit is reached.  Everything else steps value by
value.

**Wakes.**  The read that fills a burst is its submission.  Each leaf is
its own calendar entry (a :class:`TreeLeaf`) at its engine's
topological index, so each submission reaches the channel at its own
position in the cycle, in the reference loop's order, though the two
leaves of a tree sit at different positions with other engines between
them.  At the wake the leaf packs the burst's values into float32 lanes
(:meth:`~repro.core.transfer.TransferEngine._submit`), calls
``channel.submit`` and gets the completion from ``predict_done``, which
under FIFO arbitration is fixed once submitted.  Only the reads after a
burst not yet submitted depend on its completion, and they lie at least
two cycles past its submission, so between wakes the tree is worked out
in closed form up to its earliest unsubmitted burst and beyond, as far
as nothing unknown is needed; every stat is credited in bulk when the
tree settles.

**Exits.**  A tree never computes past the run's ``max_cycles``, so an
abort there writes the exact partial state back into every process and
stream (:meth:`FusedTree.settle`).  A tree whose processes are all done,
or done and stalled for good (a leaf starved after an early close, a
producer blocked after its reader finished), wakes once more at its
last live cycle or at the first cycle none of them makes progress;
until then a live tree counts as progress for the loop's deadlock test,
and the loop raises at the reference loop's cycle.

**Traced runs** fuse too.  The tree pushes each class change of its
processes (:mod:`repro.obs.stall` names) onto the loop's mark heap as
``(cycle, group, topological index, name, state)``, once the class is
known: up to the tree's next wake every class is; the loop records them
at their own cycle, in the reference loop's order, as it passes it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush

from repro.core.kernel import ADVANCE, GammaRNGProcess
from repro.core.process import NO_SELF_EVENT
from repro.core.transfer import DummySource, TransferEngine, _State
from repro.obs import stall as _stall

__all__ = ["FusedTree", "TreeLeaf", "fuse_chains"]

_COMPUTE = _stall.COMPUTE
_FULL = _stall.FIFO_FULL
_EMPTY = _stall.FIFO_EMPTY
_PIPELINE = _stall.PIPELINE
_MEMORY = _stall.MEMORY
_TRANSFER = _stall.TRANSFER
_DONE_STATE = _stall.DONE

# the tree's course: live, an end wake ahead (finish or stuck), over
_LIVE, _FINISH, _STUCK, _DONE, _DEAD = range(5)

#: read cycles a stream drops at a time once no later write needs them
_TRIM = 256


def _fresh_producer(proc) -> bool:
    tick = type(proc).tick
    if tick is DummySource.tick:
        return True
    return (
        tick is GammaRNGProcess.tick
        and proc._pending is None
        and proc._stall_budget == 0
    )


def _open(stream) -> bool:
    return not stream._fifo and not stream.closed


def fuse_chains(
    ordered, channels, calendar, limit: int, marks
) -> list[FusedTree]:
    """The eligible trees among ``ordered`` (a run's processes in
    topological order, advancing ``channels``), each as a
    :class:`FusedTree`.

    ``calendar.fused`` counts the live trees; ``limit`` is the run's
    ``max_cycles``; ``marks`` is the loop's mark heap on a traced run,
    else ``None``.
    """
    # pricing builds its pipelines on the cycle loop that imports this
    from repro.core.pricing import AggregatingTransferEngine, PricingProcess

    ingests = (TransferEngine._ingest, AggregatingTransferEngine._ingest)
    consumer = {}
    for j, proc in enumerate(ordered):
        for stream in proc.inputs():
            consumer[stream] = j

    def leaf(stream):
        """(engine, index) of the fresh engine reading ``stream``, or None."""
        j = consumer.get(stream)
        if j is None or not _open(stream):
            return None
        engine = ordered[j]
        cls = type(engine)
        if (
            cls.tick is TransferEngine.tick
            and cls._ingest in ingests
            and engine.dependence_false
            and engine._state is _State.PACK
            and engine._pack_stall == 0
            and not engine._values
            and any(engine.channel is channel for channel in channels)
        ):
            return engine, j
        return None

    trees = []
    for i, proc in enumerate(ordered):
        if proc.done() or proc.inputs() or not _fresh_producer(proc):
            continue
        stream = proc.sink
        j = consumer.get(stream)
        if j is None or not _open(stream):
            continue
        node = ordered[j]
        tee = None
        if isinstance(node, PricingProcess):
            if not (
                type(node).tick is PricingProcess.tick
                and node._emitted == 0
                and not node._pending
                and not node._done
            ):
                continue
            leaves = [leaf(node.priced_sink), leaf(node.raw_sink)]
            tee = (node, j)
        else:
            leaves = [leaf(stream)]
        if None not in leaves:
            trees.append(FusedTree(proc, i, tee, leaves, calendar, limit, marks))
    return trees


class _Fifo:
    """One stream of a tree in computed time.

    ``buf`` holds the values written and not yet read, with their write
    cycles; the read cycle of value i is ``rd[i - base]``, kept while a
    later write (or the high water, from read ``hr`` on) needs it.  The
    occupancy right after a write counts the reads before it, so the
    writes in ``pw`` wait to be gauged until a read at or after their
    cycle is worked out.  The counts go into the stream when the tree
    settles.
    """

    __slots__ = (
        "stream", "depth", "buf", "rd", "base", "nw", "nr", "hr", "hw", "pw",
        "wstall", "rstall",
    )

    def __init__(self, stream):
        self.stream = stream
        self.depth = stream.depth
        self.buf: deque = deque()
        self.rd: list[int] = []
        self.base = self.nw = self.nr = self.hr = 0
        self.hw = stream.high_water
        self.pw: deque = deque()
        self.wstall = self.rstall = 0

    def trim(self) -> None:
        """Gauge what can be, then drop the read cycles no later write or
        high-water step needs, a few hundred at a time."""
        if self.pw:
            self.gauge(False)
        keep = self.nw - self.depth
        if keep - self.base > _TRIM - self.depth:
            if self.hw < self.depth and self.hr < keep:
                keep = self.hr
            del self.rd[: keep - self.base]
            self.base = keep

    def slot(self, at: int) -> int | None:
        """The first cycle from ``at`` on at which the next write finds
        room, or None while the read that frees it is not worked out."""
        j = self.nw - self.depth
        if j < 0:
            return at
        if j < self.nr:
            free = self.rd[j - self.base] + 1
            return free if free > at else at
        return None

    def write(self, w: int) -> None:
        """Account the next write, at ``w``."""
        if self.hw < self.depth:
            self.pw.append(w)
        self.nw += 1

    def gauge(self, final: bool) -> None:
        """Raise the high water by the occupancy right after each write in
        ``pw`` whose reads before it are all worked out: those up to a
        later read, or, ``final``ly, every one."""
        pw, rd, base, nr = self.pw, self.rd, self.base, self.nr
        hr, hw = self.hr, self.hw
        k = self.nw - len(pw)  # the first write waiting
        while pw:
            w = pw[0]
            while hr < nr and rd[hr - base] < w:
                hr += 1
            if hr == nr and not final:
                break
            pw.popleft()
            k += 1
            if k - hr > hw:
                hw = k - hr
        self.hr, self.hw = hr, hw
        if hw >= self.depth:
            pw.clear()

    def settle(self) -> None:
        if self.pw:
            self.gauge(True)
        stream = self.stream
        stream.total_writes += self.nw
        stream.total_reads += self.nr
        stream.write_stalls += self.wstall
        stream.read_stalls += self.rstall
        stream.high_water = self.hw
        stream._fifo.extend(value for _w, value in self.buf)
        self.buf.clear()


class TreeLeaf:
    """One leaf engine of a :class:`FusedTree`, and the tree's entry on the
    fast loop's wake calendar at that engine's topological ``index``.

    To the loop it is one more process: :meth:`tick` runs at each wake
    (the engine's burst submission, at its own position in the cycle,
    or the tree's end), :meth:`next_event` names the next wake, and
    :meth:`skip_cycles` does nothing, since the tree accounts its own
    cycles.  Between wakes the engine takes each value of its stream as
    soon as it can (:meth:`read`), and is ``reading`` while in a
    ``PACK`` phase; ``submit`` is the cycle of a full burst not yet
    submitted.
    """

    def __init__(self, tree: FusedTree, engine, index: int):
        self.tree = tree
        self.engine = engine
        self.index = index
        self.name = f"{tree.producer.name} -> {engine.name}"
        self.fifo = _Fifo(engine.source)
        self.values = engine._values
        self.per_burst = engine.values_per_burst
        self.bursts = engine._total_bursts - engine._burst_index
        ingest = type(engine)._ingest
        self.ingest = None if ingest is TransferEngine._ingest else engine._ingest
        self.limit = tree.limit
        self.marks = tree.marks
        self.reading = True
        self.e_at = 0  # the engine's ticks before e_at are worked out
        self.e_done: int | None = None
        self.submit: int | None = None
        self.active = 0  # grant bookkeeping ticks
        self.waits = 0  # ticks waiting on a burst
        self.starved = 0  # ticks polling an empty stream
        self.wake: int | float = tree.limit
        self.entry = None  # the loop's sleeper
        self.cls = None  # traced: the class last marked

    # -- the loop's view ---------------------------------------------------------

    def done(self) -> bool:
        return self.tree.mode == _DONE

    def inputs(self) -> tuple:
        return ()

    def outputs(self) -> tuple:
        return ()

    def next_event(self, cycle: int) -> int | float:
        return self.wake

    def skip_cycles(self, cycle: int, count: int) -> None:
        """Nothing to credit: the tree accounts its own cycles."""

    def tick(self, cycle: int) -> bool:
        """The wake at ``cycle``: submit the engine's full burst and work
        the tree out to its next wake (the entry parks until its own),
        or the tree's end.  True on the tree's last cycle; a live tree
        counts as progress while ``calendar.fused`` does."""
        tree = self.tree
        if self.submit == cycle:
            tree._submit(self, cycle)
            tree._advance()
            return False
        return tree._end(cycle)

    # -- computed time ------------------------------------------------------------

    def mark(self, cycle: int, state: str) -> None:
        if state != self.cls:
            self.cls = state
            heappush(self.marks, (cycle, 1, self.index, self.engine.name, state))

    def read(self, f: int, value) -> int | None:
        """Read ``value``, written at ``f``, as soon as the engine can
        (``r = max(f, previous read + 1)``); returns the read cycle, or
        None if the engine is not reading or the run's limit cuts the
        read off.  The caller keeps the stream's read cycles.  A chain's
        producer runs the same read inline."""
        if not self.reading:
            return None
        e_at = self.e_at
        r = f if f > e_at else e_at
        if r >= self.limit:
            return None
        marks = self.marks
        if r > e_at:
            self.starved += r - e_at
            if marks is not None:
                self.mark(e_at, _EMPTY)
        if self.ingest is not None:
            value = self.ingest(value)
        values = self.values
        values.append(value)
        self.e_at = r + 1
        if len(values) == self.per_burst:
            self.submit = r  # the submission's class is marked when it runs
            self.reading = False
        elif marks is not None:
            self.mark(r, _COMPUTE)
        return r

    def drain(self) -> None:
        """Read back to back what was written while the engine waited."""
        fifo = self.fifo
        buf, rd = fifo.buf, fifo.rd
        while buf:
            f, value = buf[0]
            r = self.read(f, value)
            if r is None:
                return
            buf.popleft()
            rd.append(r)
            fifo.nr += 1


class FusedTree:
    """One fused work-item: P → S → [T →] one :class:`TreeLeaf` per sink.

    The tree holds its processes in computed time: the writes and reads
    it has worked out, which run ahead of the loop up to and past its
    next wake.  P's counts go into P as they are worked out; the rest,
    and what depends on the cycle the run stops at (the stalls since, a
    write still pending, a partial burst or pending request, the values
    left in the streams), go in when the tree settles (:meth:`settle`),
    at its end or at an abort.
    """

    def __init__(self, producer, p_index, tee, leaves, calendar, limit, marks):
        self.producer = producer
        self.p_index = p_index
        self.calendar = calendar
        self.limit = limit
        self.marks = marks
        self.gamma = isinstance(producer, GammaRNGProcess)
        self.leaves = [TreeLeaf(self, engine, index) for engine, index in leaves]
        # P: its ticks before p_at are worked out; with ``pend`` set it is
        # writing (value, bubbles after it) from the tick p_at on
        self.p_at = 0
        self.pend = None
        self.p_done: int | None = None
        self.p_class = None
        # T: free from the tick t_at on, or writing the value it read at
        # t_q to the leaves in ``t_wait``; ``t_lands`` are the cycles its
        # writes of that value landed, and its classes are marked up to
        # t_marked
        self.tee = None
        self.t_at = self.t_q = self.t_marked = 0
        self.t_wait: list = []
        self.t_lands: list[int] = []
        self.t_done: int | None = None
        self.t_active = self.t_stall = self.emitted = 0
        self.t_class = None
        if tee is None:
            self.fifo = self.leaves[0].fifo
        else:
            self.tee, self.t_index = tee
            self.fifo = _Fifo(producer.sink)
            self.price = self.tee.price
            self.count = self.tee.count
        self.mode = _LIVE

    @property
    def processes(self) -> list:
        """P, T if any, and the leaf engines."""
        tee = [] if self.tee is None else [self.tee]
        return [self.producer, *tee, *(leaf.engine for leaf in self.leaves)]

    @property
    def done_cycles(self) -> dict[str, int]:
        """The cycle at which each process finished."""
        done = {self.producer.name: self.p_done}
        if self.tee is not None:
            done[self.tee.name] = self.t_done
        for leaf in self.leaves:
            done[leaf.engine.name] = leaf.e_done
        return done

    def start(self) -> None:
        """Work the tree out from cycle 0 up to its first wake."""
        self._advance()

    def unlink(self) -> None:
        """Drop the links between the tree, its leaves and their calendar
        entries once the run is over, so that reference counting frees
        the run's objects instead of a full garbage collection."""
        for leaf in self.leaves:
            leaf.tree = leaf.entry = None

    def _end(self, cycle: int) -> bool:
        """The end wake at ``cycle``, for each leaf: the first settles a
        finished tree, or stops counting a stuck one as progress."""
        mode = self.mode
        if mode == _FINISH:
            self.calendar.fused -= 1
            self.settle(cycle + 1)
            self.mode = _DONE
        elif mode == _STUCK:
            self.calendar.fused -= 1
            self.mode = _DEAD
            if self.marks is not None:
                self._mark_stalls(self.limit)
            for leaf in self.leaves:
                leaf.wake = NO_SELF_EVENT  # nothing wakes it again
        return self.mode == _DONE

    # -- marks --------------------------------------------------------------------

    def _mark_p(self, cycle: int, state: str) -> None:
        if state != self.p_class:
            self.p_class = state
            heappush(
                self.marks, (cycle, 1, self.p_index, self.producer.name, state)
            )

    def _mark_t(self, cycle: int, state: str) -> None:
        if state != self.t_class:
            self.t_class = state
            heappush(self.marks, (cycle, 1, self.t_index, self.tee.name, state))

    def _mark_done(self, cycle: int, index: int, name: str) -> None:
        heappush(self.marks, (cycle, 0, index, name, _DONE_STATE))

    def _mark_window(self, upto) -> None:
        """Mark T's classes after its read at t_q, from t_marked up to
        ``upto``: ``compute`` where a write lands, else ``fifo_full``.
        A landing still unknown lies past ``upto``.  T blocked for good
        on a finished leaf is marked again at each wake of the other
        leaf; t_marked keeps a landing marked then from being pushed
        again behind the loop."""
        c = max(self.t_q + 1, self.t_marked)
        for land in sorted(self.t_lands):
            if land >= upto:
                break
            if land < c:
                continue
            if c < land:
                self._mark_t(c, _FULL)
            self._mark_t(land, _COMPUTE)
            c = land + 1
        if self.t_wait and c < upto:
            self._mark_t(c, _FULL)
            c = upto
        self.t_marked = c

    def _mark_stalls(self, upto) -> None:
        """Mark the stalls that last past what is worked out, from their
        start where it lies before ``upto``.  Up to the tree's next wake
        their end is unknown, so they hold there."""
        if self.pend is not None:
            start = self.p_at + self.gamma
            if start < upto:
                self._mark_p(start, _FULL)
        if self.tee is not None and self.t_done is None:
            if self.t_wait:
                self._mark_window(upto)
            elif self.t_at < upto:  # starved: its next read is unknown
                self._mark_t(self.t_at, _EMPTY)
        for leaf in self.leaves:
            if leaf.reading and not leaf.fifo.buf and leaf.e_at < upto:
                leaf.mark(leaf.e_at, _EMPTY)

    # -- computed time ------------------------------------------------------------

    def _submit(self, leaf: TreeLeaf, cycle: int) -> None:
        """The leaf submits its full burst at ``cycle``; works out its wait."""
        engine = leaf.engine
        channel = engine.channel
        request = engine._submit(cycle)
        leaf.values = engine._values
        leaf.submit = None
        done = channel.predict_done(request, cycle)
        marks = self.marks
        if marks is not None:
            # the burst drains, and the engine is ``transfer``, over [grant, done)
            grant = done - channel.config.burst_cycles(engine.burst_words) + 1
            leaf.mark(cycle, _TRANSFER if grant == cycle < done else _COMPUTE)
            if grant > cycle + 1:
                leaf.mark(cycle + 1, _MEMORY)
            if cycle < grant < done:
                leaf.mark(grant, _TRANSFER)
            if done > cycle:
                leaf.mark(done, _MEMORY)
        if done + 1 >= self.limit:  # still waiting when the run stops
            leaf.e_at = cycle + 1
            return
        # WAIT_BURST through ``done``, then the grant bookkeeping tick
        leaf.waits += done - cycle
        leaf.active += 1
        engine._burst_index += 1
        leaf.e_at = done + 2
        if marks is not None:
            leaf.mark(done + 1, _COMPUTE)
        leaf.bursts -= 1
        if leaf.bursts:
            leaf.reading = True
        else:
            leaf.e_done = done + 2
            if marks is not None:
                self._mark_done(done + 2, leaf.index, engine.name)

    def _advance(self) -> None:
        """Work the tree out as far as nothing unknown is needed.

        Each leaf first reads what was written while it waited (a
        chain's leaf in :meth:`_produce`); then T lands the writes it was
        blocked on and reads what P wrote meanwhile; then P runs, and its
        reader (T, or the one leaf) takes each value as it lands, T
        handing its writes on to the leaves the same way.  It stops where P, T and the leaves each
        finish, block on a read that waits for a burst not yet
        submitted, or meet the run's limit.
        """
        tee = self.tee
        for leaf in self.leaves:
            fifo = leaf.fifo
            if fifo.pw or fifo.nw - fifo.base > _TRIM:
                fifo.trim()
            if tee is not None and leaf.reading and fifo.buf:
                leaf.drain()
        if tee is not None:
            if self.fifo.pw or self.fifo.nw - self.fifo.base > _TRIM:
                self.fifo.trim()
            self._tee_flush()
        self._produce()
        self._schedule()

    def _produce(self) -> None:
        """P runs until it finishes, blocks on a read not worked out, or
        meets the run's limit; S's reader takes each value as soon as it
        can."""
        producer = self.producer
        fifo = self.fifo
        limit = self.limit
        depth = fifo.depth
        marks = self.marks
        traced = marks is not None
        gamma = self.gamma
        buf, rd, base = fifo.buf, fifo.rd, fifo.base
        nw, nr = fifo.nw, fifo.nr
        gauge = fifo.pw.append if fifo.hw < depth else None
        # a chain's leaf reads inline, as TreeLeaf.read does, on its
        # state in locals: first what P wrote while it waited, then each
        # value as P writes it.  This is the hot loop of every Fig 3 and
        # Fig 7 region, where a burst is a few dozen values.
        leaf = self.leaves[0] if self.tee is None else None
        reading = False
        if leaf is not None:
            reading, e_at, values = leaf.reading, leaf.e_at, leaf.values
            room = leaf.per_burst - len(values)
            ingest = leaf.ingest
            starved = 0
            while reading and buf:
                w, value = buf[0]
                r = w if w > e_at else e_at
                if r >= limit:
                    break
                buf.popleft()
                if r > e_at:
                    starved += r - e_at
                    if traced:
                        leaf.mark(e_at, _EMPTY)
                if ingest is not None:
                    value = ingest(value)
                values.append(value)
                rd.append(r)
                nr += 1
                e_at = r + 1
                room -= 1
                if not room:
                    leaf.submit = r
                    reading = False
                elif traced:
                    leaf.mark(r, _COMPUTE)
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
                if p_at >= limit:
                    break
                if not gamma:
                    if reading and not buf and 0 <= e_at - p_at < depth:
                        # a steady run: value i is written at p_at + i and
                        # read at e_at + i.  The stream is empty, so the
                        # reads before the run lie before e_at, and read
                        # cycles rise by at least one per value: the read
                        # that frees value i's slot lies at or before
                        # e_at - depth + i, before p_at + i
                        m = min(room, left, limit - e_at)
                        if m > 0:
                            if traced:
                                self._mark_p(p_at, _COMPUTE)
                                if room > 1:
                                    leaf.mark(e_at, _COMPUTE)
                            if gauge is not None:
                                fifo.pw.extend(range(p_at, p_at + m))
                            rd.extend(range(e_at, e_at + m))
                            run = [dummy] * m
                            values.extend(run if ingest is None else map(ingest, run))
                            nw += m
                            nr += m
                            p_active += m
                            iterations += m
                            left -= m
                            p_at += m
                            e_at += m
                            room -= m
                            if not room:
                                leaf.submit = e_at - 1
                                reading = False
                            if not left:
                                p_done = p_at
                                if traced:
                                    self._mark_done(p_at, self.p_index, producer.name)
                            continue
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
            j = nw - depth
            if j < 0:
                w = p_at
            elif j < nr:
                w = rd[j - base] + 1
                if w < p_at:
                    w = p_at
            else:
                break  # that read waits for a burst not yet submitted
            if w >= limit:
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
            if gauge is not None:
                gauge(w)
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
            if not buf:  # its reader takes it as soon as it can
                if reading:
                    r = w if w > e_at else e_at
                    if r < limit:
                        if r > e_at:
                            starved += r - e_at
                            if traced:
                                leaf.mark(e_at, _EMPTY)
                        if ingest is not None:
                            value = ingest(value)
                        values.append(value)
                        rd.append(r)
                        nr += 1
                        e_at = r + 1
                        room -= 1
                        if not room:
                            leaf.submit = r
                            reading = False
                        elif traced:
                            leaf.mark(r, _COMPUTE)
                        continue
                elif leaf is None:
                    q = self._tee_read(w, value)
                    if q is not None:
                        rd.append(q)
                        nr += 1
                        continue
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
        fifo.nw, fifo.nr = nw, nr
        fifo.wstall += w_stalls
        self.p_at, self.pend, self.p_done = p_at, pend, p_done
        if leaf is not None:
            leaf.reading, leaf.e_at = reading, e_at
            leaf.starved += starved

    # -- the tee ------------------------------------------------------------------

    def _tee_read(self, w: int, value) -> int | None:
        """T reads ``value``, written to S at ``w``, as soon as it is
        free, and writes the price and the value on; returns the read
        cycle, or None if T is blocked, done, or cut off by the run's
        limit.  The caller keeps S's read cycles."""
        if self.t_wait or self.t_done is not None:
            return None
        t_at = self.t_at
        q = w if w > t_at else t_at
        if q >= self.limit:
            return None
        marks = self.marks
        if q > t_at:
            self.t_stall += q - t_at
            self.fifo.rstall += q - t_at
            if marks is not None:
                self._mark_t(t_at, _EMPTY)
        self.t_active += 1
        self.emitted += 1
        if marks is not None:
            self._mark_t(q, _COMPUTE)
        self.t_q = q
        priced, raw = self.leaves
        lands = self.t_lands
        for leaf, token in ((priced, self.price(value)), (raw, value)):
            f = self._tee_write(leaf, q, token)
            if f is None:
                self.t_wait.append((leaf, token))
            elif f > q:
                lands.append(f)
        if not self.t_wait:
            self._tee_free()
        return q

    def _tee_write(self, leaf: TreeLeaf, q: int, token) -> int | None:
        """T writes ``token`` to the leaf's stream, trying from its read
        at ``q``; returns the cycle it lands, or None while the read that
        frees a slot is not worked out or lies past the run's limit."""
        fifo = leaf.fifo
        f = fifo.slot(q)
        if f is None or f >= self.limit:
            return None
        fifo.wstall += f - q
        fifo.write(f)
        if not fifo.buf:  # the leaf reads it as soon as it can
            r = leaf.read(f, token)
            if r is not None:
                fifo.rd.append(r)
                fifo.nr += 1
                return f
        fifo.buf.append((f, token))
        return f

    def _tee_flush(self) -> None:
        """T lands the writes it was blocked on, then reads what P wrote
        to S meanwhile."""
        if self.t_done is not None:
            return
        wait = self.t_wait
        if wait:
            q = self.t_q
            still = []
            for leaf, token in wait:
                f = self._tee_write(leaf, q, token)
                if f is None:
                    still.append((leaf, token))
                elif f > q:
                    self.t_lands.append(f)
            self.t_wait = still
            if still:
                return
            self._tee_free()
        fifo = self.fifo
        buf, rd = fifo.buf, fifo.rd
        while buf:
            w, value = buf[0]
            q = self._tee_read(w, value)
            if q is None:
                return
            buf.popleft()
            rd.append(q)
            fifo.nr += 1

    def _tee_free(self) -> None:
        """T's writes of the value read at t_q all landed: account the
        ticks up to the last, and T is free from the tick after."""
        q = self.t_q
        lands = self.t_lands
        last = q
        if lands:
            n = len(set(lands))
            last = max(lands)
            self.t_active += n
            self.t_stall += last - q - n
            if self.marks is not None:
                self._mark_window(NO_SELF_EVENT)
            lands.clear()
        self.t_at = last + 1
        if self.emitted == self.count:
            self._tee_finish(self.t_at)

    def _tee_finish(self, tick: int) -> None:
        """T closes both sinks and finishes in ``tick``, starved since
        t_at; past the run's limit it stays starved."""
        if tick >= self.limit:
            return
        starved = tick - self.t_at
        marks = self.marks
        if starved:
            self.t_stall += starved
            self.fifo.rstall += starved
            if marks is not None:
                self._mark_t(self.t_at, _EMPTY)
        self.t_active += 1
        self.t_done = tick + 1
        for leaf in self.leaves:
            leaf.fifo.stream.close()
        if marks is not None:
            self._mark_t(tick, _COMPUTE)
            self._mark_done(tick + 1, self.t_index, self.tee.name)

    # -- the next wake -------------------------------------------------------------

    def _schedule(self) -> None:
        """Finish T on a drained S, then set each leaf's next wake: its
        burst not yet submitted, else the tree's end, else the run's
        limit.  On a traced run, mark what is known to hold until then."""
        fifo = self.fifo
        if (
            self.tee is not None
            and self.t_done is None
            and not self.t_wait
            and self.p_done is not None
            and not fifo.buf
            and fifo.stream.closed
        ):
            self._tee_finish(max(self.t_at, self.p_done - 1))
        leaves = self.leaves
        wake = NO_SELF_EVENT
        for leaf in leaves:
            if leaf.submit is not None and leaf.submit < wake:
                wake = leaf.submit
        if wake != NO_SELF_EVENT:
            for leaf in leaves:
                leaf.wake = NO_SELF_EVENT if leaf.submit is None else leaf.submit
        else:
            end = self._ends()
            if end is None:  # cut off by the run's limit
                self.mode, wake = _LIVE, self.limit
            elif end[0]:
                self.mode, wake = _FINISH, end[1] - 1
            else:
                self.mode, wake = _STUCK, end[1]
            for leaf in leaves:
                leaf.wake = wake
        if self.marks is not None:
            self._mark_stalls(wake)
        if len(leaves) > 1:  # one leaf's wake can work out the other's
            for leaf in leaves:
                if leaf.entry is not None:
                    leaf.entry.rearm(leaf.wake)

    def _ends(self) -> tuple[bool, int] | None:
        """With no burst waiting to be submitted: (finished, cycle) once
        every process is done or stalled for good, else None.  The cycle
        is the first with every process done, or with none making
        progress again."""
        fifo = self.fifo
        ends = []
        finished = True
        tee = self.tee
        if tee is None:
            reader_over = self.leaves[0].e_done is not None
        elif self.t_done is not None:
            ends.append(self.t_done)
            reader_over = True
        elif self.t_wait:
            # blocked for good on leaves that are done and full
            for leaf, _token in self.t_wait:
                f = leaf.fifo
                if leaf.e_done is None or f.nw - f.depth < f.nr:
                    return None
            ends.append(max([self.t_q, *self.t_lands]) + 1)
            reader_over, finished = True, False
        elif (
            self.p_done is not None
            and not fifo.buf
            and not fifo.stream.closed
            and self.emitted < self.count
        ):
            ends.append(self.t_at)  # starved for good on an open S
            reader_over, finished = True, False
        else:
            return None
        if self.p_done is not None:
            ends.append(self.p_done)
        elif reader_over and fifo.nw - fifo.depth >= fifo.nr:
            ends.append(self.p_at + self.gamma)  # blocked for good
            finished = False
        else:
            return None
        feeder_over = self.p_done is not None if tee is None else True
        for leaf in self.leaves:
            if leaf.e_done is not None:
                ends.append(leaf.e_done)
            elif feeder_over and leaf.reading and not leaf.fifo.buf:
                ends.append(leaf.e_at)  # starved for good
                finished = False
            else:
                return None
        return finished, max(ends)

    # -- writing back -------------------------------------------------------------

    def settle(self, end: int) -> None:
        """Write the tree's state at cycle ``end`` into its processes and
        streams, as if the reference loop had ticked them through
        ``end - 1``.

        ``end`` lies at or before the next wake, and a tree is never
        worked out past the run's limit, so every write, read and record
        it holds lies before ``end``; a stuck tree only stalls on.
        """
        producer, fifo = self.producer, self.fifo
        stats = producer.stats
        if self.p_done is not None:
            stats.cycles += self.p_done
        else:
            stats.cycles += end
            if self.pend is not None:
                # every tick from p_at on polls the full sink and fails
                polls = end - self.p_at
                fifo.wstall += polls
                stats.stall_cycles += polls - self.gamma
                if self.gamma:
                    producer._pending, producer._stall_budget = self.pend
            elif self.p_at > end:  # inside the bubbles after a record
                stats.pipeline_cycles -= self.p_at - end
                producer._stall_budget = self.p_at - end
        tee = self.tee
        if tee is not None:
            stats = tee.stats
            stats.active_cycles += self.t_active
            stats.iterations += self.emitted
            stall = self.t_stall
            if self.t_done is not None:
                stats.cycles += self.t_done
            else:
                stats.cycles += end
                q = self.t_q
                if self.t_wait:
                    # the ticks after the read: each lands a write, or
                    # polls the full sinks and fails
                    landed = len(set(self.t_lands))
                    stats.active_cycles += landed
                    stall += end - 1 - q - landed
                    for leaf, _token in self.t_wait:
                        leaf.fifo.wstall += end - q
                    tee._pending = [
                        (leaf.fifo.stream, token) for leaf, token in self.t_wait
                    ]
                elif end > self.t_at:  # starved
                    stall += end - self.t_at
                    fifo.rstall += end - self.t_at
            stats.stall_cycles += stall
            tee._emitted = self.emitted
            tee._done = self.t_done is not None
            fifo.settle()
        for leaf in self.leaves:
            engine, lf = leaf.engine, leaf.fifo
            stats = engine.stats
            stats.active_cycles += lf.nr + leaf.active
            stats.iterations += lf.nr
            stall = leaf.starved + leaf.waits
            lf.rstall += leaf.starved
            if leaf.e_done is not None:
                stats.cycles += leaf.e_done
                engine._state, engine._pending = _State.DONE, None
            else:
                stats.cycles += end
                stalled = end - leaf.e_at
                stall += stalled
                if leaf.reading:  # else still waiting on its last burst
                    lf.rstall += stalled
                    engine._state, engine._pending = _State.PACK, None
            stats.stall_cycles += stall
            lf.settle()
