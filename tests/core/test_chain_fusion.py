"""Differential suite: fused work-item trees against the reference loop.

The fast loop fuses each ``source → stream → TransferEngine`` chain, and
each pricing work-item ``source → stream → PricingProcess →
{priced → AggregatingTransferEngine, raw → TransferEngine}``, into a tree
that is worked out in closed form between burst submissions, with one
wake-calendar entry per engine (:mod:`repro.core.chain`).  Its contract is the fast path's:
the same simulation as the reference one-cycle-at-a-time loop.  Here
hypothesis draws random chain regions — 1 to 6 work-items, stream depth
1 to 16, ``burst_words`` 1 to 4, one or two channels, ``DummySource``
producers and gamma producers (lanes and scalar, every transform, the
naive-exit and gated-MT ablations, ``limit_max`` caps that close a stream
early and deadlock its engine) — and runs each three ways: fused
untraced, fused traced and on the traced reference loop.  It compares
the outcome (the cycle count, or the exception and its message), every
process's stats and program state, every stream's counters and contents,
the channel stats, the per-burst ``(owner, address, submitted, started,
completed)`` log, device memory and, traced, the stall report and the
trace's cycle spans.  ``max_cycles`` lands at a random cycle, often
mid-run, so the partial state an abort writes back is compared too.

Two topologies get their own cases: chains whose stream is a ``Pipe``
between two regions of a pipeline, and a fused chain sharing its
channel with an engine fed by ``Throttled``, a source that overrides
``tick`` (so it keeps per-tick stepping) and stalls on odd cycles: fused
and per-tick submissions arbitrate on one channel, and the deadlock
test must count a live chain as progress.

Pricing trees get the same three-way comparison over the pipelined,
fused one-region and sequential builds: 1 to 4 work-items, pipe and
stream depths 1 to 16, one or two channels with each affinity, gamma
and ``DummySource`` roots, a pricer quota off the engines' (its early
close starves them) and ``limit_max`` caps, with every pricer's
``_emitted``, ``_pending`` and ``_done`` and every aggregate's ``total``
in the compared state.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.chain import fuse_chains
from repro.core.dataflow import DataflowRegion, DeadlockError, _Calendar
from repro.core.kernel import TRANSFORMS, GammaKernelConfig, GammaRNGProcess
from repro.core.lanes import gamma_process
from repro.core.memory import GlobalMemory, MemoryChannel, MemoryChannelConfig
from repro.core.pipes import MultiRegionRunner, Pipe, PipelineGraph
from repro.core.pricing import (
    AggregatingTransferEngine,
    PricingPipelineConfig,
    PricingProcess,
    build_fused_pricing_region,
    build_pricing_pipeline,
)
from repro.core.stream import Stream
from repro.core.transfer import DummySource, TransferEngine
from repro.obs import use_tracer
from repro.obs.stall import StallAttribution
from repro.obs.tracer import ChromeTracer, NullTracer

SUITE = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MT_ROLES = ("mt_norm_a", "mt_norm_b", "mt_reject", "mt_correct")


class Throttled(DummySource):
    """A source with its own ``tick``: it writes on even cycles only and
    stalls (no progress) on odd ones.  Overriding ``tick`` keeps it, and
    the engine it feeds, on per-tick stepping."""

    def tick(self, cycle):
        if cycle % 2:
            return self._account(False)
        return super().tick(cycle)


# ---------------------------------------------------------------------------
# random chain regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One work-item: ``kind`` is ``dummy``, ``lanes``, ``scalar``,
    ``throttled`` or ``summed`` (a ``DummySource`` into an
    ``AggregatingTransferEngine``); ``extra`` shifts a source's value
    count off the engine's quota (short: the engine starves; long: the
    source blocks for good); ``kernel`` configures a gamma producer."""

    kind: str
    extra: int = 0
    kernel: GammaKernelConfig | None = None


@dataclass(frozen=True)
class Spec:
    items: tuple[Item, ...]
    depth: int
    burst_words: int
    bursts: int  # per sector
    sectors: int
    n_channels: int
    setup_cycles: int
    cycles_per_word: int
    engines_first: bool  # add every engine before the producers

    @property
    def per_item(self) -> int:
        """Values each engine reads."""
        return 16 * self.burst_words * self.bursts * self.sectors

    @property
    def words(self) -> int:
        return self.sectors * self.bursts * self.burst_words


@st.composite
def gamma_kernels(draw, limit_main: int, sectors: int):
    capped = draw(st.booleans())
    return GammaKernelConfig(
        transform=draw(st.sampled_from(TRANSFORMS)),
        sector_variances=(1.39, 0.5)[:sectors],
        limit_main=limit_main,
        limit_max=limit_main + draw(st.integers(0, 12)) if capped else None,
        use_delayed_counter=draw(st.booleans()),
        adapted_mt=draw(st.booleans()),
        break_id=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def specs(draw, kinds=("dummy", "lanes", "scalar"), max_items=6):
    burst_words = draw(st.integers(1, 4))
    bursts = draw(st.integers(1, 2))
    sectors = draw(st.integers(1, 2))
    limit_main = 16 * burst_words * bursts
    items = []
    for _ in range(draw(st.integers(1, max_items))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("lanes", "scalar"):
            kernel = draw(gamma_kernels(limit_main, sectors))
            items.append(Item(kind, kernel=kernel))
        else:
            extra = draw(st.sampled_from((0, 0, 0, -1, -17, 3)))
            items.append(Item(kind, extra=extra))
    return Spec(
        items=tuple(items),
        depth=draw(st.integers(1, 16)),
        burst_words=burst_words,
        bursts=bursts,
        sectors=sectors,
        n_channels=draw(st.integers(1, 2)),
        setup_cycles=draw(st.sampled_from((0, 1, 3, 80))),
        cycles_per_word=draw(st.integers(1, 2)),
        engines_first=draw(st.booleans()),
    )


def build_items(spec: Spec, streams):
    """(producer, engine) per item, reading ``streams``, and the
    device memory and channels they share."""
    memory = GlobalMemory(spec.words * len(spec.items))
    config = MemoryChannelConfig(spec.setup_cycles, spec.cycles_per_word)
    channels = [MemoryChannel(config, memory) for _ in range(spec.n_channels)]
    pairs = []
    for wid, (item, stream) in enumerate(zip(spec.items, streams)):
        if item.kind in ("lanes", "scalar"):
            producer = gamma_process(
                f"P{wid}", wid, item.kernel, stream, lanes=item.kind == "lanes"
            )
        else:
            cls = Throttled if item.kind == "throttled" else DummySource
            count = max(0, spec.per_item + item.extra)
            # a summed value is inexact in binary, so a fold that skipped
            # a value or multiplied one would show in the total
            value = wid + (0.1 if item.kind == "summed" else 0.5)
            producer = cls(f"P{wid}", stream, count, value=value)
        engine_cls = AggregatingTransferEngine if item.kind == "summed" else TransferEngine
        engine = engine_cls(
            f"E{wid}", wid, stream, channels[wid % spec.n_channels],
            burst_words=spec.burst_words,
            bursts_per_sector=spec.bursts,
            sectors=spec.sectors,
            block_offset=spec.words,
        )
        pairs.append((producer, engine))
    return pairs, memory, channels


def build_region(spec: Spec):
    streams = [Stream(f"s{i}", depth=spec.depth) for i in range(len(spec.items))]
    pairs, memory, channels = build_items(spec, streams)
    region = DataflowRegion("chains")
    for channel in channels:
        region.attach_memory_channel(channel)
    producers = [p for p, _ in pairs]
    engines = [e for _, e in pairs]
    for proc in engines + producers if spec.engines_first else producers + engines:
        region.add(proc)
    return region, memory, channels


def log_bursts(channels) -> list:
    """Wrap ``submit`` on each channel; returns the growing request log."""
    log = []
    for channel in channels:

        def logged(request, submit=channel.submit):
            log.append(request)
            return submit(request)

        channel.submit = logged
    return log


def process_state(proc) -> dict:
    """A process's stats and program state, as plain values."""
    state = {"stats": dict(vars(proc.stats)), "done": proc.done()}
    if isinstance(proc, TransferEngine):
        pending = proc._pending
        state.update(
            phase=proc._state.value,
            values=list(proc._values),
            offset=proc._offset,
            bursts=proc._burst_index,
            pending=None if pending is None else (pending.address, pending.done),
        )
        if isinstance(proc, AggregatingTransferEngine):
            state.update(total=proc.total, folded=proc.values)
    elif isinstance(proc, PricingProcess):
        state.update(
            emitted=proc._emitted,
            pending=[(sink.name, value) for sink, value in proc._pending],
            finished=proc._done,
        )
    elif isinstance(proc, GammaRNGProcess):
        state.update(
            produced=list(proc.produced),
            counters=(
                proc.attempts, proc.accepts, proc.outputs_produced,
                proc.overrun_iterations, proc._k, proc._sector,
            ),
            pending=proc._pending,
            budget=proc._stall_budget,
            twisters=[
                (getattr(proc, r).steps, getattr(proc, r).held) for r in MT_ROLES
            ],
        )
    else:
        state["remaining"] = proc.remaining
    return state


def snapshot(processes, memory, channels, log) -> dict:
    streams = {s for p in processes for s in (*p.inputs(), *p.outputs())}
    return {
        "processes": {p.name: process_state(p) for p in processes},
        "streams": {
            s.name: (vars(s.stats), list(s._fifo), s.closed) for s in streams
        },
        "channels": [vars(c.stats) for c in channels],
        "bursts": [
            (r.owner, r.address, r.submitted_cycle, r.started_cycle, r.completed_cycle)
            for r in log
        ],
        "memory": memory.as_float_array().tobytes(),
    }


def cycle_spans(tracer) -> list:
    return [e for e in tracer.to_dict()["traceEvents"] if e.get("cat") == "cycle"]


def run_region(spec: Spec, fast: bool, traced: bool, max_cycles: int):
    """Run ``spec`` once; returns (outcome, snapshot, trace, skipped)."""
    region, memory, channels = build_region(spec)
    log = log_bursts(channels)
    attribution = (
        StallAttribution(region.name, tracer=ChromeTracer()) if traced else None
    )
    try:
        outcome = region.run(
            max_cycles=max_cycles, fast_path=fast, attribution=attribution
        ).cycles
    except RuntimeError as exc:  # DeadlockError or the runaway guard
        outcome = (type(exc).__name__, str(exc))
    trace = None
    if traced:
        trace = (attribution.report().to_dict(), cycle_spans(attribution.tracer))
    snap = snapshot(region.processes, memory, channels, log)
    return outcome, snap, trace, region.skipped_cycles


def assert_three_ways(spec: Spec, max_cycles: int) -> tuple:
    """Fused untraced, fused traced and the traced reference agree."""
    ref = run_region(spec, fast=False, traced=True, max_cycles=max_cycles)
    fused = run_region(spec, fast=True, traced=False, max_cycles=max_cycles)
    traced = run_region(spec, fast=True, traced=True, max_cycles=max_cycles)
    assert fused[0] == ref[0]
    assert fused[1] == ref[1]
    assert traced[:2] == fused[:2]
    assert traced[2] == ref[2]  # stall report and cycle spans
    assert traced[3] == fused[3]  # the same jumps, traced or not
    return ref[0]


max_cycles_draws = st.one_of(
    st.just(100_000_000), st.integers(1, 400), st.integers(1, 4000)
)


@settings(SUITE, max_examples=120)
@given(spec=specs(), max_cycles=max_cycles_draws)
def test_random_chain_regions_match_reference(spec, max_cycles):
    assert_three_ways(spec, max_cycles)


@settings(SUITE, max_examples=25)
@given(spec=specs(kinds=("lanes", "scalar"), max_items=3))
def test_capped_kernels_deadlock_like_the_reference(spec):
    """A ``limit_max`` cap that ends a sector early leaves the engine
    short of values: both loops raise the same ``DeadlockError`` with
    the same partial state, or finish identically."""
    capped = tuple(
        Item(
            item.kind,
            kernel=GammaKernelConfig(
                **{**vars(item.kernel), "limit_max": item.kernel.limit_main}
            ),
        )
        for item in spec.items
    )
    assert_three_ways(Spec(**{**vars(spec), "items": capped}), 100_000_000)


def test_starved_and_overfull_sources_deadlock_identically():
    """One source short of a burst (its engine starves once the source
    is done) and one with values to spare (it blocks for good once its
    engine is done): each region deadlocks like the reference, at the
    same cycle with the same message."""
    for extra in (-17, -1, 5):
        spec = Spec(
            items=(Item("dummy"), Item("dummy", extra=extra)),
            depth=3, burst_words=1, bursts=2, sectors=1, n_channels=1,
            setup_cycles=80, cycles_per_word=2, engines_first=False,
        )
        outcome = assert_three_ways(spec, 100_000_000)
        assert outcome[0] == "DeadlockError"


@pytest.mark.parametrize(
    "setup_cycles, bursts, depth", [(0, 2, 16), (20, 3, 20), (20, 3, 1), (0, 3, 2)]
)
def test_abort_at_every_cycle_of_a_small_region(setup_cycles, bursts, depth):
    """``max_cycles`` at each cycle of a short run, so every phase is cut
    somewhere.  A stream deeper than a burst holds the whole next burst
    when its engine submits, so the third burst fills from what the
    source wrote while the engine waited; with no setup cycles, the
    scalar kernel's naive-MT bubbles and delayed exit run on after its
    engine is done.  Streams one and two deep with one-word bursts, the
    Fig 7 benchmark's geometry, cut each of the dummy chain's
    constant-source runs (the values written and read back to back
    while the stream stays empty) somewhere."""
    spec = Spec(
        items=(
            Item("dummy"),
            Item(
                "scalar",
                kernel=GammaKernelConfig(
                    limit_main=16 * bursts, break_id=2, adapted_mt=False, seed=3
                ),
            ),
        ),
        depth=depth, burst_words=1, bursts=bursts, sectors=1, n_channels=1,
        setup_cycles=setup_cycles, cycles_per_word=1, engines_first=True,
    )
    final = assert_three_ways(spec, 100_000_000)
    assert isinstance(final, int)
    for max_cycles in range(1, final):
        assert assert_three_ways(spec, max_cycles)[0] == "RuntimeError"


@pytest.mark.parametrize("depth", [1, 2, 16])
def test_source_runs_fold_into_an_aggregating_engine(depth):
    """No random draw builds a ``DummySource`` chain into an
    ``AggregatingTransferEngine``.  Its constant-source runs fold each
    value through ``_ingest`` in read order, so the aggregate's
    ``total`` and value count are the reference's bit for bit, at
    every cycle the run is cut at and at its end."""
    spec = Spec(
        items=(Item("summed"), Item("dummy"), Item("summed")),
        depth=depth, burst_words=1, bursts=2, sectors=1, n_channels=1,
        setup_cycles=20, cycles_per_word=1, engines_first=False,
    )
    final = assert_three_ways(spec, 100_000_000)
    assert isinstance(final, int)
    for max_cycles in range(1, final):
        assert assert_three_ways(spec, max_cycles)[0] == "RuntimeError"


def test_long_chain_matches_reference():
    """Thousands of values per chain: the chain keeps only the read
    cycles a later write still needs."""
    spec = Spec(
        items=(Item("dummy"), Item("lanes", kernel=GammaKernelConfig(
            limit_main=64 * 47, sector_variances=(1.39, 0.5)))),
        depth=4, burst_words=4, bursts=47, sectors=2, n_channels=1,
        setup_cycles=80, cycles_per_word=2, engines_first=False,
    )
    final = assert_three_ways(spec, 100_000_000)
    assert assert_three_ways(spec, final // 2)[0] == "RuntimeError"


# ---------------------------------------------------------------------------
# a fused chain next to a per-tick engine on one channel
# ---------------------------------------------------------------------------


@settings(SUITE, max_examples=30)
@given(
    spec=specs(kinds=("dummy", "lanes", "throttled"), max_items=4),
    max_cycles=max_cycles_draws,
)
def test_chains_share_a_channel_with_per_tick_engines(spec, max_cycles):
    """``Throttled`` items keep per-tick stepping: their submissions
    interleave with the chains' on the same channel."""
    items = spec.items + (Item("throttled", extra=-3), Item("dummy"))
    assert_three_ways(
        Spec(**{**vars(spec), "items": items, "n_channels": 1}), max_cycles
    )


def test_grant_after_a_chain_burst_is_traced_inside_a_jump():
    """A fused chain does not wake when its burst completes.  Here the
    throttled source finishes the cycle before the chain's burst on
    channel 0 completes, so the loop jumps from the very cycle the
    throttled engine's queued burst is granted, and the trace must
    still show that engine turn ``transfer`` on that cycle."""
    spec = Spec(
        items=(
            Item(
                "scalar",
                kernel=GammaKernelConfig(
                    transform="icdf_cuda", limit_main=32, limit_max=32, seed=0
                ),
            ),
            Item("dummy"),
            Item("throttled"),
            Item("dummy"),
        ),
        depth=16, burst_words=1, bursts=2, sectors=1, n_channels=2,
        setup_cycles=44, cycles_per_word=3, engines_first=False,
    )
    assert assert_three_ways(spec, 100_000_000)[0] == "DeadlockError"


def test_live_chain_counts_as_progress():
    """The throttled source stalls on every odd cycle, and once it is
    done its engine starves.  A fused chain still working holds off the
    deadlock until it is done too, in both loops at the same cycle."""
    spec = Spec(
        items=(Item("throttled", extra=-20), Item("dummy")),
        depth=2, burst_words=4, bursts=2, sectors=1, n_channels=1,
        setup_cycles=80, cycles_per_word=2, engines_first=False,
    )
    ref_outcome = assert_three_ways(spec, 100_000_000)
    kind, message = ref_outcome
    assert kind == "DeadlockError"
    assert "stuck: TransferEngine('E0', running)" in message
    assert "TransferEngine('E1'" not in message  # the chain finished first


# ---------------------------------------------------------------------------
# chains across a pipe
# ---------------------------------------------------------------------------


def run_pipeline(spec: Spec, fast: bool, traced: bool, max_cycles: int):
    """Producers in region ``src``, engines in region ``sink``, each
    chain's stream a ``Pipe`` between them."""
    pipes = [Pipe(f"pipe{i}", depth=spec.depth) for i in range(len(spec.items))]
    pairs, memory, channels = build_items(spec, pipes)
    log = log_bursts(channels)
    src, sink = DataflowRegion("src"), DataflowRegion("sink")
    for producer, engine in pairs:
        src.add(producer)
        sink.add(engine)
    for channel in channels:
        sink.attach_memory_channel(channel)
    graph = PipelineGraph("chains_across_pipes")
    graph.add_region(src)
    graph.add_region(sink)
    runner = MultiRegionRunner(graph)
    tracer = ChromeTracer() if traced else NullTracer()
    with use_tracer(tracer):
        try:
            report = runner.run(max_cycles=max_cycles, fast_path=fast)
            outcome = (report.cycles, report.region_done_cycles, report.pipe_stats)
        except RuntimeError as exc:
            outcome = (type(exc).__name__, str(exc))
    trace = None
    if traced:
        stall = report.stall_report if not isinstance(outcome[0], str) else None
        trace = (None if stall is None else stall.to_dict(), cycle_spans(tracer))
    processes = [p for pair in pairs for p in pair]
    return outcome, snapshot(processes, memory, channels, log), trace, runner.skipped_cycles


@settings(SUITE, max_examples=25)
@given(spec=specs(kinds=("dummy", "lanes")), max_cycles=max_cycles_draws)
def test_chains_across_a_pipe_match_reference(spec, max_cycles):
    ref = run_pipeline(spec, fast=False, traced=True, max_cycles=max_cycles)
    fused = run_pipeline(spec, fast=True, traced=False, max_cycles=max_cycles)
    traced = run_pipeline(spec, fast=True, traced=True, max_cycles=max_cycles)
    assert fused[:2] == ref[:2]  # region_done_cycles included
    assert traced[:2] == fused[:2]
    assert traced[2] == ref[2]
    assert traced[3] == fused[3]


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------


def chain_region(**engine_kwargs):
    memory = GlobalMemory(8)
    channel = MemoryChannel(MemoryChannelConfig(), memory)
    stream = Stream("s", depth=4)
    region = DataflowRegion("one")
    region.attach_memory_channel(channel)
    source = DummySource("src", stream, 64)
    engine = TransferEngine(
        "eng", 0, stream, channel, burst_words=1, bursts_per_sector=4,
        sectors=1, block_offset=4, **engine_kwargs,
    )
    region.add(source)
    region.add(engine)
    return region, source, engine


def fused_trees(ordered, channels) -> list:
    """The processes of each tree the fast loop would fuse, by name."""
    trees = fuse_chains(ordered, channels, _Calendar(), 100_000_000, None)
    return [tuple(p.name for p in tree.processes) for tree in trees]


def fused_pairs(region) -> list:
    return fused_trees(region._validate(), region.memory_channels)


def test_stock_chain_fuses():
    region, _, _ = chain_region()
    assert fused_pairs(region) == [("src", "eng")]


def test_gamma_kernels_fuse_lanes_and_scalar():
    for lanes in (True, False):
        stream = Stream("g", depth=4)
        kernel = gamma_process(
            "k", 0, GammaKernelConfig(limit_main=64), stream, lanes=lanes
        )
        channel = MemoryChannel()
        engine = TransferEngine(
            "e", 0, stream, channel, burst_words=4,
            bursts_per_sector=1, sectors=1, block_offset=4,
        )
        region = DataflowRegion("g")
        region.attach_memory_channel(channel)
        region.add(kernel)
        region.add(engine)
        assert fused_pairs(region) == [("k", "e")]


def test_pack_ablation_keeps_per_tick_stepping():
    region, _, _ = chain_region(dependence_false=False)
    assert fused_pairs(region) == []


@pytest.mark.parametrize("side", ["source", "engine"])
def test_overridden_tick_keeps_per_tick_stepping(side):
    region, source, engine = chain_region()
    proc = source if side == "source" else engine

    class Custom(type(proc)):
        def tick(self, cycle):
            return super().tick(cycle)

    proc.__class__ = Custom
    assert fused_pairs(region) == []




def test_channel_outside_the_run_keeps_per_tick_stepping():
    """A channel the run does not advance never completes a burst: the
    engine waits for good, as the reference loop has it."""
    region, _, engine = chain_region()
    region._memory_channels.clear()
    assert fused_pairs(region) == []
    with pytest.raises(DeadlockError) as fast:
        region.run()
    ref_region, _, _ = chain_region()
    ref_region._memory_channels.clear()
    with pytest.raises(DeadlockError) as ref:
        ref_region.run(fast_path=False)
    assert str(fast.value) == str(ref.value)


def test_engine_outside_the_run_keeps_per_tick_stepping():
    region, _, engine = chain_region()
    lone = DataflowRegion("source_only")
    lone.add(region.processes[0])
    assert fused_pairs(lone) == []
    assert engine.stats.cycles == 0


# ---------------------------------------------------------------------------
# pricing trees
# ---------------------------------------------------------------------------


class OwnTick(PricingProcess):
    """A pricer with its own ``tick``: its tree keeps per-tick stepping."""

    def tick(self, cycle):
        return super().tick(cycle)


@dataclass(frozen=True)
class TreeSpec:
    """A pricing network laid out as :mod:`repro.core.pricing` builds it,
    with any source per work-item (``Item`` kinds ``dummy``, ``lanes``,
    ``scalar``)."""

    mode: str  # "pipelined", "fused" or "sequential"
    items: tuple[Item, ...]
    pipe_depth: int
    stream_depth: int
    burst_words: int
    bursts: int  # per sector
    sectors: int
    n_channels: int
    affinity: tuple[int, int]  # (archive, aggregate) channel
    setup_cycles: int
    cycles_per_word: int
    quota: int = 0  # the pricers' count off the engines' values
    own_tick: tuple[int, ...] = ()  # work-items whose pricer is ``OwnTick``
    # (setup_cycles, cycles_per_word) of the aggregation channel, if not
    # the other channels' timing
    aggregate_timing: tuple[int, int] | None = None

    @property
    def per_item(self) -> int:
        return 16 * self.burst_words * self.bursts * self.sectors

    @property
    def words(self) -> int:
        return self.sectors * self.bursts * self.burst_words


@st.composite
def tree_specs(
    draw,
    modes=("pipelined", "fused", "sequential"),
    kinds=("dummy", "lanes", "scalar"),
    max_items=4,
    whole=False,
):
    """Random pricing networks; ``whole`` ones have every source supply
    the pricer's quota and every pricer the engines', so they run to
    the end."""
    burst_words = draw(st.integers(1, 4))
    bursts = draw(st.integers(1, 3 if whole else 2))
    sectors = draw(st.integers(1, 2))
    limit_main = 16 * burst_words * bursts
    items = []
    for _ in range(draw(st.integers(1, max_items))):
        kind = draw(st.sampled_from(kinds))
        if kind == "dummy":
            extra = 0 if whole else draw(st.sampled_from((0, 0, 0, -1, -17, 3)))
            items.append(Item(kind, extra=extra))
        else:
            kernel = draw(gamma_kernels(limit_main, sectors))
            if whole:
                kernel = GammaKernelConfig(**{**vars(kernel), "limit_max": None})
            items.append(Item(kind, kernel=kernel))
    n_channels = draw(st.integers(1, 2))
    channel = st.integers(0, n_channels - 1)
    own_tick = draw(st.sets(st.integers(0, len(items) - 1), max_size=1))
    return TreeSpec(
        mode=draw(st.sampled_from(modes)),
        items=tuple(items),
        pipe_depth=draw(st.integers(1, 16)),
        stream_depth=draw(st.integers(1, 16)),
        burst_words=burst_words,
        bursts=bursts,
        sectors=sectors,
        n_channels=n_channels,
        affinity=(draw(channel), draw(channel)),
        setup_cycles=draw(st.sampled_from((0, 1, 3, 80))),
        cycles_per_word=draw(st.integers(1, 2)),
        quota=0 if whole else draw(st.sampled_from((0, 0, 0, -5, 7))),
        own_tick=tuple(sorted(own_tick)),
        # leaves on channels of different speed: a pricer can block for
        # good on a finished leaf while its other write lands late
        aggregate_timing=draw(
            st.none() | st.tuples(st.sampled_from((0, 1, 3, 80)), st.integers(1, 2))
        ),
    )


def build_trees(spec: TreeSpec):
    """(runner, processes, memory, channels) of ``spec``'s network: one
    region in ``fused`` mode, else the ``rng``, ``pricing`` and
    ``aggregation`` regions joined by pipes, as deep as every value
    needs in ``sequential`` mode."""
    n = len(spec.items)
    memory = GlobalMemory(2 * n * spec.words)
    timings = [(spec.setup_cycles, spec.cycles_per_word)] * spec.n_channels
    if spec.aggregate_timing is not None:
        timings[spec.affinity[1]] = spec.aggregate_timing
    channels = [
        MemoryChannel(MemoryChannelConfig(*timing), memory) for timing in timings
    ]
    archive_channel, aggregate_channel = (channels[i] for i in spec.affinity)
    link = Stream if spec.mode == "fused" else Pipe
    depth = spec.pipe_depth
    if spec.mode == "sequential":
        depth = max(depth, spec.per_item)
    engine_args = dict(
        burst_words=spec.burst_words,
        bursts_per_sector=spec.bursts,
        sectors=spec.sectors,
        block_offset=spec.words,
    )
    sources, pricers, aggregates, archives = [], [], [], []
    for wid, item in enumerate(spec.items):
        gamma = link(f"gammaPipe{wid}", depth=depth)
        priced = link(f"pricedPipe{wid}", depth=depth)
        raw = Stream(f"rawStream{wid}", depth=spec.stream_depth)
        if item.kind == "dummy":
            count = max(0, spec.per_item + item.extra)
            sources.append(DummySource(f"Source{wid}", gamma, count, value=wid + 1.5))
        else:
            sources.append(
                gamma_process(
                    f"GammaRNG{wid}", wid, item.kernel, gamma,
                    lanes=item.kind == "lanes",
                )
            )
        cls = OwnTick if wid in spec.own_tick else PricingProcess
        pricers.append(
            cls(f"Pricer{wid}", wid, gamma, priced, raw, count=spec.per_item + spec.quota)
        )
        aggregates.append(
            AggregatingTransferEngine(
                f"Aggregate{wid}", wid, priced, aggregate_channel, **engine_args
            )
        )
        archives.append(
            TransferEngine(f"Archive{wid}", n + wid, raw, archive_channel, **engine_args)
        )
    processes = sources + pricers + aggregates + archives
    if spec.mode == "fused":
        runner = DataflowRegion("pricing_fused")
        for proc in processes:
            runner.add(proc)
        for channel in dict.fromkeys((archive_channel, aggregate_channel)):
            runner.attach_memory_channel(channel)
        return runner, processes, memory, channels
    rng, pricing, aggregation = (
        DataflowRegion(name) for name in ("rng", "pricing", "aggregation")
    )
    for source, pricer, aggregate, archive in zip(
        sources, pricers, aggregates, archives
    ):
        rng.add(source)
        pricing.add(pricer)
        pricing.add(archive)
        aggregation.add(aggregate)
    pricing.attach_memory_channel(archive_channel)
    aggregation.attach_memory_channel(aggregate_channel)
    graph = PipelineGraph("pricing_trees")
    for region in (rng, pricing, aggregation):
        graph.add_region(region)
    return MultiRegionRunner(graph), processes, memory, channels


def run_trees(spec: TreeSpec, fast: bool, traced: bool, max_cycles: int):
    """Run ``spec`` once; returns (outcome, snapshot, trace, skipped)."""
    runner, processes, memory, channels = build_trees(spec)
    log = log_bursts(channels)
    tracer = ChromeTracer() if traced else NullTracer()
    report = None
    with use_tracer(tracer):
        try:
            if spec.mode == "fused":
                report = runner.run(max_cycles=max_cycles, fast_path=fast)
                outcome = report.cycles
            else:
                run = runner.run_sequential if spec.mode == "sequential" else runner.run
                report = run(max_cycles=max_cycles, fast_path=fast)
                outcome = (report.cycles, report.region_done_cycles, report.pipe_stats)
        except RuntimeError as exc:  # DeadlockError or the runaway guard
            outcome = (type(exc).__name__, str(exc))
    trace = None
    if traced:
        stall = None if report is None else report.stall_report
        trace = (None if stall is None else stall.to_dict(), cycle_spans(tracer))
    snap = snapshot(processes, memory, channels, log)
    return outcome, snap, trace, runner.skipped_cycles


def assert_trees_three_ways(spec: TreeSpec, max_cycles: int) -> tuple:
    """Fused untraced, fused traced and the traced reference agree."""
    ref = run_trees(spec, fast=False, traced=True, max_cycles=max_cycles)
    fused = run_trees(spec, fast=True, traced=False, max_cycles=max_cycles)
    traced = run_trees(spec, fast=True, traced=True, max_cycles=max_cycles)
    assert fused[0] == ref[0]
    assert fused[1] == ref[1]
    assert traced[:2] == fused[:2]
    assert traced[2] == ref[2]  # stall report and cycle spans
    assert traced[3] == fused[3]  # the same jumps, traced or not
    return ref


@settings(SUITE, max_examples=80)
@given(spec=tree_specs(), max_cycles=max_cycles_draws)
def test_random_pricing_trees_match_reference(spec, max_cycles):
    assert_trees_three_ways(spec, max_cycles)


@settings(SUITE, max_examples=40)
@given(spec=tree_specs(whole=True))
def test_whole_pricing_trees_match_reference(spec):
    assert_trees_three_ways(spec, 100_000_000)


@settings(SUITE, max_examples=20)
@given(spec=tree_specs(modes=("pipelined", "fused"), kinds=("lanes", "scalar")))
def test_capped_trees_close_early_like_the_reference(spec):
    """A ``limit_max`` cap that ends a sector early closes the gamma
    stream short: the pricer finishes on the drained stream and closes
    both sinks, its engines starve, and both loops raise the same
    ``DeadlockError`` with the same partial state (or finish alike)."""
    capped = tuple(
        Item(
            item.kind,
            kernel=GammaKernelConfig(
                **{**vars(item.kernel), "limit_max": item.kernel.limit_main}
            ),
        )
        for item in spec.items
    )
    spec = TreeSpec(**{**vars(spec), "items": capped, "quota": 0, "own_tick": ()})
    assert_trees_three_ways(spec, 100_000_000)


def dummy_trees(mode: str, **fields) -> TreeSpec:
    spec = dict(
        mode=mode, items=(Item("dummy"),) * 4, pipe_depth=16, stream_depth=16,
        burst_words=1, bursts=2, sectors=1, n_channels=1, affinity=(0, 0),
        setup_cycles=80, cycles_per_word=2,
    )
    return TreeSpec(**{**spec, **fields})


@pytest.mark.parametrize("mode", ["pipelined", "fused"])
def test_in_phase_trees_submit_at_their_own_positions(mode):
    """``DummySource`` roots run in phase, so the two engines of a tree
    submit in the same cycle: each submission reaches the channel at its
    own engine's position.  The pipelined order puts every archive
    engine before every aggregation engine, so other trees' engines
    submit between a tree's two; the one-region order puts each tree's
    aggregation engine just before its archive engine."""
    ref = assert_trees_three_ways(dummy_trees(mode), 100_000_000)
    by_cycle = {}
    for owner, _address, submitted, *_ in ref[1]["bursts"]:
        by_cycle.setdefault(submitted, []).append(owner)
    gaps = [
        owners.index(f"Aggregate{w}") - owners.index(f"Archive{w}")
        for owners in by_cycle.values()
        for w in range(4)
        if f"Aggregate{w}" in owners and f"Archive{w}" in owners
    ]
    assert gaps
    if mode == "pipelined":
        assert max(gaps) > 1
    else:
        assert set(gaps) == {-1}


@pytest.mark.parametrize(
    "fields",
    [
        dict(quota=-16),  # the pricers close early: the engines starve
        dict(quota=16),  # the engines finish first: the pricers block
        dict(items=(Item("dummy", extra=-3), Item("dummy"))),  # a pricer starves
        dict(items=(Item("dummy", extra=20), Item("dummy"))),  # a source blocks
    ],
)
def test_stuck_trees_deadlock_like_the_reference(fields):
    for mode in ("pipelined", "fused"):
        ref = assert_trees_three_ways(dummy_trees(mode, **fields), 100_000_000)
        assert ref[0][0] == "DeadlockError"


@pytest.mark.parametrize("mode", ["pipelined", "fused"])
def test_both_writes_land_in_one_cycle(mode):
    """Each engine of the one tree on its own channel: they keep in step,
    so the pricer's blocked writes to both sinks land in the same cycle,
    which counts as one active cycle."""
    spec = dummy_trees(
        mode, items=(Item("dummy"),), pipe_depth=2, stream_depth=2,
        n_channels=2, affinity=(0, 1),
    )
    ref = assert_trees_three_ways(spec, 100_000_000)
    stats = ref[1]["processes"]["Pricer0"]["stats"]
    assert stats["active_cycles"] > stats["iterations"] + 1  # flushes landed
    assert stats["stall_cycles"] > 0


@pytest.mark.parametrize("mode", ["pipelined", "fused"])
def test_pricer_blocked_for_good_marks_a_landed_write_once(mode):
    """The aggregation engine, on a fast channel behind a one-deep pipe,
    takes all its values and finishes; the pricer's quota is above the
    engines', so it fills that pipe and blocks on it for good.  Its
    write of the same value to the archive, whose deep stream is full
    while its first burst drains on the slow channel, lands later at a
    known cycle.  The pricer's classes up to the archive's next wake,
    that landing among them, are marked once: the wakes after it must
    not mark the landing again behind the loop."""
    spec = dummy_trees(
        mode, items=(Item("dummy", extra=8),), pipe_depth=1, stream_depth=17, bursts=2,
        quota=8, n_channels=2, affinity=(0, 1), aggregate_timing=(0, 1),
    )
    ref = assert_trees_three_ways(spec, 100_000_000)
    assert ref[0][0] == "DeadlockError"
    stats = ref[1]["processes"]["Pricer0"]["stats"]
    assert stats["active_cycles"] > stats["iterations"]  # a write landed late


@pytest.mark.parametrize(
    "setup_cycles, depth, split", [(0, 1, False), (20, 3, False), (20, 2, True)]
)
def test_abort_at_every_cycle_of_a_small_tree(setup_cycles, depth, split):
    """``max_cycles`` at each cycle of a short pipelined run, so every
    phase of the pricer and both engines is cut somewhere.  ``split``
    gives each engine its own channel and both sinks one depth, so the
    engines keep in step and the pricer is cut blocked on both."""
    spec = TreeSpec(
        mode="pipelined",
        items=(
            Item("scalar", kernel=GammaKernelConfig(
                limit_main=32, break_id=2, adapted_mt=False, seed=5)),
        ),
        pipe_depth=depth, stream_depth=depth if split else 2, burst_words=1,
        bursts=2, sectors=1, n_channels=2 if split else 1,
        affinity=(0, 1) if split else (0, 0), setup_cycles=setup_cycles,
        cycles_per_word=1,
    )
    final = assert_trees_three_ways(spec, 100_000_000)[0][0]
    assert isinstance(final, int)
    for max_cycles in range(1, final):
        assert assert_trees_three_ways(spec, max_cycles)[0][0] == "RuntimeError"


def test_fused_pricing_region_fuses_every_tree():
    build = build_fused_pricing_region(PricingPipelineConfig(n_work_items=4))
    assert fused_pairs(build.region) == [
        (f"GammaRNG{w}", f"Pricer{w}", f"Aggregate{w}", f"Archive{w}")
        for w in range(4)
    ]


def test_pipelined_build_fuses_every_tree_across_its_regions():
    build = build_pricing_pipeline(PricingPipelineConfig(n_work_items=4))
    _regions, ordered, channels, _pipes = build.graph._validate()
    assert len(fused_trees(ordered, channels)) == 4


def test_sequential_regions_fuse_nothing():
    """No region of a sequential run holds a whole tree."""
    config = PricingPipelineConfig(n_work_items=2)
    build = build_pricing_pipeline(config, pipe_depth=config.sequential_pipe_depth)
    for region in build.graph.regions:
        assert fused_pairs(region) == []


def test_overridden_pricer_tick_keeps_its_tree_per_tick():
    build = build_fused_pricing_region(PricingPipelineConfig(n_work_items=2))
    build.pricers[0].__class__ = OwnTick
    assert fused_pairs(build.region) == [
        ("GammaRNG1", "Pricer1", "Aggregate1", "Archive1")
    ]


def test_pack_ablation_leaf_keeps_its_tree_per_tick():
    build = build_fused_pricing_region(PricingPipelineConfig(n_work_items=2))
    build.archive_engines[1].dependence_false = False
    assert fused_pairs(build.region) == [
        ("GammaRNG0", "Pricer0", "Aggregate0", "Archive0")
    ]


def test_leaf_on_a_channel_outside_the_run_keeps_per_tick_stepping():
    """Aggregation on a channel the run does not advance: no tree fuses,
    and the run deadlocks like the reference."""
    config = PricingPipelineConfig(n_channels=2, channel_affinity=(0, 1))
    messages = []
    for fast in (True, False):
        build = build_fused_pricing_region(config)
        build.region._memory_channels.remove(build.channels[1])
        if fast:
            assert fused_pairs(build.region) == []
        with pytest.raises(DeadlockError) as excinfo:
            build.region.run(fast_path=fast)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_aggregating_engine_fed_by_a_source_fuses_as_a_chain():
    """The aggregate folds each value as it is read, so its total is the
    reference's bit for bit."""
    totals = []
    for fast in (True, False):
        stream = Stream("g", depth=4)
        kernel = gamma_process("k", 0, GammaKernelConfig(limit_main=128), stream)
        channel = MemoryChannel()
        engine = AggregatingTransferEngine(
            "agg", 0, stream, channel, burst_words=4,
            bursts_per_sector=2, sectors=1, block_offset=8,
        )
        region = DataflowRegion("agg")
        region.attach_memory_channel(channel)
        region.add(kernel)
        region.add(engine)
        if fast:
            assert fused_pairs(region) == [("k", "agg")]
        report = region.run(fast_path=fast)
        totals.append((engine.total, engine.values, report.cycles, vars(engine.stats)))
        assert engine.total == sum(kernel.produced)
    assert totals[0] == totals[1]
