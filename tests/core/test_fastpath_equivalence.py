"""Differential equivalence: cycle-skipping fast path vs reference loop.

The fast path's contract is *bit-for-bit accounting equivalence*: for
any region, ``run(fast_path=True)`` must produce a ``RegionReport``
that is field-for-field identical to ``run(fast_path=False)`` — same
cycle count, same per-process cycle buckets, same stream stall/total
counters, same channel stats, same device-memory contents — while
jumping over the dead windows the reference loop ticks through.

Every paper-figure configuration goes through both paths here:

* Fig 3 — the decoupled work-items kernel (several knob settings),
* Fig 7 — the transfers-only region over a burst-length × work-item
  grid,
* Table 3 — the four Table I configurations at reduced scale,

plus the abort paths (deadlock, max-cycles runaway) and the ablation
knobs that change cycle accounting (``dependence_false``,
``use_delayed_counter``, ``adapted_mt``).
"""

import dataclasses

import pytest

from repro.core.dataflow import DataflowRegion, DeadlockError
from repro.core.decoupled import (
    DecoupledConfig,
    DecoupledWorkItems,
    build_transfer_only_region,
)
from repro.core.kernel import GammaKernelConfig
from repro.core.memory import GlobalMemory, MemoryChannel, MemoryChannelConfig
from repro.core.stream import Stream
from repro.core.transfer import DummySource, TransferEngine
from repro.harness.configs import CONFIGURATIONS
from repro.obs import use_tracer
from repro.obs.stall import StallAttribution, reports_from_trace
from repro.obs.tracer import ChromeTracer, NullTracer


def report_fields(report):
    """Every RegionReport field, flattened to plain comparable values."""
    return {
        "cycles": report.cycles,
        "process_stats": {
            name: vars(stats) for name, stats in report.process_stats.items()
        },
        "stream_stats": report.stream_stats,
        "stall_report": report.stall_report,
    }


def channel_fields(region):
    return [vars(ch.stats) for ch in region.memory_channels]


def run_both_transfer_only(**kwargs):
    """Build the Fig 7 region twice and run each path once."""
    out = []
    for fast in (False, True):
        region, memory, _channel = build_transfer_only_region(**kwargs)
        report = region.run(fast_path=fast)
        out.append((region, memory, report))
    return out


# ---------------------------------------------------------------------------
# Fig 7: transfers-only grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("burst_words", [1, 2, 4])
@pytest.mark.parametrize("n_work_items", [1, 3, 6])
def test_fig7_grid_identical_reports(burst_words, n_work_items):
    (ref_region, ref_mem, ref_rep), (fp_region, fp_mem, fp_rep) = (
        run_both_transfer_only(
            n_work_items=n_work_items,
            values_per_item=512,
            burst_words=burst_words,
            stream_depth=2,
        )
    )
    assert report_fields(ref_rep) == report_fields(fp_rep)
    assert channel_fields(ref_region) == channel_fields(fp_region)
    assert (ref_mem.as_float_array() == fp_mem.as_float_array()).all()
    # the reference loop never skips; the fast path must actually skip
    assert ref_region.skipped_cycles == 0
    assert fp_region.skipped_cycles > 0


def test_fig7_deep_streams_identical():
    (_, _, ref_rep), (fp_region, _, fp_rep) = run_both_transfer_only(
        n_work_items=4, values_per_item=1024, burst_words=4, stream_depth=16
    )
    assert report_fields(ref_rep) == report_fields(fp_rep)
    assert fp_region.skipped_cycles > 0


# ---------------------------------------------------------------------------
# Fig 3: the decoupled kernel
# ---------------------------------------------------------------------------


def run_both_decoupled(config, max_cycles=100_000_000):
    out = []
    for fast in (False, True):
        items = DecoupledWorkItems(config)
        result = items.run(max_cycles=max_cycles, fast_path=fast)
        out.append((items, result))
    return out


FIG3_CONFIGS = {
    "default": DecoupledConfig(
        n_work_items=3, kernel=GammaKernelConfig(limit_main=64)
    ),
    "channel_bound": DecoupledConfig(
        n_work_items=4,
        kernel=GammaKernelConfig(limit_main=64),
        burst_words=1,
        stream_depth=2,
    ),
    "depth1_streams": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64),
        stream_depth=1,
    ),
    "multi_sector": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(
            limit_main=64, sector_variances=(1.39, 0.5, 2.0)
        ),
    ),
    "two_channels": DecoupledConfig(
        n_work_items=4, kernel=GammaKernelConfig(limit_main=64), n_channels=2
    ),
    # accounting-sensitive ablations: II bubbles and gated-MT flushes
    "naive_exit": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, use_delayed_counter=False),
    ),
    "naive_mt": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, adapted_mt=False),
    ),
}


#: each Fig 3 config twice: id ``name`` on the scalar kernel
#: (``vector_lanes=False``, the lanes' oracle, which the default no
#: longer builds) and id ``name-lanes`` on the default lanes
FIG3_CASES = [
    pytest.param(name, lanes, id=f"{name}-lanes" if lanes else name)
    for name in sorted(FIG3_CONFIGS)
    for lanes in (False, True)
]


@pytest.mark.parametrize("name, vector_lanes", FIG3_CASES)
def test_fig3_configs_identical_reports(name, vector_lanes):
    config = dataclasses.replace(FIG3_CONFIGS[name], vector_lanes=vector_lanes)
    (ref_items, ref_res), (fp_items, fp_res) = run_both_decoupled(config)
    assert report_fields(ref_res.report) == report_fields(fp_res.report)
    assert channel_fields(ref_items.region) == channel_fields(fp_items.region)
    assert (ref_res.gammas() == fp_res.gammas()).all()
    assert fp_items.region.skipped_cycles > 0


def test_fig3_dependence_false_ablation_identical():
    """The II=2 TLOOP ablation flips engines into pipeline bubbles."""
    out = []
    for fast in (False, True):
        items = DecoupledWorkItems(
            DecoupledConfig(n_work_items=2, kernel=GammaKernelConfig(limit_main=64))
        )
        for engine in items.engines:
            engine.dependence_false = False
        out.append(items.run(fast_path=fast))
    ref_res, fp_res = out
    assert report_fields(ref_res.report) == report_fields(fp_res.report)
    # the bubbles land in the dedicated bucket on both paths
    assert all(
        ref_res.report.process_stats[e.name].pipeline_cycles > 0
        for e in ref_res.engines
    )


# ---------------------------------------------------------------------------
# Table 3: the four Table I configurations at reduced scale
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_table3_configs_identical_reports(name):
    config = DecoupledConfig(
        n_work_items=2,
        kernel=CONFIGURATIONS[name].kernel_config(limit_main=64),
    )
    (ref_items, ref_res), (fp_items, fp_res) = run_both_decoupled(config)
    assert report_fields(ref_res.report) == report_fields(fp_res.report)
    assert (ref_res.gammas() == fp_res.gammas()).all()
    assert fp_items.region.skipped_cycles > 0


# ---------------------------------------------------------------------------
# abort paths: deadlock and max-cycles must be indistinguishable too
# ---------------------------------------------------------------------------


def build_starved_region():
    """Source supplies fewer values than one burst: the engine starves."""
    memory = GlobalMemory(16)
    channel = MemoryChannel(MemoryChannelConfig(), memory)
    region = DataflowRegion("starved")
    region.attach_memory_channel(channel)
    stream = Stream("s", depth=4)
    region.add(DummySource("src", stream, 8))  # burst needs 16 values
    region.add(
        TransferEngine(
            "eng", 0, stream, channel,
            burst_words=1, bursts_per_sector=1, sectors=1, block_offset=1,
        )
    )
    return region


def abort_attribution(name, traced):
    """An attribution tracing into its own ChromeTracer, or ``None``."""
    if not traced:
        return None
    return StallAttribution(name, tracer=ChromeTracer())


def abort_stall(attribution):
    """The stall report and cycle spans an aborted traced region left."""
    if attribution is None:
        return None
    return attribution.report().to_dict(), cycle_spans(attribution.tracer)


def test_deadlock_identical_on_both_paths():
    """Untraced and traced, both paths raise the same message with the
    same stats; traced, they leave the same stall report and spans."""
    messages, stats, stalls = [], [], []
    for traced in (False, True):
        for fast in (False, True):
            region = build_starved_region()
            attribution = abort_attribution(region.name, traced)
            with pytest.raises(DeadlockError) as excinfo:
                region.run(fast_path=fast, attribution=attribution)
            messages.append(str(excinfo.value))
            stats.append(
                (
                    {p.name: vars(p.stats) for p in region.processes},
                    channel_fields(region),
                )
            )
            stalls.append(abort_stall(attribution))
    assert messages[0] == messages[1] == messages[2] == messages[3]
    # the starved channel idles the whole run: the fast path must have
    # accounted its idle cycles through the deadlock cycle
    assert stats[0] == stats[1] == stats[2] == stats[3]
    assert stats[0][1][0]["idle_cycles"] > 0
    assert stalls[2] == stalls[3]


@pytest.mark.parametrize("max_cycles", [137, 4999, 5000, 5001])
def test_max_cycles_abort_identical(max_cycles):
    """The runaway guard fires at the same cycle with the same stats,
    even when it lands mid-window (the fast path clamps its jumps).
    Traced, both paths close the attribution at the guard cycle."""
    snap = []
    for traced in (False, True):
        for fast in (False, True):
            region, _, _ = build_transfer_only_region(
                n_work_items=4, values_per_item=2048, burst_words=1, stream_depth=2
            )
            attribution = abort_attribution(region.name, traced)
            with pytest.raises(RuntimeError) as excinfo:
                region.run(
                    max_cycles=max_cycles, fast_path=fast, attribution=attribution
                )
            snap.append(
                (
                    str(excinfo.value),
                    {p.name: vars(p.stats) for p in region.processes},
                    channel_fields(region),
                    {
                        s.name: vars(s.stats)
                        for p in region.processes
                        for s in (*p.inputs(), *p.outputs())
                    },
                    region.skipped_cycles if fast else None,
                    abort_stall(attribution),
                )
            )
    ref, fast, traced_ref, traced_fast = snap
    assert ref[:4] == fast[:4] == traced_ref[:4] == traced_fast[:4]
    assert fast[4] > 0  # the guard interrupted a genuinely skipping run
    assert traced_fast[4] == fast[4]
    assert traced_ref[5] == traced_fast[5]
    assert traced_fast[5][0]["cycles"] == max_cycles


# ---------------------------------------------------------------------------
# instrumented runs skip too — with identical attribution
# ---------------------------------------------------------------------------


def run_both_instrumented(build, keep_lanes=False, tracer=None):
    """Run ``build()``'s region through both instrumented paths."""
    from repro.obs.stall import StallAttribution

    out = []
    for fast in (False, True):
        region = build()
        attribution = StallAttribution(
            region.name,
            keep_lanes=keep_lanes,
            tracer=tracer() if tracer is not None else None,
        )
        report = region.run(attribution=attribution, fast_path=fast)
        out.append((region, attribution, report))
    return out


def test_instrumented_run_skips_and_matches_reference():
    def build():
        region, _, _ = build_transfer_only_region(
            n_work_items=2, values_per_item=512, burst_words=1, stream_depth=2
        )
        return region

    (ref_region, _, ref_rep), (fp_region, _, fp_rep) = run_both_instrumented(
        build
    )
    # the instrumented fast path genuinely skips now
    assert ref_region.skipped_cycles == 0
    assert fp_region.skipped_cycles > 0
    # ... with a field-for-field identical report and stall attribution
    assert report_fields(ref_rep) == report_fields(fp_rep)
    assert ref_rep.stall_report.to_dict() == fp_rep.stall_report.to_dict()
    for report in (ref_rep, fp_rep):
        assert report.stall_report.consistent_with(report.process_stats) == []


def test_instrumented_lanes_identical():
    """The per-cycle Fig 3 symbol lanes match cycle for cycle."""

    def build():
        region, _, _ = build_transfer_only_region(
            n_work_items=3, values_per_item=512, burst_words=2, stream_depth=2
        )
        return region

    (_, ref_att, _), (fp_region, fp_att, _) = run_both_instrumented(
        build, keep_lanes=True
    )
    assert fp_region.skipped_cycles > 0
    assert ref_att.lanes == fp_att.lanes


def test_instrumented_trace_spans_identical():
    """The exported Chrome trace is event-for-event identical."""
    from repro.obs.stall import reports_from_trace
    from repro.obs.tracer import ChromeTracer

    def build():
        region, _, _ = build_transfer_only_region(
            n_work_items=2, values_per_item=512, burst_words=1, stream_depth=2
        )
        return region

    (_, ref_att, _), (fp_region, fp_att, _) = run_both_instrumented(
        build, tracer=ChromeTracer
    )
    assert fp_region.skipped_cycles > 0
    ref_events = ref_att.tracer.to_dict()
    fp_events = fp_att.tracer.to_dict()
    assert ref_events == fp_events
    ref_reports = reports_from_trace(ref_events)
    fp_reports = reports_from_trace(fp_events)
    assert [r.to_dict() for r in ref_reports] == [
        r.to_dict() for r in fp_reports
    ]


@pytest.mark.parametrize(
    "name", ["default", "channel_bound", "depth1_streams", "naive_mt"]
)
def test_fig3_instrumented_fastpath_identical(name):
    from repro.obs.stall import StallAttribution

    config = FIG3_CONFIGS[name]
    reports, skipped = [], []
    for fast in (False, True):
        items = DecoupledWorkItems(config)
        attribution = StallAttribution(items.region.name, keep_lanes=True)
        report = items.region.run(attribution=attribution, fast_path=fast)
        reports.append((report, attribution.lanes))
        skipped.append(items.region.skipped_cycles)
    (ref_rep, ref_lanes), (fp_rep, fp_lanes) = reports
    assert report_fields(ref_rep) == report_fields(fp_rep)
    assert ref_lanes == fp_lanes
    assert skipped[0] == 0 and skipped[1] > 0
    assert fp_rep.stall_report.consistent_with(fp_rep.process_stats) == []


def test_traced_report_matches_fast_path_report():
    from repro.obs.stall import StallAttribution

    fields = []
    for instrumented in (True, False):
        region, _, _ = build_transfer_only_region(
            n_work_items=3, values_per_item=512, burst_words=2, stream_depth=2
        )
        if instrumented:
            report = region.run(attribution=StallAttribution(region.name))
            report.stall_report = None  # only the instrumented run has one
        else:
            report = region.run(fast_path=True)
        fields.append(report_fields(report))
    assert fields[0] == fields[1]


# ---------------------------------------------------------------------------
# opting out
# ---------------------------------------------------------------------------


def test_fast_path_false_is_pure_reference():
    region, _, _ = build_transfer_only_region(
        n_work_items=2, values_per_item=512, burst_words=1, stream_depth=2
    )
    region.run(fast_path=False)
    assert region.skipped_cycles == 0


def test_subclassed_tick_disables_hints():
    """A Process subclass overriding tick() must fall back to the
    reference loop (its inherited hints would lie about the new tick)."""

    class Throttled(DummySource):
        def tick(self, cycle):  # writes every other cycle
            if cycle % 2:
                return self._account(False)
            return super().tick(cycle)

    source = Throttled("src", Stream("s", depth=2), 8)
    assert source.next_event(0) is None


# ---------------------------------------------------------------------------
# pipe-connected topologies: the fast path must compose across regions
# ---------------------------------------------------------------------------

from repro.core.pipes import MultiRegionRunner, Pipe, PipelineGraph
from repro.core.pricing import PricingPipelineConfig, run_pricing_pipeline


def pipeline_report_fields(report):
    """Every PipelineReport field, flattened to plain comparable values."""
    return {
        "cycles": report.cycles,
        "mode": report.mode,
        "region_done_cycles": report.region_done_cycles,
        "pipe_stats": report.pipe_stats,
        "process_stats": {
            name: vars(stats) for name, stats in report.process_stats.items()
        },
        "region_reports": {
            name: report_fields(rep)
            for name, rep in report.region_reports.items()
        },
        "stream_stats": report.stream_stats,
    }


PIPELINE_CONFIGS = {
    "default": PricingPipelineConfig(),
    "shallow_pipes": PricingPipelineConfig(pipe_depth=2, stream_depth=2),
    "two_channels": PricingPipelineConfig(
        n_channels=2, channel_affinity=(0, 1)
    ),
    "multi_sector": PricingPipelineConfig(
        kernel=GammaKernelConfig(
            limit_main=64, sector_variances=(1.39, 0.5)
        )
    ),
    "four_items": PricingPipelineConfig(n_work_items=4),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
def test_pipeline_identical_reports(name):
    config = PIPELINE_CONFIGS[name]
    ref = run_pricing_pipeline(config, fast_path=False)
    fp = run_pricing_pipeline(config, fast_path=True)
    assert pipeline_report_fields(ref.report) == pipeline_report_fields(
        fp.report
    )
    assert [vars(c.stats) for c in ref.build.channels] == [
        vars(c.stats) for c in fp.build.channels
    ]
    assert (
        ref.memory.as_float_array() == fp.memory.as_float_array()
    ).all()
    assert ref.skipped_cycles == 0
    assert fp.skipped_cycles > 0


def build_starved_pipeline():
    """Producer region supplies fewer values than one burst: the
    consumer region's engine starves — a deadlock spanning two regions."""
    memory = GlobalMemory(16)
    channel = MemoryChannel(MemoryChannelConfig(), memory)
    pipe = Pipe("p", depth=4)
    producer = DataflowRegion("producer")
    producer.add(DummySource("src", pipe, 8))  # burst needs 16 values
    consumer = DataflowRegion("consumer")
    consumer.add(
        TransferEngine(
            "eng", 0, pipe, channel,
            burst_words=1, bursts_per_sector=1, sectors=1, block_offset=1,
        )
    )
    consumer.attach_memory_channel(channel)
    graph = PipelineGraph("starved_pipeline")
    graph.add_region(producer)
    graph.add_region(consumer)
    return MultiRegionRunner(graph)


def trace_stall(tracer):
    """The stall reports rebuilt from a trace and its cycle spans, or
    ``None`` untraced."""
    if not tracer.enabled:
        return None
    reports = reports_from_trace(tracer.to_dict())
    return [r.to_dict() for r in reports], cycle_spans(tracer)


def test_cross_region_deadlock_identical_on_both_paths():
    """Untraced and traced, both paths raise the same message with the
    same process and channel stats; traced, they leave the same stall
    report and spans."""
    messages, stats, stalls = [], [], []
    for traced in (False, True):
        for fast in (False, True):
            runner = build_starved_pipeline()
            tracer = ChromeTracer() if traced else NullTracer()
            with use_tracer(tracer), pytest.raises(DeadlockError) as excinfo:
                runner.run(fast_path=fast)
            messages.append(str(excinfo.value))
            stats.append(
                (
                    {
                        p.name: vars(p.stats)
                        for r in runner.graph.regions
                        for p in r.processes
                    },
                    [vars(c.stats) for c in runner.graph.memory_channels],
                )
            )
            stalls.append(trace_stall(tracer))
    assert messages[0] == messages[1] == messages[2] == messages[3]
    # the finished producer region is omitted; the stuck one is named
    assert "starved_pipeline" in messages[0]
    assert "region 'consumer'" in messages[0]
    assert stats[0] == stats[1] == stats[2] == stats[3]
    assert stats[0][1][0]["idle_cycles"] > 0
    assert stalls[2] == stalls[3]


@pytest.mark.parametrize("max_cycles", [100, 137, 350, 437])
def test_pipeline_max_cycles_abort_identical(max_cycles):
    """The runaway guard fires at the same cycle with the same stats
    across both paths, even mid-window, with the abort spanning regions
    (stage two and three are still live when the guard fires).  Traced,
    both paths leave the same stall report and spans."""
    from repro.core.pricing import build_pricing_pipeline

    config = PIPELINE_CONFIGS["default"]
    snap = []
    for traced in (False, True):
        for fast in (False, True):
            build = build_pricing_pipeline(config)
            runner = build.runner
            tracer = ChromeTracer() if traced else NullTracer()
            with use_tracer(tracer), pytest.raises(RuntimeError) as excinfo:
                runner.run(max_cycles=max_cycles, fast_path=fast)
            result_stats = {
                p.name: vars(p.stats)
                for r in runner.graph.regions
                for p in r.processes
            }
            streams = {
                s.name: vars(s.stats)
                for r in runner.graph.regions
                for p in r.processes
                for s in (*p.inputs(), *p.outputs())
            }
            snap.append(
                (
                    str(excinfo.value),
                    result_stats,
                    [vars(c.stats) for c in build.channels],
                    streams,
                    runner.skipped_cycles if fast else None,
                    trace_stall(tracer),
                )
            )
    ref, fast, traced_ref, traced_fast = snap
    assert ref[:4] == fast[:4] == traced_ref[:4] == traced_fast[:4]
    if max_cycles > 137:
        # below ~100 cycles the RNG stage keeps every region live, so
        # there is no dead window yet; past that the guard must have
        # interrupted a genuinely skipping run
        assert fast[4] > 0
    assert traced_fast[4] == fast[4]
    assert traced_ref[5] == traced_fast[5]
    assert traced_fast[5][0][0]["cycles"] == max_cycles


# ---------------------------------------------------------------------------
# pipelines share the region loop, so they gain identical attribution too
# ---------------------------------------------------------------------------


def cycle_spans(tracer):
    """The ``cat="cycle"`` attribution spans of an exported trace."""
    return [
        e for e in tracer.to_dict()["traceEvents"] if e.get("cat") == "cycle"
    ]


def run_both_traced_pipelines(config):
    """Run the pricing pipeline through both paths under a tracer."""
    from repro.obs import use_tracer
    from repro.obs.tracer import ChromeTracer

    out = []
    for fast in (False, True):
        tracer = ChromeTracer()
        with use_tracer(tracer):
            result = run_pricing_pipeline(config, fast_path=fast)
        out.append((result, tracer))
    return out


@pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
def test_pipeline_instrumented_identical(name):
    from repro.obs.stall import reports_from_trace

    config = PIPELINE_CONFIGS[name]
    (ref, ref_tracer), (fp, fp_tracer) = run_both_traced_pipelines(config)
    assert ref.skipped_cycles == 0
    assert fp.skipped_cycles > 0
    ref_stall, fp_stall = ref.report.stall_report, fp.report.stall_report
    assert ref_stall is not None
    assert ref_stall.to_dict() == fp_stall.to_dict()
    assert cycle_spans(ref_tracer) == cycle_spans(fp_tracer)
    for result in (ref, fp):
        stall = result.report.stall_report
        assert stall.consistent_with(result.report.process_stats) == []
    # the exported trace rebuilds the same pipeline-wide report
    rebuilt = reports_from_trace(fp_tracer.to_dict())
    assert [r.per_process for r in rebuilt] == [fp_stall.per_process]
    # tracing observes the run without changing it
    untraced = run_pricing_pipeline(config)
    assert untraced.report.stall_report is None
    assert fp.report.cycles == untraced.report.cycles
    assert fp.report.stream_stats == untraced.report.stream_stats


# ---------------------------------------------------------------------------
# parking: the untraced fast path does not tick stall repeats
# ---------------------------------------------------------------------------


def count_ticks(objects):
    """Wrap ``tick`` on every process or channel of ``objects``;
    returns the shared call counter."""
    calls = [0]
    for obj in objects:

        def counted(cycle, tick=obj.tick):
            calls[0] += 1
            return tick(cycle)

        obj.tick = counted
    return calls


def parking_fig3():
    region = DecoupledWorkItems(
        DecoupledConfig(
            n_work_items=6,
            kernel=GammaKernelConfig(
                limit_main=256, sector_variances=(1.39, 0.5)
            ),
        )
    ).region
    return region, region.processes, report_fields


def parking_fig7():
    region, _, _ = build_transfer_only_region(
        n_work_items=6, values_per_item=1024, burst_words=1, stream_depth=2
    )
    return region, region.processes, report_fields


def parking_pipeline():
    from repro.core.pricing import build_pricing_pipeline

    build = build_pricing_pipeline(
        PricingPipelineConfig(
            n_work_items=4,
            kernel=GammaKernelConfig(
                limit_main=256, sector_variances=(1.39, 0.5)
            ),
        )
    )
    processes = [p for r in build.graph.regions for p in r.processes]
    return build.runner, processes, pipeline_report_fields


def channels_of(runner):
    """The memory channels a region or pipeline runner advances."""
    return getattr(runner, "graph", runner).memory_channels


def counted_run(build, fast, traced=False):
    """Run ``build()`` once; returns its process ``tick()`` calls,
    channel ``tick()`` calls, skipped cycles and report fields (without
    the traced run's stall report)."""
    runner, processes, report_fields_of = build()
    calls = count_ticks(processes)
    channel_calls = count_ticks(channels_of(runner))
    with use_tracer(ChromeTracer() if traced else NullTracer()):
        report = runner.run(fast_path=fast)
    assert (report.stall_report is not None) == traced
    report.stall_report = None
    return (
        calls[0],
        channel_calls[0],
        runner.skipped_cycles,
        report_fields_of(report),
    )


#: per parking build: the bound on fast/reference ``tick()`` calls, and
#: the exact fast-path ``tick()`` calls and skipped cycles
PARKING_BUILDS = {
    "fig3": (parking_fig3, 0.25, 0, 4_204),
    "fig7": (parking_fig7, 0.1, 0, 30_740),
    "pipeline": (parking_pipeline, 0.1, 0, 5_584),
}


@pytest.mark.parametrize(
    "name, traced",
    [
        pytest.param(name, traced, id=f"{name}-traced" if traced else name)
        for traced in (False, True)
        for name in PARKING_BUILDS
    ],
)
def test_fast_path_does_not_tick_stall_repeats(name, traced):
    """A parked process is skipped until its wait ends, so the fast path
    ticks a fraction of what the reference loop ticks, with an
    identical report.  It never ticks a channel: each is advanced only
    where its state is observed.  A traced fast run ticks and skips
    exactly as the untraced one.  The counts are exact, hence
    deterministic, so they are pinned: the wake calendar must wake each
    process exactly when its wait ends, neither earlier nor later."""
    build, max_ratio, ticks, skipped = PARKING_BUILDS[name]
    fast = counted_run(build, fast=True)
    assert fast[:3] == (ticks, 0, skipped)
    if traced:
        assert counted_run(build, fast=True, traced=True) == fast
    else:
        ref_ticks, ref_channel_ticks, _, ref_fields = counted_run(build, fast=False)
        fast_ticks, _, _, fast_fields = fast
        assert ref_fields == fast_fields
        assert ref_channel_ticks > 0
        assert fast_ticks <= max_ratio * ref_ticks, (
            f"fast path ticked {fast_ticks} of {ref_ticks} reference ticks"
        )


def test_pricing_process_keeps_fast_path_hints():
    """A pricer's own ``next_event`` and ``skip_cycles`` park it where
    its work-item does not fuse.  Here every archive engine runs the
    II=2 pack ablation, so no tree fuses and the pricers block on their
    full sinks and starve on their empty gamma pipes: they park, the
    fast path ticks them less than the reference loop does, and the
    report is identical.  A pricer whose hints returned None would
    never park."""
    from repro.core.pricing import build_pricing_pipeline
    from repro.harness.pipelines import TRANSFER_BOUND_CONFIG

    def run(fast):
        build = build_pricing_pipeline(TRANSFER_BOUND_CONFIG)
        for engine in build.archive_engines:
            engine.dependence_false = False
        ticks, parks = [0], [0]
        for pricer in build.pricers:

            def tick(cycle, _tick=pricer.tick):
                ticks[0] += 1
                return _tick(cycle)

            def next_event(cycle, _next_event=pricer.next_event):
                event = _next_event(cycle)
                parks[0] += event is not None
                return event

            pricer.tick = tick
            pricer.next_event = next_event
        report = build.runner.run(fast_path=fast)
        return ticks[0], parks[0], pipeline_report_fields(report)

    ref_ticks, _, ref_fields = run(fast=False)
    fast_ticks, parks, fast_fields = run(fast=True)
    assert parks > 0
    assert fast_ticks < ref_ticks
    assert fast_fields == ref_fields


def burst_log(build, fast):
    """Every burst ``build()``'s run submits, as ``(owner, address,
    submitted_cycle, started_cycle, completed_cycle)`` in submission
    order."""
    runner, _processes, _fields = build()
    submitted = []
    for channel in channels_of(runner):

        def logged(request, submit=channel.submit):
            submitted.append(request)
            return submit(request)

        channel.submit = logged
    runner.run(fast_path=fast)
    return [
        (r.owner, r.address, r.submitted_cycle, r.started_cycle, r.completed_cycle)
        for r in submitted
    ]


@pytest.mark.parametrize(
    "build, bursts",
    [
        pytest.param(parking_fig3, 48, id="fig3"),
        pytest.param(parking_fig7, 384, id="fig7"),
        pytest.param(parking_pipeline, 64, id="pipeline"),
    ],
)
def test_per_burst_channel_timing_identical(build, bursts):
    """Each burst is submitted, granted and completed at the same cycle
    on both loops, though the fast loop advances a channel only where
    its state is observed."""
    ref = burst_log(build, fast=False)
    assert len(ref) == bursts
    assert all(completed is not None for *_, completed in ref)
    assert burst_log(build, fast=True) == ref


def capped_pipeline_outcome(seed, limit_max, fast):
    """Run a capped pricing pipeline; returns its outcome and stats."""
    from repro.core.pricing import build_pricing_pipeline

    build = build_pricing_pipeline(
        PricingPipelineConfig(
            kernel=GammaKernelConfig(
                limit_main=64,
                limit_max=limit_max,
                sector_variances=(1.39, 0.5),
                seed=seed,
            )
        )
    )
    runner = build.runner
    try:
        outcome = runner.run(fast_path=fast).cycles
    except DeadlockError as exc:
        outcome = str(exc)
    processes = [p for r in runner.graph.regions for p in r.processes]
    return (
        outcome,
        {p.name: vars(p.stats) for p in processes},
        {
            s.name: s.stats
            for p in processes
            for s in (*p.inputs(), *p.outputs())
        },
        [vars(c.stats) for c in build.channels],
    )


@pytest.mark.parametrize("limit_max", [64, 66, 70, 76, 80])
def test_capped_pipeline_abort_identical(limit_max):
    """A kernel capped by ``limit_max`` closes its gamma pipe early.
    The pricer sees the close and finishes, but the engines downstream
    hang by design (REPLOOP has a fixed trip count), so the run ends in
    a DeadlockError.  Both paths must raise the same message with the
    same partial stats; the fast path must wake a pricer parked on the
    empty pipe when the pipe closes."""
    deadlocks = 0
    for seed in range(12):
        ref = capped_pipeline_outcome(seed, limit_max, fast=False)
        fast = capped_pipeline_outcome(seed, limit_max, fast=True)
        assert ref == fast, f"seed {seed}"
        deadlocks += isinstance(ref[0], str)
    assert deadlocks > 0
