"""Pipe-connected multi-region pipelines: wiring rules and runner
semantics (:mod:`repro.core.pipes`, :mod:`repro.core.pricing`)."""

import dataclasses

import numpy as np
import pytest

from repro.core.dataflow import DataflowRegion
from repro.core.fifo_sizing import advise_stream_depth
from repro.core.kernel import GammaKernelConfig
from repro.core.memory import GlobalMemory, MemoryChannel, MemoryChannelConfig
from repro.core.pipes import (
    MultiRegionRunner,
    Pipe,
    PipeError,
    PipelineGraph,
)
from repro.core.pricing import (
    PricingPipelineConfig,
    PricingProcess,
    build_fused_pricing_region,
    build_pricing_pipeline,
    run_pricing_pipeline,
)
from repro.core.stream import Stream
from repro.core.transfer import DummySource, TransferEngine


def _sink_region(name, stream, count=32):
    """A one-process region that drains ``stream`` via a burst engine."""
    memory = GlobalMemory(count // 16)
    channel = MemoryChannel(MemoryChannelConfig(), memory)
    region = DataflowRegion(name)
    region.add(
        TransferEngine(
            f"{name}_eng", 0, stream, channel,
            burst_words=1, bursts_per_sector=count // 16, sectors=1,
            block_offset=count // 16,
        )
    )
    region.attach_memory_channel(channel)
    return region


def _source_region(name, stream, count=32):
    region = DataflowRegion(name)
    region.add(DummySource(f"{name}_src", stream, count))
    return region


# ---------------------------------------------------------------------------
# wiring validation
# ---------------------------------------------------------------------------


class TestGraphValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipeError, match="no regions"):
            MultiRegionRunner(PipelineGraph()).run()

    def test_empty_region_rejected(self):
        graph = PipelineGraph()
        graph.add_region(DataflowRegion("empty"))
        with pytest.raises(PipeError, match="no processes"):
            graph._validate()

    def test_same_region_added_twice_rejected(self):
        graph = PipelineGraph()
        region = _source_region("a", Pipe("p"))
        graph.add_region(region)
        with pytest.raises(PipeError, match="added twice"):
            graph.add_region(region)

    def test_duplicate_region_name_rejected(self):
        graph = PipelineGraph()
        graph.add_region(_source_region("a", Pipe("p1")))
        with pytest.raises(PipeError, match="duplicate region name"):
            graph.add_region(_sink_region("a", Pipe("p2")))

    def test_duplicate_process_name_across_regions_rejected(self):
        graph = PipelineGraph()
        graph.add_region(_source_region("a", Pipe("p")))
        other = DataflowRegion("b")
        other.add(DummySource("a_src", Stream("s"), 8))  # clashes with a's
        graph.add_region(other)
        with pytest.raises(PipeError, match="duplicate process name"):
            graph._validate()

    def test_plain_stream_across_regions_rejected(self):
        stream = Stream("s", depth=4)
        graph = PipelineGraph()
        graph.add_region(_source_region("a", stream))
        graph.add_region(_sink_region("b", stream))
        with pytest.raises(PipeError, match="must be Pipes"):
            graph._validate()

    def test_intra_region_pipe_rejected(self):
        pipe = Pipe("p", depth=4)
        region = DataflowRegion("both_ends")
        region.add(DummySource("src", pipe, 16))
        memory = GlobalMemory(1)
        channel = MemoryChannel(MemoryChannelConfig(), memory)
        region.add(
            TransferEngine(
                "eng", 0, pipe, channel,
                burst_words=1, bursts_per_sector=1, sectors=1,
                block_offset=1,
            )
        )
        region.attach_memory_channel(channel)
        graph = PipelineGraph()
        graph.add_region(region)
        with pytest.raises(PipeError, match="both ends inside region"):
            graph._validate()

    def test_dangling_pipe_producer_only_rejected(self):
        graph = PipelineGraph()
        graph.add_region(_source_region("a", Pipe("p")))
        with pytest.raises(PipeError, match="no consumer"):
            graph._validate()

    def test_dangling_pipe_consumer_only_rejected(self):
        graph = PipelineGraph()
        graph.add_region(_sink_region("b", Pipe("p", depth=16), count=16))
        with pytest.raises(PipeError, match="no producer"):
            graph._validate()

    def test_region_cycle_rejected(self):
        """Two regions feeding each other is not a feed-forward DAG."""

        class Echo(DummySource):
            """Source that also nominally consumes a stream."""

            def __init__(self, name, sink, source, count):
                super().__init__(name, sink, count)
                self._source = source

            def inputs(self):
                return (self._source,)

        ab = Pipe("ab", depth=4)
        ba = Pipe("ba", depth=4)
        region_a = DataflowRegion("a")
        region_a.add(Echo("a_proc", ab, ba, 4))
        region_b = DataflowRegion("b")
        region_b.add(Echo("b_proc", ba, ab, 4))
        graph = PipelineGraph()
        graph.add_region(region_a)
        graph.add_region(region_b)
        with pytest.raises(PipeError, match="region cycle"):
            graph._validate()

    def test_valid_two_region_pipeline_passes(self):
        pipe = Pipe("p", depth=16)
        graph = PipelineGraph()
        graph.add_region(_source_region("a", pipe))
        graph.add_region(_sink_region("b", pipe))
        assert graph.pipes == (pipe,)
        assert len(graph.memory_channels) == 1

    def test_shared_channel_deduplicated(self):
        """A channel attached to two regions must appear once."""
        build = build_pricing_pipeline(
            PricingPipelineConfig()  # affinity (0, 0): one shared channel
        )
        assert len(build.graph.memory_channels) == 1

    def test_distinct_channels_kept(self):
        build = build_pricing_pipeline(
            PricingPipelineConfig(n_channels=2, channel_affinity=(0, 1))
        )
        assert len(build.graph.memory_channels) == 2


# ---------------------------------------------------------------------------
# runner semantics
# ---------------------------------------------------------------------------


class TestMultiRegionRunner:
    def test_simple_pipeline_completes(self):
        pipe = Pipe("p", depth=16)
        graph = PipelineGraph("simple")
        graph.add_region(_source_region("a", pipe))
        graph.add_region(_sink_region("b", pipe))
        report = MultiRegionRunner(graph).run()
        assert report.mode == "pipelined"
        assert report.cycles > 0
        assert set(report.region_reports) == {"a", "b"}
        assert report.pipe_stats["p"]["total_writes"] == 32

    def test_process_added_after_validation_ticks(self):
        """Regression: validation is not cached, so a process added to a
        region after the graph was inspected still ticks and finishes
        (it used to be silently skipped while the run "succeeded")."""
        pipe = Pipe("p", depth=16)
        graph = PipelineGraph("late")
        region_a = graph.add_region(_source_region("a", pipe))
        graph.add_region(_sink_region("b", pipe))
        assert graph.pipes == (pipe,)  # validates the graph once
        late = region_a.add(DummySource("late_src", Stream("late", depth=8), 8))
        report = MultiRegionRunner(graph).run()
        assert late.done()
        assert late.stats.iterations == 8
        assert report.process_stats["late_src"] is late.stats

    def test_region_done_cycles_are_topological(self):
        result = run_pricing_pipeline(PricingPipelineConfig())
        done = result.report.region_done_cycles
        assert done["rng"] <= done["pricing"] <= done["aggregation"]
        assert done["aggregation"] == result.report.cycles

    def test_region_reports_end_at_region_done_cycle(self):
        result = run_pricing_pipeline(PricingPipelineConfig())
        for name, region_report in result.report.region_reports.items():
            assert (
                region_report.cycles
                == result.report.region_done_cycles[name]
            )

    def test_pipes_appear_in_stream_stats(self):
        result = run_pricing_pipeline(PricingPipelineConfig())
        stats = result.report.stream_stats
        assert "gammaPipe0" in stats and "pricedPipe0" in stats
        assert "rawStream0" in stats  # intra-region stream merged too

    def test_combined_process_stats_cover_every_region(self):
        cfg = PricingPipelineConfig()
        result = run_pricing_pipeline(cfg)
        names = set(result.report.process_stats)
        for wid in range(cfg.n_work_items):
            assert {
                f"GammaRNG{wid}",
                f"Pricer{wid}",
                f"Aggregate{wid}",
                f"Archive{wid}",
            } <= names
        assert "__memory_channel_0__" in names

    def test_runtime_conversion(self):
        result = run_pricing_pipeline(PricingPipelineConfig())
        assert result.report.runtime_ms(200e6) == pytest.approx(
            1e3 * result.report.cycles / 200e6
        )
        with pytest.raises(ValueError):
            result.report.runtime_seconds(0.0)

    def test_sequential_mode_sums_region_runs(self):
        result = run_pricing_pipeline(
            PricingPipelineConfig(), mode="sequential"
        )
        assert result.report.mode == "sequential"
        done = result.report.region_done_cycles
        assert done["aggregation"] == result.report.cycles
        # done cycles are cumulative: each stage finishes strictly after
        # the previous one (regions run back to back, never overlapping)
        assert 0 < done["rng"] < done["pricing"] < done["aggregation"]

    def test_pipelined_beats_sequential(self):
        pipelined = run_pricing_pipeline(PricingPipelineConfig())
        sequential = run_pricing_pipeline(
            PricingPipelineConfig(), mode="sequential"
        )
        assert pipelined.cycles < sequential.cycles

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_pricing_pipeline(PricingPipelineConfig(), mode="warp")


# ---------------------------------------------------------------------------
# numerical equivalence: pipelined == fused == sequential
# ---------------------------------------------------------------------------


class TestNumericalEquivalence:
    @pytest.fixture(scope="class")
    def results(self):
        cfg = PricingPipelineConfig()
        return {
            mode: run_pricing_pipeline(cfg, mode=mode)
            for mode in ("pipelined", "fused", "sequential")
        }

    def test_device_memory_identical(self, results):
        base = results["pipelined"].memory.as_float_array()
        for mode in ("fused", "sequential"):
            assert (
                base == results[mode].memory.as_float_array()
            ).all()

    def test_priced_and_raw_readbacks_identical(self, results):
        for mode in ("fused", "sequential"):
            assert np.array_equal(
                results["pipelined"].priced(), results[mode].priced()
            )
            assert np.array_equal(
                results["pipelined"].raw(), results[mode].raw()
            )

    def test_aggregate_totals_identical(self, results):
        base = results["pipelined"].aggregate_totals
        for mode in ("fused", "sequential"):
            assert results[mode].aggregate_totals == base

    def test_prices_match_payoff_of_raw(self, results):
        """Each archived variate prices to the matching payoff.

        The pricer evaluates the payoff on the full-precision variate
        before float32 storage, while ``raw()`` reads back the float32
        archive — so recomputing from the archive matches to float32
        epsilon, with the zero (out-of-the-money) lanes exact.
        """
        cfg = results["pipelined"].config
        raw = results["pipelined"].raw(0).astype(np.float64)
        priced = results["pipelined"].priced(0)
        expected = cfg.discount * np.maximum(raw - cfg.strike, 0.0)
        assert np.array_equal(priced == 0.0, expected == 0.0)
        # atol absorbs the cancellation near the strike, where the
        # float32 rounding of the variate dominates max(x - K, 0)
        assert np.allclose(priced, expected, rtol=1e-5, atol=1e-6)

    def test_sequential_run_matches_reference_loop(self):
        """The regions of a sequential run reuse the channels one after
        another: each run must start every channel's clock at cycle 0,
        or the fast loop grants the aggregation region's first burst
        only at the cycle the pricing region ended (670 cycles instead
        of 580)."""
        runs = [
            run_pricing_pipeline(
                PricingPipelineConfig(), mode="sequential", fast_path=fast
            )
            for fast in (False, True)
        ]
        ref, fast = runs
        assert fast.report.region_done_cycles == ref.report.region_done_cycles
        assert fast.cycles == ref.cycles == 580
        assert {n: vars(s) for n, s in fast.report.process_stats.items()} == {
            n: vars(s) for n, s in ref.report.process_stats.items()
        }
        assert (
            fast.memory.as_float_array().tobytes()
            == ref.memory.as_float_array().tobytes()
        )

    def test_fused_region_has_no_pipes(self, results):
        build = build_fused_pricing_region(PricingPipelineConfig())
        for proc in build.region.processes:
            for stream in (*proc.inputs(), *proc.outputs()):
                assert not isinstance(stream, Pipe)


# ---------------------------------------------------------------------------
# multi-channel affinity
# ---------------------------------------------------------------------------


class TestChannelAffinity:
    def test_two_channels_split_traffic(self):
        cfg = PricingPipelineConfig(n_channels=2, channel_affinity=(0, 1))
        result = run_pricing_pipeline(cfg)
        stats = [c.stats for c in result.build.channels]
        assert all(s.bursts > 0 for s in stats)

    def test_second_channel_speeds_up_transfer_bound_config(self):
        """The multi-channel EXPERIMENTS.md finding as pipeline config:
        a transfer-bound pipeline runs ~2x faster on two channels."""
        base = PricingPipelineConfig(
            n_work_items=4,
            kernel=GammaKernelConfig(limit_main=64),
            burst_words=2,
        )
        one = run_pricing_pipeline(base)
        two = run_pricing_pipeline(
            dataclasses.replace(
                base, n_channels=2, channel_affinity=(0, 1)
            )
        )
        speedup = one.cycles / two.cycles
        assert speedup > 1.75
        assert np.array_equal(one.priced(), two.priced())
        assert np.array_equal(one.raw(), two.raw())

    def test_affinity_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            PricingPipelineConfig(channel_affinity=(0, 1))  # n_channels=1

    def test_affinity_must_have_two_entries(self):
        with pytest.raises(ValueError, match="channel_affinity"):
            PricingPipelineConfig(n_channels=2, channel_affinity=(0,))


# ---------------------------------------------------------------------------
# pipe-depth sizing compatibility
# ---------------------------------------------------------------------------


class TestPipeDepthSizing:
    def test_advise_stream_depth_accepts_runner(self):
        """The single-region depth advisor consumes a MultiRegionRunner
        unchanged — PipelineReport exposes the same report surface."""
        cfg = PricingPipelineConfig()
        sizing = advise_stream_depth(
            lambda depth: build_pricing_pipeline(
                cfg, pipe_depth=depth
            ).runner,
            depths=(2, 8, 32),
        )
        assert sizing.recommended_depth in (2, 8, 32)
        assert [p.depth for p in sizing.points] == [2, 8, 32]
        assert all(p.cycles > 0 for p in sizing.points)

    def test_deeper_pipes_never_slower(self):
        cfg = PricingPipelineConfig(
            n_work_items=1, kernel=GammaKernelConfig(limit_main=64)
        )
        cycles = [
            build_pricing_pipeline(cfg, pipe_depth=d).runner.run().cycles
            for d in (1, 4, 64)
        ]
        assert cycles[0] >= cycles[1] >= cycles[2]


# ---------------------------------------------------------------------------
# PricingProcess unit behavior
# ---------------------------------------------------------------------------


class TestPricingProcess:
    def test_payoff(self):
        proc = PricingProcess(
            "p", 0, Stream("in"), Stream("a"), Stream("b"),
            count=4, strike=1.0, discount=0.5,
        )
        assert proc.price(3.0) == pytest.approx(1.0)
        assert proc.price(0.5) == 0.0  # out of the money

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            PricingProcess(
                "p", 0, Stream("in"), Stream("a"), Stream("b"), count=0
            )

    def test_closes_sinks_when_done(self):
        source = Stream("in", depth=4)
        priced = Stream("a", depth=4)
        raw = Stream("b", depth=4)
        proc = PricingProcess("p", 0, source, priced, raw, count=2)
        source.write(2.0)
        source.write(3.0)
        cycle = 0
        while not proc.done():
            proc.tick(cycle)
            cycle += 1
        assert priced.closed and raw.closed
        assert proc.stats.iterations == 2

    def test_early_close_propagates(self):
        """A producer closing early (limit_max cap) terminates the
        pricer, which closes both of its sinks.  The stages downstream
        of it still deadlock in a full pipeline: REPLOOP has a fixed
        trip count, so the engines wait for values that never come
        (``test_capped_pipeline_abort_identical`` runs that case)."""
        source = Stream("in", depth=4)
        priced = Stream("a", depth=4)
        raw = Stream("b", depth=4)
        proc = PricingProcess("p", 0, source, priced, raw, count=100)
        source.write(2.0)
        source.close()  # only one value ever arrives
        cycle = 0
        while not proc.done() and cycle < 50:
            proc.tick(cycle)
            cycle += 1
        assert proc.done()
        assert priced.closed and raw.closed
        assert proc.stats.iterations == 1
