"""Tests for the DATAFLOW region co-simulation."""

import pytest

from repro.core import (
    DataflowError,
    DataflowRegion,
    DeadlockError,
    Process,
    Stream,
)
from repro.core.dataflow import topological_order


class Producer(Process):
    def __init__(self, name, sink, count):
        super().__init__(name)
        self.sink = sink
        self.remaining = count

    def outputs(self):
        return (self.sink,)

    def done(self):
        return self.remaining == 0

    def tick(self, cycle):
        if self.remaining and self.sink.can_write():
            self.sink.write(self.remaining)
            self.remaining -= 1
            return self._account(True)
        return self._account(False)


class Consumer(Process):
    def __init__(self, name, source, count):
        super().__init__(name)
        self.source = source
        self.remaining = count
        self.received = []

    def inputs(self):
        return (self.source,)

    def done(self):
        return self.remaining == 0

    def tick(self, cycle):
        if self.remaining and self.source.can_read():
            self.received.append(self.source.read())
            self.remaining -= 1
            return self._account(True)
        return self._account(False)


class Relay(Process):
    """One-in one-out forwarding process (for chains)."""

    def __init__(self, name, source, sink, count):
        super().__init__(name)
        self.source = source
        self.sink = sink
        self.remaining = count

    def inputs(self):
        return (self.source,)

    def outputs(self):
        return (self.sink,)

    def done(self):
        return self.remaining == 0

    def tick(self, cycle):
        if self.remaining and self.source.can_read() and self.sink.can_write():
            self.sink.write(self.source.read())
            self.remaining -= 1
            return self._account(True)
        return self._account(False)


class Stuck(Process):
    """Never progresses — deadlock fixture."""

    def __init__(self, name, source):
        super().__init__(name)
        self.source = source

    def inputs(self):
        return (self.source,)

    def done(self):
        return False

    def tick(self, cycle):
        return self._account(False)


def _pipe(count=10, depth=2):
    s = Stream("s", depth=depth)
    region = DataflowRegion("t")
    prod = region.add(Producer("prod", s, count))
    cons = region.add(Consumer("cons", s, count))
    return region, prod, cons


class TestWiringValidation:
    def test_duplicate_process_name_rejected(self):
        region, _, _ = _pipe()
        with pytest.raises(DataflowError):
            region.add(Producer("prod", Stream("x"), 1))

    def test_two_producers_rejected(self):
        s = Stream("s")
        region = DataflowRegion("t")
        region.add(Producer("p1", s, 1))
        region.add(Producer("p2", s, 1))
        region.add(Consumer("c", s, 2))
        with pytest.raises(DataflowError, match="two producers"):
            region.run()

    def test_two_consumers_rejected(self):
        s = Stream("s")
        region = DataflowRegion("t")
        region.add(Producer("p", s, 2))
        region.add(Consumer("c1", s, 1))
        region.add(Consumer("c2", s, 1))
        with pytest.raises(DataflowError, match="two consumers"):
            region.run()

    def test_cycle_rejected(self):
        a, b = Stream("a"), Stream("b")
        region = DataflowRegion("t")
        region.add(Relay("r1", a, b, 1))
        region.add(Relay("r2", b, a, 1))
        with pytest.raises(DataflowError, match="cycle"):
            region.run()

    def test_empty_region_rejected(self):
        with pytest.raises(DataflowError):
            DataflowRegion("t").run()


class TestTopologicalOrder:
    """The order processes tick in, and regions in a pipeline: it fixes
    every index in reports and traces, so it is pinned exactly."""

    def test_generation_by_generation(self):
        # 3 and 4 start, in index order; 2 and 0 follow in the order
        # their last incoming edge goes, successors in edge order
        edges = [(4, 0), (3, 1), (0, 1), (3, 2)]
        assert topological_order(5, edges) == [3, 4, 2, 0, 1]

    def test_successors_in_edge_order(self):
        assert topological_order(3, [(0, 2), (0, 1)]) == [0, 2, 1]

    def test_parallel_edges_count_once(self):
        # counted twice, node 2 would wait for its second edge: [0, 1, 2]
        assert topological_order(3, [(0, 2), (0, 1), (0, 2)]) == [0, 2, 1]
        # two pipes between each pair of pipeline stages
        edges = [(0, 1), (0, 1), (1, 2), (1, 2)]
        assert topological_order(3, edges) == [0, 1, 2]

    def test_isolated_nodes_and_empty_graph(self):
        assert topological_order(3, []) == [0, 1, 2]
        assert topological_order(0, []) == []

    def test_cycles_return_none(self):
        assert topological_order(3, [(0, 1), (1, 2), (2, 1)]) is None
        assert topological_order(2, [(1, 1)]) is None


class TestExecution:
    def test_all_tokens_delivered_in_order(self):
        region, _, cons = _pipe(count=25)
        region.run()
        assert cons.received == list(range(25, 0, -1))

    def test_same_cycle_handoff(self):
        """Producer ticked before consumer: a token written in cycle t is
        readable in cycle t — pipe of N tokens finishes in ~N+1 cycles."""
        region, _, _ = _pipe(count=50, depth=2)
        report = region.run()
        assert report.cycles <= 52

    def test_backpressure_with_shallow_stream(self):
        s = Stream("s", depth=1)
        region = DataflowRegion("t")
        prod = region.add(Producer("p", s, 30))
        # consumer that reads every other cycle
        class SlowConsumer(Consumer):
            def tick(self, cycle):
                if cycle % 2 == 0:
                    return self._account(False)
                return super().tick(cycle)

        region.add(SlowConsumer("c", s, 30))
        region.run()
        assert prod.stats.stall_cycles > 0  # producer was backpressured

    def test_chain_of_relays(self):
        a, b, c = Stream("a"), Stream("b"), Stream("c")
        region = DataflowRegion("chain")
        region.add(Producer("p", a, 10))
        region.add(Relay("r1", a, b, 10))
        region.add(Relay("r2", b, c, 10))
        cons = region.add(Consumer("cons", c, 10))
        region.run()
        assert cons.received == list(range(10, 0, -1))

    def test_registration_order_irrelevant(self):
        """Topological ordering makes consumer-first registration work."""
        s = Stream("s")
        region = DataflowRegion("t")
        cons = region.add(Consumer("c", s, 10))
        region.add(Producer("p", s, 10))
        report = region.run()
        assert len(cons.received) == 10
        assert report.cycles <= 12

    def test_deadlock_detected(self):
        s = Stream("s")
        region = DataflowRegion("t")
        region.add(Stuck("stuck", s))
        with pytest.raises(DeadlockError, match="stuck"):
            region.run()

    def test_max_cycles_guard(self):
        region, _, _ = _pipe(count=1000)
        with pytest.raises(RuntimeError, match="exceeded"):
            region.run(max_cycles=5)


class TestReport:
    def test_report_contents(self):
        region, prod, cons = _pipe(count=10)
        report = region.run()
        assert report.process_stats["prod"].iterations == 0  # Producer sets none
        assert report.stream_stats["s"]["total_writes"] == 10
        assert report.stream_stats["s"]["total_reads"] == 10
        assert report.stream_stats["s"]["high_water"] <= 2

    def test_runtime_conversion(self):
        region, *_ = _pipe(count=10)
        report = region.run()
        assert report.runtime_ms(200e6) == pytest.approx(
            report.cycles / 200e6 * 1e3
        )
        with pytest.raises(ValueError):
            report.runtime_seconds(0)


def _channel_region():
    from repro.core.memory import GlobalMemory, MemoryChannel, MemoryChannelConfig
    from repro.core.transfer import DummySource, TransferEngine

    memory = GlobalMemory(8)
    region = DataflowRegion("chan")
    for i in range(2):
        region.attach_memory_channel(MemoryChannel(MemoryChannelConfig(), memory))
    for wid in range(2):
        s = Stream(f"s{wid}", depth=16)
        region.add(DummySource(f"src{wid}", s, 16))
        region.add(
            TransferEngine(
                f"eng{wid}", wid, s, region.memory_channels[wid],
                burst_words=1, bursts_per_sector=1, sectors=1, block_offset=1,
            )
        )
    return region


class TestChannelStatsAlias:
    """Regression: channel stats live under indexed keys only — the old
    ``__memory_channel__`` alias is gone, and consumers aggregating over
    ``process_stats`` used to double-count the first channel."""

    def test_alias_excluded_from_iteration(self):
        region = _channel_region()
        report = region.run()
        keys = list(report.process_stats)
        assert "__memory_channel__" not in keys
        assert "__memory_channel_0__" in keys
        assert "__memory_channel_1__" in keys
        # each ChannelStats object appears exactly once, under its index
        channel_stats = [ch.stats for ch in region.memory_channels]
        seen = [v for v in report.process_stats.values() if v in channel_stats]
        assert len(seen) == len(channel_stats)
        for i, stats in enumerate(channel_stats):
            assert report.process_stats[f"__memory_channel_{i}__"] is stats

    def test_no_channel_no_alias(self):
        region, *_ = _pipe(count=4)
        report = region.run()
        assert not any(k.startswith("__memory_channel") for k in report.process_stats)


class TestAbortPathAttribution:
    """Regression: both abort paths close the attribution at the same
    boundary (the last recorded cycle), so aborted runs round-trip
    through StallReport without one-cycle-short spans."""

    @staticmethod
    def _run_aborted(abort):
        from repro.obs.stall import StallAttribution
        from repro.obs.tracer import ChromeTracer

        tracer = ChromeTracer()
        region = DataflowRegion("abort")
        s = Stream("s")
        if abort == "deadlock":
            region.add(Stuck("stuck", s))
            expected_cycles = 1  # one recorded zero-progress cycle
            raises = DeadlockError
        else:
            region.add(Producer("p", s, 1000))
            region.add(Consumer("c", s, 1000))
            expected_cycles = 7
            raises = RuntimeError
        attribution = StallAttribution(region.name, tracer=tracer)
        with pytest.raises(raises):
            region.run(
                max_cycles=7 if abort == "max_cycles" else 100,
                attribution=attribution,
            )
        return attribution, tracer, expected_cycles

    @pytest.mark.parametrize("abort", ["deadlock", "max_cycles"])
    def test_abort_report_covers_every_recorded_cycle(self, abort):
        attribution, _, expected = self._run_aborted(abort)
        report = attribution.report()
        assert report.cycles == expected
        for counts in report.per_process.values():
            assert sum(counts.values()) == expected

    @pytest.mark.parametrize("abort", ["deadlock", "max_cycles"])
    def test_abort_trace_round_trips(self, abort):
        from repro.obs.stall import reports_from_trace

        attribution, tracer, expected = self._run_aborted(abort)
        direct = attribution.report()
        rebuilt = reports_from_trace(tracer.to_dict())
        assert len(rebuilt) == 1
        assert rebuilt[0].cycles == direct.cycles == expected
        assert rebuilt[0].per_process == direct.per_process

    @staticmethod
    def _run_aborted_pipeline(abort):
        """The same two aborts, spanning a two-region pipeline run under
        the global tracer (pipelines take no explicit attribution)."""
        from repro.core.pipes import MultiRegionRunner, Pipe, PipelineGraph
        from repro.obs import use_tracer
        from repro.obs.tracer import ChromeTracer

        pipe = Pipe("p", depth=4)
        producer = DataflowRegion("producer")
        consumer = DataflowRegion("consumer")
        if abort == "deadlock":
            producer.add(Producer("p", pipe, 2))
            consumer.add(Stuck("stuck", pipe))
            expected_cycles = 3  # two producing cycles, one zero-progress
            raises = DeadlockError
        else:
            producer.add(Producer("p", pipe, 1000))
            consumer.add(Consumer("c", pipe, 1000))
            expected_cycles = 7
            raises = RuntimeError
        graph = PipelineGraph("abort_pipeline")
        graph.add_region(producer)
        graph.add_region(consumer)
        tracer = ChromeTracer()
        with use_tracer(tracer), pytest.raises(raises) as excinfo:
            MultiRegionRunner(graph).run(
                max_cycles=7 if abort == "max_cycles" else 100
            )
        if abort == "deadlock":
            assert "region 'consumer'" in str(excinfo.value)
        return graph, tracer, expected_cycles

    @pytest.mark.parametrize("abort", ["deadlock", "max_cycles"])
    def test_pipeline_abort_trace_round_trips(self, abort):
        from repro.obs.stall import reports_from_trace

        graph, tracer, expected = self._run_aborted_pipeline(abort)
        rebuilt = reports_from_trace(tracer.to_dict())
        assert len(rebuilt) == 1
        assert rebuilt[0].region == "abort_pipeline"
        assert rebuilt[0].cycles == expected
        stats = {p.name: p.stats for r in graph.regions for p in r.processes}
        assert set(rebuilt[0].per_process) == set(stats)
        # every live cycle of every process, across both regions, is
        # attributed exactly once — none lost at the abort boundary
        for name, counts in rebuilt[0].per_process.items():
            assert sum(counts.values()) == stats[name].cycles
