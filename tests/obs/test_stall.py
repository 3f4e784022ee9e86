"""Stall attribution: classification, the Fig 3 overlap, trace round-trip."""

import pytest

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.kernel import GammaKernelConfig
from repro.core.schedule import trace_region
from repro.obs import ChromeTracer, use_tracer
from repro.obs.stall import (
    COMPUTE,
    FIFO_EMPTY,
    FIFO_FULL,
    MEMORY,
    STATES,
    TRANSFER,
    StallAttribution,
    StallReport,
    report_from_trace,
    reports_from_trace,
)


def _run_traced(n_work_items=4, limit_main=64, stream_depth=2):
    tracer = ChromeTracer()
    sim = DecoupledWorkItems(
        DecoupledConfig(
            n_work_items=n_work_items,
            burst_words=1,
            stream_depth=stream_depth,
            kernel=GammaKernelConfig(limit_main=limit_main),
        )
    )
    report = sim.region.run(tracer=tracer)
    return tracer, report


class TestAttribution:
    def test_record_and_report(self):
        att = StallAttribution("r")
        for c in range(4):
            att.record_cycle(
                c,
                {"a": COMPUTE if c % 2 == 0 else FIFO_EMPTY, "b": TRANSFER},
                [True],
            )
        rep = att.report()
        assert rep.cycles == 4
        assert rep.per_process["a"] == {COMPUTE: 2, FIFO_EMPTY: 2}
        assert rep.per_process["b"] == {TRANSFER: 4}
        assert rep.channel_busy_cycles == [4]
        assert rep.overlap_cycles == 2
        assert rep.overlap_fraction() == 0.5

    def test_unchanged_states_may_be_left_out(self):
        """Recording ``a`` only at the cycles where its state changes
        credits each of its windows for its whole length: the report,
        lanes and spans equal those of recording it every cycle."""
        a = [COMPUTE] * 3 + [FIFO_FULL] * 4 + [COMPUTE] * 2 + [TRANSFER] * 3
        b = [FIFO_EMPTY, COMPUTE] * 6
        busy = [False] * 2 + [True] * 5 + [False] * 3 + [True] * 2
        runs = []
        for sparse in (False, True):
            tracer = ChromeTracer()
            att = StallAttribution("r", tracer=tracer, keep_lanes=True)
            for c in range(len(a)):
                states = {"a": a[c], "b": b[c]}
                if sparse and c and a[c] == a[c - 1]:
                    del states["a"]
                att.record_cycle(c, states, [busy[c]])
            runs.append((att.report().to_dict(), att.lanes, tracer.to_dict()))
        assert runs[0] == runs[1]
        report = runs[1][0]
        assert report["per_process"]["a"] == {COMPUTE: 5, FIFO_FULL: 4, TRANSFER: 3}
        assert report["channel_busy_cycles"] == [7]
        assert report["compute_cycles"] == 9
        assert report["overlap_cycles"] == 4

    def test_live_cycles_partition(self):
        """Every live cycle of every process lands in exactly one class."""
        _, report = _run_traced()
        stall = report.stall_report
        for name, counts in stall.per_process.items():
            assert set(counts) <= set(STATES)
            live = sum(counts.values())
            assert live == report.process_stats[name].cycles, name

    def test_decoupled_region_shows_fig3_overlap(self):
        """>0% compute/transfer overlap — the acceptance criterion."""
        _, report = _run_traced()
        assert report.stall_report.overlap_fraction() > 0.0
        # the transfer engines spend real time contending for the channel
        transfer_waits = sum(
            counts.get(MEMORY, 0)
            for name, counts in report.stall_report.per_process.items()
            if name.startswith("Transfer")
        )
        assert transfer_waits > 0

    def test_shallow_streams_show_write_stalls(self):
        _, report = _run_traced(stream_depth=2)
        fifo_full = sum(
            c.get(FIFO_FULL, 0)
            for c in report.stall_report.per_process.values()
        )
        assert fifo_full > 0

    def test_render_is_a_table(self):
        _, report = _run_traced(n_work_items=2, limit_main=32)
        text = report.stall_report.render()
        assert "stall attribution" in text
        assert "compute/transfer overlap" in text
        for state in STATES:
            assert state in text


class TestTraceRoundTrip:
    def test_report_rebuilt_from_exported_json(self, tmp_path):
        tracer, report = _run_traced()
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        rebuilt = report_from_trace(str(path))
        live = report.stall_report
        assert rebuilt.region == live.region
        assert rebuilt.cycles == live.cycles
        assert rebuilt.per_process == live.per_process
        assert rebuilt.channel_busy_cycles == live.channel_busy_cycles
        assert rebuilt.overlap_cycles == live.overlap_cycles

    def test_repeated_pipeline_runs_get_their_own_reports(self):
        # two traced runs of one graph name used to share a trace
        # process row, so trace-report summed them into one table with
        # the channel busy for more cycles than the table spans
        from repro.core.pricing import (
            PricingPipelineConfig,
            build_pricing_pipeline,
        )

        tracer = ChromeTracer()
        with use_tracer(tracer):
            live = [
                build_pricing_pipeline(PricingPipelineConfig()).runner.run()
                for _ in range(2)
            ]
        rebuilt = reports_from_trace(tracer.to_dict())
        assert [r.region for r in rebuilt] == [
            "pricing_pipeline", "pricing_pipeline #2"
        ]
        for report, run in zip(rebuilt, live):
            assert report.cycles == run.cycles
            assert all(b <= report.cycles for b in report.channel_busy_cycles)
            assert report.per_process == run.stall_report.per_process

    def test_engine_only_trace_has_no_reports(self):
        tracer = ChromeTracer()
        tracer.complete(tracer.track("engine", "jobs"), "job1", 0, 5)
        assert reports_from_trace(tracer.to_dict()) == []
        with pytest.raises(ValueError):
            report_from_trace(tracer.to_dict())

    def test_to_dict_is_jsonable(self):
        _, report = _run_traced(n_work_items=2, limit_main=32)
        d = report.stall_report.to_dict()
        import json

        json.dumps(d)
        assert d["overlap_fraction"] == pytest.approx(
            report.stall_report.overlap_fraction()
        )


class TestScheduleTraceEquivalence:
    def test_lanes_match_attribution_states(self):
        """trace_region's C/T/w/. lanes and the stall report come from
        the same instrumented loop, so they must agree cycle for cycle."""
        sim = DecoupledWorkItems(
            DecoupledConfig(
                n_work_items=2,
                burst_words=1,
                kernel=GammaKernelConfig(limit_main=32),
            )
        )
        with use_tracer(ChromeTracer()):
            trace = trace_region(sim.region)
        stall = trace.report.stall_report
        assert isinstance(stall, StallReport)
        for name, lane in trace.lanes.items():
            assert lane.count("C") == stall.per_process[name].get(COMPUTE, 0)
            assert lane.count("T") == stall.per_process[name].get(TRANSFER, 0)
            assert len(lane) == stall.cycles
