"""Tests of the benchmark itself: tiny workloads, stamping, errors, self times."""

import asyncio
import json
import time
from pathlib import Path

import numpy as np
import pytest

import metrics
import serve_workloads
import sim_workloads
from layer_timer import LayerTimer, calibrate
from repro.serve import WorkloadSpec, generate_trace

ROOT = Path(__file__).resolve().parents[2]

TINY_SIM = {
    "sim-decoupled": {"limit_main": 128, "n_work_items": 2},
    "sim-transfer": {"values_per_item": 512, "n_work_items": 2},
    "pipeline": {"limit_main": 128, "n_work_items": 2},
}


def _end_to_end(result):
    """The untraced metrics as ``run.py`` reports them (it adds setup_s)."""
    return metrics.render({**result["metrics"], "setup_s": 1.0}, trace=False)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("name", sorted(TINY_SIM))
def test_sim_workload_metrics_and_checks(name, tmp_path):
    plain = sim_workloads.run_sim(name, 3, 0.05, **TINY_SIM[name])
    assert plain["correct"], plain["report"]
    rendered = _end_to_end(plain)
    assert {k: v["unit"] for k, v in rendered.items()} == metrics.units(False)
    assert all(v["value"] > 0 for v in rendered.values())

    traced = sim_workloads.run_sim(
        name, 3, 0.1, trace=True, out_dir=tmp_path, **TINY_SIM[name]
    )
    # correct includes the self-time sum check
    assert traced["correct"], traced["report"]
    assert set(traced["metrics"]) <= set(metrics.units(True))
    assert traced["metrics"]["core.loop.self_frac"] > 0
    trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
    assert any(e.get("name") == "core.loop" for e in trace["traceEvents"])


def test_transfer_digest_is_checked():
    workload = sim_workloads.TransferWorkload(1)
    built = workload.build()
    workload.run(built)
    assert workload.check(built) == []
    built[1].write_word(0, 1)  # one corrupted word of device memory
    assert workload.check(built)


def test_self_times_sum_to_wall_time():
    timer = LayerTimer(calibrate(n=5_000, rounds=3))

    def leaf(i):
        return sum(range(i % 50))

    def parent(n):
        for i in range(n):
            leaf(i)

    leaf = timer.wrap("leaf", leaf)
    parent = timer.wrap("parent", parent)
    t0 = time.perf_counter_ns()
    parent(20_000)
    wall = time.perf_counter_ns() - t0
    assert timer.calls("leaf") == 20_000
    assert 0 < timer.self_ns("parent") < timer.total_ns("parent")
    assert abs(timer.attributed_ns() / wall - 1.0) <= metrics.SELF_SUM_TOLERANCE


class _EarlyGateway:
    """Resolves request 0 after 1 ms and every later request after 300 ms."""

    def __init__(self):
        self.calls = 0

    async def submit(self, tenant, job):
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        delay = 0.001 if self.calls == 0 else 0.3
        self.calls += 1
        loop.call_later(delay, future.set_result, _Result(np.zeros(job, np.float32)))
        return future


class _Result:
    def __init__(self, payload):
        self.payload = payload


def test_completion_is_stamped_when_the_future_resolves():
    events = generate_trace(WorkloadSpec(seed=1, n_jobs=2, rate_jps=5.0))
    # request 0 resolves long before request 1 is even sent, and long
    # before the loop gets round to awaiting it
    assert events[1].t - events[0].t > 0.01
    requests = asyncio.run(
        serve_workloads.open_loop(
            _EarlyGateway(), events, lambda event, req: event.n_samples
        )
    )
    first = requests[0]
    assert first.outcome == "ok"
    assert first.latency < 0.05
    assert requests[1].latency >= 0.3


def test_serve_workload_metrics():
    result = serve_workloads.run_serve("serve-small", 5, 0.4)
    assert result["correct"], result["report"]
    assert result["failed"] == 0
    rendered = _end_to_end(result)
    assert {k: v["unit"] for k, v in rendered.items()} == metrics.units(False)
    assert all(v["value"] > 0 for v in rendered.values())


def test_serve_traced_hops_sum_to_latency(tmp_path):
    result = serve_workloads.run_serve("serve-small", 5, 0.6, trace=True, out_dir=tmp_path)
    assert result["correct"], result["report"]
    assert result["metrics"]["serve.gateway.admit_us"] > 0
    assert result["metrics"]["engine.batch.count"] > 0
    trace = json.loads((tmp_path / "serve-small.trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"queue", "execute", "resolve"}
    assert all("index" in e["args"] for e in spans)


def test_wrong_payloads_count_as_failures():
    seed, seconds = 5, 0.4
    n_events = max(4, round(serve_workloads.SPECS["serve-small"].rate_jps * seconds))
    sampled = sorted(serve_workloads.sampled_indices(n_events, seed))
    short, subtle = 0 if sampled[0] else 1, sampled[0]

    def make_job(event, req):
        job = serve_workloads.job_from_event(event)
        if event.index == short:  # wrong length: caught on completion
            job.compute = lambda: np.zeros(3, np.float32)
        elif event.index == subtle:  # right shape, wrong values: caught
            job.compute = lambda: np.zeros(event.n_samples, np.float32)
        return job

    result = serve_workloads.run_serve("serve-small", seed, seconds, make_job=make_job)
    assert not result["correct"]
    assert result["failed"] == 2
    assert any("recomputed payload differs" in line for line in result["report"])
