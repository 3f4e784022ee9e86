"""Simulator workloads: closed loops of fixed-size cycle-simulator runs.

One thread runs repetitions ("reps") back to back until the time budget
is spent.  A rep builds the workload's objects through the public
constructors and runs the cycle loop once; its host wall time is the
rep's latency.  Simulated statistics are deterministic per seed, so
they are checked for exact equality, never measured:

* every rep of a run simulates the same number of cycles;
* ``sim-decoupled``: the vector-lanes run is bit-identical to the
  scalar kernel (device memory, cycles, per-process accounting);
* ``sim-transfer``: the device-memory digest equals :data:`TRANSFER_DIGEST`;
* ``pipeline``: the pipelined run equals the fused one-region run
  (device memory, per-engine aggregates, ``portfolio_total``).

A traced run wraps ``tick`` / ``next_event`` / ``skip_cycles`` on every
process and channel it built, ``run`` on the cycle loop and the class
attribute ``GammaLaneStream.pop``, then reports per-layer self times
(see :mod:`layer_timer`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

from repro.core import DecoupledConfig, DecoupledWorkItems, GammaKernelConfig
from repro.core.decoupled import build_transfer_only_region
from repro.core.lanes import GammaLaneStream
from repro.core.pricing import (
    PricingPipelineConfig,
    build_pricing_pipeline,
    run_pricing_pipeline,
)
from repro.obs import ChromeTracer, percentile

import host_speed
import metrics
from layer_timer import LayerTimer, calibrate

__all__ = ["DecoupledWorkload", "TransferWorkload", "PipelineWorkload", "run_sim"]

#: blake2b of the Fig 7 transfers-only device memory (6 x 8192 dummy
#: floats, burst_words=1); the dummy sources ignore the seed
TRANSFER_DIGEST = "671566608944e2c3f526e7e931cb20ed"

_SECTOR_VARIANCES = (1.39, 0.5)


def _digest(memory) -> str:
    return hashlib.blake2b(
        memory.as_float_array().tobytes(), digest_size=16
    ).hexdigest()


class DecoupledWorkload:
    """Listing 1 on the vector-lanes path that sweeps use."""

    name = "sim-decoupled"

    def __init__(self, seed: int, limit_main: int = 2048, n_work_items: int = 6):
        self.config = DecoupledConfig(
            n_work_items=n_work_items,
            kernel=GammaKernelConfig(
                limit_main=limit_main,
                sector_variances=_SECTOR_VARIANCES,
                seed=seed,
            ),
            vector_lanes=True,
        )

    def build(self):
        return DecoupledWorkItems(self.config)

    def parts(self, built):
        """(processes, channels, object whose ``run`` is the cycle loop)."""
        region = built.region
        return region.processes, region.memory_channels, region

    def run(self, built):
        """Returns (simulated cycles, skipped cycles)."""
        return built.run().cycles, built.region.skipped_cycles

    def check(self, built) -> list[str]:
        scalar = DecoupledWorkItems(
            dataclasses.replace(self.config, vector_lanes=False)
        )
        scalar.run()
        lanes, ref = built.region, scalar.region
        failures = []
        if _digest(built.memory) != _digest(scalar.memory):
            failures.append("lanes device memory differs from the scalar kernel")
        if lanes.skipped_cycles != ref.skipped_cycles:
            failures.append("lanes skipped cycles differ from the scalar kernel")
        stats = [
            {p.name: vars(p.stats) for p in r.processes} for r in (lanes, ref)
        ]
        if stats[0] != stats[1]:
            failures.append("lanes process accounting differs from the scalar kernel")
        return failures


class TransferWorkload:
    """Fig 7 transfers-only region: channel-bound, no kernel math."""

    name = "sim-transfer"

    def __init__(self, seed: int, values_per_item: int = 8192, n_work_items: int = 6):
        self.values_per_item = values_per_item
        self.n_work_items = n_work_items

    def build(self):
        return build_transfer_only_region(
            self.n_work_items, self.values_per_item, burst_words=1, stream_depth=2
        )

    def parts(self, built):
        region = built[0]
        return region.processes, region.memory_channels, region

    def run(self, built):
        region = built[0]
        return region.run().cycles, region.skipped_cycles

    def check(self, built) -> list[str]:
        if (self.n_work_items, self.values_per_item) != (6, 8192):
            return []  # the digest is pinned for the benchmark size only
        digest = _digest(built[1])
        if digest != TRANSFER_DIGEST:
            return [f"device-memory digest {digest} != pinned {TRANSFER_DIGEST}"]
        return []


class PipelineWorkload:
    """RNG -> pricing -> aggregation regions joined by pipes.

    A rep is the pipelined branch of ``run_pricing_pipeline``: build the
    graph, then run one :class:`~repro.core.pipes.MultiRegionRunner`.
    The rep calls the two steps itself so a traced rep can wrap the
    objects in between.
    """

    name = "pipeline"

    def __init__(self, seed: int, limit_main: int = 1024, n_work_items: int = 4):
        self.config = PricingPipelineConfig(
            n_work_items=n_work_items,
            kernel=GammaKernelConfig(
                limit_main=limit_main,
                sector_variances=_SECTOR_VARIANCES,
                seed=seed,
            ),
        )

    def build(self):
        build = build_pricing_pipeline(self.config)
        return build, build.runner

    def parts(self, built):
        build, runner = built
        processes = tuple(p for r in build.graph.regions for p in r.processes)
        return processes, tuple(build.channels), runner

    def run(self, built):
        _build, runner = built
        return runner.run().cycles, runner.skipped_cycles

    def check(self, built) -> list[str]:
        build, _runner = built
        fused = run_pricing_pipeline(self.config, mode="fused")
        failures = []
        if _digest(build.memory) != _digest(fused.memory):
            failures.append("pipelined device memory differs from fused")
        totals = [e.total for e in build.aggregate_engines]
        if totals != fused.aggregate_totals or sum(totals) != fused.portfolio_total:
            failures.append("pipelined portfolio_total differs from fused")
        return failures


WORKLOADS = {
    w.name: w for w in (DecoupledWorkload, TransferWorkload, PipelineWorkload)
}

#: warm-up sizes: small enough to cost milliseconds, large enough to
#: take every code path (lane refills, skips, every process class)
_WARMUP = {
    "sim-decoupled": {"limit_main": 256, "n_work_items": 2},
    "sim-transfer": {"values_per_item": 256, "n_work_items": 2},
    "pipeline": {"limit_main": 256, "n_work_items": 2},
}


def _instrument(timer: LayerTimer, processes, channels, loop) -> None:
    for obj in (*processes, *channels):
        obj.tick = timer.wrap(f"core.tick.{type(obj).__name__}", obj.tick)
        obj.next_event = timer.wrap("core.fastpath.next_event", obj.next_event)
        obj.skip_cycles = timer.wrap("core.fastpath.skip_cycles", obj.skip_cycles)
    loop.run = timer.wrap("core.loop", loop.run)


def _rep(workload, timer: LayerTimer | None = None):
    """One rep: returns (host wall ns, cycles, skipped cycles, built)."""
    t0 = perf_counter_ns()
    built = workload.build() if timer is None else timer.wrap("core.build", workload.build)()
    t1 = perf_counter_ns()
    if timer is not None:
        _instrument(timer, *workload.parts(built))
    t2 = perf_counter_ns()
    cycles, skipped = workload.run(built)
    return (t1 - t0) + (perf_counter_ns() - t2), cycles, skipped, built


class Rep(NamedTuple):
    wall_ns: int  # host wall time of build + run
    norm_ms: float  # the same at nominal host speed (see host_speed)
    cycles: int
    skipped: int
    layers_before: dict | None  # traced reps: self ns per layer before it


def _reps(workload, seconds: float, timer: LayerTimer | None = None):
    """Reps back to back until ``seconds`` pass (at least one), each
    between two host-speed samples.  Returns the reps and the objects
    the last one built (earlier ones are dropped, so memory stays flat)."""
    out = []
    ref = host_speed.reference_ms()
    deadline = time.monotonic() + seconds
    while not out or time.monotonic() < deadline:
        before = {k: v[2] for k, v in timer.stats.items()} if timer else None
        wall, cycles, skipped, built = _rep(workload, timer)
        ref_after = host_speed.reference_ms()
        norm_ms = host_speed.normalize(wall / 1e6, (ref + ref_after) / 2)
        out.append(Rep(wall, norm_ms, cycles, skipped, before))
        ref = ref_after
    return out, built


def run_sim(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    setup_only: bool = False,
    out_dir: Path | None = None,
    **size,
) -> dict:
    """Run one simulator workload; :mod:`child` describes the result."""
    cls = WORKLOADS[name]
    workload = cls(seed, **size)
    _rep(cls(seed, **_WARMUP[name]))  # lazy imports, numpy and MT set-up
    overhead = calibrate() if trace else None
    setup_done_at = time.monotonic()
    if setup_only:
        return {"setup_done_at": setup_done_at}

    budget = seconds / 2 if trace else seconds
    plain, last = _reps(workload, budget)
    peak = metrics.peak_rss_mb()
    traced, timer = [], None
    if trace:
        timer = LayerTimer(overhead)
        original_pop = GammaLaneStream.pop
        GammaLaneStream.pop = timer.wrap("core.lanes.pop", original_pop)
        try:
            traced, _ = _reps(workload, budget, timer)
        finally:
            GammaLaneStream.pop = original_pop

    failures = []
    cycle_counts = {rep.cycles for rep in plain + traced}
    if len(cycle_counts) != 1:
        failures.append(f"cycle counts differ across reps: {sorted(cycle_counts)}")
    failures += workload.check(last)

    raw_ms = [rep.wall_ns / 1e6 for rep in plain]
    norm_ms = [rep.norm_ms for rep in plain]
    cycles = plain[0].cycles
    report = [
        f"{name}: {len(plain)} untraced reps, {cycles} simulated cycles/rep, "
        f"{plain[0].skipped} skipped",
        f"rep wall ms: median {statistics.median(raw_ms):.1f} "
        f"min {min(raw_ms):.1f} max {max(raw_ms):.1f}; at nominal host "
        f"speed: median {statistics.median(norm_ms):.1f} "
        f"p90 {percentile(norm_ms, 0.90):.1f} (n={len(norm_ms)})",
    ]
    if trace:
        values, lines, sum_ok = _layer_metrics(
            timer, plain, traced, cycles, name, out_dir
        )
        report += lines
        if not sum_ok:
            failures.append("traced self times do not sum to the traced wall time")
    else:
        values = {
            "peak_rss_mb": peak,
            "ops_per_s": cycles / (statistics.median(norm_ms) / 1e3),
        }
    report += [f"CHECK FAILED: {f}" for f in failures]
    attempted = len(plain) + len(traced) + 2  # + cycle and oracle checks
    return {
        "setup_done_at": setup_done_at,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": values,
        "report": report,
    }


def _layer_metrics(timer, plain, traced, cycles, name, out_dir):
    reps = len(traced)
    values = {}
    for cls in metrics.SIM_CLASSES:
        calls = timer.calls(f"core.tick.{cls}")
        if calls:
            values[f"core.tick_ns.{cls}"] = timer.self_ns(f"core.tick.{cls}") / calls
            values[f"core.ticks.{cls}"] = calls / reps
    pops = timer.calls("core.lanes.pop")
    if pops:
        values["core.lanes.pop_ns"] = timer.self_ns("core.lanes.pop") / pops
        values["core.lanes.pops"] = pops / reps
    probes = timer.calls("core.fastpath.next_event")
    if probes:
        values["core.fastpath.probe_ns"] = (
            timer.self_ns("core.fastpath.next_event") / probes
        )
    values["core.fastpath.skip_s"] = (
        timer.self_ns("core.fastpath.skip_cycles") / reps / 1e9
    )
    values["core.fastpath.skipped_frac"] = plain[0].skipped / cycles
    values["core.loop.self_frac"] = timer.self_ns("core.loop") / timer.total_ns(
        "core.loop"
    )
    values["trace.overhead_frac"] = (
        statistics.median(rep.norm_ms for rep in traced)
        / statistics.median(rep.norm_ms for rep in plain)
        - 1.0
    )

    wall_ns = sum(rep.wall_ns for rep in traced)
    attributed = timer.attributed_ns()
    wrappers = sum(calls for calls, *_ in timer.stats.values()) * timer.overhead.total_ns
    sum_frac = attributed / wall_ns
    lines = [
        f"traced: {reps} reps, overhead {100 * values['trace.overhead_frac']:.0f}%, "
        f"wrapper cost {timer.overhead.inside_ns:.0f}+{timer.overhead.outside_ns:.0f} "
        f"ns/call",
        f"self times + wrapper cost = {100 * sum_frac:.1f}% of traced wall "
        f"(wrappers {100 * wrappers / wall_ns:.0f}%)",
    ]
    for layer, (calls, _total, self_ns) in sorted(timer.stats.items()):
        lines.append(
            f"  {layer:<42} {calls:>10} calls {self_ns / wall_ns:7.1%} of wall"
        )
    if out_dir is not None:
        _export(timer, traced, name, Path(out_dir))
    return values, lines, abs(sum_frac - 1.0) <= metrics.SELF_SUM_TOLERANCE


def _export(timer, traced, name, out_dir: Path) -> None:
    """One Chrome trace: per traced rep, its wall span and one span per
    layer holding that layer's self time in the rep, laid end to end."""
    tracer = ChromeTracer()
    rep_track = tracer.track(name, "rep")
    layer_track = tracer.track(name, "self time by layer")
    ts = 0.0
    totals = {k: v[2] for k, v in timer.stats.items()}
    for i, rep in enumerate(traced):
        after = traced[i + 1].layers_before if i + 1 < len(traced) else totals
        tracer.complete(rep_track, f"rep{i}", ts_us=ts, dur_us=rep.wall_ns / 1e3)
        at = ts
        for layer in sorted(after):
            self_us = (after[layer] - rep.layers_before.get(layer, 0.0)) / 1e3
            tracer.complete(layer_track, layer, ts_us=at, dur_us=self_us)
            at += self_us
        ts += rep.wall_ns / 1e3
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.export(str(out_dir / f"{name}.trace.json"))
