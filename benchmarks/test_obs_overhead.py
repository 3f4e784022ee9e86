"""Observability overhead: disabled tracing must stay near-free.

The acceptance bar for the tracing layer: with the default
:class:`~repro.obs.NullTracer`, ``DataflowRegion.run`` adds < 10%
runtime over a re-implementation of the bare pre-instrumentation loop.
The tracer is resolved once per run (one ``get_tracer()``/``enabled``
check); past that, an untraced run pays one flag check per ticked
process and one per loop cycle.  A loop cycle of the fast path ticks
only the awake processes of its wake calendar and never a memory
channel, where the bare loop ticks every process and channel.  A traced
run takes the same calendar and classifies each tick, so its cost is
bounded against the untraced run's.
"""

import time

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.kernel import GammaKernelConfig
from repro.obs import ChromeTracer


def _build():
    return DecoupledWorkItems(
        DecoupledConfig(
            n_work_items=4,
            burst_words=1,
            kernel=GammaKernelConfig(limit_main=256),
        )
    )


def _bare_loop(region, max_cycles=100_000_000):
    """The seed repo's uninstrumented run loop, verbatim."""
    ordered = region._validate()
    cycle = 0
    while True:
        live = [p for p in ordered if not p.done()]
        if not live:
            break
        if cycle >= max_cycles:
            raise RuntimeError("runaway")
        progressed = False
        for proc in live:
            if proc.tick(cycle):
                progressed = True
        for channel in region._memory_channels:
            if channel.tick(cycle):
                progressed = True
        if not progressed:
            raise RuntimeError("deadlock")
        cycle += 1
    return cycle


def _best_of(f, n=5):
    times = []
    for _ in range(n):
        sim = _build()
        t0 = time.perf_counter()
        f(sim)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_disabled_tracing_under_ten_percent():
    baseline = _best_of(lambda sim: _bare_loop(sim.region))
    disabled = _best_of(lambda sim: sim.region.run())
    overhead = disabled / baseline - 1.0
    print(
        f"\nbare {1e3 * baseline:.2f} ms, "
        f"disabled-tracing {1e3 * disabled:.2f} ms, "
        f"overhead {100 * overhead:+.1f}%"
    )
    assert disabled < baseline * 1.10, (
        f"disabled tracing costs {100 * overhead:.1f}% (> 10%)"
    )


def test_enabled_tracing_cost_is_bounded():
    """Classifying each tick costs real time, but a traced run parks
    and jumps like an untraced one: keep it within 4x plus 10 ms."""
    baseline = _best_of(lambda sim: sim.region.run(), n=3)
    traced = _best_of(
        lambda sim: sim.region.run(tracer=ChromeTracer()), n=3
    )
    print(
        f"\nuntraced {1e3 * baseline:.2f} ms, "
        f"traced {1e3 * traced:.2f} ms "
        f"({traced / baseline:.1f}x)"
    )
    assert traced < baseline * 4 + 0.01


def test_region_results_identical_with_and_without_tracing():
    plain = _build().region.run()
    traced = _build().region.run(tracer=ChromeTracer())
    assert traced.cycles == plain.cycles
    assert traced.stream_stats == plain.stream_stats
