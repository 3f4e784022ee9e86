"""Differential bit-identity: vectorized lanes vs the scalar kernel.

The contract of :mod:`repro.core.lanes` is *bit-for-bit equivalence*:
the lanes that :func:`~repro.core.lanes.gamma_process` builds by
default must produce the same device memory contents, the same
reports (cycles, per-process buckets, stream counters), the same RNG
statistics, and the same produced values as the scalar
``GammaRNGProcess`` that ``DecoupledConfig(vector_lanes=False)`` builds
— across sector counts, exit-condition styles, gated-MT ablations,
``break_id`` depths, and Mersenne-Twister parameterizations.  The
pricing network gets the same check in all three of its modes, with
its scalar side built by substituting the construction point.

Every comparison asserts the class each side built, so it can never
compare lanes with lanes.
"""

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.pricing as pricing
from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.kernel import ADVANCE, TRANSFORMS, GammaKernelConfig, GammaRNGProcess
from repro.core.lanes import GammaLaneStream, VectorGammaRNGProcess, gamma_process
from repro.core.pricing import run_pricing_pipeline
from repro.core.stream import Stream
from repro.rng.mersenne import MT521_PARAMS

from .test_fastpath_equivalence import (
    PIPELINE_CONFIGS,
    channel_fields,
    pipeline_report_fields,
    report_fields,
)

#: the four facade twisters of one gamma work-item (Fig 4)
MT_ROLES = ("mt_norm_a", "mt_norm_b", "mt_reject", "mt_correct")

LANE_CONFIGS = {
    "default": DecoupledConfig(
        n_work_items=3, kernel=GammaKernelConfig(limit_main=64)
    ),
    "multi_sector": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, sector_variances=(1.39, 0.5, 2.0)),
    ),
    "low_variance_unboosted": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, sector_variances=(0.7,)),
    ),
    "naive_exit": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, use_delayed_counter=False),
    ),
    "naive_mt": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, adapted_mt=False),
    ),
    "break_id2": DecoupledConfig(
        n_work_items=2, kernel=GammaKernelConfig(limit_main=64, break_id=2)
    ),
    "depth1_streams": DecoupledConfig(
        n_work_items=2, kernel=GammaKernelConfig(limit_main=64), stream_depth=1
    ),
    "two_channels": DecoupledConfig(
        n_work_items=4, kernel=GammaKernelConfig(limit_main=64), n_channels=2
    ),
    "mt521": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, mt_params=MT521_PARAMS),
    ),
    "mt_family": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(
            limit_main=64, mt_params=MT521_PARAMS, mt_family=True
        ),
    ),
}


#: kernels whose sectors run 1,100 to 5,200 iterations: several lane
#: windows per work-item and several twists of every MT19937 twister
#: (``LANE_CONFIGS`` sectors fit one small window and no twister
#: twists twice)
LONG_KERNELS = {
    # more iterations than one window holds
    "past_one_window": GammaKernelConfig(limit_main=4000, sector_variances=(1.39,)),
    "boosted_three_sectors": GammaKernelConfig(
        limit_main=2048, sector_variances=(1.39, 0.5, 2.0)
    ),
    "unboosted_two_sectors": GammaKernelConfig(
        limit_main=1024, sector_variances=(0.7, 0.5)
    ),
    # the cap ends every sector well before its 1,024th accept
    "capped": GammaKernelConfig(
        limit_main=1024, limit_max=1100, sector_variances=(1.39, 0.5)
    ),
    "break_id2_naive_mt": GammaKernelConfig(
        limit_main=1024, break_id=2, adapted_mt=False, sector_variances=(1.39, 0.5)
    ),
    "naive_exit": GammaKernelConfig(
        limit_main=1024, use_delayed_counter=False, sector_variances=(1.39, 0.5)
    ),
    "mt521": GammaKernelConfig(
        limit_main=1024, mt_params=MT521_PARAMS, sector_variances=(1.39, 0.5)
    ),
}


def assert_built(kernels, cls):
    assert kernels and all(type(k) is cls for k in kernels), [
        type(k).__name__ for k in kernels
    ]


def facade_counts(kernel):
    """The steps/held gating counters of every facade twister."""
    return [
        (getattr(kernel, role).steps, getattr(kernel, role).held) for role in MT_ROLES
    ]


def kernel_fields(kernel):
    """Produced values (exact floats), iteration counters and the
    steps/held gating counters of every facade twister."""
    return (
        kernel.produced,
        kernel.attempts,
        kernel.accepts,
        kernel.overrun_iterations,
        facade_counts(kernel),
    )


def run_pair(config, fast_path=True):
    scalar = DecoupledWorkItems(
        dataclasses.replace(config, vector_lanes=False)
    )
    vector = DecoupledWorkItems(
        dataclasses.replace(config, vector_lanes=True)
    )
    assert_built(scalar.kernels, GammaRNGProcess)
    assert_built(vector.kernels, VectorGammaRNGProcess)
    return (
        (scalar, scalar.run(fast_path=fast_path)),
        (vector, vector.run(fast_path=fast_path)),
    )


@pytest.mark.parametrize("name", sorted(LANE_CONFIGS))
def test_lane_configs_bit_identical(name):
    (s_items, s_res), (v_items, v_res) = run_pair(LANE_CONFIGS[name])
    assert report_fields(s_res.report) == report_fields(v_res.report)
    assert channel_fields(s_items.region) == channel_fields(v_items.region)
    assert (
        s_res.memory.as_float_array() == v_res.memory.as_float_array()
    ).all()
    assert [kernel_fields(k) for k in s_items.kernels] == [
        kernel_fields(k) for k in v_items.kernels
    ]
    for s_k, v_k in zip(s_items.kernels, v_items.kernels):
        assert s_k.measured_rejection_rate == v_k.measured_rejection_rate


def mainloop_records(kernel) -> list:
    """Every record of ``kernel``'s MAINLOOP, with the sector state
    stepped as ``tick`` steps it."""
    records = []
    while not kernel.done():
        record = kernel._next_record()
        records.append(record)
        if record is ADVANCE:
            kernel._advance_sector()
        else:
            kernel._k += 1
    return records


def assert_records_match(config) -> list:
    """Lane records equal the scalar ``_next_record`` one for one, and
    so do the steps/held counts of every facade twister."""
    scalar = GammaRNGProcess("scalar", 0, config, Stream("s", depth=1))
    lanes = VectorGammaRNGProcess("lanes", 0, config, Stream("v", depth=1))
    records = mainloop_records(scalar)
    assert mainloop_records(lanes) == records
    assert facade_counts(scalar) == facade_counts(lanes)
    return records


@pytest.mark.parametrize("name", sorted(LONG_KERNELS))
def test_long_sectors_record_for_record(name):
    config = LONG_KERNELS[name]
    iterations = len(assert_records_match(config)) - config.sectors
    if config.limit_max is not None:
        assert iterations == config.sectors * config.limit_max
    else:
        assert iterations > config.sectors * config.limit_main


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    limit_main=st.integers(1, 160),
    variances=st.lists(st.sampled_from((1.39, 0.5, 2.0, 0.7)), min_size=1, max_size=3),
    headroom=st.none() | st.integers(0, 200),
    break_id=st.integers(0, 9),
    delayed=st.booleans(),
    adapted=st.booleans(),
    mt521=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_prop_short_sectors_record_for_record(
    limit_main, variances, headroom, break_id, delayed, adapted, mt521, seed
):
    """Small quotas take the window sizing's corners: a window short of
    the quota is followed by another, and one that ends inside the
    delayed counter's lag by a window of the lag alone."""
    assert_records_match(
        GammaKernelConfig(
            limit_main=limit_main,
            sector_variances=tuple(variances),
            limit_max=None if headroom is None else limit_main + headroom,
            break_id=break_id,
            use_delayed_counter=delayed,
            adapted_mt=adapted,
            mt_params=MT521_PARAMS if mt521 else GammaKernelConfig().mt_params,
            seed=seed,
        )
    )


def test_gated_twister_statistics_identical():
    """steps/held of every facade twister match the scalar gating."""
    (s_items, _), (v_items, _) = run_pair(LANE_CONFIGS["default"])
    for s_k, v_k in zip(s_items.kernels, v_items.kernels):
        for role in MT_ROLES:
            s_mt, v_mt = getattr(s_k, role), getattr(v_k, role)
            assert (s_mt.steps, s_mt.held) == (v_mt.steps, v_mt.held)
            assert s_mt.hold_fraction == v_mt.hold_fraction


def test_vector_lanes_on_reference_loop_identical():
    """Bit-identity holds on the reference loop too (no fast path)."""
    (s_items, s_res), (v_items, v_res) = run_pair(
        LANE_CONFIGS["default"], fast_path=False
    )
    assert report_fields(s_res.report) == report_fields(v_res.report)
    assert s_items.region.skipped_cycles == 0
    assert v_items.region.skipped_cycles == 0


class OwnTickPricer(pricing.PricingProcess):
    """A pricer with its own ``tick``: its work-item keeps per-tick
    stepping instead of fusing into one tree."""

    def tick(self, cycle):
        return super().tick(cycle)


def test_vector_process_keeps_fast_path_hints():
    """The lanes kernel's own ``next_event`` hints park it.

    Run on the transfer-bound pricing pipeline with every pricer's
    ``tick`` overridden, so no work-item fuses and the kernels block and
    tick: they are skipped through their hints alone.  They park, and
    the fast path ticks them less than the reference loop does, with an
    identical report.  A kernel whose hints returned None would never
    park.
    """
    from repro.core.pricing import build_pricing_pipeline
    from repro.harness.pipelines import TRANSFER_BOUND_CONFIG

    def run(fast):
        build = build_pricing_pipeline(TRANSFER_BOUND_CONFIG)
        assert_built(build.kernels, VectorGammaRNGProcess)
        for pricer in build.pricers:
            pricer.__class__ = OwnTickPricer
        ticks, parks = [0], [0]
        for kernel in build.kernels:

            def tick(cycle, _tick=kernel.tick):
                ticks[0] += 1
                return _tick(cycle)

            def next_event(cycle, _next_event=kernel.next_event):
                event = _next_event(cycle)
                parks[0] += event is not None
                return event

            kernel.tick = tick
            kernel.next_event = next_event
        report = build.runner.run(fast_path=fast)
        return ticks[0], parks[0], pipeline_report_fields(report)

    ref_ticks, _, ref_fields = run(fast=False)
    fast_ticks, parks, fast_fields = run(fast=True)
    assert parks > 0
    assert fast_ticks < ref_ticks
    assert fast_fields == ref_fields


def test_vector_lanes_instrumented_run_consistent():
    from repro.obs.stall import StallAttribution

    vector = DecoupledWorkItems(LANE_CONFIGS["default"])
    assert_built(vector.kernels, VectorGammaRNGProcess)
    attribution = StallAttribution(vector.region.name)
    report = vector.region.run(attribution=attribution)
    assert report.stall_report.consistent_with(report.process_stats) == []


def test_vector_lanes_rejects_other_transforms():
    """Lanes replay marsaglia_bray only.  At the default every other
    transform builds the scalar kernel; ``vector_lanes=False`` builds
    the scalar kernel for every transform."""
    for transform in TRANSFORMS:
        config = DecoupledConfig(
            n_work_items=2,
            kernel=GammaKernelConfig(transform=transform, limit_main=64),
        )
        assert_built(
            DecoupledWorkItems(config).kernels,
            VectorGammaRNGProcess
            if transform == "marsaglia_bray"
            else GammaRNGProcess,
        )
        assert_built(
            DecoupledWorkItems(
                dataclasses.replace(config, vector_lanes=False)
            ).kernels,
            GammaRNGProcess,
        )
    with pytest.raises(ValueError, match="marsaglia_bray"):
        GammaLaneStream(
            GammaKernelConfig(transform="box_muller", limit_main=64), ()
        )


def test_vector_process_direct_construction():
    """The process is usable standalone, like GammaRNGProcess."""
    sink = Stream("out", depth=4)
    proc = VectorGammaRNGProcess(
        "k", 0, GammaKernelConfig(limit_main=64), sink
    )
    cycle = 0
    while not proc.done():
        proc.tick(cycle)
        while not sink.empty():
            sink.read()
        cycle += 1
    assert proc.outputs_produced == 64
    assert len(proc.produced) == 64


# ---------------------------------------------------------------------------
# the pricing network: lanes vs the substituted scalar construction point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["pipelined", "fused", "sequential"])
@pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
def test_pricing_network_lanes_bit_identical(name, mode, monkeypatch):
    """Every pricing mode: lanes == the scalar kernel, field for field."""
    config = PIPELINE_CONFIGS[name]
    lanes = run_pricing_pipeline(config, mode=mode)
    monkeypatch.setattr(
        pricing, "gamma_process", partial(gamma_process, lanes=False)
    )
    scalar = run_pricing_pipeline(config, mode=mode)
    assert_built(lanes.build.kernels, VectorGammaRNGProcess)
    assert_built(scalar.build.kernels, GammaRNGProcess)

    fields = report_fields if mode == "fused" else pipeline_report_fields
    assert fields(scalar.report) == fields(lanes.report)
    assert scalar.skipped_cycles == lanes.skipped_cycles
    assert [vars(c.stats) for c in scalar.build.channels] == [
        vars(c.stats) for c in lanes.build.channels
    ]
    assert (
        scalar.memory.as_float_array().tobytes()
        == lanes.memory.as_float_array().tobytes()
    )
    assert scalar.aggregate_totals == lanes.aggregate_totals  # exact floats
    assert [kernel_fields(k) for k in scalar.build.kernels] == [
        kernel_fields(k) for k in lanes.build.kernels
    ]
