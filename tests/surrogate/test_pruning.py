"""Pruning guarantees: frontier retention and exhaustive equivalence.

Two layers of evidence:

* a Hypothesis property — for *any* grid and any prediction noise
  bounded by ``eps``, a margin of ``margin_for_error(eps)`` never
  prunes a true-Pareto-frontier point;
* differential tests — the pruned sweeps return exactly the same
  recommendation/frontier as their exhaustive counterparts on real
  simulated grids.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.fifo_sizing import advise_stream_depth
from repro.core.kernel import GammaKernelConfig
from repro.core.memory import MemoryChannelConfig
from repro.rng.mersenne import MT521_PARAMS
from repro.surrogate import (
    margin_for_error,
    pareto_indices,
    pruned_candidate_indices,
    pruned_grid_sweep,
    pruned_stream_depth_sweep,
)

BASE = DecoupledConfig(
    n_work_items=2,
    kernel=GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=128),
    burst_words=2,
    channel=MemoryChannelConfig(setup_cycles=40, cycles_per_word=2),
)


# ---------------------------------------------------------------------------
# property: bounded prediction error + derived margin => no frontier loss
# ---------------------------------------------------------------------------

grids = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=1.0, max_value=100.0),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=10.0, max_value=10_000.0),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=n,
            max_size=n,
        ),
        st.floats(min_value=0.0, max_value=0.6),
    )
)


@settings(max_examples=300, deadline=None)
@given(grids)
def test_margin_never_prunes_a_true_frontier_point(grid):
    costs, true_cycles, noise_units, eps = grid
    predicted = [
        t * (1.0 + u * eps) for t, u in zip(true_cycles, noise_units)
    ]
    margin = margin_for_error(eps)
    frontier = set(pareto_indices(costs, true_cycles))
    survivors = set(pruned_candidate_indices(costs, predicted, margin))
    assert frontier <= survivors, (
        f"pruned true-frontier point(s) {sorted(frontier - survivors)} "
        f"with eps={eps} margin={margin}"
    )


def test_pruning_actually_prunes_clear_losers():
    # one cheap fast point; expensive slow points far outside the margin
    costs = [1.0, 2.0, 3.0]
    predicted = [100.0, 500.0, 104.0]
    kept = pruned_candidate_indices(costs, predicted, margin=0.05)
    assert kept == [0, 2]


def test_pareto_weak_dominance_keeps_ties():
    costs = [1.0, 1.0, 2.0, 2.0]
    values = [5.0, 5.0, 5.0, 4.0]
    # the duplicate cheap points both stay; (2, 5) is dominated
    assert pareto_indices(costs, values) == [0, 1, 3]


def test_margin_for_error_validation():
    assert margin_for_error(0.0) == 0.0
    assert margin_for_error(0.1) == pytest.approx(0.2 / 0.9 + 1e-12, rel=1e-9)
    with pytest.raises(ValueError):
        margin_for_error(-0.1)
    with pytest.raises(ValueError):
        margin_for_error(1.0)


# ---------------------------------------------------------------------------
# differential: pruned sweeps == exhaustive sweeps on simulated grids
# ---------------------------------------------------------------------------

DEPTHS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def test_pruned_depth_sweep_matches_exhaustive():
    exhaustive = advise_stream_depth(
        lambda d: DecoupledWorkItems(
            dataclasses.replace(BASE, stream_depth=d)
        ).region,
        depths=DEPTHS,
    )
    pruned = pruned_stream_depth_sweep(BASE, depths=DEPTHS)
    assert pruned.recommended_depth == exhaustive.recommended_depth
    # O(frontier), not O(grid): most depths were never simulated
    assert len(pruned.simulated_depths) < len(DEPTHS)
    # every simulated point agrees with the exhaustive sweep bit-for-bit
    by_depth = {p.depth: p for p in exhaustive.points}
    for point in pruned.points:
        assert point == by_depth[point.depth]


def test_pruned_depth_sweep_zero_margin_still_simulates_calibration():
    pruned = pruned_stream_depth_sweep(BASE, depths=DEPTHS, margin=0.0)
    assert set(pruned.simulated_depths) >= {
        DEPTHS[0], DEPTHS[len(DEPTHS) // 2], DEPTHS[-1]
    }
    assert pruned.margin == 0.0


def test_pruned_depth_sweep_validation():
    with pytest.raises(ValueError):
        pruned_stream_depth_sweep(BASE, depths=(4, 2))
    with pytest.raises(ValueError):
        pruned_stream_depth_sweep(BASE, depths=(2,), tolerance=-1.0)


def _burst_grid():
    base = dataclasses.replace(BASE, n_work_items=4)
    configs, costs = [], []
    for n_channels in (1, 2, 3):
        for burst_words in (1, 2, 4, 8):
            configs.append(
                dataclasses.replace(
                    base, burst_words=burst_words, n_channels=n_channels
                )
            )
            costs.append(
                burst_words * base.n_work_items + 64 * (n_channels - 1)
            )
    return configs, costs


def test_pruned_grid_sweep_matches_exhaustive_frontier():
    configs, costs = _burst_grid()
    exhaustive_cycles = [
        DecoupledWorkItems(c).run().cycles for c in configs
    ]
    true_frontier = set(pareto_indices(costs, exhaustive_cycles))
    pruned = pruned_grid_sweep(configs, costs)
    assert set(pruned.frontier_indices) == true_frontier
    for i, cycles in pruned.simulated_cycles.items():
        assert cycles == exhaustive_cycles[i]
    assert pruned.predicted.shape == (len(configs),)


def test_pruned_grid_sweep_with_injected_simulator():
    configs, costs = _burst_grid()
    calls = []

    def counting_simulate(config):
        calls.append(config)
        return DecoupledWorkItems(config).run()

    pruned = pruned_grid_sweep(configs, costs, simulate=counting_simulate)
    assert len(calls) == len(pruned.candidate_indices)
    assert np.all(np.isfinite(pruned.predicted))


def test_pruned_grid_sweep_validation():
    configs, costs = _burst_grid()
    with pytest.raises(ValueError):
        pruned_grid_sweep(configs, costs[:-1])
    with pytest.raises(ValueError):
        pruned_grid_sweep(configs[:1], costs[:1])
