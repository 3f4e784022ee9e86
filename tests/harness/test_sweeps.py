"""Exhaustive sweeps: every grid point simulated, the exact answers kept."""

import pytest

from repro.core.decoupled import DecoupledWorkItems
from repro.harness import pipelines, sweeps
from repro.harness.pipelines import PIPE_SWEEP_DEPTHS
from repro.harness.sweeps import (
    PRUNE_DEPTHS,
    TIMING_PRUNE_COUNTS,
    pareto_indices,
    run_fifo_prune,
    run_sweep_prune,
    run_timing_prune,
)


def test_pareto_weak_dominance_keeps_ties():
    costs = [1.0, 1.0, 2.0, 2.0]
    values = [5.0, 5.0, 5.0, 4.0]
    # the duplicate cheap points both stay; (2, 5) is dominated
    assert pareto_indices(costs, values) == [0, 1, 3]


def test_pareto_validation():
    with pytest.raises(ValueError):
        pareto_indices([1.0, 2.0], [1.0])


@pytest.fixture
def built(monkeypatch):
    """The configs the sweeps build a simulation of, in order."""
    configs = []

    class Counted(DecoupledWorkItems):
        def __init__(self, config):
            configs.append(config)
            super().__init__(config)

    monkeypatch.setattr(sweeps, "DecoupledWorkItems", Counted)
    return configs


def test_fifo_prune_recommends_depth_1_over_every_depth(built):
    result = run_fifo_prune()
    assert [c.stream_depth for c in built] == list(PRUNE_DEPTHS)
    assert result.column("depth") == list(PRUNE_DEPTHS)
    assert all(isinstance(c, int) for c in result.column("simulated_cycles"))
    assert result.column("recommended").count("yes") == 1
    assert result.rows[0][-1] == "yes"  # depth 1
    assert "recommended depth 1;" in result.notes


def test_sweep_prune_frontier_over_every_point(built):
    result = run_sweep_prune()
    assert len(built) == len(result.rows) == 12
    assert len({(c.burst_words, c.n_channels) for c in built}) == 12
    cycles = result.column("simulated_cycles")
    assert all(isinstance(c, int) for c in cycles)
    frontier = [i for i, f in enumerate(result.column("frontier")) if f]
    assert frontier == [0, 1, 2, 3, 6, 7, 11]
    assert frontier == pareto_indices(result.column("cost"), cycles)


def test_timing_prune_frontier_over_every_point(built):
    result = run_timing_prune()
    assert [c.n_work_items for c in built] == list(TIMING_PRUNE_COUNTS)
    assert all(isinstance(c, int) for c in result.column("simulated_cycles"))
    frontier = [i for i, f in enumerate(result.column("frontier")) if f]
    assert frontier == [0, 1, 3]


def test_pipeline_recommends_pipe_depth_2_over_every_depth(monkeypatch):
    depths = []
    build = pipelines.build_pricing_pipeline

    def counted(config, *, pipe_depth):
        depths.append(pipe_depth)
        return build(config, pipe_depth=pipe_depth)

    monkeypatch.setattr(pipelines, "build_pricing_pipeline", counted)
    result = pipelines.run_pipeline()
    assert depths == list(PIPE_SWEEP_DEPTHS)
    cycles = result.series["pipe_depth_cycles"]
    assert list(cycles) == [str(d) for d in PIPE_SWEEP_DEPTHS]
    assert all(isinstance(c, int) for c in cycles.values())
    assert "recommended pipe depth 2 " in result.notes
