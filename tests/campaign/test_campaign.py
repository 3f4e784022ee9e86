"""Campaign driver: payloads, the worker loop, the deterministic report."""

import json

import pytest

from repro.campaign.campaign import (
    PLANS,
    CampaignPlan,
    calibrate_gamma,
    execute_payload,
    payload_label,
    render_report,
    result_to_json,
    run_campaign,
    run_worker,
)
from repro.campaign.store import CampaignStore
from repro.core.decoupled import DecoupledWorkItems
from repro.harness.sweeps import PRUNE_BASE_CONFIG

#: cheap, deterministic spec payload: config_hash is pure and imported
#: from the package under test, so no tmp module machinery is needed
GOOD = {
    "spec": "repro.campaign.store:config_hash",
    "kwargs": {"payload": {"x": 1}, "seed": 1},
}
BAD = {"spec": "repro.campaign.store:config_hash", "kwargs": {"bogus": 1}}


def test_calibrate_gamma_measures_region():
    calibration = calibrate_gamma()
    result = DecoupledWorkItems(PRUNE_BASE_CONFIG).run()
    assert calibration["cycles"] == result.cycles
    assert calibration["rejection_rate"] == round(result.rejection_rate, 6)
    # II is 1 and gated-MT bubbles are rare: cycles/iteration sits in a
    # narrow band just above 1
    assert 1.0 <= calibration["cycles_per_iteration"] < 4.0


class TestPayloads:
    def test_spec_payload_executes(self):
        out = execute_payload(GOOD)
        assert set(out) == {"value"}  # scalar return lands under "value"
        assert isinstance(out["value"], str)

    def test_registry_payload_executes(self):
        out = execute_payload({"experiment": "eq1", "kwargs": {}})
        assert out["headers"] and out["rows"]  # ExperimentResult shape
        json.dumps(out)

    def test_unknown_payload_kind_raises(self):
        with pytest.raises(ValueError, match="experiment"):
            execute_payload({"mystery": 1})

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError, match="module:callable"):
            execute_payload({"spec": "no-colon"})

    def test_labels(self):
        assert payload_label({"experiment": "eq1"}) == "eq1"
        assert payload_label(
            {"experiment": "eq1", "kwargs": {"b": 2, "a": 1}}
        ) == "eq1(a=1,b=2)"
        assert payload_label(
            {"spec": "pkg.mod:fn", "kwargs": {"n": 2}}
        ) == "pkg.mod:fn(n=2)"
        # a row of neither kind fails when run; validate still names it
        assert payload_label({"mystery": 1}) == "{'mystery': 1}"

    def test_result_to_json_shapes(self):
        assert result_to_json({"k": 1}) == {"k": 1}
        assert result_to_json(3.5) == {"value": 3.5}


class TestWorkerLoop:
    def test_failures_do_not_wedge_the_worker(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite", campaign="w")
        store.add_rows([GOOD, BAD, GOOD | {"kwargs": {"payload": {}, "seed": 2}}])
        tally = run_worker(store, worker_id="w0")
        assert tally == {"done": 2, "failed": 1}
        failed = store.rows(status="failed")
        assert len(failed) == 1
        assert "TypeError" in failed[0].error  # full traceback kept
        assert failed[0].worker_id == "w0"

    def test_max_rows_stops_early(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite", campaign="w")
        store.add_rows(
            [GOOD | {"kwargs": {"payload": {}, "seed": s}} for s in range(4)]
        )
        tally = run_worker(store, max_rows=2)
        assert sum(tally.values()) == 2
        assert store.counts()["pending"] == 2


class TestReport:
    def test_report_is_provenance_free_and_hash_ordered(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite", campaign="rpt")
        store.add_rows([GOOD, {"experiment": "eq1", "kwargs": {}}])
        run_worker(store, worker_id="some-host:1234")
        text = render_report(store, calibration={"gamma": 1.39})
        assert "some-host" not in text  # no worker ids
        assert "calibration: gamma=1.39" in text
        hashes = [r.config_hash for r in store.rows()]
        first, second = sorted(hashes)
        assert text.index(first) < text.index(second)


class TestRunCampaign:
    def _plan(self, n=3):
        grid = tuple(
            {
                "spec": "repro.campaign.store:config_hash",
                "kwargs": {"payload": {"i": i}, "seed": 0},
            }
            for i in range(n)
        )
        return CampaignPlan(name="tiny", grid=grid, calibrate=None, seed=0)

    def test_seed_only_then_full_run(self, tmp_path):
        db = tmp_path / "c.sqlite"
        seeded = run_campaign(db, plan=self._plan(), seed_only=True)
        assert seeded == {
            "seeded": 3,
            "counts": {"pending": 3, "claimed": 0, "done": 0, "failed": 0},
        }
        out = run_campaign(db, plan=self._plan())
        assert out["counts"]["done"] == 3
        assert out["steps"] == {
            "calibrate": "done", "sweep": "done",
            "validate": "done", "report": "done",
        }
        store = CampaignStore(db, campaign="tiny")
        assert store.get_meta("report")

    def test_rerun_skips_done_steps_and_report_is_stable(self, tmp_path):
        db = tmp_path / "c.sqlite"
        run_campaign(db, plan=self._plan())
        store = CampaignStore(db, campaign="tiny")
        first = store.get_meta("report")
        run_campaign(db, plan=self._plan())  # all steps already done
        assert store.get_meta("report") == first

    def test_unknown_named_plan_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plan"):
            run_campaign(tmp_path / "c.sqlite", plan="nope")

    def test_shipped_plans_have_disjoint_names(self):
        assert set(PLANS) == {"default", "mini"}
        for name, plan in PLANS.items():
            assert plan.name == name
            assert plan.grid
