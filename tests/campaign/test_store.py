"""CampaignStore: the claim protocol, provenance and idempotent seeding."""

import threading

import pytest

from repro.campaign.store import CampaignStore, config_hash


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "campaign.sqlite", campaign="test")


class TestConfigHash:
    def test_identity_is_payload_plus_seed(self):
        payload = {"experiment": "eq1", "kwargs": {}}
        assert config_hash(payload, 1) == config_hash(dict(payload), 1)
        assert config_hash(payload, 1) != config_hash(payload, 2)
        assert config_hash(payload, 1) != config_hash(
            {"experiment": "table1", "kwargs": {}}, 1
        )

    def test_key_order_is_canonicalized(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestSeeding:
    def test_add_row_is_idempotent(self, store):
        payload = {"experiment": "eq1", "kwargs": {}}
        first = store.add_row(payload, seed=7)
        second = store.add_row(payload, seed=7)
        assert first == second
        assert store.counts()["pending"] == 1

    def test_reseeding_never_resets_a_done_row(self, store):
        payload = {"experiment": "eq1", "kwargs": {}}
        row_id = store.add_row(payload, seed=7)
        store.claim("w0")
        store.finish(row_id, {"ok": True})
        store.add_row(payload, seed=7)  # re-seed the same grid
        assert store.get(row_id).status == "done"
        assert store.get(row_id).result == {"ok": True}


class TestClaimProtocol:
    def test_claim_lifecycle_stamps_provenance(self, store):
        row_id = store.add_row({"experiment": "eq1"}, seed=1)
        row = store.claim("worker-a")
        assert row.id == row_id
        assert row.status == "claimed"
        assert row.worker_id == "worker-a"
        assert row.attempts == 1
        assert row.claimed_at is not None
        store.finish(row_id, {"value": 42})
        done = store.get(row_id)
        assert done.status == "done"
        assert done.result == {"value": 42}
        assert done.finished_at is not None

    def test_claim_drained_returns_none(self, store):
        row_id = store.add_row({"experiment": "eq1"})
        store.claim("w")
        store.fail(row_id, "boom")
        assert store.claim("w") is None

    def test_claims_are_lowest_id_first(self, store):
        ids = store.add_rows(
            [{"experiment": n} for n in ("eq1", "table1", "rejection")]
        )
        assert [store.claim("w").id for _ in ids] == ids

    def test_resolving_an_unclaimed_row_refuses(self, store):
        row_id = store.add_row({"experiment": "eq1"})
        with pytest.raises(RuntimeError, match="not 'claimed'"):
            store.finish(row_id, {})
        # a released claim must also refuse: the resume path took the
        # row back, a late worker result would be a double execution
        store.claim("w")
        store.release_claims()
        with pytest.raises(RuntimeError, match="released"):
            store.finish(row_id, {})

    def test_concurrent_threads_never_share_a_row(self, store):
        n_rows, n_workers = 12, 6
        store.add_rows([{"experiment": f"row{i}"} for i in range(n_rows)])
        claims: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_workers)

        def worker(name):
            barrier.wait()
            while True:
                row = store.claim(name)
                if row is None:
                    return
                with lock:
                    claims.append(row.id)
                store.finish(row.id, {"by": name})

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",))
            for i in range(n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sorted(claims) == sorted(set(claims))  # no double-claims
        assert store.counts()["done"] == n_rows


class TestResumePaths:
    def test_release_claims_flips_orphans_back(self, store):
        store.add_rows([{"experiment": "eq1"}, {"experiment": "table1"}])
        store.claim("dead-worker")
        store.claim("live-worker")
        assert store.release_claims(worker_id="dead-worker") == 1
        counts = store.counts()
        assert counts == {
            "pending": 1, "claimed": 1, "done": 0, "failed": 0
        }
        assert store.release_claims() == 1  # the rest
        assert store.counts()["pending"] == 2

    def test_retry_failed(self, store):
        row_id = store.add_row({"experiment": "eq1"})
        store.claim("w")
        store.fail(row_id, "transient")
        assert store.retry_failed() == 1
        row = store.get(row_id)
        assert row.status == "pending"
        assert row.error == "transient"  # kept until the next resolve


class TestQueries:
    def test_counts_zero_filled(self, store):
        assert store.counts() == {
            "pending": 0, "claimed": 0, "done": 0, "failed": 0
        }

    def test_campaign_column_scopes_everything(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        a = CampaignStore(path, campaign="a")
        b = CampaignStore(path, campaign="b")
        a.add_row({"experiment": "eq1"})
        b.add_row({"experiment": "eq1"})
        assert a.counts()["pending"] == 1
        assert a.claim("w").campaign == "a"
        assert b.counts()["claimed"] == 0
        assert sorted(a.campaigns()) == ["a", "b"]

    def test_get_unknown_row_raises(self, store):
        with pytest.raises(KeyError):
            store.get(999)

    def test_rows_filter_by_status(self, store):
        ids = store.add_rows([{"experiment": "eq1"}, {"experiment": "fig2"}])
        store.claim("w")
        store.finish(ids[0], {})
        assert [r.id for r in store.rows(status="done")] == [ids[0]]
        assert [r.id for r in store.rows()] == ids


class TestStepsAndMeta:
    def test_step_state_round_trip(self, store):
        assert store.step_record("calibrate") is None
        store.start_step("calibrate")
        assert store.step_statuses() == {"calibrate": "running"}
        store.finish_step("calibrate", {"cycles": 10})
        record = store.step_record("calibrate")
        assert record["status"] == "done"
        assert record["state"] == {"cycles": 10}
        store.fail_step("calibrate", "boom")
        assert store.step_record("calibrate")["state"] == {"error": "boom"}

    def test_meta_round_trip(self, store):
        assert store.get_meta("report") is None
        store.set_meta("report", "text v1")
        store.set_meta("report", "text v2")
        assert store.get_meta("report") == "text v2"
        assert store.get_meta("absent", default=0) == 0
