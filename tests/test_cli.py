"""Tests for the ``python -m repro`` command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.harness import registry


class TestMainFunction:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in registry.experiment_names():
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "[table1:" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "eq1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Eq (1)" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig42"])

    def test_fig8_summarized(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "samples" in out and "plateau" in out

    def test_experiments_derive_from_registry(self, capsys):
        assert main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == registry.experiment_names()
        assert "serve-bench" in listed


class TestJsonOutput:
    def test_json_single_experiment(self, capsys):
        assert main(["--json", "eq1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        (record,) = records
        assert record["name"] == "eq1"
        assert record["wall_seconds"] >= 0
        assert record["headers"] and record["rows"]
        assert set(record["scalars"]) == set(map(str, record["headers"]))

    def test_json_pruned_sweeps_round_trip(self, capsys):
        """The exhaustive sweep experiments use the same record schema."""
        assert main(["--json", "fifo-prune", "sweep-prune"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in records] == ["fifo-prune", "sweep-prune"]
        for record in records:
            # same round-trip contract the older experiments satisfy
            assert json.loads(json.dumps(record)) == record
            assert record["wall_seconds"] >= 0
            assert record["headers"] and record["rows"]
            assert set(record["scalars"]) == set(map(str, record["headers"]))
            assert "recommended depth" in record["notes"] or (
                "frontier" in record["notes"]
            )
            # every grid point is simulated: no "-" placeholder is left
            assert not any("-" in row for row in record["rows"])
            assert {len(row) for row in record["rows"]} == {
                len(record["headers"])
            }

    def test_json_timing_prune_round_trip(self, capsys):
        """The timing-closure sweep rides the same record schema."""
        assert main(["--json", "timing-prune"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["name"] == "timing-prune"
        assert json.loads(json.dumps(record)) == record
        assert record["wall_seconds"] >= 0
        assert set(record["scalars"]) == set(map(str, record["headers"]))
        assert "derated clock [MHz]" in record["headers"]
        assert "frontier" in record["notes"]
        assert not any("-" in row for row in record["rows"])
        assert {len(row) for row in record["rows"]} == {
            len(record["headers"])
        }
        assert "simulated" in record["notes"]

    def test_faults_plan_reaches_the_virtual_sweep(self, capsys, tmp_path):
        plan = {
            "seed": 11,
            "rules": [{"scope": "batch", "mode": "fail", "probability": 0.2}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["--json", "--faults", str(path), "serve-tier"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        faults = record["series"]["faults"]
        assert faults["seed"] == 11
        assert [r["probability"] for r in faults["rules"]] == [0.2]

    def test_json_is_machine_readable_end_to_end(self, capsys):
        assert main(["--json", "table1", "eq1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in records] == ["table1", "eq1"]
        # every cell must have survived coercion to plain JSON types
        for record in records:
            for row in record["rows"]:
                for cell in row:
                    assert isinstance(
                        cell, (str, int, float, bool, type(None), list)
                    )


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "Table II" in proc.stdout
