"""The BENCH_*.json regression gate: exact comparison + CLI exit codes."""

import json
import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools"),
)
import check_bench  # noqa: E402
from check_bench import compare_records  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


class TestCompareRecords:
    BASE = {
        "serving": {
            "experiment": "serve-tier",
            "steps": [{"completed": 2000, "latency_s": {"p99": 0.011}}],
        },
    }

    def test_identical_records_match(self):
        assert compare_records(self.BASE, json.loads(json.dumps(self.BASE))) \
            == []

    def test_deterministic_drift_flags(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["serving"]["steps"][0]["completed"] = 1999
        findings = compare_records(self.BASE, fresh)
        assert [f["path"] for f in findings] == [
            "serving.steps.0.completed"
        ]
        assert findings[0]["kind"] == "mismatch"

    def test_numbers_match_to_one_part_in_a_million(self):
        base = {"pipeline": {"overlap_ratio": 0.7552, "cycles": 438}}
        close = {"pipeline": {"overlap_ratio": 0.7552 * (1 + 5e-7),
                              "cycles": 438.0}}
        assert compare_records(base, close) == []
        far = {"pipeline": {"overlap_ratio": 0.7552 * (1 + 5e-6),
                            "cycles": 438}}
        assert [f["path"] for f in compare_records(base, far)] == [
            "pipeline.overlap_ratio"
        ]

    def test_timing_keys_flag_like_any_other(self):
        # no key is exempt: a wall time or a speedup in a record is
        # drift like any other value, and so is its disappearance
        base = {"fastpath": {"cycles": 10, "fast_ms": 50.1, "speedup": 31.4}}
        fresh = {"fastpath": {"cycles": 10, "fast_ms": 48.0, "speedup": 31.4}}
        assert [f["path"] for f in compare_records(base, fresh)] == [
            "fastpath.fast_ms"
        ]
        kinds = {f["path"]: f["kind"] for f in compare_records(
            {"python": "3.11.7", "fastpath": {"cycles": 10}},
            {"fastpath": {"cycles": 10, "wall_seconds": 1.8}},
        )}
        assert kinds == {
            "python": "missing",
            "fastpath.wall_seconds": "extra",
        }

    def test_missing_and_extra_keys(self):
        fresh = json.loads(json.dumps(self.BASE))
        del fresh["serving"]["steps"][0]["completed"]
        fresh["serving"]["novel"] = 1
        kinds = {f["path"]: f["kind"] for f in compare_records(
            self.BASE, fresh
        )}
        assert kinds == {
            "serving.steps.0.completed": "missing",
            "serving.novel": "extra",
        }

    def test_absent_key_detection_is_symmetric(self):
        # the same key is "missing" one way and "extra" the other
        base = {"fastpath": {"cycles": 10}}
        fresh = {"fastpath": {}}
        assert [
            f["kind"] for f in compare_records(base, fresh)
        ] == ["missing"]
        assert [
            f["kind"] for f in compare_records(fresh, base)
        ] == ["extra"]

    def test_mixed_subtree_vanishing_still_flags(self):
        # a vanished subtree flags once, at its root, whatever it held
        base = {
            "fastpath": {
                "detail": {"setup_ms": 1.0, "cycles": 10},
            }
        }
        fresh = {"fastpath": {}}
        missing = compare_records(base, fresh)
        assert [f["path"] for f in missing] == ["fastpath.detail"]
        assert missing[0]["kind"] == "missing"
        extra = compare_records(fresh, base)
        assert [f["path"] for f in extra] == ["fastpath.detail"]
        assert extra[0]["kind"] == "extra"

    def test_list_length_change_flags(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["serving"]["steps"].append({"completed": 1})
        findings = compare_records(self.BASE, fresh)
        assert findings[0]["path"] == "serving.steps"

    def test_type_change_flags(self):
        findings = compare_records({"a": {"b": "x"}}, {"a": {"b": None}})
        assert findings[0]["kind"] == "type"

    def test_string_values_exact(self):
        base = {"serving": {"experiment": "serve-tier"}}
        assert compare_records(base, json.loads(json.dumps(base))) == []
        findings = compare_records(
            base, {"serving": {"experiment": "other"}}
        )
        assert findings[0]["kind"] == "mismatch"


def _scaled(record, factor):
    """``record`` with every number multiplied by ``factor``."""
    if isinstance(record, dict):
        return {k: _scaled(v, factor) for k, v in record.items()}
    if isinstance(record, list):
        return [_scaled(v, factor) for v in record]
    return record * factor


class TestToleranceRules:
    """One relative tolerance, REL_TOL, holds for every numeric leaf."""

    def test_everything_else_is_tight(self):
        assert check_bench.REL_TOL == 1e-6
        base = {
            "serving": {"steps": [{"latency_s": {"p99": 0.011}}]},
            "fastpath": {"cycles": 125968},
        }
        assert compare_records(base, _scaled(base, 1 + 5e-7)) == []
        assert [
            f["path"] for f in compare_records(base, _scaled(base, 1 + 5e-6))
        ] == ["serving.steps.0.latency_s.p99", "fastpath.cycles"]


class TestRulePrecedence:
    """No path-specific rule exists to shadow the tight tolerance.

    The pipeline block's deterministic leaves, nested lists included,
    get the same one-part-in-a-million check as every other number.
    """

    def test_pipeline_deterministic_leaves_stay_exact(self):
        base = {"pipeline": {"overlap_ratio": 0.7552,
                             "stage_cycles": [145, 146]}}
        assert compare_records(base, _scaled(base, 1 + 5e-7)) == []
        assert [
            f["path"] for f in compare_records(base, _scaled(base, 1 + 5e-6))
        ] == [
            "pipeline.overlap_ratio",
            "pipeline.stage_cycles.0",
            "pipeline.stage_cycles.1",
        ]


class TestMain:
    def _records(self, tmp_path, drift=False):
        base = {"serving": {"steps": [{"completed": 5}]}}
        fresh = json.loads(json.dumps(base))
        if drift:
            fresh["serving"]["steps"][0]["completed"] = 6
        baseline = tmp_path / "BENCH_serving.json"
        freshfile = tmp_path / "fresh.json"
        baseline.write_text(json.dumps(base))
        freshfile.write_text(json.dumps(fresh))
        return str(baseline), str(freshfile)

    def test_ok_exit_zero(self, tmp_path, capsys):
        baseline, fresh = self._records(tmp_path)
        rc = check_bench.main(
            ["--suite", "serving", "--baseline", baseline, "--fresh", fresh]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_drift_exit_one(self, tmp_path, capsys):
        baseline, fresh = self._records(tmp_path, drift=True)
        rc = check_bench.main(
            ["--suite", "serving", "--baseline", baseline, "--fresh", fresh]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "serving.steps.0.completed" in out

    def test_one_cycle_moved_in_the_committed_baseline_fails(
        self, tmp_path, capsys
    ):
        committed = os.path.join(ROOT, "BENCH_simulator.json")
        with open(committed, encoding="utf-8") as fh:
            record = json.load(fh)
        record["pipeline"]["pipelined_cycles"] += 1
        moved = tmp_path / "BENCH_simulator.json"
        moved.write_text(json.dumps(record))
        rc = check_bench.main(
            ["--suite", "simulator", "--baseline", str(moved),
             "--fresh", committed]
        )
        assert rc == 1
        assert "pipeline.pipelined_cycles" in capsys.readouterr().out

    def test_unreadable_baseline_exit_two(self, tmp_path):
        rc = check_bench.main(
            ["--baseline", str(tmp_path / "absent.json"),
             "--fresh", str(tmp_path / "absent.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize("suite", ["simulator", "serving"])
    def test_gate_passes_against_the_committed_baseline(self, suite, capsys):
        """The committed BENCH_<suite>.json must match a fresh re-run."""
        baseline = os.path.join(ROOT, f"BENCH_{suite}.json")
        rc = check_bench.main(["--suite", suite, "--baseline", baseline])
        assert rc == 0, capsys.readouterr().out
