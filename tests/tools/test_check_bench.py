"""The BENCH_*.json regression gate: tolerance bands + CLI exit codes."""

import json
import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools"),
)
import check_bench  # noqa: E402
from check_bench import compare_records, tolerance_for  # noqa: E402


class TestToleranceRules:
    def test_environment_and_timings_skipped(self):
        for path in (
            "python",
            "machine",
            "serving.wall_seconds",
            "fastpath.reference_ms",
            "lane_throughput.vector_cycles_per_s",
        ):
            assert tolerance_for(path) == "skip"

    def test_speedups_get_the_wide_band(self):
        assert tolerance_for("fastpath.speedup") == 0.75
        assert tolerance_for("lane_throughput.vector_speedup") == 0.75

    def test_everything_else_is_tight(self):
        assert tolerance_for("serving.steps.3.latency_s.p99") == 1e-6
        assert tolerance_for("fastpath.cycles") == 1e-6


class TestRulePrecedence:
    """First fnmatch wins: metric-shaped rules must beat block globs.

    With ``pipeline.*`` ahead of ``*speedup*`` a pipeline speedup
    metric would silently inherit the exact band instead of the
    wall-clock one — the ordering bug DEFAULT_RULES documents.
    """

    def test_pipeline_speedup_gets_the_wide_band_not_exact(self):
        assert tolerance_for("pipeline.speedup") == 0.75

    def test_pipeline_timings_stay_skipped(self):
        assert tolerance_for("pipeline.pipelined_ms") == "skip"
        assert tolerance_for("pipeline.monolithic_ms") == "skip"

    def test_pipeline_deterministic_leaves_stay_exact(self):
        assert tolerance_for("pipeline.overlap_ratio") == 1e-6
        assert tolerance_for("pipeline.stage_cycles.0") == 1e-6

    def test_custom_rules_respect_declaration_order(self):
        rules = (("a.*", "skip"), ("*", 1e-6))
        assert tolerance_for("a.b", rules) == "skip"
        # same patterns reversed: the catch-all shadows the skip
        assert tolerance_for("a.b", tuple(reversed(rules))) == 1e-6


class TestCompareRecords:
    BASE = {
        "python": "3.11.1",
        "serving": {
            "wall_seconds": 3.4,
            "steps": [{"completed": 2000, "latency_s": {"p99": 0.011}}],
        },
    }

    def test_identical_records_match(self):
        assert compare_records(self.BASE, json.loads(json.dumps(self.BASE))) \
            == []

    def test_skipped_paths_never_flag(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["python"] = "3.12.0"
        fresh["serving"]["wall_seconds"] = 99.0
        assert compare_records(self.BASE, fresh) == []

    def test_deterministic_drift_flags(self):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["serving"]["steps"][0]["completed"] = 1999
        findings = compare_records(self.BASE, fresh)
        assert [f["path"] for f in findings] == [
            "serving.steps.0.completed"
        ]
        assert findings[0]["kind"] == "mismatch"

    def test_within_tolerance_passes(self):
        base = {"fastpath": {"speedup": 10.0}}
        assert compare_records(base, {"fastpath": {"speedup": 14.0}}) == []
        findings = compare_records(base, {"fastpath": {"speedup": 60.0}})
        assert findings and findings[0]["tolerance"] == 0.75

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
        # the same key is "missing" one way and "extra" the other —
        # both directions flag, under the identical subtree rule
        base = {"fastpath": {"cycles": 10}}
        fresh = {"fastpath": {}}
        assert [
            f["kind"] for f in compare_records(base, fresh)
        ] == ["missing"]
        assert [
            f["kind"] for f in compare_records(fresh, base)
        ] == ["extra"]

    def test_all_skipped_subtree_vanishing_is_silent(self):
        # a dict whose every leaf is exempt can vanish wholesale
        # without a finding, in either direction
        base = {
            "fastpath": {
                "timings": {"setup_ms": 1.0, "run_ms": 2.0},
                "cycles": 10,
            }
        }
        fresh = {"fastpath": {"cycles": 10}}
        assert compare_records(base, fresh) == []
        assert compare_records(fresh, base) == []

    def test_mixed_subtree_vanishing_still_flags(self):
        # one non-skipped leaf inside the vanished subtree is enough
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


class TestMain:
    def _records(self, tmp_path, drift=False):
        base = {
            "python": "3.11.1",
            "serving": {"wall_seconds": 1.0, "steps": [{"completed": 5}]},
        }
        fresh = json.loads(json.dumps(base))
        fresh["serving"]["wall_seconds"] = 2.0  # exempt
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

    def test_report_only_exit_zero_on_drift(self, tmp_path, capsys):
        baseline, fresh = self._records(tmp_path, drift=True)
        rc = check_bench.main(
            ["--suite", "serving", "--baseline", baseline,
             "--fresh", fresh, "--report-only"]
        )
        assert rc == 0
        assert "not failing" in capsys.readouterr().out

    def test_unreadable_baseline_exit_two(self, tmp_path):
        rc = check_bench.main(
            ["--baseline", str(tmp_path / "absent.json"),
             "--fresh", str(tmp_path / "absent.json")]
        )
        assert rc == 2

    @pytest.mark.serve_soak
    def test_gate_passes_against_the_committed_serving_baseline(self):
        """The committed BENCH_serving.json must match a live re-run."""
        root = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir
        )
        baseline = os.path.join(root, "BENCH_serving.json")
        rc = check_bench.main(["--suite", "serving", "--baseline", baseline])
        assert rc == 0
