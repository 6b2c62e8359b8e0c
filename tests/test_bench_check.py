"""The regression gate: synthetic baselines vs slowed/diverged runs."""

from __future__ import annotations

import argparse

import pytest

from repro.bench.check import DEFAULT_THRESHOLD, compare_artifacts
from repro.bench.schema import dump_artifact, make_run_entry, new_artifact
from repro.cli import build_parser, main

SHA_A = "ab" * 32
SHA_B = "cd" * 32


def _artifact(points, suite="synthetic"):
    """points: list of (name, rep, cpu_s, sha) or (name, rep, cpu_s, sha, config)."""
    runs = []
    for point in points:
        name, rep, cpu_s, sha = point[:4]
        config = point[4] if len(point) > 4 else {"duration_days": 1}
        runs.append(
            make_run_entry(name, rep, config, {"wall_s": cpu_s, "cpu_s": cpu_s}, sha)
        )
    return new_artifact(suite, runs=runs)


BASELINE = [("a", 0, 2.0, SHA_A), ("a", 1, 2.1, SHA_A), ("b", 0, 4.0, SHA_B)]


class TestGateVerdicts:
    def test_equal_run_passes(self):
        report = compare_artifacts(_artifact(BASELINE), _artifact(BASELINE))
        assert report.ok
        assert report.compared == 3
        assert report.failures == []
        assert "PASS: 3 compared, 0 regressed" in report.render()

    def test_artificially_slowed_run_fails(self):
        slowed = [("a", 0, 2.0, SHA_A), ("a", 1, 2.1, SHA_A), ("b", 0, 7.0, SHA_B)]
        report = compare_artifacts(_artifact(slowed), _artifact(BASELINE))
        assert not report.ok
        assert [entry.name for entry in report.failures] == ["b"]
        assert report.failures[0].status == "slow"
        assert "FAIL" in report.render()

    def test_threshold_knob_moves_the_bar(self):
        # b: 4.0 -> 5.4 is a 35% slowdown.
        current = _artifact([("b", 0, 5.4, SHA_B)])
        baseline = _artifact([("b", 0, 4.0, SHA_B)])
        assert compare_artifacts(current, baseline, threshold=0.5).ok
        assert not compare_artifacts(current, baseline, threshold=0.2).ok
        with pytest.raises(ValueError, match="non-negative"):
            compare_artifacts(current, baseline, threshold=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            compare_artifacts(current, baseline, threshold=float("nan"))

    def test_min_seconds_skips_noise_floor_points(self):
        # A 3x slowdown on a 5ms point is noise, not a regression...
        current = _artifact([("fast", 0, 0.015, SHA_A)])
        baseline = _artifact([("fast", 0, 0.005, SHA_A)])
        report = compare_artifacts(current, baseline)
        assert report.entries[0].status == "skipped-small"
        # ...but a skip-only comparison still counts as compared work.
        assert report.compared == 1 and report.ok

    def test_trace_mismatch_fails_even_when_faster(self):
        current = _artifact([("a", 0, 1.0, SHA_B)])
        baseline = _artifact([("a", 0, 2.0, SHA_A)])
        report = compare_artifacts(current, baseline)
        assert not report.ok
        assert report.failures[0].status == "trace-mismatch"

    @pytest.mark.parametrize(
        "current_sha,baseline_sha",
        [(None, SHA_A), (SHA_A, None), (None, None)],
        ids=["current", "baseline", "both"],
    )
    def test_missing_trace_sha_fails_the_gate(self, current_sha, baseline_sha):
        # A point with no sha cannot show its trace is unchanged, even
        # when it is next to a point that compares cleanly.
        current = _artifact([("a", 0, 2.0, SHA_A), ("b", 0, 2.0, current_sha)])
        baseline = _artifact([("a", 0, 2.0, SHA_A), ("b", 0, 2.0, baseline_sha)])
        report = compare_artifacts(current, baseline)
        assert not report.ok
        assert [(e.name, e.status) for e in report.failures] == [("b", "trace-missing")]
        assert "FAIL  b#0" in report.render()

    def test_config_drift_is_not_comparable(self):
        current = _artifact([("a", 0, 2.0, SHA_A, {"duration_days": 2})])
        baseline = _artifact([("a", 0, 2.0, SHA_A, {"duration_days": 1})])
        report = compare_artifacts(current, baseline)
        assert report.entries[0].status == "config-drift"
        # Drift was the only shared key, so nothing was compared: FAIL.
        assert report.compared == 0 and not report.ok

    def test_config_drift_fails_next_to_a_matching_point(self):
        # A drifted point must not hide behind another point that compares.
        current = _artifact(
            [("a", 0, 2.0, SHA_A), ("b", 0, 4.0, SHA_B, {"duration_days": 2})]
        )
        baseline = _artifact([("a", 0, 2.0, SHA_A), ("b", 0, 4.0, SHA_B)])
        report = compare_artifacts(current, baseline)
        assert report.compared == 1
        assert [entry.status for entry in report.failures] == ["config-drift"]
        assert not report.ok
        assert "FAIL  b#0" in report.render()

    def test_no_shared_runs_is_a_failure(self):
        report = compare_artifacts(
            _artifact([("only_current", 0, 1.0, SHA_A)]),
            _artifact([("only_baseline", 0, 1.0, SHA_A)]),
        )
        assert not report.ok
        assert "no comparable runs" in report.render()

    def test_disjoint_extra_runs_do_not_disturb_shared_ones(self):
        # The CI shape: smoke artifact vs the default baseline, which
        # additionally holds the full-study point.
        current = _artifact([("a", 0, 2.0, SHA_A)])
        baseline = _artifact(BASELINE + [("full_study", 0, 20.0, SHA_B)])
        report = compare_artifacts(current, baseline)
        assert report.ok and report.compared == 1

    def test_cross_host_note_is_reported(self):
        current = _artifact(BASELINE)
        baseline = _artifact(BASELINE)
        baseline["host"]["fingerprint"] = "0" * 16
        report = compare_artifacts(current, baseline)
        assert report.ok  # informational, not a failure
        assert any("fingerprints differ" in note for note in report.notes)
        assert "note:" in report.render()

    def test_missing_metric_is_skipped_not_crashed(self):
        current = _artifact([("a", 0, 2.0, SHA_A)])
        baseline = _artifact([("a", 0, 2.0, SHA_A)])
        del baseline["runs"][0]["metrics"]["cpu_s"]
        report = compare_artifacts(current, baseline)
        assert report.entries[0].status == "skipped-small"
        assert "absent" in report.entries[0].detail

    def test_default_threshold_is_the_documented_one(self):
        assert DEFAULT_THRESHOLD == 0.5


class TestCheckCli:
    def _write(self, tmp_path, name, artifact):
        path = tmp_path / name
        dump_artifact(artifact, path)
        return str(path)

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _artifact(BASELINE))
        same = self._write(tmp_path, "same.json", _artifact(BASELINE))
        slowed = self._write(
            tmp_path,
            "slow.json",
            _artifact([("a", 0, 9.0, SHA_A), ("a", 1, 2.1, SHA_A), ("b", 0, 4.0, SHA_B)]),
        )
        assert main(["bench", "check", same, "--against", base]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["bench", "check", slowed, "--against", base]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "a#0" in out

    def test_threshold_flag_reaches_the_gate(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _artifact([("b", 0, 4.0, SHA_B)]))
        cur = self._write(tmp_path, "cur.json", _artifact([("b", 0, 5.4, SHA_B)]))
        assert main(["bench", "check", cur, "--against", base]) == 0
        capsys.readouterr()
        assert (
            main(["bench", "check", cur, "--against", base, "--threshold", "0.2"]) == 1
        )

    def test_schema_errors_exit_2(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.json", _artifact(BASELINE))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["bench", "check", str(broken), "--against", good]) == 2
        assert main(["bench", "check", good, "--against", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_bad_threshold_exits_2_with_one_line(self, tmp_path, capsys, threshold):
        good = self._write(tmp_path, "good.json", _artifact(BASELINE))
        argv = ["bench", "check", good, "--against", good, "--threshold", threshold]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "non-negative" in captured.err

    def test_bench_has_four_settable_options(self):
        def subcommands(parser):
            (action,) = [
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            ]
            return action.choices

        bench = subcommands(build_parser())["bench"]
        options = {
            name: sorted(
                action.option_strings[0]
                for action in sub._actions
                if action.option_strings and action.dest != "help"
            )
            for name, sub in subcommands(bench).items()
        }
        assert options == {
            "run": ["--out", "--suite"],
            "check": ["--against", "--threshold"],
            "list": [],
        }
