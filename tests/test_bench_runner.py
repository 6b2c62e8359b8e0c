"""The suite runner and the resource sampler.

The contract tests drive :func:`run_suite` with a stubbed ``run_point``
so they exercise the orchestration (divergence detection, artifact
assembly) without paying for real simulations; one integration test at
the bottom runs a genuinely tiny world end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.bench import runner as runner_module
from repro.bench.runner import BenchRunError, run_suite
from repro.bench.sampler import ResourceSampler
from repro.bench.schema import validate_artifact
from repro.bench.suites import BenchRun, BenchSuite, load_suite

SHA_A = "ab" * 32
SHA_B = "cd" * 32


def _suite(name="unit", reps_a=2):
    return BenchSuite(
        name,
        (
            BenchRun("point_a", {"duration_days": 1, "total_posts": 5}, reps_a),
            BenchRun("point_b", {"duration_days": 1, "total_posts": 5, "seed": 9}),
        ),
    )


def _install_fake_point(monkeypatch, calls, shas=None):
    """Replace run_point with a recorder returning ``shas`` in order."""
    shas = iter(shas or [])

    def fake(config):
        calls.append(config)
        return {"wall_s": 0.25, "cpu_s": 0.25}, next(shas, SHA_A)

    monkeypatch.setattr(runner_module, "run_point", fake)


class TestRunnerContracts:
    def test_every_point_lands_in_the_artifact(self, tmp_path, monkeypatch):
        calls = []
        _install_fake_point(monkeypatch, calls)
        out = tmp_path / "BENCH_unit.json"
        artifact = run_suite(_suite(), out_path=out)
        assert len(calls) == 3
        assert [(run["name"], run["repetition"]) for run in artifact["runs"]] == [
            ("point_a", 0),
            ("point_a", 1),
            ("point_b", 0),
        ]
        assert json.loads(out.read_text()) == artifact

    def test_repetition_divergence_raises(self, tmp_path, monkeypatch):
        _install_fake_point(monkeypatch, [], shas=[SHA_A, SHA_B, SHA_A])
        with pytest.raises(BenchRunError, match="different traces"):
            run_suite(_suite(), out_path=tmp_path / "a.json")
        assert not (tmp_path / "a.json").exists()

    def test_unknown_config_field_rejected_before_any_run(
        self, tmp_path, monkeypatch
    ):
        calls = []
        _install_fake_point(monkeypatch, calls)
        bad = BenchSuite(
            "unit", (BenchRun("ok", {}), BenchRun("p", {"warp_factor": 9}))
        )
        with pytest.raises(TypeError, match="warp_factor"):
            run_suite(bad, out_path=tmp_path / "a.json")
        assert calls == []

    def test_builtin_smoke_is_subset_of_default(self):
        """The design rule the CI gate depends on: every smoke point
        exists in the default suite with an identical config."""
        smoke = {run.name: run for run in load_suite("smoke").runs}
        default = {run.name: run for run in load_suite("default").runs}
        assert set(smoke) < set(default)
        for name, run in smoke.items():
            assert default[name].config == run.config
            assert default[name].repetitions == run.repetitions


class TestSampler:
    def test_reports_wall_cpu_and_peak_rss(self):
        with ResourceSampler() as sampler:
            sum(range(100_000))
        metrics = sampler.result.metrics()
        assert set(metrics) == {"wall_s", "cpu_s", "max_rss_kb"}
        assert metrics["wall_s"] >= 0.0 and metrics["cpu_s"] >= 0.0
        assert metrics["max_rss_kb"] > 0

    def test_cpu_counts_a_reaped_child(self):
        """CPU a child process spends inside the block is counted, so a
        point that forks workers reports its total CPU."""
        spin = "import time\nend = time.process_time() + 0.3\nwhile time.process_time() < end: pass"
        parent0 = os.times()
        with ResourceSampler() as sampler:
            subprocess.run([sys.executable, "-c", spin], check=True)
        parent1 = os.times()
        parent_only = (parent1.user + parent1.system) - (parent0.user + parent0.system)
        assert sampler.result.cpu_s >= 0.25
        assert sampler.result.cpu_s > parent_only + 0.2


class TestIntegration:
    def test_tiny_real_point_is_deterministic_across_executions(self, tmp_path):
        """One genuinely simulated point, twice: identical trace sha and
        domain metrics (the property every committed baseline rests on)."""
        suite = BenchSuite(
            "tiny",
            (
                BenchRun(
                    "tiny_world",
                    {"num_users": 4, "duration_days": 1, "total_posts": 10, "seed": 7},
                ),
            ),
        )
        artifacts = [
            run_suite(suite, out_path=tmp_path / f"BENCH_{leg}.json")
            for leg in ("first", "second")
        ]
        first, second = (a["runs"][0] for a in artifacts)
        assert first["trace_sha256"] == second["trace_sha256"]
        assert len(first["trace_sha256"]) == 64
        for key in ("unique_messages", "disseminations", "contacts"):
            assert first["metrics"][key] == second["metrics"][key]
        assert first["metrics"]["cpu_s"] > 0
        # The artifact on disk is the validated schema, not just the
        # in-memory dict.
        on_disk = json.loads((tmp_path / "BENCH_first.json").read_text())
        validate_artifact(on_disk)
