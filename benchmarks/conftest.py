"""Shared fixtures for the benchmark harness.

The full 7-day field-study reconstruction runs once per benchmark
session; every figure bench reads from the same result, exactly as the
paper's figures all come from the same deployment.

Caching semantics (explicit, because they bit us): ``study_result`` is
``session``-scoped, and a pytest *session* is a *process*.  Under
``pytest-xdist``-style splits every worker is its own process with its
own session, so the ~15 s reconstruction runs **once per worker**, not
once per run — that is inherent to process-based splitting, not a bug
to fix with on-disk result pickles (a cross-process cache would have to
invalidate on any source change; rerunning is cheaper and safer).  The
``_RESULT_CACHE`` memo below is that per-process cache made explicit,
and every cached result is integrity-checked: its trace sha256 must
match the ``default_study`` entry recorded in the committed
``BENCH_default.json`` baseline, so a worker cannot silently measure a
world that diverged from the artifact every other lane gates against.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.bench.schema import BenchSchemaError, load_artifact
from repro.bench.traceid import trace_sha256
from repro.experiments import GainesvilleStudy, ScenarioConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_default.json"

#: Per-process memo: (fixture key) -> (study, result).  One entry per
#: worker process; see the module docstring for why that is the design.
_RESULT_CACHE: Dict[str, Tuple[GainesvilleStudy, object]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: tiny-N benchmark smoke checks, cheap enough for any "
        "CI lane (select with -m bench_smoke)",
    )


def _baseline_default_study_sha():
    """The committed baseline's default-study trace digest, or None
    when no baseline artifact is present (fresh checkouts mid-rebase)."""
    if not BASELINE_PATH.exists():
        return None
    try:
        artifact = load_artifact(BASELINE_PATH)
    except BenchSchemaError as exc:
        pytest.fail(f"committed baseline {BASELINE_PATH.name} is invalid: {exc}")
    for run in artifact["runs"]:
        if run["name"] == "default_study":
            return run["trace_sha256"]
    return None


def _default_study_result() -> Tuple[GainesvilleStudy, object]:
    if "default" not in _RESULT_CACHE:
        study = GainesvilleStudy(ScenarioConfig())
        result = study.run()
        expected = _baseline_default_study_sha()
        measured = trace_sha256(study.sim)
        if expected is not None and measured != expected:
            pytest.fail(
                "default-study trace sha256 diverged from the committed "
                f"BENCH_default.json baseline ({measured[:12]} != "
                f"{expected[:12]}): either a determinism regression or an "
                "intentional behaviour change that must re-baseline "
                "(see EXPERIMENTS.md, 'Updating the baseline')"
            )
        _RESULT_CACHE["default"] = (study, result)
    return _RESULT_CACHE["default"]


@pytest.fixture(scope="session")
def study():
    """The full 7-day, 10-user, 259-post reconstruction, already run
    and integrity-checked (``study_result`` holds its result)."""
    return _default_study_result()[0]


@pytest.fixture(scope="session")
def study_result(study):
    return _default_study_result()[1]
