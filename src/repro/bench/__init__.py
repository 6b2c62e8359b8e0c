"""The trace-sha baseline: built-in suites, artifacts and their gate.

The committed ``BENCH_default.json`` records, for every point of the
built-in ``default`` suite, the config, wall/CPU time, peak RSS and the
sha256 of the run's full trace.  The shas are this repo's evidence that
an optimisation kept the simulated behaviour; the gate checks a fresh
artifact against them.  Timing with repetitions and the per-layer cost
split live in ``perfbench/``.

* :mod:`repro.bench.suites`  — the built-in ``smoke``/``default`` suites
  (a suite is a list of named runs, each a ``ScenarioConfig`` override
  dict plus a repetition count).
* :mod:`repro.bench.runner`  — runs every point, samples it and emits a
  versioned ``BENCH_<suite>.json``.
* :mod:`repro.bench.sampler` — wall time, total CPU (children included)
  and peak RSS of one run.
* :mod:`repro.bench.schema`  — the artifact layout and its validator.
* :mod:`repro.bench.check`   — the regression gate: fails on slowdowns
  against a baseline artifact and on a trace sha that diverged or is
  missing.
* :mod:`repro.bench.traceid` — the canonical trace rendering and its
  sha256.

CLI: ``repro bench run|check|list``.
"""

from repro.bench.check import CheckReport, compare_artifacts
from repro.bench.runner import run_suite
from repro.bench.sampler import ResourceSampler, SampleResult
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchSchemaError,
    dump_artifact,
    load_artifact,
    new_artifact,
    validate_artifact,
)
from repro.bench.suites import BenchRun, BenchSuite, builtin_suite_names, load_suite
from repro.bench.traceid import trace_lines, trace_sha256

__all__ = [
    "BenchRun",
    "BenchSchemaError",
    "BenchSuite",
    "CheckReport",
    "ResourceSampler",
    "SCHEMA_VERSION",
    "SampleResult",
    "builtin_suite_names",
    "compare_artifacts",
    "dump_artifact",
    "load_artifact",
    "new_artifact",
    "run_suite",
    "trace_lines",
    "trace_sha256",
    "validate_artifact",
]
