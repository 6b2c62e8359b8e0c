"""The suite runner.

Executes every ``(run, repetition)`` point of a suite, sampling
CPU/RSS/wall time per point and hashing the run's full trace stream,
then writes the versioned ``BENCH_<suite>.json`` artifact.

Each point is measured on a freshly built
:class:`~repro.experiments.gainesville.GainesvilleStudy`, so the wall
and CPU readings cover world construction *and* the simulation run —
the same cost a user pays for ``repro study`` with that config.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.bench import schema
from repro.bench.sampler import ResourceSampler
from repro.bench.suites import BenchSuite
from repro.bench.traceid import trace_sha256


class BenchRunError(RuntimeError):
    """Two repetitions of one run diverged — a determinism regression."""


def _domain_metrics(result) -> Dict[str, float]:
    """Simulation-side quantities recorded alongside timings."""
    out: Dict[str, float] = {
        "unique_messages": float(result.unique_messages),
        "disseminations": float(result.disseminations),
        "contacts": float(result.contact_count),
    }
    ratio = result.delivery.overall_delivery_ratio()
    if ratio is not None:
        out["delivery_ratio"] = round(float(ratio), 6)
    return out


def run_point(config):
    """Build + run one ``ScenarioConfig`` under the sampler; returns
    ``(metrics, trace_sha)``."""
    from repro.experiments.gainesville import GainesvilleStudy

    with ResourceSampler() as sampler:
        study = GainesvilleStudy(config)
        result = study.run()
    metrics = sampler.result.metrics()
    metrics.update(_domain_metrics(result))
    metrics["medium_ticks"] = float(study.medium.tick_count)
    return metrics, trace_sha256(study.sim)


def run_suite(
    suite: BenchSuite,
    out_path: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run ``suite`` and write ``BENCH_<suite>.json``.

    Returns the artifact dict.  ``out_path`` defaults to
    ``BENCH_<suite>.json`` in the current directory.  Every run's
    config is built before the first point executes, so a bad override
    fails at once rather than mid-suite.
    """
    from repro.experiments.scenario import ScenarioConfig

    emit = log or (lambda message: None)
    configs = [ScenarioConfig(**run.config) for run in suite.runs]
    total = sum(run.repetitions for run in suite.runs)
    done = 0
    entries = []
    for run, config in zip(suite.runs, configs):
        first_sha = None
        for repetition in range(run.repetitions):
            done += 1
            emit(f"[{done}/{total}] {run.name}#{repetition}: running...")
            metrics, sha = run_point(config)
            emit(
                f"[{done}/{total}] {run.name}#{repetition}: "
                f"wall={metrics['wall_s']:.2f}s cpu={metrics['cpu_s']:.2f}s "
                f"trace={sha[:12]}"
            )
            first_sha = first_sha or sha
            if sha != first_sha:
                raise BenchRunError(
                    f"run {run.name!r} produced different traces across "
                    f"repetitions ({first_sha[:12]} vs {sha[:12]}) — "
                    "determinism regression"
                )
            entries.append(
                schema.make_run_entry(run.name, repetition, run.config, metrics, sha)
            )
    artifact = schema.new_artifact(suite.name, runs=entries)
    destination = Path(out_path) if out_path else Path(f"BENCH_{suite.name}.json")
    schema.dump_artifact(artifact, destination)
    emit(f"wrote {destination} ({len(entries)} runs)")
    return artifact
