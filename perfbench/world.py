"""One benchmark pass: build and run one world in this process.

Usage (the orchestrator in ``run.py`` is the only caller)::

    python3 perfbench/world.py '<json spec>'

The spec names the workload, the key-cache directory (or null), whether
to trace and, when tracing, the file (relative to the repository root)
to write the spans to.  The pass drives the program only through its
public API — ``ScenarioConfig`` -> ``GainesvilleStudy(config)`` ->
``.build()`` -> ``.run()`` — and prints one JSON object: host timings,
the trace sha256, the simulated outcomes the output checks need, and,
when traced, per-layer self times, counts and counter cross-checks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from repro.bench.traceid import trace_sha256  # noqa: E402
from repro.experiments.gainesville import PAPER_VALUES, GainesvilleStudy  # noqa: E402
from repro.experiments.scenario import ScenarioConfig  # noqa: E402
from workloads import SELF_TEST, SHARE_PAPER_KEYS, WORKLOADS  # noqa: E402


def _paper_err(result, keys) -> float:
    """Mean |measured - paper| / |paper| over the given PAPER_VALUES keys."""
    summary = result.summary()
    errors = [
        abs((summary.get(key) or 0.0) - PAPER_VALUES[key]) / abs(PAPER_VALUES[key])
        for key in keys
    ]
    return sum(errors) / len(errors)


def _cpu(times) -> float:
    return times.user + times.system + times.children_user + times.children_system


def run_pass(spec: dict) -> dict:
    workload = {**WORKLOADS, SELF_TEST.name: SELF_TEST}[spec["workload"]]
    recorder = None
    if spec["trace"]:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    config = ScenarioConfig(**workload.scenario_overrides(spec["key_cache_dir"]))

    wall0, cpu0 = time.perf_counter(), os.times()
    study = GainesvilleStudy(config)
    study.build()
    wall1 = time.perf_counter()
    result = study.run()
    wall2, cpu2 = time.perf_counter(), os.times()

    security = result.security_stats
    out = {
        "setup_s": wall1 - wall0,
        "run_s": wall2 - wall1,
        "cpu_s": _cpu(cpu2) - _cpu(cpu0),
        "parent_cpu_s": (cpu2.user + cpu2.system) - (cpu0.user + cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha": trace_sha256(study.sim),
        "delivery_ratio": result.delivery.overall_delivery_ratio() or 0.0,
        "paper_err": _paper_err(
            result, PAPER_VALUES if workload.is_paper_world else SHARE_PAPER_KEYS
        ),
        "unique_messages": result.unique_messages,
        "total_posts": config.total_posts,
        "security_failures": security.get("security_failures", 0),
    }
    if recorder is not None:
        out.update(_traced_outputs(recorder, study, result))
        recorder.write_tsv(spec["spans_out"])
    return out


def _traced_outputs(recorder, study, result) -> dict:
    times, span_counts, covered = tracing.layer_metrics(recorder)
    counts = {
        metric: span_counts.get(span, 0) for metric, span in tracing.SPAN_COUNT_METRICS.items()
    }
    security = result.security_stats
    mpc = study.framework.stats
    medium = study.medium
    pool = study.keypair_pool
    established = security.get("session_keys_established", 0)
    finished = mpc["transfers_completed"] + mpc["transfers_failed"]
    faults = result.collector.fault_counts
    program = {
        "pki.keys_loaded": pool.stats["disk_hits"] if pool is not None else 0,
        "crypto.key_accept_ratio": (
            security.get("session_keys_accepted", 0) / established if established else 1.0
        ),
        "geo.distance_checks": medium.distance_checks,
        "geo.candidates": medium.pairs_examined,
        "net.contacts": result.contact_count,
        "net.pair_checks_skipped": medium.pair_checks_skipped,
        "mpc.transfer_ok_ratio": mpc["transfers_completed"] / finished if finished else 1.0,
        "mpc.bytes_delivered": mpc["bytes_delivered"],
        "core.packets_sent": security.get("packets_sent", 0),
        "core.security_failures": security.get("security_failures", 0),
        "core.connections_secured": security.get("connections_secured", 0),
        "alleyoop.sync_failures": result.collector.cloud_counts.get("sync_failed", 0),
        "sim.events": recorder.sim_events,
        "faults.frame_drop": faults.get("frame_drop", 0),
        "faults.frame_corrupt": faults.get("frame_corrupt", 0),
        "faults.crash": faults.get("crash", 0),
        "faults.link_flap": faults.get("link_flap", 0),
    }
    # Span counts must equal the program's own counters wherever both
    # exist: a boundary the wrappers miss shows up here.  Every key comes
    # from keygen at sign-up (eager) or through the pool, plus the CA's.
    pool_calls = sum(pool.stats.values()) if pool is not None else 0
    generated = security["keystores_materialized"] if pool is None else pool.stats["generated"]
    crosscheck = {
        "pki.keys_generated == keys generated + CA": (counts["pki.keys_generated"], generated + 1),
        "net.ticks == Medium.tick_count": (counts["net.ticks"], medium.tick_count),
        "mpc.transfers == completed + failed": (counts["mpc.transfers"], finished),
        "sim.trace_events == len(sim.trace)": (counts["sim.trace_events"], len(study.sim.trace)),
        "mpc.invitations == invitations_sent": (counts["mpc.invitations"], mpc["invitations_sent"]),
        "KeypairPool.get spans == pool lookups": (span_counts.get("pki.pool_get", 0), pool_calls),
    }
    return {
        "layers": times,
        "counts": {**counts, **program},
        "covered_s": covered,
        "spans": len(recorder),
        "crosscheck_failures": [
            f"{label}: {got} != {want}" for label, (got, want) in crosscheck.items() if got != want
        ],
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_pass(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
