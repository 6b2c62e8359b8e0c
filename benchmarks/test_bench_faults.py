"""Fault-injection degradation sweep (ISSUE 7).

Dissemination and delivery must degrade *gracefully and measurably* with
link-layer loss: sweeping ``frame_drop_prob`` over the mild preset, the
delivery ratio and transfer totals fall monotonically while the trace
accounts for every injected fault, and a fixed (seed, fault seed) pair
reproduces each point byte-for-byte.  The numbers behind the table in
EXPERIMENTS.md ("Degradation under injected faults") come from the same
sweep at days=3 / posts=80.

Run just this bench with::

    PYTHONPATH=src python -m pytest benchmarks -k faults -q
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.experiments import GainesvilleStudy, ScenarioConfig
from repro.metrics.report import format_table

SEED = 2029
FAULT_SEED = 7


def _run_point(drop_prob: float, days: int, posts: int):
    spec = "none" if drop_prob == 0.0 else f"mild,frame_drop_prob={drop_prob}"
    config = ScenarioConfig(
        duration_days=days, total_posts=posts, seed=SEED,
        faults=spec, fault_seed=FAULT_SEED,
    )
    result = GainesvilleStudy(config).run()
    ratio = result.delivery.overall_delivery_ratio() or 0.0
    return result, ratio


def _sweep(points, days: int, posts: int) -> List[Tuple]:
    rows = []
    for p in points:
        result, ratio = _run_point(p, days, posts)
        rows.append((
            p,
            result.disseminations,
            ratio,
            result.collector.fault_counts.get("frame_drop", 0),
            result.collector.cloud_counts.get("sync_retry", 0),
        ))
    return rows


def test_bench_delivery_degrades_monotonically_with_loss():
    """The EXPERIMENTS.md sweep: delivery falls with frame loss, every
    drop is accounted for in the trace, and the faultless point matches
    the oracle's faultless run (no injector in the loop at all)."""
    rows = _sweep((0.0, 0.05, 0.15, 0.30, 0.50), days=3, posts=80)
    print()
    print(format_table(
        "delivery vs frame loss (3 days, 80 posts, mild base plan)",
        ("drop prob", "disseminations", "delivery ratio", "frames dropped", "retries"),
        [(f"{p:.2f}", d, f"{r:.3f}", f, s) for p, d, r, f, s in rows],
    ))
    disseminations = [d for _, d, _, _, _ in rows]
    ratios = [r for _, _, r, _, _ in rows]
    dropped = [f for _, _, _, f, _ in rows]
    # Strictly-ordered degradation across the sweep (the points are far
    # enough apart that sampling noise cannot reorder them).
    assert disseminations == sorted(disseminations, reverse=True)
    assert disseminations[-1] < disseminations[0] / 10
    assert ratios == sorted(ratios, reverse=True)
    # The faultless point injects nothing; every lossy point accounts
    # for its drops in the trace.
    assert dropped[0] == 0
    assert all(f > 0 for f in dropped[1:])
    assert dropped == sorted(dropped)


def test_bench_fault_runs_reproduce_byte_for_byte():
    """Same plan + same fault seed = identical run, different fault seed
    = different run (the determinism contract the chaos lane relies on)."""
    from tests.worldutil import trace_lines

    def lines(fault_seed):
        config = ScenarioConfig(
            duration_days=2, total_posts=40, seed=SEED,
            faults="harsh", fault_seed=fault_seed,
        )
        study = GainesvilleStudy(config)
        study.run()
        return trace_lines(study.sim)

    first = lines(99)
    assert first == lines(99)
    assert first != lines(100)


@pytest.mark.bench_smoke
def test_bench_smoke_degradation_miniature():
    """Tiny two-point sweep cheap enough for any CI lane: heavy loss
    must visibly hurt, and the lossy point must reproduce exactly."""
    rows = _sweep((0.0, 0.30), days=1, posts=30)
    (_, clean_d, clean_r, clean_f, _), (_, lossy_d, lossy_r, lossy_f, _) = rows
    assert clean_f == 0 and lossy_f > 0
    assert lossy_d < clean_d
    assert lossy_r < clean_r
    again, again_ratio = _run_point(0.30, days=1, posts=30)
    assert (again.disseminations, again_ratio) == (lossy_d, lossy_r)
