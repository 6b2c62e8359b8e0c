"""The regression gate: ``repro bench check --against baseline``.

Compares a current artifact against a baseline on their shared
``(run, repetition)`` keys with two independent checks:

* **slowdown** — ``cpu_s`` (wall time is noisier) may grow by at most
  ``threshold`` relative to the baseline (``0.5`` = fail beyond 1.5x).
  Points whose baseline *and* current values both sit under
  :data:`MIN_SECONDS` are skipped — a 5 ms point doubling is
  measurement noise, not a regression.
* **trace divergence** — shared runs whose configs match must carry
  identical ``trace_sha256``.  Unlike timings this comparison is exact
  and host-independent: a mismatch means the simulation itself changed
  behaviour for a fixed seed, which is either an intentional
  re-baseline (update the committed artifact) or a determinism bug.
  A point with no sha on either side fails too: it cannot show that
  its trace is unchanged.
* **config drift** — a shared ``(run, repetition)`` key whose configs
  differ fails the gate: the suite definition and the baseline disagree,
  so the baseline no longer says anything about that point.

Cross-host honesty: absolute timings from different host fingerprints
are only loosely comparable; the gate reports the fingerprint mismatch
and CI lanes run with a generous threshold, leaning on the trace check
for the exact signal.  No shared runs at all is a *failure*, not a
pass — a gate that silently compares nothing is no gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.schema import runs_by_key

#: Default allowed relative slowdown (0.5 == fail beyond 1.5x).
DEFAULT_THRESHOLD = 0.5
#: The timing metric the gate judges.
METRIC = "cpu_s"
#: Points faster than this in both artifacts are never judged.
MIN_SECONDS = 0.05

_FAILED = ("slow", "trace-mismatch", "trace-missing", "config-drift")


@dataclass
class CheckEntry:
    """One compared point."""

    name: str
    repetition: int
    status: str  # "ok" | "skipped-small" or one of _FAILED
    detail: str = ""
    baseline: float = 0.0
    current: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status in _FAILED


@dataclass
class CheckReport:
    """The gate's verdict over every shared point."""

    threshold: float
    entries: List[CheckEntry] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[CheckEntry]:
        return [entry for entry in self.entries if entry.failed]

    @property
    def compared(self) -> int:
        return sum(1 for entry in self.entries if entry.status != "config-drift")

    @property
    def ok(self) -> bool:
        return not self.failures and self.compared > 0

    def render(self) -> str:
        lines = [
            f"bench check: metric={METRIC} threshold=+{self.threshold * 100:.0f}%"
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        for entry in sorted(self.entries, key=lambda e: (e.name, e.repetition)):
            label = f"{entry.name}#{entry.repetition}"
            if entry.status == "ok":
                lines.append(
                    f"  ok    {label}: {entry.baseline:.3f} -> {entry.current:.3f} "
                    f"({_ratio(entry):+.1f}%)"
                )
            elif entry.status == "slow":
                lines.append(
                    f"  FAIL  {label}: {entry.baseline:.3f} -> {entry.current:.3f} "
                    f"({_ratio(entry):+.1f}% > +{self.threshold * 100:.0f}%)"
                )
            elif entry.failed:
                lines.append(f"  FAIL  {label}: {entry.detail}")
            else:
                lines.append(f"  skip  {label}: {entry.detail}")
        if self.compared == 0:
            lines.append("  FAIL  no comparable runs between the two artifacts")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {self.compared} compared, {len(self.failures)} regressed"
        )
        return "\n".join(lines)


def _ratio(entry: CheckEntry) -> float:
    if entry.baseline <= 0:
        return 0.0
    return (entry.current / entry.baseline - 1.0) * 100.0


def compare_artifacts(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> CheckReport:
    """Gate ``current`` against ``baseline`` (both validated artifact
    dicts); returns a :class:`CheckReport` whose ``ok`` decides CI."""
    if not threshold >= 0:  # also rejects NaN
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    report = CheckReport(threshold=threshold)
    cur_host = current.get("host", {}).get("fingerprint")
    base_host = baseline.get("host", {}).get("fingerprint")
    if cur_host != base_host:
        report.notes.append(
            f"host fingerprints differ (baseline {base_host}, current {cur_host}): "
            "absolute timings are loosely comparable; trust the trace check"
        )
    base_runs = runs_by_key(baseline)
    cur_runs = runs_by_key(current)
    for key in sorted(set(base_runs) & set(cur_runs)):
        name, repetition = key
        base, cur = base_runs[key], cur_runs[key]
        if base["config"] != cur["config"]:
            report.entries.append(
                CheckEntry(
                    name, repetition, "config-drift",
                    detail="same run key but different configs — the suite "
                    "definition and the baseline disagree; re-baseline",
                )
            )
            continue
        base_sha, cur_sha = base.get("trace_sha256"), cur.get("trace_sha256")
        if not (base_sha and cur_sha):
            report.entries.append(
                CheckEntry(
                    name, repetition, "trace-missing",
                    detail="trace sha256 missing on one side: "
                    "trace equality cannot be shown",
                )
            )
            continue
        if base_sha != cur_sha:
            report.entries.append(
                CheckEntry(
                    name, repetition, "trace-mismatch",
                    detail=f"trace sha256 diverged ({base_sha[:12]} -> "
                    f"{cur_sha[:12]}): behaviour changed for a fixed seed "
                    "— re-baseline deliberately or fix the determinism bug",
                )
            )
            continue
        base_value = base["metrics"].get(METRIC)
        cur_value = cur["metrics"].get(METRIC)
        if base_value is None or cur_value is None:
            report.entries.append(
                CheckEntry(
                    name, repetition, "skipped-small",
                    detail=f"metric {METRIC!r} absent from one side",
                )
            )
            continue
        entry = CheckEntry(
            name, repetition, "ok", baseline=float(base_value), current=float(cur_value)
        )
        if base_value < MIN_SECONDS and cur_value < MIN_SECONDS:
            entry.status = "skipped-small"
            entry.detail = f"both under {MIN_SECONDS}s: too small to judge"
        elif base_value > 0 and cur_value > base_value * (1.0 + threshold):
            entry.status = "slow"
        report.entries.append(entry)
    return report
