"""Per-run resource sampling.

One context manager measures a run's wall time, total CPU time and
peak memory:

* ``wall_s``     — :func:`time.perf_counter` across the block,
* ``cpu_s``      — :func:`os.times` user + system of this process *plus*
  every child it reaped, so a run that forks workers reports the CPU
  they spent (the same formula as ``perfbench/world.py``),
* ``max_rss_kb`` — ``getrusage(RUSAGE_SELF).ru_maxrss`` at exit.

``max_rss_kb`` is a *process* peak, monotone over the process lifetime:
comparable across fresh CLI invocations (how the runner is used), not
across runs inside one long-lived process.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class SampleResult:
    """One run's resource readings."""

    wall_s: float
    cpu_s: float
    max_rss_kb: int

    def metrics(self) -> Dict[str, float]:
        """The artifact ``metrics`` fragment."""
        return {
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "max_rss_kb": float(self.max_rss_kb),
        }


def total_cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def max_rss_kb() -> int:
    """This process's peak RSS in KB (Linux reports KB, macOS bytes)."""
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak // 1024 if sys.platform == "darwin" else peak


class ResourceSampler:
    """``with ResourceSampler() as sampler: ...; sampler.result``."""

    def __init__(self) -> None:
        self.result: Optional[SampleResult] = None
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "ResourceSampler":
        self._wall0 = time.perf_counter()
        self._cpu0 = total_cpu_s()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.result = SampleResult(
            wall_s=time.perf_counter() - self._wall0,
            cpu_s=total_cpu_s() - self._cpu0,
            max_rss_kb=max_rss_kb(),
        )
