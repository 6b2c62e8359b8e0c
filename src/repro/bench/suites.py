"""The built-in benchmark suites.

A suite is a name plus a list of runs, each naming a point in scenario
space — a dict of ``ScenarioConfig`` keyword overrides — and a
repetition count.

Design rule: the ``smoke`` suite's runs are a strict subset of the
``default`` suite's runs (same names, same configs).  The committed
``BENCH_default.json`` baseline therefore contains every smoke point,
which is what lets the cheap CI lane gate ``BENCH_smoke.json`` against
it — shared keys compare, the full-study point simply has no
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple


class SuiteError(ValueError):
    """An unknown suite name."""


@dataclass(frozen=True)
class BenchRun:
    """One named point: ScenarioConfig overrides + repetition count."""

    name: str
    config: Dict[str, Any]
    repetitions: int = 1


@dataclass(frozen=True)
class BenchSuite:
    """A named, ordered list of runs."""

    name: str
    runs: Tuple[BenchRun, ...]
    description: str = ""


#: Shared smoke-size points (see the module docstring: the smoke suite
#: is a subset of the default suite so the committed default baseline
#: can gate CI smoke artifacts).  Day-length worlds keep the lane under
#: a minute; two repetitions of the first point let the runner (and the
#: gate) verify trace-repetition determinism inside one artifact.
_SMOKE_RUNS: Tuple[BenchRun, ...] = (
    BenchRun("smoke_default", {"duration_days": 1, "total_posts": 40}, repetitions=2),
    BenchRun(
        "smoke_legacy_crypto",
        {"duration_days": 1, "total_posts": 40, "session_crypto": False},
    ),
    BenchRun(
        "smoke_sparse_n16",
        {
            "num_users": 16,
            "duration_days": 1,
            "total_posts": 40,
            "social_graph": "degree_bounded",
            "provisioning": "lazy",
        },
    ),
)

BUILTIN_SUITES: Dict[str, BenchSuite] = {
    "smoke": BenchSuite(
        "smoke", _SMOKE_RUNS, "CI-cheap day-length points; subset of 'default'"
    ),
    "default": BenchSuite(
        "default",
        _SMOKE_RUNS + (BenchRun("default_study", {}),),
        "the committed baseline: every smoke point plus "
        "the full 7-day field-study reconstruction",
    ),
}


def builtin_suite_names() -> List[str]:
    return sorted(BUILTIN_SUITES)


def load_suite(name: str) -> BenchSuite:
    """A built-in suite by name."""
    if name not in BUILTIN_SUITES:
        raise SuiteError(
            f"unknown suite {name!r} (built-ins: {', '.join(builtin_suite_names())})"
        )
    return BUILTIN_SUITES[name]
