"""The ``BENCH_*.json`` artifact schema.

One artifact captures one suite execution on one host at one git
revision.  The layout is versioned (:data:`SCHEMA_VERSION`) so future
PRs can evolve it without silently invalidating committed baselines —
readers reject artifacts whose version they do not understand.

Top-level layout (version ``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "suite": "smoke",
      "created_utc": "2026-08-08T12:00:00Z",     # informational only
      "git_rev": "08a6fed..." | null,
      "host": {
        "fingerprint": "9f2c4e1a0b3d5f67",       # stable hash of platform
        "platform": "Linux-...-x86_64",
        "python": "3.11.7",
        "cpu_count": 8
      },
      "runs": [
        {
          "name": "smoke_default",
          "repetition": 0,
          "config": {"duration_days": 1, ...},   # ScenarioConfig overrides
          "metrics": {"wall_s": 7.1, "cpu_s": 7.0, "max_rss_kb": 48000, ...},
          "trace_sha256": "ab34..."              # 64 lowercase hex chars
        }, ...
      ]
    }

Determinism contract: for a fixed suite and seed, everything except
``created_utc``, ``git_rev``, ``host`` and the timing/memory metrics is
identical across runs — in particular every ``trace_sha256``.  The
regression gate leans on exactly that split: timings are compared with
a tolerance, trace digests with equality.
"""

from __future__ import annotations

import json
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Bump on any backwards-incompatible layout change, and teach
#: :func:`validate_artifact` about the migration.
SCHEMA_VERSION = "repro-bench/1"

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


class BenchSchemaError(ValueError):
    """An artifact violates the schema (wrong version, missing keys...)."""


def host_fingerprint() -> str:
    """A short stable identifier for "same machine class".

    Hashes platform/python/CPU-count — deliberately *not* hostname or
    MAC, so two identical CI runners compare as the same host class.
    """
    material = "|".join(
        (platform.platform(), platform.machine(), platform.python_version(),
         str(os.cpu_count() or 0))
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def host_info() -> Dict[str, Any]:
    """The ``host`` block of a new artifact."""
    return {
        "fingerprint": host_fingerprint(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
    }


def git_revision() -> Optional[str]:
    """The current git HEAD, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def utc_stamp() -> str:
    """Informational creation stamp (never part of any comparison)."""
    import datetime

    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


def new_artifact(
    suite: str,
    runs: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """A fresh artifact dict with the environment blocks filled in."""
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "created_utc": utc_stamp(),
        "git_rev": git_revision(),
        "host": host_info(),
        "runs": list(runs or []),
    }


def make_run_entry(
    name: str,
    repetition: int,
    config: Dict[str, Any],
    metrics: Dict[str, float],
    trace_sha256: str,
) -> Dict[str, Any]:
    """One ``runs[]`` element (validated shape in one place)."""
    return {
        "name": name,
        "repetition": int(repetition),
        "config": dict(config),
        "metrics": dict(metrics),
        "trace_sha256": trace_sha256,
    }


def validate_artifact(data: Any) -> Dict[str, Any]:
    """Check ``data`` against the schema; return it, or raise
    :class:`BenchSchemaError` naming the first violation."""
    if not isinstance(data, dict):
        raise BenchSchemaError(f"artifact must be a JSON object, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"unsupported schema {schema!r} (this reader understands {SCHEMA_VERSION!r})"
        )
    for key, kind in (("suite", str), ("host", dict), ("runs", list)):
        if key not in data:
            raise BenchSchemaError(f"artifact missing required key {key!r}")
        if not isinstance(data[key], kind):
            raise BenchSchemaError(
                f"artifact key {key!r} must be {kind.__name__}, "
                f"got {type(data[key]).__name__}"
            )
    if "git_rev" in data and not isinstance(data["git_rev"], (str, type(None))):
        raise BenchSchemaError("artifact key 'git_rev' must be a string or null")
    host = data["host"]
    for key in ("fingerprint", "platform", "python"):
        if not isinstance(host.get(key), str):
            raise BenchSchemaError(f"host block missing string key {key!r}")
    seen = set()
    for index, run in enumerate(data["runs"]):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            raise BenchSchemaError(f"{where} must be an object")
        if not isinstance(run.get("name"), str) or not run["name"]:
            raise BenchSchemaError(f"{where} missing non-empty string 'name'")
        if not isinstance(run.get("repetition"), int) or run["repetition"] < 0:
            raise BenchSchemaError(f"{where} missing non-negative int 'repetition'")
        if not isinstance(run.get("config"), dict):
            raise BenchSchemaError(f"{where} missing object 'config'")
        metrics = run.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise BenchSchemaError(f"{where} missing non-empty object 'metrics'")
        for metric, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise BenchSchemaError(
                    f"{where} metric {metric!r} must be a number, "
                    f"got {type(value).__name__}"
                )
        sha = run.get("trace_sha256")
        if not isinstance(sha, str) or not _SHA256_HEX.fullmatch(sha):
            raise BenchSchemaError(
                f"{where} 'trace_sha256' must be a 64-hex-char lowercase string, "
                f"got {sha!r}"
            )
        key = (run["name"], run["repetition"])
        if key in seen:
            raise BenchSchemaError(f"{where} duplicates run key {key!r}")
        seen.add(key)
    return data


def dump_artifact(data: Dict[str, Any], path: Path) -> None:
    """Validate and write an artifact (sorted keys, trailing newline —
    byte-stable for identical content, so committed baselines diff
    cleanly)."""
    validate_artifact(data)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_artifact(path: Path) -> Dict[str, Any]:
    """Read + validate an artifact file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchSchemaError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"artifact {path} is not valid JSON: {exc}") from exc
    return validate_artifact(data)


def runs_by_key(data: Dict[str, Any]) -> Dict[tuple, Dict[str, Any]]:
    """Index an artifact's runs by ``(name, repetition)``."""
    return {(run["name"], run["repetition"]): run for run in data["runs"]}
