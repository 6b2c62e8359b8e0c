"""The repository benchmark: field_study, city_sweep and lossy_epidemic.

Run from the repository root::

    python3 perfbench/run.py --workload field_study --seed 2017 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Each pass builds and runs the workload's world in a fresh single-threaded
child process (``world.py``), one pass at a time; passes alternate
between two ``PYTHONHASHSEED`` values derived from ``--seed``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count passes, and ``metrics`` holds the end-to-end
metrics (``--trace 0``) or the per-layer metrics of the traced passes
(``--trace 1``), named and with units as BENCHMARK.json declares them.
README.md in this directory says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import SELF_TIME_METRICS  # noqa: E402
from workloads import SELF_TEST, WORKLOADS, Workload  # noqa: E402

#: A run must end within this many seconds; passes are not started when
#: they would likely overrun it.
RUN_LIMIT_S = 170.0
#: Metric names and units are the ones BENCHMARK.json declares.
CONTRACT = ROOT / "BENCHMARK.json"
#: The committed artifact whose ``default_study`` sha field_study must
#: reproduce.
REFERENCE_ARTIFACT = ROOT / "BENCH_default.json"
#: Traced passes write their spans here, as ``<workload>/pass<N>.tsv``;
#: a traced run first removes its workload's files from an earlier run.
SPANS_DIR = ROOT / ".perfbench_spans"
DEFAULT_SEED = 2017
HOST_METRICS = ("setup_s", "run_s", "cpu_s", "peak_rss_mb")
SIMULATED_METRICS = ("delivery_ratio", "paper_err")


class Pass:
    """One child-process pass and the checks it failed."""

    def __init__(self, traced: bool, timed: bool, hash_seed: str) -> None:
        self.traced = traced
        self.timed = timed
        self.hash_seed = hash_seed
        self.out: Optional[dict] = None
        #: Where a traced pass writes its spans, relative to the root.
        self.spans_out: Optional[str] = None
        self.errors: List[str] = []

    @property
    def ok(self) -> bool:
        return self.out is not None and not self.errors

    def label(self) -> str:
        kind = "traced" if self.traced else ("timed" if self.timed else "warm-up")
        return f"{kind} pass, PYTHONHASHSEED={self.hash_seed}"


class Runner:
    def __init__(self, workload: Workload, seed: int, seconds: float, scratch: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.hash_seeds = (str(2 * seed % 2**32), str((2 * seed + 1) % 2**32))
        self.key_cache = str(scratch / "keys") if workload.warm_key_cache else None
        self.spans_dir = SPANS_DIR / workload.name
        self.passes: List[Pass] = []
        self.started = time.perf_counter()
        self.measured_s = 0.0
        self._longest_s = 0.0

    # -- passes ------------------------------------------------------------------
    def run_pass(self, traced: bool = False, timed: bool = True) -> Pass:
        p = Pass(traced, timed, self.hash_seeds[len(self.passes) % 2])
        self.passes.append(p)
        if traced:
            p.spans_out = str((self.spans_dir / f"pass{len(self.passes)}.tsv").relative_to(ROOT))
        spec = {
            "workload": self.workload.name,
            "key_cache_dir": self.key_cache,
            "trace": traced,
            "spans_out": p.spans_out,
        }
        env = dict(os.environ, PYTHONHASHSEED=p.hash_seed)
        timeout = max(10.0, RUN_LIMIT_S + 5.0 - self.elapsed())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "world.py"), json.dumps(spec)],
                env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            p.errors.append(f"timed out after {timeout:.0f} s")
            return p
        finally:
            spent = time.perf_counter() - t0
            self._longest_s = max(self._longest_s, spent)
            if timed:
                self.measured_s += spent
        if proc.returncode != 0:
            p.errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return p
        try:
            p.out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            p.errors.append(f"unreadable pass output: {proc.stdout[-500:]!r}")
        return p

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def want_more(self, done: int, minimum: int) -> bool:
        if self.elapsed() + 1.5 * self._longest_s > RUN_LIMIT_S:
            return False
        return done < minimum or self.measured_s < self.seconds

    def run_passes(self, traced: bool) -> None:
        """An untimed warm-up pass when the workload has a key cache, then
        timed passes — alternately untraced and traced under ``--trace 1``
        — until ``seconds`` of them ran, at least two."""
        if traced:
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir(parents=True)
        if self.workload.warm_key_cache:
            self.run_pass(timed=False)
        done = 0
        while self.want_more(done, 2):
            self.run_pass(traced=traced and done % 2 == 1)
            done += 1

    # -- output checks -----------------------------------------------------------
    def check(self) -> None:
        reference = _reference_sha() if self.workload.is_paper_world else None
        first_sha: Optional[str] = None
        first_counts: Optional[dict] = None
        for p in self.passes:
            if p.out is None:
                continue
            out = p.out
            first_sha = first_sha or out["sha"]
            if out["sha"] != first_sha:
                p.errors.append(f"trace sha {out['sha'][:12]} != {first_sha[:12]} of pass 1")
            if reference is not None and out["sha"] != reference:
                p.errors.append(f"trace sha {out['sha'][:12]} != default_study {reference[:12]}")
            if out["unique_messages"] != out["total_posts"]:
                p.errors.append(
                    f"unique_messages {out['unique_messages']} != total_posts {out['total_posts']}"
                )
            if not self.workload.faulty and out["security_failures"] != 0:
                p.errors.append(f"{out['security_failures']} security failures without faults")
            if p.traced:
                p.errors.extend(out["crosscheck_failures"])
                first_counts = first_counts or out["counts"]
                if out["counts"] != first_counts:
                    diff = sorted(k for k in first_counts if first_counts[k] != out["counts"][k])
                    p.errors.append(f"counts differ from the first traced pass: {diff}")

    # -- metrics -----------------------------------------------------------------
    def ok_outputs(self, traced: bool) -> List[dict]:
        return [p.out for p in self.passes if p.ok and p.timed and p.traced == traced]

    def end_to_end(self) -> Dict[str, float]:
        """Host metrics: median over timed passes.  Simulated metrics are
        deterministic for the world, so any pass gives them."""
        outs = self.ok_outputs(traced=False)
        if not outs:
            return {}
        metrics = {name: statistics.median(out[name] for out in outs) for name in HOST_METRICS}
        metrics.update((name, outs[0][name]) for name in SIMULATED_METRICS)
        return metrics

    def per_layer(self) -> Dict[str, float]:
        traced = self.ok_outputs(traced=True)
        plain = self.ok_outputs(traced=False)
        if not traced or not plain:
            return {}
        metrics = {
            name: statistics.median(out["layers"][name] for out in traced)
            for name in SELF_TIME_METRICS
        }
        metrics.update(traced[0]["counts"])

        def wall(out):
            return out["setup_s"] + out["run_s"]

        metrics["trace.unattributed_s"] = statistics.median(
            wall(out) - out["covered_s"] for out in traced
        )
        metrics["trace.coverage"] = statistics.median(
            out["covered_s"] / wall(out) for out in traced
        )
        metrics["trace.overhead_s"] = (
            statistics.median(wall(out) for out in traced)
            - statistics.median(wall(out) for out in plain)
        )
        metrics["trace.spans"] = traced[0]["spans"]
        return metrics


def _reference_sha() -> str:
    try:
        artifact = json.loads(REFERENCE_ARTIFACT.read_text())
    except (OSError, ValueError):
        return "missing " + REFERENCE_ARTIFACT.name
    for run in artifact.get("runs", []):
        if run.get("name") == "default_study":
            return run["trace_sha256"]
    return "no default_study run in " + REFERENCE_ARTIFACT.name


def _declared_units(trace: bool) -> Dict[str, str]:
    contract = json.loads(CONTRACT.read_text())
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def self_test(scratch: Path) -> int:
    """A forking world must report more total CPU than parent-only CPU."""
    p = Runner(SELF_TEST, DEFAULT_SEED, 0.0, scratch).run_pass()
    if not p.ok:
        print(f"self-test pass failed: {p.errors}", file=sys.stderr)
        return 1
    cpu, parent = p.out["cpu_s"], p.out["parent_cpu_s"]
    verdict = cpu > parent
    print(f"self-test: cpu_s {cpu:.3f} s, parent-only {parent:.3f} s, "
          f"reaped children {cpu - parent:.3f} s -> {'ok' if verdict else 'FAIL'}")
    return 0 if verdict else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    # On SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the finally block below removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".perfbench_scratch" / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        if args.self_test:
            return self_test(scratch)
        runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, scratch)
        runner.run_passes(traced=bool(args.trace))
        runner.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    for p in runner.passes:
        if p.out is not None:
            o = p.out
            spans = f", spans in {p.spans_out}" if p.traced else ""
            print(f"{p.label()}: setup {o['setup_s']:.3f} s, run {o['run_s']:.3f} s, "
                  f"sha {o['sha'][:12]}, delivery {o['delivery_ratio']:.4f}{spans}")
        for error in p.errors:
            print(f"FAILED {p.label()}: {error}", file=sys.stderr)
    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    units = _declared_units(bool(args.trace))
    if metrics and set(metrics) != set(units):
        print(f"metrics differ from {CONTRACT.name}: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    failed = sum(1 for p in runner.passes if not p.ok)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
