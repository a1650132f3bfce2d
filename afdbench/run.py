"""The repository's benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 afdbench/run.py --workload rank_rwd --seed 1 --seconds 20 --trace 0

Workloads (see ``library.py`` and ``serve.py``):

* ``rank_rwd``   - ``discover_afds`` with all 14 measures on the R1-R5
  stand-ins (2,000 rows each): measure scoring dominates;
* ``screen_csv`` - gz CSV of R1 at 100,000 rows -> ``ChunkedRelation.read_csv``
  -> partition-free screen with the 11 measures that need no permutation
  expectation or smoothing: ingest and chunked statistics dominate;
* ``serve_mixed`` - one closed-loop client against the sharded service:
  cached scores beside live deltas and live scores.

``--seconds`` fixes the amount of work, never a duration: passes over
the inputs (library workloads) or requests (service) per second of
nominal run length.  ``--seed`` makes the inputs; the library workloads
use input slot ``seed % 16``, for which references are recorded.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
the workload's ``setups`` set-ups, timed on both sides of the run),
``run_s``, ``peak_rss_mb`` (timed phase only) and
``p50_ms`` (median latency of one operation: one ranking pass over
R1-R5, one CSV -> result pass, or one HTTP request).  ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics
from the spans the benchmark records around its calls into each layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

WORK_DIR = Path(".afdbench")
#: The paper's 14 measures, spelled out so that the metric names stay
#: fixed even if the library renames or reorders its measures.
MEASURE_NAMES = (
    "rho", "g2", "g3", "g3_prime", "gS1", "fi", "rfi_plus", "rfi_prime_plus",
    "sfi", "g1", "g1_prime", "pdep", "tau", "mu_plus",
)
#: Per-layer metrics every traced run prints (0 where a workload has no
#: such span or counter), with their units.
LAYER_UNITS = {
    **{f"core.measure.{name}_s": "s" for name in MEASURE_NAMES},
    "core.statistics_s": "s",
    "core.statistics_calls": "count",
    "core.chunked_statistics_s": "s",
    "core.chunked_statistics_calls": "count",
    "relation.encode_s": "s",
    "relation.ingest_s": "s",
    "relation.code_bytes": "bytes",
    "relation.chunks": "count",
    "discovery.candidates": "count",
    "discovery.statistics_computed": "count",
    "discovery.pruned": "count",
    "discovery.self_s": "s",
    "service.requests": "count",
    "service.score_p50_ms": "ms",
    "service.live_score_p50_ms": "ms",
    "service.delta_p50_ms": "ms",
    "service.p99_ms": "ms",
    **{f"service.stage.{stage}_ms": "ms" for stage in ("parse", "pipe", "statistics", "scoring")},
    "service.unexplained_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.cache_lookups": "count",
    "host.ref_loop_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unexplained_share": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="AFD benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=("rank_rwd", "screen_csv", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host drift, memory and environment
# ----------------------------------------------------------------------
def ref_loop_ms() -> float:
    """Median of five timings of a fixed pure-python loop.

    It is timed before and after every run: when it slows, the machine
    slowed, not the program.
    """
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        timings.append(time.perf_counter() - started)
    return 1e3 * statistics.median(timings)


def reset_peak_rss(pids: List[int]) -> None:
    """Reset the resident-memory high-water mark of each process."""
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def peak_rss_mb(pids: List[int]) -> float:
    """Summed ``VmHWM`` of the processes, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit when the working directory is a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(root),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def workload_class(name: str):
    if name == "serve_mixed":
        from serve import ServeMixed

        return ServeMixed
    from library import RankRwd, ScreenCsv

    return {"rank_rwd": RankRwd, "screen_csv": ScreenCsv}[name]


def timed_run(workload, tracer=None):
    """One timed phase: ``(latencies, outputs, run_s, peak_rss_mb)``."""
    pids = workload.pids()
    gc.collect()
    reset_peak_rss(pids)
    started = time.perf_counter()
    latencies, outputs = workload.run(tracer)
    run_s = time.perf_counter() - started
    return latencies, outputs, run_s, peak_rss_mb(pids)


def timed_setup(cls, args, setup_times: List[float]):
    gc.collect()
    started = time.perf_counter()
    workload = cls(args.seed, args.seconds, WORK_DIR)
    setup_times.append(time.perf_counter() - started)
    return workload


def end_to_end(cls, args) -> tuple:
    # Half of the set-ups are timed after the run, so that setup_s
    # samples the host's speed at both ends of it.
    setup_times: List[float] = []
    before = cls.setups // 2
    for _ in range(before):
        timed_setup(cls, args, setup_times).close()
    workload = timed_setup(cls, args, setup_times)
    try:
        latencies, outputs, run_s, peak = timed_run(workload)
    finally:
        workload.close()
    for _ in range(cls.setups - before - 1):
        timed_setup(cls, args, setup_times).close()
    attempted, failed, first = workload.check(outputs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (peak, "MiB"),
        "p50_ms": (1e3 * statistics.median(latencies), "ms"),
    }
    return attempted, failed, first, metrics


def per_layer(cls, args) -> tuple:
    """An untraced run for the overhead base, then the traced run."""
    from spans import Tracer

    workload = cls(args.seed, args.seconds, WORK_DIR)
    try:
        plain_s = timed_run(workload)[2]
    finally:
        workload.close()

    tracer = Tracer()
    workload = cls(args.seed, args.seconds, WORK_DIR)
    try:
        before = workload.snapshot()
        latencies, outputs, traced_s, _ = timed_run(workload, tracer)
        after = workload.snapshot()
    finally:
        workload.close()
    # The service's measures run in its workers, out of the benchmark's
    # reach; its replica replays the same requests (each static FD once),
    # and times them.
    replica = Tracer()
    attempted, failed, first = workload.check(outputs, replica)
    tracer.write(WORK_DIR / f"trace-{workload.name}-{args.seed}.json", workload.name, args.seed)

    values: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    values.update(workload.layer_metrics(latencies, outputs, before, after))
    own = {**tracer.self_seconds(), **replica.self_seconds()}
    calls = tracer.counts()
    for name in MEASURE_NAMES:
        values[f"core.measure.{name}_s"] = own.get(f"core.measure.{name}", 0.0)
    for layer in ("core.statistics", "core.chunked_statistics"):
        values[f"{layer}_s"] = own.get(layer, 0.0)
        values[f"{layer}_calls"] = calls.get(layer, 0)
    values["relation.encode_s"] = own.get("relation.encode", 0.0)
    values["relation.ingest_s"] = own.get("relation.ingest", 0.0)
    values["discovery.self_s"] = own.get("discovery", 0.0)
    values["trace.overhead_ratio"] = traced_s / plain_s
    share, gap = workload.unexplained(tracer, traced_s, values)
    values["trace.unexplained_share"] = share
    if share > 0.10:
        print(f"layer accounting gap ({share:.1%}): {gap}", file=sys.stderr)
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    return attempted, failed, first, metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("afdbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    cls = workload_class(args.workload)
    env = environment(root)
    env["host.ref_loop_ms_before"] = ref_loop_ms()
    if args.trace:
        attempted, failed, first, metrics = per_layer(cls, args)
    else:
        attempted, failed, first, metrics = end_to_end(cls, args)
    env["host.ref_loop_ms_after"] = ref_loop_ms()
    if args.trace:
        drift = (env["host.ref_loop_ms_before"] + env["host.ref_loop_ms_after"]) / 2
        metrics["host.ref_loop_ms"] = (drift, "ms")
    if first is not None:
        print(f"output check failed ({failed} of {attempted}): {first}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
