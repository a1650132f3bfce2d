"""The two library workloads: ``rank_rwd`` and ``screen_csv``.

Both call the library only through public entry points.  The untraced
run is what a user writes: ``discover_afds`` on a relation.  The traced
run calls the functions ``discover_afds`` dispatches to
(``lattice_discover`` / ``chunked_discover``) so that it can pass its
wrappers through their public hooks: timed measures through
``measures=`` and a timed ``statistics_provider`` that makes the same
``FdStatistics.compute`` / ``compute_chunked`` call the default path
makes.

Every candidate's scores and ``exact`` flag are compared with the
references in ``refs/`` (see ``references.py``), to ``TOLERANCE``.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import FdStatistics, Relation, all_measures, discover_afds
from repro.core import resolve_backend
from repro.core.chunked import compute_chunked
from repro.discovery import chunked_discover, lattice_discover
from repro.relation.chunked import ChunkedRelation
from repro.relation.io import write_csv
from repro.rwd.datasets import build_dataset, dataset_keys

from spans import Tracer, timed_measures

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "refs"
#: Seeds map onto this many recorded input sets (``seed % REFERENCE_SLOTS``).
REFERENCE_SLOTS = 16
#: Absolute score tolerance: loose enough for ULP-level re-derivations of
#: a measure, tight enough to catch a wrong one.
TOLERANCE = 1e-9

RANK_ROWS = 2_000
#: ``--seconds`` per pass over R1-R5 (a pass takes 9-16 s on 2 vCPUs,
#: depending on how busy the shared host is).
RANK_PASS_SECONDS = 10
SCREEN_ROWS = 100_000
SCREEN_CHUNK_ROWS = 10_000
#: ``--seconds`` per CSV -> discovery pass (a pass takes 12-22 s on 2 vCPUs).
SCREEN_PASS_SECONDS = 20
#: The measures that need no permutation expectation and no smoothing.
SCREEN_MEASURES = (
    "rho", "g2", "g3", "g3_prime", "gS1", "fi",
    "g1", "g1_prime", "pdep", "tau", "mu_plus",
)


def screen_measures():
    measures = all_measures()
    return {name: measures[name] for name in SCREEN_MEASURES}


def passes_for(seconds: int, pass_seconds: int) -> int:
    return max(1, seconds // pass_seconds)


def python_child(code: str) -> Tuple[List[str], Dict[str, str]]:
    """``(argv, env)`` of a child Python that runs ``code`` with ``src/``
    and this directory importable.

    Children are started with ``subprocess``, not ``multiprocessing``: a
    spawn context starts a resource-tracker process of its own, which
    outlives the benchmark by a moment after it exits.
    """
    env = dict(os.environ)
    paths = [str(BENCH_DIR), str(BENCH_DIR.parent / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return [sys.executable, "-c", code], env


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def candidate_rows(result) -> List[list]:
    """A discovery result as ``[fd, exact, [score per measure]]`` rows."""
    names = result.measure_names
    return [
        [str(c.fd), bool(c.exact), [c.scores[name] for name in names]]
        for c in result.candidates
    ]


def load_reference(workload: str, slot: int) -> Tuple[List[str], Dict[str, list]]:
    """``(measure names, candidate rows per relation)`` recorded for ``slot``."""
    path = reference_path(workload)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        document = json.load(handle)
    slots = document["slots"]
    if str(slot) not in slots:
        raise LookupError(f"{path} has no reference for input slot {slot}")
    return document["measures"], slots[str(slot)]


def compare(result, names: List[str], expected: Sequence[list]) -> Tuple[int, int, Optional[str]]:
    """``(attempted, failed, first mismatch)`` of one result against its reference."""
    rows = candidate_rows(result)
    attempted = max(len(rows), len(expected))
    if result.measure_names != names:
        return attempted, attempted, f"measures {result.measure_names} != reference {names}"
    failed = abs(len(rows) - len(expected))
    first = None if not failed else f"{result.relation_name}: {len(rows)} candidates, expected {len(expected)}"
    for got, want in zip(rows, expected):
        ok = (
            got[0] == want[0]
            and got[1] == want[1]
            and len(got[2]) == len(want[2])
            and all(abs(a - b) <= TOLERANCE for a, b in zip(got[2], want[2]))
        )
        if not ok:
            failed += 1
            first = first or f"{result.relation_name}: {got} != reference {want}"
    return attempted, failed, first


class LibraryWorkload:
    """What both library workloads share: checks, counters, this process."""

    #: Set-ups timed per end-to-end run; ``setup_s`` is their median.
    setups = 3

    def pids(self) -> List[int]:
        return [os.getpid()]

    def snapshot(self) -> None:
        return None

    def close(self) -> None:
        pass

    def check(self, results, tracer: Optional[Tracer] = None) -> Tuple[int, int, Optional[str]]:
        attempted = failed = 0
        first = None
        for result in results:
            expected = self.reference.get(result.relation_name)
            if expected is None:
                raise LookupError(f"no reference for relation {result.relation_name!r}")
            a, f, message = compare(result, self.reference_measures, expected)
            attempted += a
            failed += f
            first = first or message
        return attempted, failed, first

    def layer_metrics(self, latencies, results, before, after) -> Dict[str, float]:
        code_bytes, chunks = self.encoding()
        return {
            "discovery.candidates": sum(len(r.candidates) for r in results),
            "discovery.statistics_computed": sum(r.statistics_computed for r in results),
            "discovery.pruned": sum(
                r.pruned_exact + r.pruned_key + r.pruned_bound for r in results
            ),
            "relation.code_bytes": code_bytes,
            "relation.chunks": chunks,
        }

    def unexplained(self, tracer: Tracer, run_s: float, values) -> Tuple[float, str]:
        """Share of the traced run that no top-level layer span covers."""
        gap = run_s - tracer.top_level_seconds()
        return gap / run_s, f"{gap:.3f} s of run_s {run_s:.3f} s is outside every top-level layer span"


# ----------------------------------------------------------------------
# rank_rwd
# ----------------------------------------------------------------------
def rank_relations(slot: int) -> List[Relation]:
    return [build_dataset(key, num_rows=RANK_ROWS, seed=slot).relation for key in dataset_keys()]


class RankRwd(LibraryWorkload):
    """All 14 measures rank every single-LHS candidate of R1-R5."""

    name = "rank_rwd"
    #: One set-up takes only ~0.25 s; many of them span more of the
    #: host's speed swings.
    setups = 15

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        self.slot = seed % REFERENCE_SLOTS
        self.reference_measures, self.reference = load_reference(self.name, self.slot)
        relations = rank_relations(self.slot)
        # A relation caches its columnar encoding, so every pass gets
        # fresh copies: each pass pays the encode, as a user's call does.
        self.passes = [
            [Relation(r.attributes, r, name=r.name) for r in relations]
            for _ in range(passes_for(seconds, RANK_PASS_SECONDS))
        ]
        warm = build_dataset("R1", num_rows=200, seed=self.slot).relation
        discover_afds(warm, all_measures(), max_lhs_size=1)

    def run(self, tracer: Optional[Tracer]) -> Tuple[List[float], list]:
        """One latency per pass: the time to rank all of R1-R5."""
        latencies: List[float] = []
        results = []
        for relations in self.passes:
            started = time.perf_counter()
            for relation in relations:
                if tracer is None:
                    result = discover_afds(relation, all_measures(), max_lhs_size=1)
                else:
                    result = self._traced(relation, tracer)
                results.append(result)
            latencies.append(time.perf_counter() - started)
        return latencies, results

    @staticmethod
    def _traced(relation: Relation, tracer: Tracer):
        def provider(relation, fd):
            with tracer.span("core.statistics"):
                return FdStatistics.compute(relation, fd), True

        # lattice_discover encodes up front on the numpy backend only.
        if resolve_backend().name == "numpy":
            with tracer.span("relation.encode"):
                relation.columnar()
        with tracer.span("discovery"):
            return lattice_discover(
                relation,
                measures=timed_measures(all_measures(), tracer),
                max_lhs_size=1,
                statistics_provider=provider,
            )

    def encoding(self) -> Tuple[int, int]:
        """Bytes of one pass's columnar codes (0 without numpy); no chunks."""
        code_bytes = 0
        for relation in self.passes[0]:
            view = relation.columnar(build=False)
            if view is not None:
                code_bytes += sum(view.codes(attribute).nbytes for attribute in relation.attributes)
        return code_bytes, 0


# ----------------------------------------------------------------------
# screen_csv
# ----------------------------------------------------------------------
def write_screen_input(path: str, slot: int) -> None:
    """Child-process set-up: the R1 stand-in as a gz CSV."""
    relation = build_dataset("R1", num_rows=SCREEN_ROWS, seed=slot).relation
    write_csv(relation, path)


class ScreenCsv(LibraryWorkload):
    """gz CSV -> chunked ingest -> partition-free single-LHS screen."""

    name = "screen_csv"

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        self.slot = seed % REFERENCE_SLOTS
        self.reference_measures, self.reference = load_reference(self.name, self.slot)
        self.path = work_dir / f"screen_csv-{self.slot}.csv.gz"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The 100k-row relation is built in a child process, so none of
        # it stays in this process's memory for the timed phase.
        argv, env = python_child(
            f"from library import write_screen_input; write_screen_input({str(self.path)!r}, {self.slot})"
        )
        # run() waits for the writer, and kills and reaps it on any error.
        writer = subprocess.run(argv, env=env)
        if writer.returncode != 0:
            raise RuntimeError(f"writing {self.path} failed (exit code {writer.returncode})")
        self.passes = passes_for(seconds, SCREEN_PASS_SECONDS)
        self.chunks: List[int] = []
        self.code_bytes: List[int] = []
        warm = ChunkedRelation.read_csv(self.path, chunk_size=500, max_rows=2_000, name="R1")
        discover_afds(warm, screen_measures())

    def run(self, tracer: Optional[Tracer]) -> Tuple[List[float], list]:
        latencies: List[float] = []
        results = []
        for _ in range(self.passes):
            started = time.perf_counter()
            if tracer is None:
                source = ChunkedRelation.read_csv(self.path, chunk_size=SCREEN_CHUNK_ROWS, name="R1")
                result = discover_afds(source, screen_measures())
            else:
                result, source = self._traced(tracer)
            latencies.append(time.perf_counter() - started)
            results.append(result)
            self.chunks.append(source.num_chunks)
            self.code_bytes.append(source.code_bytes())
        return latencies, results

    def _traced(self, tracer: Tracer):
        def provider(source, fd):
            with tracer.span("core.chunked_statistics"):
                return compute_chunked(source, fd), True

        with tracer.span("relation.ingest"):
            source = ChunkedRelation.read_csv(self.path, chunk_size=SCREEN_CHUNK_ROWS, name="R1")
        with tracer.span("discovery"):
            result = chunked_discover(
                source,
                measures=timed_measures(screen_measures(), tracer),
                statistics_provider=provider,
            )
        return result, source

    def encoding(self) -> Tuple[int, int]:
        return max(self.code_bytes), max(self.chunks)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)
