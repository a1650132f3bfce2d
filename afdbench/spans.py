"""In-memory spans for the traced benchmark run.

The spans are recorded by the benchmark around each call it makes into
a layer of the program; nothing inside ``src/`` is instrumented.  A span
has a name, a start, an end, the id of the span that was open when it
began (its parent) and the run id shared by every span of one run.  They
stay in memory until the run ends and are then written out as one JSON
file.

A span's *self time* is its duration minus the durations of its child
spans (children never overlap: the benchmark is single-threaded).
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path
from typing import Dict, List, Tuple

# One recorded span: (span id, parent id or 0, name, start, end).
Span = Tuple[int, int, str, float, float]


class Tracer:
    """Collects spans of one run; :meth:`span` opens a nested span."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: List[Span] = []
        self._open: List[int] = [0]
        self._next_id = 1

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span whose interval was timed by the caller."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, self._open[-1], name, start, end))

    def self_seconds(self) -> Dict[str, float]:
        """Self time summed per span name."""
        child_seconds: Dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for span_id, _, name, start, end in self.spans:
            own = (end - start) - child_seconds.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _, _, name, _, _ in self.spans:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent == 0)

    def write(self, path: Path, workload: str, seed: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run_id": self.run_id,
            "workload": workload,
            "seed": seed,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(document))


class _OpenSpan:
    __slots__ = ("tracer", "name", "span_id", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer._open.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._open.pop()
        tracer.spans.append((self.span_id, tracer._open[-1], self.name, self.start, end))


class TimedMeasure:
    """A measure wrapper passed through ``measures=``: one span per score."""

    def __init__(self, measure, tracer: Tracer) -> None:
        self.measure = measure
        self.name = measure.name
        self._span_name = f"core.measure.{measure.name}"
        self._tracer = tracer

    def score_from_statistics(self, statistics) -> float:
        with self._tracer.span(self._span_name):
            return self.measure.score_from_statistics(statistics)


def timed_measures(measures, tracer: Tracer) -> Dict[str, TimedMeasure]:
    return {name: TimedMeasure(measure, tracer) for name, measure in measures.items()}
