"""Record the reference outputs the library workloads are checked against.

Run from the repository root::

    python3 afdbench/references.py

For every input slot (``seed % REFERENCE_SLOTS``) it runs the untimed
path of ``rank_rwd`` and ``screen_csv`` once and stores every
candidate's ``exact`` flag and scores, rounded to 12 decimals, in
``afdbench/refs/<workload>.json.gz``.  Re-record only when a change is
meant to alter scores, and say so where the change is described.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from library import (  # noqa: E402
    REFERENCE_SLOTS,
    SCREEN_CHUNK_ROWS,
    SCREEN_MEASURES,
    candidate_rows,
    rank_relations,
    reference_path,
    screen_measures,
    write_screen_input,
)
from repro import all_measures, discover_afds  # noqa: E402
from repro.relation.chunked import ChunkedRelation  # noqa: E402


def rounded(rows):
    return [[fd, exact, [round(score, 12) for score in scores]] for fd, exact, scores in rows]


def record_rank(slot: int):
    return {
        relation.name: rounded(candidate_rows(discover_afds(relation, all_measures(), max_lhs_size=1)))
        for relation in rank_relations(slot)
    }


def record_screen(slot: int, work_dir: Path):
    path = work_dir / f"screen_csv-{slot}.csv.gz"
    write_screen_input(str(path), slot)
    source = ChunkedRelation.read_csv(path, chunk_size=SCREEN_CHUNK_ROWS, name="R1")
    result = discover_afds(source, screen_measures())
    path.unlink()
    return {result.relation_name: rounded(candidate_rows(result))}


def write(workload: str, measures, slots) -> None:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"measures": list(measures), "slots": slots}
    # mtime=0 keeps the file byte-identical across re-recordings.
    with gzip.GzipFile(path, "wb", mtime=0) as handle:
        handle.write(json.dumps(document, sort_keys=True).encode("utf-8"))
    print(f"wrote {path}", flush=True)


def main() -> int:
    rank, screen = {}, {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as work_dir:
        for slot in range(REFERENCE_SLOTS):
            rank[str(slot)] = record_rank(slot)
            screen[str(slot)] = record_screen(slot, Path(work_dir))
            print(f"slot {slot} recorded", flush=True)
    write("rank_rwd", all_measures(), rank)
    write("screen_csv", SCREEN_MEASURES, screen)
    return 0


if __name__ == "__main__":
    sys.exit(main())
