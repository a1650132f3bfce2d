"""The service workload: ``serve_mixed``.

``make_sharded_server(workers=2)`` runs in one child process, which
forks its two shard workers; client, front end and workers share one
CPU.  The R1-R5 stand-ins are registered as static relations, plus one
windowed dynamic relation ``live`` seeded from an R4 pool.  One HTTP/1.1
connection runs a closed loop (each request waits for the previous
reply, as a profiling client does) over a seeded request sequence:

* 80% ``/v1/relations/<R>/score`` on a design FD (statistics cache hits);
* 10% ``/v1/relations/live/delta`` with 32 inserts from the pool;
* 10% ``/v1/relations/live/score`` on an R4 design FD of ``LIVE_FDS``.

After the loop every reply is checked against an in-process
``AfdSession``: static scores directly (each FD scored once, as a
static relation's profile never changes), ``live`` by replaying the writes
in the order of their returned epochs (on one connection that is the
request order; every reply's epoch is compared with the replica's).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import Relation, all_measures
from repro.rwd.datasets import build_dataset, dataset_keys
from repro.service import AfdSession
from repro.service.server import make_sharded_server
from repro.stream import DynamicRelation

from library import TOLERANCE, python_child
from spans import Tracer, timed_measures

STATIC_ROWS = 2_000
LIVE_WINDOW = 4_000
LIVE_POOL_ROWS = 8_000
DELTA_INSERTS = 32
#: The R4 design FDs of the origin hierarchy.  Every delta re-scores the
#: tracked FDs; the carrier FDs are left out because their RFI+ re-score
#: (10-16 ms each at 4,000 rows) would make measure scoring, which
#: rank_rwd already isolates, most of this workload's time.
LIVE_FDS = ("origin -> origin_city", "origin_city -> origin", "origin_city -> origin_tz")
#: Requests per ``--seconds`` (a request takes 1.1-1.8 ms on average on one
#: pinned vCPU).
REQUESTS_PER_SECOND = 750
WORKERS = 2
#: Front-end stages that do not nest in one another; statistics and
#: scoring run inside ``pipe`` (in the worker).
TOP_STAGES = ("parse", "pipe")
STAGES = ("parse", "pipe", "statistics", "scoring")
HEADERS = {"Content-Type": "application/json"}


def serve(port_fd: int) -> None:
    """Server process: the sharded front end until SIGTERM.

    Its port is written to ``port_fd`` as one line once it listens.
    """
    server, _pool = make_sharded_server(workers=WORKERS)
    signal.signal(signal.SIGTERM, lambda signum, frame: server.shutdown())
    with os.fdopen(port_fd, "w") as port:
        port.write(f"{server.server_address[1]}\n")
    try:
        server.serve_forever()
    finally:
        server.server_close()


class Request:
    __slots__ = ("kind", "path", "body", "payload")

    def __init__(self, kind: str, relation: str, op: str, payload: dict) -> None:
        self.kind = kind
        self.path = f"/v1/relations/{relation}/{op}"
        self.payload = payload
        self.body = json.dumps(payload).encode("utf-8")


def as_lists(relation: Relation) -> List[list]:
    return [list(row) for row in relation]


def evenly(items: list, count: int, rng: random.Random) -> Iterator:
    """``count`` items that use each of ``items`` equally often (to one), in a seeded order."""
    drawn = [items[i % len(items)] for i in range(count)]
    rng.shuffle(drawn)
    return iter(drawn)


class ServeMixed:
    """Closed-loop reads beside writes against the sharded service."""

    name = "serve_mixed"
    #: Set-ups timed per end-to-end run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        rng = random.Random(seed)
        self.static: Dict[str, Tuple[list, List[list]]] = {}
        design: List[Tuple[str, str]] = []
        for key in dataset_keys():
            dataset = build_dataset(key, num_rows=STATIC_ROWS, seed=seed)
            relation = dataset.relation
            self.static[relation.name] = (list(relation.attributes), as_lists(relation))
            design += [(relation.name, str(fd)) for fd in dataset.design_schema.linear_fds()]
        pool_set = build_dataset("R4", num_rows=LIVE_POOL_ROWS, seed=seed)
        pool = as_lists(pool_set.relation)
        self.live_attributes = list(pool_set.relation.attributes)
        self.live_rows = pool[:LIVE_WINDOW]
        live_fds = list(LIVE_FDS)

        # Warm-up (set-up): every design FD scored once, so the static
        # statistics caches are full and the live FDs are tracked.
        self.warm = [Request("score", name, "score", {"fd": fd}) for name, fd in design]
        self.warm += [Request("live_score", "live", "score", {"fd": fd}) for fd in live_fds]
        # The mix is exact (80/10/10), every FD of a kind is scored equally
        # often, and only the order is drawn: the amount of work, and the
        # share of cheap and expensive FDs that sets the median latency,
        # do not vary with the seed.
        total = REQUESTS_PER_SECOND * seconds
        kinds = ["delta"] * (total // 10) + ["live_score"] * (total // 10)
        kinds += ["score"] * (total - len(kinds))
        rng.shuffle(kinds)
        static_fds = evenly(design, kinds.count("score"), rng)
        live_scores = evenly(live_fds, kinds.count("live_score"), rng)
        self.requests: List[Request] = []
        cursor = LIVE_WINDOW
        for kind in kinds:
            if kind == "score":
                name, fd = next(static_fds)
                self.requests.append(Request("score", name, "score", {"fd": fd}))
            elif kind == "delta":
                inserts = [pool[(cursor + i) % len(pool)] for i in range(DELTA_INSERTS)]
                cursor += DELTA_INSERTS
                self.requests.append(Request("delta", "live", "delta", {"inserts": inserts}))
            else:
                self.requests.append(
                    Request("live_score", "live", "score", {"fd": next(live_scores)})
                )

        self.server = None
        self.conn = None
        self._pids: List[int] = []
        # The client, the front end and the workers pass each request on
        # in turn, so one CPU serves the closed loop.  Sharing it keeps
        # that CPU busy: a hand-off does not wait for an idle virtual CPU
        # to be woken, a delay set by the rest of the host.  The server
        # inherits the affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        try:
            self._start_server()
            for name, (attributes, rows) in self.static.items():
                self._register({"name": name, "attributes": attributes, "rows": rows})
            self._register(
                {
                    "name": "live",
                    "attributes": self.live_attributes,
                    "rows": self.live_rows,
                    "window": LIVE_WINDOW,
                }
            )
            status, health = self._call("GET", "/v1/healthz")
            if status != 200 or health.get("status") != "ok":
                raise RuntimeError(f"/v1/healthz answered {status}: {health}")
            self._pids = [self.server.pid] + [w["pid"] for w in health["worker_detail"]]
            self.warm_replies = [self._send(request) for request in self.warm]
        except BaseException:
            self.close()
            raise

    # -- server and connection ------------------------------------------
    def _start_server(self) -> None:
        receive, send = os.pipe()
        try:
            argv, env = python_child(f"from serve import serve; serve({send})")
            self.server = subprocess.Popen(argv, env=env, pass_fds=(send,))
        finally:
            os.close(send)
        with os.fdopen(receive) as reader:
            if not select.select([reader], [], [], 60)[0]:
                raise RuntimeError("the server process did not report its port in 60 s")
            line = reader.readline()
        if not line.strip():
            raise RuntimeError(f"the server process exited with code {self.server.wait()}")
        port = int(line)
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def _call(self, method: str, path: str, body: Optional[bytes] = None):
        self.conn.request(method, path, body=body, headers=HEADERS)
        response = self.conn.getresponse()
        data = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(data)
        return response.status, data.decode("utf-8")

    def _register(self, payload: dict) -> None:
        status, reply = self._call("POST", "/v1/relations", json.dumps(payload).encode("utf-8"))
        if status != 201:
            raise RuntimeError(f"registering {payload['name']} answered {status}: {reply}")

    def _send(self, request: Request) -> Tuple[int, bytes]:
        self.conn.request("POST", request.path, body=request.body, headers=HEADERS)
        response = self.conn.getresponse()
        return response.status, response.read()

    def pids(self) -> List[int]:
        return list(self._pids)

    def snapshot(self) -> str:
        """The ``/v1/metrics`` text (scraped around the traced run)."""
        status, text = self._call("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return text

    # -- the timed phase -------------------------------------------------
    def run(self, tracer: Optional[Tracer]) -> Tuple[List[float], list]:
        latencies: List[float] = []
        replies: List[Tuple[int, bytes]] = []
        send = self._send
        for request in self.requests:
            started = time.perf_counter()
            reply = send(request)
            ended = time.perf_counter()
            if tracer is not None:
                tracer.record(f"service.{request.kind}", started, ended)
            latencies.append(ended - started)
            replies.append(reply)
        return latencies, replies

    # -- checks ------------------------------------------------------------
    def check(self, replies, tracer: Optional[Tracer] = None) -> Tuple[int, int, Optional[str]]:
        """Every reply against an in-process replica; ``tracer`` times its measures."""

        def measures():
            chosen = all_measures()
            return chosen if tracer is None else timed_measures(chosen, tracer)

        sessions = {
            name: AfdSession(Relation(attributes, rows, name=name), measures=measures())
            for name, (attributes, rows) in self.static.items()
        }
        live = AfdSession(
            DynamicRelation(self.live_attributes, self.live_rows, name="live", window=LIVE_WINDOW),
            measures=measures(),
        )
        static: Dict[Tuple[str, str], dict] = {}
        attempted = failed = 0
        first = None
        exchanges = list(zip(self.warm, self.warm_replies)) + list(zip(self.requests, replies))
        for request, (status, body) in exchanges:
            attempted += 1
            problem = None
            if status != 200:
                problem = f"{request.path} answered {status}: {body[:200]!r}"
            else:
                reply = json.loads(body)
                if request.kind == "delta":
                    expected = live.apply_delta(
                        inserts=[tuple(row) for row in request.payload["inserts"]]
                    ).to_dict()
                    problem = compare_update(reply, expected)
                elif request.kind == "live_score":
                    problem = compare_profile(reply, live.score(request.payload["fd"]).to_dict())
                else:
                    # A static relation's profile never changes: replay each FD once.
                    key = (request.path, request.payload["fd"])
                    if key not in static:
                        session = sessions[request.path.split("/")[3]]
                        static[key] = session.score(request.payload["fd"]).to_dict()
                    problem = compare_profile(reply, static[key])
            if problem is not None:
                failed += 1
                first = first or problem
        return attempted, failed, first

    def layer_metrics(self, latencies, replies, before: str, after: str) -> Dict[str, float]:
        return layer_metrics(self.requests, latencies, before, after)

    def unexplained(self, tracer: Tracer, run_s: float, values) -> Tuple[float, str]:
        """Share of the mean client latency the server's stages do not cover.

        The client's spans cover each request whole, so the gap is taken
        against the front end's own top-level stages instead.
        """
        gap = values["service.unexplained_ms"]
        mean = gap + sum(values[f"service.stage.{stage}_ms"] for stage in TOP_STAGES)
        return gap / mean, (
            f"{gap:.3f} ms of the mean client latency {mean:.3f} ms is outside "
            f"the server's {' and '.join(TOP_STAGES)} stages"
        )

    def close(self) -> None:
        """Stop the server and wait until it and its workers have exited."""
        if self.conn is not None:
            self.conn.close()
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None
        # The server stops and joins its workers on shutdown; a worker
        # left behind by a server that had to be killed is killed here.
        deadline = time.monotonic() + 30
        for pid in self._pids[1:]:
            while Path(f"/proc/{pid}").exists():
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    break
                time.sleep(0.05)


def close_scores(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        abs(got[name] - want[name]) <= TOLERANCE for name in want
    )


#: Exact fields beside the scores.  The ``LIVE_FDS`` hold exactly in the
#: stand-in, so their scores stay 1.0 whatever rows the window keeps; the
#: row counts are what shows a delta that loses or adds rows.
PROFILE_FIELDS = ("epoch", "fd", "exact", "num_rows")
UPDATE_FIELDS = ("epoch", "live_rows", "inserted", "deleted", "restricted_rows")


def compare_profile(reply: dict, expected: dict) -> Optional[str]:
    if (
        any(reply.get(field) != expected[field] for field in PROFILE_FIELDS)
        or not close_scores(reply.get("scores", {}), expected["scores"])
    ):
        return f"score of {expected['fd']}: {reply} != replica {expected}"
    return None


def compare_update(reply: dict, expected: dict) -> Optional[str]:
    got, want = reply.get("scores", {}), expected["scores"]
    if (
        any(reply.get(field) != expected[field] for field in UPDATE_FIELDS)
        or got.keys() != want.keys()
        or not all(close_scores(got[fd], want[fd]) for fd in want)
    ):
        return f"delta at epoch {expected['epoch']}: {reply} != replica {expected}"
    return None


# ----------------------------------------------------------------------
# Per-layer numbers from the client latencies and /v1/metrics
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> Dict[Tuple[str, str], float]:
    """``(metric name, label text) -> value`` for every sample line."""
    samples: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def sample_sum(samples, name: str, label: str) -> float:
    return sum(v for (n, labels), v in samples.items() if n == name and label in labels)


def layer_metrics(
    requests: List[Request], latencies: List[float], before: str, after: str
) -> Dict[str, float]:
    start, end = parse_prometheus(before), parse_prometheus(after)

    def delta(name: str, label: str) -> float:
        return sample_sum(end, name, label) - sample_sum(start, name, label)

    count = len(latencies)
    by_kind: Dict[str, List[float]] = {}
    for request, seconds in zip(requests, latencies):
        by_kind.setdefault(request.kind, []).append(seconds)
    metrics = {
        "service.requests": count,
        "service.score_p50_ms": 1e3 * statistics.median(by_kind["score"]),
        "service.live_score_p50_ms": 1e3 * statistics.median(by_kind["live_score"]),
        "service.delta_p50_ms": 1e3 * statistics.median(by_kind["delta"]),
        "service.p99_ms": 1e3 * statistics.quantiles(latencies, n=100)[98],
    }
    for stage in STAGES:
        stage_seconds = delta("stage_seconds_sum", f'stage="{stage}"')
        metrics[f"service.stage.{stage}_ms"] = 1e3 * stage_seconds / count
    top = sum(metrics[f"service.stage.{stage}_ms"] for stage in TOP_STAGES)
    metrics["service.unexplained_ms"] = 1e3 * statistics.fmean(latencies) - top
    lookups = sum(
        delta("session_statistics_total", f'result="{result}"')
        for result in ("hit", "miss", "incremental")
    )
    metrics["service.cache_lookups"] = lookups
    metrics["service.cache_hit_ratio"] = (
        delta("session_statistics_total", 'result="hit"') / lookups if lookups else 0.0
    )
    return metrics
