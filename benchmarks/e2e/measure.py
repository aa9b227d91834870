"""The untraced run: cold starts, warm-up, one closed-loop measured phase.

Closed loop because the paper's test drivers (BSBM, LDBC) are callers that
wait for each reply; one client because the host has two cores and the
server process takes the other.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from typing import Dict, List, Optional

from . import workloads
from .serving import Client, Reply, ServerProcess, one_shot
from .workloads import Op, Workload

#: cold starts behind ``setup_s`` (their median); the last server is the
#: one measured.  Only the smoke test runs with fewer.
COLD_STARTS = 3
#: untimed requests on the measured connection before the clock starts: a
#: new connection's first segments are acknowledged at once, so it does
#: not yet behave like the established connection being measured.
SETTLE_REQUESTS = 4
#: the contract's phase length, and what a phase of that length must
#: collect for ``latency_p95_ms`` (twelve samples beyond it) and the write
#: median to mean something; a shorter phase (the smoke test's) is exempt.
FULL_PHASE_SECONDS = 20.0
MIN_QUERY_SAMPLES = 240
MIN_WRITE_SAMPLES = 60

#: the driver's contract, as ``BENCHMARK.json`` lists it: the end-to-end
#: metrics every workload reports, each with its regression bound.
CONTRACT = {
    "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "latency_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.1},
    "throughput_ops_s": {"unit": "1/s", "better": "higher", "bound": 0.1},
    "peak_rss_mb": {"unit": "MiB", "better": "lower", "bound": 0.05},
}
#: what ``compare`` judges: the contract, and the write latency that only
#: ``read_write_mix`` has (the contract wants every metric from every
#: workload, so it cannot be listed there).
BOUNDED = {**CONTRACT, "write_latency_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.1}}


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def plan_cache_hit_ratio(before: dict, after: dict) -> float:
    """Hits over lookups between two ``GET /metrics`` documents."""
    hits = after["plan cache hits"] - before["plan cache hits"]
    misses = after["plan cache misses"] - before["plan cache misses"]
    return hits / (hits + misses) if hits + misses else 0.0


class Checker:
    """Counts attempted and failed ops; a failed op yields no sample."""

    def __init__(self, oracle: Dict[str, str]):
        #: query text → digest of the body the server must send
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, passed: bool, what: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return passed

    def body(self, op: Op, body: bytes) -> bool:
        """A write applied both halves; a query body matches the oracle's."""
        if op.is_write:
            summary = json.loads(body)
            applied = (summary.get("inserted"), summary.get("deleted"))
            expected = (workloads.BATCH_TRIPLES, workloads.BATCH_TRIPLES)
            return self.check(applied == expected, "write applied %r" % (applied,))
        expected_digest = self.oracle.get(op.text)
        if expected_digest is None:
            return self.check(body.startswith(b'{"head"'), "malformed body")
        found = hashlib.sha1(body).hexdigest()
        return self.check(found == expected_digest, "wrong body for %.80s" % op.text)

    def reply(self, op: Op, reply: Reply) -> bool:
        if reply.status != 200 or reply.body is None:
            return self.check(False, "status %d for %.80s" % (reply.status, op.text))
        return self.body(op, reply.body)

    def live_batches(self, server: ServerProcess) -> bool:
        """After the run: the bench predicate holds exactly the live window."""
        status, body = one_shot(server, workloads.COUNT_QUERY)
        found = None
        if status == 200:
            found = int(json.loads(body)["results"]["bindings"][0]["n"]["value"])
        expected = workloads.WINDOW * workloads.BATCH_TRIPLES
        return self.check(found == expected, "bench triples: %r, not %d" % (found, expected))


def cold_start(snapshot: str, first: Op, think: Optional[random.Random] = None):
    """Spawn ``cli serve``; seconds until the first op's 200 arrives."""
    server = ServerProcess(snapshot)
    try:
        client = Client(server, think)
        reply = client.post(first.text, first.is_write)
        if reply.status != 200:
            raise RuntimeError("first op answered %d" % reply.status)
    except BaseException:
        server.stop()
        raise
    return server, client, reply.done - server.spawned


def warm_up(server: ServerProcess, client: Client, workload: Workload) -> None:
    for text in workload.warm_queries():
        status, _body = one_shot(server, text)
        if status != 200:
            raise RuntimeError("warm-up query answered %d: %.80s" % (status, text))
    if workload.write_every:
        status, _body = one_shot(server, workloads.preload_update(), is_write=True)
        if status != 200:
            raise RuntimeError("preload answered %d" % status)
    for _ in range(SETTLE_REQUESTS):
        # the last text, so distinct_q3's first measured op is no cache hit
        client.post(workload.queries[-1])


def run(
    workload: Workload,
    snapshot: str,
    oracle: Dict[str, str],
    seconds: float,
    seed: int,
    cold_starts: int = COLD_STARTS,
) -> dict:
    first = workload.op(0)
    think = random.Random("think:%d" % seed)
    setup_seconds: List[float] = []
    listen_seconds: List[float] = []
    for remaining in reversed(range(cold_starts)):
        server, client, took = cold_start(snapshot, first, think)
        setup_seconds.append(took)
        listen_seconds.append(server.listening - server.spawned)
        if remaining:
            # A server that only answered its first op has nothing to drain.
            client.close()
            server.stop(graceful=False)
    try:
        report = _measure(workload, server, client, Checker(oracle), seconds)
    finally:
        client.close()
        server.stop()
    setup = {"value": statistics.median(setup_seconds), "unit": CONTRACT["setup_s"]["unit"]}
    report["metrics"] = {"setup_s": setup, **report["metrics"]}
    report["samples"].update(cold_starts_s=setup_seconds, listening_s=listen_seconds)
    return report


def _measure(
    workload: Workload, server: ServerProcess, client: Client, checker: Checker, seconds: float
) -> dict:
    warm_up(server, client, workload)
    latencies: List[float] = []
    first_bytes: List[float] = []
    write_latencies: List[float] = []
    lags: List[float] = []
    completed = 0
    # op 0 was the cold start's first op (and is in distinct_q3's plan cache)
    position = 1
    counters_before = server.metrics()
    cpu_before = server.cpu_seconds()
    started = previous_done = time.perf_counter()
    deadline = started + seconds
    while previous_done < deadline:
        op = workload.op(position)
        position += 1
        reply = client.post(op.text, op.is_write)
        lags.append((reply.sent - previous_done) * 1000.0)
        if checker.reply(op, reply):
            completed += 1
            if op.is_write:
                write_latencies.append(reply.latency_ms)
            else:
                latencies.append(reply.latency_ms)
                first_bytes.append(reply.ttfb_ms)
        previous_done = time.perf_counter()
    wall = previous_done - started
    cpu_seconds = server.cpu_seconds() - cpu_before
    peak_rss = server.peak_rss_mib()
    counters = server.metrics()

    if seconds >= FULL_PHASE_SECONDS:
        checker.check(
            len(latencies) >= MIN_QUERY_SAMPLES,
            "%d query samples, under %d" % (len(latencies), MIN_QUERY_SAMPLES),
        )
    if workload.write_every:
        if seconds >= FULL_PHASE_SECONDS:
            checker.check(
                len(write_latencies) >= MIN_WRITE_SAMPLES,
                "%d write samples, under %d" % (len(write_latencies), MIN_WRITE_SAMPLES),
            )
        checker.live_batches(server)
    if not latencies or (workload.write_every and not write_latencies):
        raise RuntimeError("a run without a successful op: %s" % checker.failures)

    metrics = {
        "latency_p50_ms": statistics.median(latencies),
        "throughput_ops_s": completed / wall,
        "peak_rss_mb": peak_rss,
    }
    # Recorded without a bound: on this host none of them repeats within a
    # tenth between runs of one commit (README, *Baseline*), so none can
    # tell a regression from the host.
    observed = {
        "latency_p95_ms": percentile(latencies, 0.95),
        "ttfb_p50_ms": statistics.median(first_bytes),
        "server_cpu_ms_per_op": cpu_seconds * 1000.0 / completed,
    }
    if workload.write_every:
        observed["write_latency_p50_ms"] = statistics.median(write_latencies)
    return {
        "workload": workload.name,
        "seconds": seconds,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        # what the contract lists, then everything else this run measured
        "metrics": {
            name: {"value": value, "unit": CONTRACT[name]["unit"]}
            for name, value in metrics.items()
        },
        "observed": {name: {"value": value, "unit": "ms"} for name, value in observed.items()},
        "samples": {
            "queries": len(latencies),
            "writes": len(write_latencies),
            "measured_wall_s": wall,
            "generator_lag_p50_ms": statistics.median(lags),
            "plan_cache_hit_ratio": plan_cache_hit_ratio(counters_before, counters),
            "compactions": counters["compactions_total"] - counters_before["compactions_total"],
        },
    }
