"""The traced run: where one request's time goes, layer by layer.

Nothing under ``src/`` is instrumented yet, so the spans are recorded from
here, around each layer's public functions (patched for the length of the
run and restored after).  The ops are replayed three ways: in-process
untraced (the baseline), in-process traced (the layer split), and over HTTP
against a real ``cli serve`` with client-side spans (what the socket, the
HTTP layer and the threads add).  End-to-end metrics never come from this
run; the difference between its two in-process passes is what tracing costs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import random
import statistics
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.api import dataset as api_dataset
from repro.api import results as api_results
from repro.core import analyzer as core_analyzer
from repro.core import clustering as core_clustering
from repro.core.curation import curate
from repro.core.domain import ParameterSpace, domain_from_values
from repro.datagen.ldbc import queries as ldbc_queries
from repro.engine import query_engine
from repro.optimizer import optimizer as optimizer_module
from repro.rdf.terms import IRI
from repro.service import plan_cache
from repro.store import snapshot as store_snapshot

from . import inprocess, workloads
from .measure import Checker, plan_cache_hit_ratio, warm_up
from .serving import Client, ServerProcess
from .workloads import Op, Workload

TRACED_OPS = 200
#: caps, each also bounded by ``--seconds``
IN_PROCESS_SECONDS = 1.5
HTTP_SECONDS = 4.0
#: RRRW ops replayed for the write-path layers on a read-only workload, to
#: the end whatever they take: the 16th write (op 63) is the one that
#: compacts, and a run without a compaction would report none.
WRITE_PROBE_OPS = 68
CURATE_SEED = 20140331

#: the spans one query op passes through in-process, in order.
QUERY_PATH = (
    "api.session",
    "service.plan_cache_get",
    "sparql.parse",
    "sparql.translate",
    "optimizer.optimize",
    "engine.execute",
    "store.decode",
    "api.serialize",
)

PER_LAYER_UNITS = {
    "sparql.parse_ms": "ms",
    "sparql.translate_ms": "ms",
    "optimizer.optimize_ms": "ms",
    "api.session_ms": "ms",
    "service.plan_cache_get_ms": "ms",
    "service.plan_cache_hit_ratio": "ratio",
    "engine.execute_ms": "ms",
    "engine.result_rows": "count",
    "engine.intermediate_rows_per_result": "ratio",
    "store.decode_ms": "ms",
    "api.serialize_ms": "ms",
    "api.bytes_out": "B",
    "api.http_ttfb_ms": "ms",
    "api.http_body_ms": "ms",
    "api.http_overhead_ms": "ms",
    "api.server_cpu_ms_per_op": "ms",
    "sparql.parse_update_ms": "ms",
    "store.update_apply_ms": "ms",
    "store.post_write_read_ms": "ms",
    "store.steady_read_ms": "ms",
    "store.compactions": "count",
    "store.compact_ms": "ms",
    "store.delta_triples_max": "count",
    "datagen.generate_s": "s",
    "store.snapshot_save_s": "s",
    "store.snapshot_bytes": "B",
    "store.snapshot_load_ms": "ms",
    "api.server_start_ms": "ms",
    "core.curate_s": "s",
    "core.analyze_ms_per_binding": "ms",
    "core.partition_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.generator_lag_ms": "ms",
}


class Recorder:
    """Spans ``{id, name, start, end, parent, op, phase}``, kept in memory."""

    def __init__(self):
        self.spans: List[dict] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._stack = threading.local()
        #: the op being replayed and the open spans of the thread replaying
        #: it: a span opened on a thread with none of its own (the session's
        #: thread per timed query) hangs under the innermost of those, the
        #: call that is waiting for it.
        self._op: Optional[int] = None
        self._op_stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[dict]:
        stack = self._stack.__dict__.setdefault("open", [])
        is_root = op is not None
        waiting = self._op_stack[-1] if self._op_stack and not is_root else None
        span = {
            "name": name,
            "parent": stack[-1] if stack else waiting,
            "op": op if is_root else self._op,
            "phase": self.phase,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        if is_root:
            self._op, self._op_stack = op, stack
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if is_root:
                self._op, self._op_stack = None, []

    def add(self, name: str, start: float, end: float, op: int) -> None:
        """A span timed by the caller (the client side of an HTTP exchange)."""
        with self._lock:
            self.spans.append(
                {
                    "name": name,
                    "parent": None,
                    "op": op,
                    "phase": self.phase,
                    "id": len(self.spans),
                    "start": start,
                    "end": end,
                }
            )

    def wrap(
        self, owner, attribute: str, name: str, annotate: Optional[Callable] = None
    ) -> Callable:
        """Record a span around ``owner.attribute``; returns the undo."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    span.update(annotate(result))
                return result

        setattr(owner, attribute, traced)
        return lambda: setattr(owner, attribute, original)

    def wrap_pages(self) -> Callable:
        """``RowStream.pages`` decodes lazily: one span per page pulled."""
        original = query_engine.RowStream.pages
        recorder = self

        def traced(stream):
            pages = original(stream)

            def pull():
                while True:
                    with recorder.span("store.decode"):
                        page = next(pages, None)
                    if page is None:
                        return
                    yield page

            return pull()

        query_engine.RowStream.pages = traced
        return lambda: setattr(query_engine.RowStream, "pages", original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _stream_counts(stream) -> dict:
    return {
        "result_rows": stream.profile.result_rows,
        "intermediate_rows": sum(stream.profile.intermediate_sizes),
    }


def _update_counts(result) -> dict:
    return {
        "compacted": result.compacted,
        "compaction_ms": result.compaction_seconds * 1000.0,
        "delta_triples": result.delta_triples,
    }


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[None]:
    """Patch the layers' public functions; restore them on exit."""
    undo = [
        recorder.wrap(query_engine, "parse_query", "sparql.parse"),
        recorder.wrap(query_engine, "translate_query", "sparql.translate"),
        recorder.wrap(optimizer_module.Optimizer, "optimize", "optimizer.optimize"),
        recorder.wrap(api_dataset.Session, "execute", "api.session"),
        recorder.wrap(plan_cache.PlanCache, "get_or_create", "service.plan_cache_get"),
        recorder.wrap(
            query_engine.QueryEngine, "execute_plan_iter", "engine.execute", _stream_counts
        ),
        recorder.wrap_pages(),
        recorder.wrap(api_results.JSONSerializer, "begin", "api.serialize"),
        recorder.wrap(api_results.JSONSerializer, "rows", "api.serialize"),
        recorder.wrap(api_results.JSONSerializer, "end", "api.serialize"),
        recorder.wrap(query_engine, "parse_update", "sparql.parse_update"),
        recorder.wrap(api_dataset.Session, "update", "store.update_apply", _update_counts),
        recorder.wrap(store_snapshot, "load_snapshot", "store.snapshot_load"),
        recorder.wrap(core_analyzer.PlanCostAnalyzer, "analyze_binding", "core.analyze"),
        recorder.wrap(core_clustering.ParameterPartitioner, "partition", "core.partition"),
    ]
    try:
        yield
    finally:
        for restore in reversed(undo):
            restore()


# -- replays -----------------------------------------------------------------------


def replay_in_process(
    snapshot: str,
    workload: Workload,
    ops: int,
    seconds: float,
    recorder: Optional[Recorder],
    checker: Checker,
) -> List[float]:
    """Warm, then replay the first ops on a fresh dataset; op times in ms.

    With a recorder, each op runs under a root span (the warm-up ops too,
    numbered from -1 down: they are the plan-cache misses of a workload
    whose steady state never misses).
    """
    dataset = inprocess.Dataset.from_snapshot(snapshot)
    session = inprocess.serve_session(dataset)
    root = recorder.span if recorder is not None else (lambda name, op: contextlib.nullcontext())
    try:
        for number, text in enumerate(workload.warm_queries()):
            with root("op", op=-1 - number):
                inprocess.answer(session, Op(text))
        if workload.write_every:
            session.update(workloads.preload_update())
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        for position in range(ops):
            op = workload.op(position)
            started = time.perf_counter()
            if started >= deadline:
                break
            with root("op", op=position):
                body = inprocess.answer(session, op)
            times.append((time.perf_counter() - started) * 1000.0)
            checker.body(op, body)
        return times
    finally:
        session.close()
        dataset.close()


def replay_http(
    snapshot: str,
    workload: Workload,
    ops: int,
    seconds: float,
    seed: int,
    recorder: Recorder,
    checker: Checker,
) -> dict:
    with recorder.span("api.server_start"):
        server = ServerProcess(snapshot)
    with server:
        client = Client(server, random.Random("think:%d" % seed))
        try:
            warm_up(server, client, workload)
            before = server.metrics()
            cpu_before = server.cpu_seconds()
            lags: List[float] = []
            sizes: List[int] = []
            previous_done: Optional[float] = None
            sent = 0
            deadline = time.perf_counter() + seconds
            for position in range(ops):
                if time.perf_counter() >= deadline:
                    break
                op = workload.op(position)
                reply = client.post(op.text, op.is_write)
                sent += 1
                if previous_done is not None:
                    lags.append((reply.sent - previous_done) * 1000.0)
                if checker.reply(op, reply) and not op.is_write:
                    recorder.add("api.http_ttfb", reply.sent, reply.first_byte, position)
                    recorder.add("api.http_body", reply.first_byte, reply.done, position)
                    sizes.append(len(reply.body))
                previous_done = time.perf_counter()
            cpu_seconds = server.cpu_seconds() - cpu_before
            after = server.metrics()
        finally:
            client.close()
    return {
        "hit_ratio": plan_cache_hit_ratio(before, after),
        "server_cpu_ms_per_op": cpu_seconds * 1000.0 / max(sent, 1),
        "bytes_out": statistics.median(sizes) if sizes else 0,
        "generator_lag_ms": statistics.median(lags) if lags else 0.0,
    }


def curate_q3(dataset, entities: workloads.Entities, candidates: int) -> bool:
    """The paper's own pipeline on Q3; True when a second partition agrees."""
    space = ParameterSpace(
        [
            domain_from_values("person", [IRI(value) for value in entities.persons]),
            domain_from_values("countryX", [IRI(value) for value in entities.countries]),
            domain_from_values("countryY", [IRI(value) for value in entities.countries]),
        ]
    )
    curated = curate(
        dataset.engine,
        ldbc_queries.template("ldbc_q3"),
        space,
        candidates=candidates,
        seed=CURATE_SEED,
    )
    again = core_clustering.ParameterPartitioner(min_class_size=1).partition(curated.analyses)

    def members(partition):
        return sorted(
            sorted(analysis.binding_key() for analysis in parameter_class.members)
            for parameter_class in partition
        )

    return members(curated.partition) == members(again)


# -- span arithmetic ---------------------------------------------------------------


def _steady(span: dict) -> bool:
    """Part of a replayed op, not of the warm-up or the preload."""
    return span["op"] is not None and span["op"] >= 0


def _duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1000.0


class SpanTable:
    """Self times (a span's duration minus what its children cover) per op."""

    def __init__(self, spans: List[dict]):
        self.spans = spans
        covered: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + _duration_ms(span)
        self.self_ms = {
            span["id"]: _duration_ms(span) - covered.get(span["id"], 0.0) for span in spans
        }

    def select(self, name: str, phase: Optional[str] = None) -> List[dict]:
        return [
            span
            for span in self.spans
            if span["name"] == name and (phase is None or span["phase"] == phase)
        ]

    def per_op_ms(self, name: str, phase: str, steady_only: bool = False) -> List[float]:
        """One value per op that entered the layer: its summed self time there."""
        totals: Dict[int, float] = {}
        for span in self.select(name, phase):
            if steady_only and not _steady(span):
                continue
            totals[span["op"]] = totals.get(span["op"], 0.0) + self.self_ms[span["id"]]
        return list(totals.values())


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- the run -----------------------------------------------------------------------


def run(
    workload: Workload,
    snapshot: str,
    oracle: Dict[str, str],
    seconds: float,
    seed: int,
    scale: str,
    artifacts: str,
    entities: workloads.Entities,
    curate_candidates: int,
) -> dict:
    recorder = Recorder()
    checker = Checker(oracle)
    in_process_cap = min(IN_PROCESS_SECONDS, seconds)

    scratch = os.path.join(artifacts, "traced-%d.snapshot" % os.getpid())
    try:
        built = inprocess.build_snapshot(scale, scratch)
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)

    # The untraced baseline is taken half before and half after the traced
    # pass, so a slow spell of the host does not land on one side only.
    untraced = replay_in_process(snapshot, workload, TRACED_OPS, in_process_cap, None, checker)
    with instrumented(recorder):
        write_phase = recorder.phase = "inprocess"
        traced = replay_in_process(
            snapshot, workload, TRACED_OPS, in_process_cap, recorder, checker
        )
        if not workload.write_every:
            # The write path with this workload's own reads as the R of RRRW.
            write_phase = recorder.phase = "writes"
            probe = dataclasses.replace(workload, write_every=workloads.WRITE_EVERY)
            replay_in_process(snapshot, probe, WRITE_PROBE_OPS, float("inf"), recorder, checker)
        recorder.phase = "curate"
        dataset = inprocess.Dataset.from_snapshot(snapshot)
        with recorder.span("core.curate"):
            classes_repeat = curate_q3(dataset, entities, curate_candidates)
        dataset.close()
        checker.check(classes_repeat, "curate(): a second partition gave other classes")
    untraced += replay_in_process(snapshot, workload, TRACED_OPS, in_process_cap, None, checker)
    recorder.phase = "http"
    http = replay_http(
        snapshot, workload, TRACED_OPS, min(HTTP_SECONDS, seconds), seed, recorder, checker
    )

    os.makedirs(artifacts, exist_ok=True)
    spans_path = os.path.join(artifacts, "spans.jsonl")
    recorder.write(spans_path)

    table = SpanTable(recorder.spans)
    executes = [span for span in table.select("engine.execute", "inprocess") if _steady(span)]
    # The first read after a write folds the delta; RRRW puts it at slot 0.
    write_reads = [span for span in table.select("engine.execute", write_phase) if _steady(span)]
    post_write = [s for s in write_reads if s["op"] % workloads.WRITE_EVERY == 0 and s["op"] > 0]
    steady_read = [s for s in write_reads if s["op"] % workloads.WRITE_EVERY != 0]
    updates = [span for span in table.select("store.update_apply", write_phase) if _steady(span)]
    compactions = [span for span in updates if span["compacted"]]

    def layer(name: str, steady_only: bool = False) -> float:
        return _median(table.per_op_ms(name, "inprocess", steady_only))

    def durations(name: str, phase: Optional[str] = None) -> List[float]:
        return [_duration_ms(span) for span in table.select(name, phase)]

    http_latency = [
        first + body for first, body in zip(durations("api.http_ttfb"), durations("api.http_body"))
    ]
    values = {
        "sparql.parse_ms": layer("sparql.parse"),
        "sparql.translate_ms": layer("sparql.translate"),
        "optimizer.optimize_ms": layer("optimizer.optimize"),
        "api.session_ms": layer("api.session", steady_only=True),
        "service.plan_cache_get_ms": layer("service.plan_cache_get", steady_only=True),
        "service.plan_cache_hit_ratio": http["hit_ratio"],
        "engine.execute_ms": layer("engine.execute", steady_only=True),
        "engine.result_rows": _median([span["result_rows"] for span in executes]),
        "engine.intermediate_rows_per_result": _median(
            [span["intermediate_rows"] / max(span["result_rows"], 1) for span in executes]
        ),
        "store.decode_ms": layer("store.decode", steady_only=True),
        "api.serialize_ms": layer("api.serialize", steady_only=True),
        "api.bytes_out": http["bytes_out"],
        "api.http_ttfb_ms": _median(durations("api.http_ttfb")),
        "api.http_body_ms": _median(durations("api.http_body")),
        "api.http_overhead_ms": _median(http_latency) - _median(untraced),
        "api.server_cpu_ms_per_op": http["server_cpu_ms_per_op"],
        "sparql.parse_update_ms": _median(durations("sparql.parse_update", write_phase)),
        "store.update_apply_ms": _median([table.self_ms[span["id"]] for span in updates]),
        "store.post_write_read_ms": _median([_duration_ms(s) for s in post_write]),
        "store.steady_read_ms": _median([_duration_ms(s) for s in steady_read]),
        "store.compactions": len(compactions),
        "store.compact_ms": _median([span["compaction_ms"] for span in compactions]),
        "store.delta_triples_max": max([span["delta_triples"] for span in updates], default=0),
        "datagen.generate_s": built["generate_s"],
        "store.snapshot_save_s": built["save_s"],
        "store.snapshot_bytes": built["bytes"],
        "store.snapshot_load_ms": _median(durations("store.snapshot_load")),
        "api.server_start_ms": durations("api.server_start")[0],
        "core.curate_s": durations("core.curate")[0] / 1000.0,
        "core.analyze_ms_per_binding": _median(durations("core.analyze")),
        "core.partition_ms": _median(durations("core.partition")),
        "bench.trace_overhead_ratio": _median(traced) / _median(untraced) if untraced else 0.0,
        "bench.generator_lag_ms": http["generator_lag_ms"],
    }
    # What the steady in-process op spends in the layers it enters (a plan
    # hit never parses, so those layers add nothing there).
    layer_sum = sum(
        _median(table.per_op_ms(name, "inprocess", steady_only=True)) for name in QUERY_PATH
    )
    return {
        "workload": workload.name,
        "seconds": seconds,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "metrics": {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in values.items()
        },
        "samples": {
            "ops_in_process": len(traced),
            "ops_http": len(http_latency),
            "spans": len(recorder.spans),
            "spans_file": spans_path,
            "untraced_op_p50_ms": _median(untraced),
            "traced_op_p50_ms": _median(traced),
            "layer_sum_ms": layer_sum,
            "http_latency_p50_ms": _median(http_latency),
        },
    }
