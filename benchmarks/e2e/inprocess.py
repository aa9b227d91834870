"""The in-process side: preparation, and the op as the server runs it.

``answer`` is the server's request handler without the socket
(``Session.execute`` → JSON serializer over the cursor's pages, or
``Session.update`` → JSON summary).  It gives the correctness oracle its
bodies and the traced run its in-process baseline.  Only preparation and
the traced run import this module (and with it the program); the untraced
run reads what :func:`prepare` left behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Dict

from repro.api.dataset import Dataset, Session
from repro.api.results import serializer_for
from repro.datagen.ldbc import generate_ldbc
from repro.experiments import common
from repro.store.statistics import StoreStatistics

from . import workloads
from .workloads import PLAN_CACHE_CAPACITY, Op

#: what ``cli serve`` passes to its session by default.
SERVE_SESSION_OPTIONS = dict(
    timeout=30.0, plan_cache_capacity=PLAN_CACHE_CAPACITY, page_size=1024
)


def build_snapshot(scale: str, path: str) -> Dict[str, float]:
    """Generate LDBC at ``scale`` and save it; returns the two timings and the size."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    started = time.perf_counter()
    dataset = generate_ldbc(common.ldbc_config(scale))
    generated = time.perf_counter()
    store = dataset.graph.store
    store.save(path, statistics=StoreStatistics(store).collect())
    saved = time.perf_counter()
    return {
        "generate_s": generated - started,
        "save_s": saved - generated,
        "bytes": os.path.getsize(path),
    }


def serve_session(dataset: Dataset) -> Session:
    return dataset.session(**SERVE_SESSION_OPTIONS)


def answer(session: Session, op: Op) -> bytes:
    """The response body the server would send for ``op``."""
    if op.is_write:
        return (json.dumps(session.update(op.text).to_dict(), indent=2) + "\n").encode("utf-8")
    cursor = session.execute(op.text)
    serializer = serializer_for("json")
    parts = [serializer.begin(cursor.variables)]
    for page in cursor.pages():
        parts.append(serializer.rows(page))
    parts.append(serializer.end())
    return "".join(parts).encode("utf-8")


def digest(body: bytes) -> str:
    return hashlib.sha1(body).hexdigest()


def prepare(snapshot: str, prepared: str, scale: str) -> None:
    """Build the shared snapshot and, from it, what every run reads.

    ``prepared`` gets the entity lists and the oracle: text → digest of the
    body the server must send, for :func:`workloads.oracle_texts`.  Both
    files appear by rename, the prepared one last.
    """
    scratch = "%s.%d.tmp" % (snapshot, os.getpid())
    build_snapshot(scale, scratch)
    os.replace(scratch, snapshot)
    dataset = Dataset.from_snapshot(snapshot)
    try:
        entities = workloads.read_entities(dataset)
        session = serve_session(dataset)
        oracle = {
            text: digest(answer(session, Op(text))) for text in workloads.oracle_texts(entities)
        }
        session.close()
    finally:
        dataset.close()
    scratch = "%s.%d.tmp" % (prepared, os.getpid())
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump({"entities": dataclasses.asdict(entities), "oracle": oracle}, handle)
    os.replace(scratch, prepared)
