"""Smoke test of the e2e harness at ``tiny`` with 0.3 s phases.

Collected by tier-1.  Nothing here asserts a time: the five servers of the
untraced runs are even started side by side to stay under ten seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.e2e import compare, measure, run, tracing, workloads  # noqa: E402

SCALE = "tiny"
SECONDS = 0.3
SEED = 7


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("e2e"))


@pytest.fixture(scope="module")
def prepared(artifacts):
    """(snapshot, entities, oracle) as every run reads them."""
    return run.prepared(SCALE, artifacts)


@pytest.fixture(scope="module")
def runs(artifacts, prepared) -> dict:
    """Five untraced runs (one cold start each) and one traced run, side by side."""
    snapshot, entities, oracle = prepared

    def untraced_run(name: str) -> dict:
        workload = workloads.build(name, SEED, entities)
        return measure.run(workload, snapshot, oracle, SECONDS, SEED, cold_starts=1)

    with ThreadPoolExecutor(len(workloads.NAMES) + 1) as pool:
        futures = {name: pool.submit(untraced_run, name) for name in workloads.NAMES}
        futures["traced"] = pool.submit(
            run.run_once, "point_lookup", SEED, SECONDS, 1, SCALE, artifacts, curate_candidates=10
        )
        return {name: future.result() for name, future in futures.items()}


@pytest.fixture(scope="module")
def untraced(runs) -> dict:
    return {name: report for name, report in runs.items() if name != "traced"}


def test_contract_names_match_the_harness(contract):
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == measure.FULL_PHASE_SECONDS
    assert {w["name"]: w["why"] for w in contract["workloads"]} == workloads.WHY
    assert contract["end_to_end"] == [{"name": n, **m} for n, m in measure.CONTRACT.items()]
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == tracing.PER_LAYER_UNITS


def test_oracle_covers_the_small_lists_and_the_head_of_distinct_q3(prepared):
    _snapshot, entities, oracle = prepared
    for name in ("point_lookup", "join_heavy", "bulk_result", "read_write_mix"):
        assert all(text in oracle for text in workloads.build(name, SEED, entities).queries), name
    q3 = workloads.build("distinct_q3", SEED, entities).queries
    assert len(set(q3)) == len(q3) > workloads.PLAN_CACHE_CAPACITY
    assert all(text in oracle for text in q3[: workloads.Q3_VERIFIED])
    assert q3 == workloads.build("distinct_q3", SEED, entities).queries
    assert q3 != workloads.build("distinct_q3", SEED + 1, entities).queries


def test_untraced_runs_report_every_end_to_end_metric(untraced, contract):
    assert sorted(untraced) == sorted(w["name"] for w in contract["workloads"])
    for name, report in untraced.items():
        assert report["failed"] == 0, (name, report["failures"])
        assert report["attempted"] >= 1
        assert {metric: entry["unit"] for metric, entry in report["metrics"].items()} == {
            m["name"]: m["unit"] for m in contract["end_to_end"]
        }
        assert {"latency_p95_ms", "ttfb_p50_ms", "server_cpu_ms_per_op"} <= set(report["observed"])
        measured = {**report["metrics"], **report["observed"]}
        assert all(entry["value"] > 0 for entry in measured.values()), name
        assert report["samples"]["queries"] >= 1


def test_plan_cache_is_used_on_point_lookup_and_bypassed_on_distinct_q3(untraced):
    assert untraced["point_lookup"]["samples"]["plan_cache_hit_ratio"] == pytest.approx(1.0)
    assert untraced["distinct_q3"]["samples"]["plan_cache_hit_ratio"] == 0.0


def test_only_read_write_mix_writes_and_every_write_is_acknowledged(untraced):
    for name, report in untraced.items():
        writes = name == "read_write_mix"
        # failed == 0 above already covers each write's summary and the
        # post-run live-batch count.
        assert (report["samples"]["writes"] >= 1) == writes, name
        assert ("write_latency_p50_ms" in report["observed"]) == writes, name


def test_traced_run_prints_every_per_layer_metric(runs, artifacts, contract):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.print_report(runs["traced"])
    result = json.loads(printed.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert result["metrics"]["service.plan_cache_hit_ratio"]["value"] == pytest.approx(1.0)
    with open(os.path.join(artifacts, "spans.jsonl"), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {"name", "start", "end", "parent", "op"} <= set(spans[0])
    names = {span["name"] for span in spans}
    assert {"sparql.parse", "optimizer.optimize", "engine.execute", "api.http_body"} <= names


def test_compare_verdicts():
    def entry(*values):
        runs = [{"workload": "w", "metrics": {"m": {"value": v, "unit": "ms"}}} for v in values]
        return compare.summarize(runs)[("w", "m")]

    steady = entry(100, 101, 102, 100, 101)
    assert compare.verdict(steady, entry(103, 104, 103, 105, 104), "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, entry(120, 121, 122, 120, 121), "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, entry(80, 81, 82, 80, 81), "higher", 0.1)[0] == "regressed"
    assert compare.verdict(steady, entry(70, 140, 100, 180, 60), "lower", 0.1)[0] == "unresolved"


def test_run_fails_without_the_program(tmp_path):
    """A directory holding only the contract and the benchmark: no result, non-zero."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "point_lookup", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
