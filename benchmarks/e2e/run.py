"""One benchmark run: ``run.py --workload W --seed N --seconds S --trace 0|1``.

``--trace 0`` measures the end-to-end metrics against a real ``cli serve``
subprocess; ``--trace 1`` is the separate traced run that gives the
per-layer numbers.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_ARTIFACTS = os.path.join(ROOT, "benchmarks", "artifacts", "e2e")

if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory; the harness is
    # imported as the package benchmarks.e2e, from the root.
    sys.path[0] = ROOT

from benchmarks.e2e import measure, workloads  # noqa: E402
from benchmarks.e2e.serving import SOURCE_DIR  # noqa: E402

#: Q3 bindings the traced run curates.
CURATE_CANDIDATES = 100


def host_block() -> dict:
    import numpy

    load = os.getloadavg()
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(load),
        "noisy_host": load[0] > cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
    }


def prepared(scale: str, artifacts: str):
    """The shared snapshot's path, the entity lists and the oracle.

    The first run in a checkout builds them (and is the only untraced run
    that imports the program); every later run reads two files.
    """
    snapshot = os.path.join(artifacts, "ldbc-%s.snapshot" % scale)
    document = os.path.join(artifacts, "ldbc-%s.prepared.json" % scale)
    if not os.path.exists(document):
        _import_program()
        from benchmarks.e2e import inprocess

        inprocess.prepare(snapshot, document, scale)
    with open(document, encoding="utf-8") as handle:
        loaded = json.load(handle)
    return snapshot, workloads.Entities(**loaded["entities"]), loaded["oracle"]


def _import_program() -> None:
    """Make ``repro`` importable (preparation and the traced run need it)."""
    if SOURCE_DIR not in sys.path:
        sys.path.insert(0, SOURCE_DIR)


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    scale: str = "medium",
    artifacts: str = DEFAULT_ARTIFACTS,
    curate_candidates: int = CURATE_CANDIDATES,
) -> dict:
    """One run's full report (metrics, sample counts, failures, ``host`` block)."""
    host = host_block()
    snapshot, entities, oracle = prepared(scale, artifacts)
    workload = workloads.build(name, seed, entities)
    if trace:
        _import_program()
        from benchmarks.e2e import tracing

        report = tracing.run(
            workload, snapshot, oracle, seconds, seed, scale, artifacts, entities, curate_candidates
        )
    else:
        # Every cold start should find the snapshot in the page cache.
        with open(snapshot, "rb") as handle:
            while handle.read(1 << 24):
                pass
        report = measure.run(workload, snapshot, oracle, seconds, seed)
    host["loadavg_after"] = list(os.getloadavg())
    report.update(seed=seed, scale=scale, trace=trace, host=host)
    return report


def print_report(report: dict) -> None:
    """The numbers for people, then the one JSON line for the driver."""
    print(
        "%s seed=%d seconds=%g trace=%d"
        % (report["workload"], report["seed"], report["seconds"], report["trace"])
    )
    for name, metric in {**report["metrics"], **report.get("observed", {})}.items():
        print("  %-36s %14.4f %s" % (name, metric["value"], metric["unit"]))
    for name, value in report["samples"].items():
        print("  # %s: %s" % (name, value))
    if report["host"]["noisy_host"]:
        print(
            "  # noisy_host: 1-min loadavg %.2f exceeds nproc %d"
            % (report["host"]["loadavg"][0], report["host"]["nproc"])
        )
    for failure in report["failures"]:
        print("  ! %s" % failure)
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=measure.FULL_PHASE_SECONDS,
        help="length of the measured phase",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACTS, help="snapshot cache and outputs")
    parser.add_argument(
        "--output", default=None, help="append the full report to this JSON-lines file"
    )
    arguments = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE_DIR, "repro")):
        print("no src/repro next to the benchmark: nothing to measure", file=sys.stderr)
        return 2
    report = run_once(
        arguments.workload,
        arguments.seed,
        arguments.seconds,
        arguments.trace,
        artifacts=arguments.artifacts,
    )
    if arguments.output:
        with open(arguments.output, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report) + "\n")
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
