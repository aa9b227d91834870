"""Compare sets of runs: ``python -m benchmarks.e2e.compare A.jsonl B.jsonl [...]``.

Each file is one set: the JSON-lines reports ``run.py --output`` appends.
The first set is the base; every further set is compared with it, one row
per (workload, bounded end-to-end metric): each side's median and
quartiles, the metric's bound and a verdict.

* ``regressed`` — the median got worse by more than the bound.
* ``unresolved`` — a side's quartile spread is wider than the bound, so the
  rows cannot tell (unless every run of one side beats every run of the
  other, which settles it either way).
* ``ok`` — neither.

Exits 1 when any row regressed.  With one file it prints that set's
summary; ``--json`` prints the summary as JSON (how ``baseline.json`` is
made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

from .measure import BOUNDED

Key = Tuple[str, str]


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize(runs: List[dict]) -> Dict[Key, dict]:
    """Median, quartiles and relative spread per (workload, metric)."""
    values: Dict[Key, List[float]] = {}
    units: Dict[Key, str] = {}
    for run in runs:
        for name, metric in {**run["metrics"], **run.get("observed", {})}.items():
            key = (run["workload"], name)
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    summary = {}
    for key, series in values.items():
        median = statistics.median(series)
        if len(series) > 1:
            q1, _q2, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        summary[key] = {
            "unit": units[key],
            "runs": len(series),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": series,
        }
    return summary


def verdict(base: dict, other: dict, better: str, bound: float) -> Tuple[str, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, relative change; positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (other["median"] - base["median"]) / abs(base["median"])
    scored_base = [sign * value for value in base["values"]]
    scored_other = [sign * value for value in other["values"]]
    if max(base["spread"], other["spread"]) > bound:
        if worse > bound and min(scored_other) > max(scored_base):
            return "regressed", worse
        if max(scored_other) < min(scored_base):
            return "ok", worse
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def _cell(entry: dict) -> str:
    return "%.4g [%.4g, %.4g]" % (entry["median"], entry["q1"], entry["q3"])


SUMMARY_ROW = "%-16s %-36s %-6s %4s  %-34s %s"
COMPARE_ROW = "%-16s %-24s %-6s %-32s %-32s %8s %6s  %s"


def print_summary(summary: Dict[Key, dict]) -> None:
    print(SUMMARY_ROW % ("workload", "metric", "unit", "runs", "median [q1, q3]", "spread"))
    for (workload, name), entry in sorted(summary.items()):
        spread = "%5.1f%%" % (100 * entry["spread"])
        print(SUMMARY_ROW % (workload, name, entry["unit"], entry["runs"], _cell(entry), spread))


def print_comparison(base: Dict[Key, dict], other: Dict[Key, dict]) -> bool:
    """One row per (workload, bounded metric) both sets have; True when any regressed."""
    titles = ("workload", "metric", "unit", "base median [q1, q3]", "other median [q1, q3]")
    print(COMPARE_ROW % (titles + ("worse", "bound", "verdict")))
    regressed = False
    for (workload, name), entry in sorted(base.items()):
        if name not in BOUNDED or (workload, name) not in other:
            continue
        bound = BOUNDED[name]["bound"]
        candidate = other[(workload, name)]
        word, worse = verdict(entry, candidate, BOUNDED[name]["better"], bound)
        regressed = regressed or word == "regressed"
        cells = (workload, name, entry["unit"], _cell(entry), _cell(candidate))
        print(COMPARE_ROW % (cells + ("%+7.1f%%" % (100 * worse), "%5.0f%%" % (100 * bound), word)))
    return regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "sets", nargs="+", help="JSON-lines files of run reports; the first is the base"
    )
    parser.add_argument("--json", action="store_true", help="print the first set's summary as JSON")
    arguments = parser.parse_args(argv)

    base_runs = load_runs(arguments.sets[0])
    base = summarize(base_runs)
    if arguments.json:
        document = {
            "host": base_runs[-1].get("host"),
            "metrics": {
                "%s/%s" % key: {name: value for name, value in entry.items() if name != "values"}
                for key, entry in sorted(base.items())
            },
        }
        print(json.dumps(document, indent=2))
        return 0
    if len(arguments.sets) == 1:
        print_summary(base)
        return 0
    regressed = False
    for path in arguments.sets[1:]:
        print("%s -> %s" % (arguments.sets[0], path))
        regressed = print_comparison(base, summarize(load_runs(path))) or regressed
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
