#!/usr/bin/env python3
"""Compare perfbench results of a parent and a change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the JSON files run.py writes under
.bench_build/perfbench/results/ (one per run). Results whose host
stamps differ (nproc, hardware_concurrency, SIMD arm, compiler, build
type) are refused with exit status 3: numbers from different hosts or
builds are not comparable. Otherwise, for every workload and metric,
prints the parent and change medians, their quartiles, and the change
relative to the parent median. The commit and source digest are
reported, not compared: they are what differs on purpose.
"""

import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "hardware_concurrency", "simd", "compiler",
             "build_type")


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit("compare.py: no results in %s" % directory)
    return runs


def host(run):
    return tuple((k, run["stamp"].get(k)) for k in HOST_KEYS)


def workload(run):
    args = run["args"]
    return "%s/trace%s" % (args[args.index("--workload") + 1],
                           args[args.index("--trace") + 1])


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    hosts = {host(r) for r in parent + change}
    if len(hosts) != 1:
        print("compare.py: REFUSED: results come from different hosts or "
              "builds:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + ", ".join("%s=%s" % kv for kv in h), file=sys.stderr)
        sys.exit(3)
    for side, runs in (("parent", parent), ("change", change)):
        stamps = {(r["stamp"].get("commit"), r["stamp"].get("source_digest"))
                  for r in runs}
        print("%s: %d run(s), commit/source %s" % (side, len(runs),
                                                   sorted(stamps)))
    groups = {}
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                key = (workload(r), name, m["unit"])
                groups.setdefault(key, {"parent": [], "change": []})
                groups[key][side].append(m["value"])
    print("%-28s %-28s %12s %12s %9s" % ("workload", "metric", "parent",
                                          "change", "delta"))
    for (wl, name, unit), sides in sorted(groups.items()):
        if not sides["parent"] or not sides["change"]:
            continue
        p = summary(sides["parent"])
        c = summary(sides["change"])
        delta = (c[1] - p[1]) / p[1] if p[1] else float("nan")
        print("%-28s %-28s %12.6g %12.6g %+8.1f%%  [%s; parent IQR %.3g-%.3g, "
              "change IQR %.3g-%.3g]" % (wl, name, p[1], c[1], 100 * delta,
                                         unit, p[0], p[2], c[0], c[2]))


if __name__ == "__main__":
    main()
