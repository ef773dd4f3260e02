#!/usr/bin/env python3
"""Per-layer table of traced parent/change passes.

usage: traced.py runs.jsonl [runs.jsonl ...]

Input lines are experiments/pr24/summarize.py's (one benchmark/run.sh pass
each, here with "trace": 1). Prints one markdown row per (workload,
metric): every round's parent and change value, and the change/parent
ratio of their means (— where the parent reads 0).
"""
import json
import statistics
import sys
from collections import defaultdict

METRICS = ["core.updates_created", "core.useful_update_ratio", "tram.batches", "tram.items_per_batch",
           "core.reductions", "core.reduction_period_us", "core.relaxations_per_s", "core.hold_parked",
           "runtime.app_delivered", "runtime.blocked_share", "seq.slowdown_x"]


def fmt(x):
    return f"{x:,.4g}" if abs(x) < 1e4 else f"{x:,.0f}"


def main():
    runs = defaultdict(lambda: defaultdict(list))  # workload -> side -> [metrics, ...] in round order
    for path in sys.argv[1:]:
        for line in open(path):
            r = json.loads(line)
            assert r["trace"] == 1 and r["result"]["failed"] == 0, r
            runs[r["workload"]][r["side"]].append((r["round"], r["result"]["metrics"]))
    print("| workload | metric | parent | change | change/parent |")
    print("|---|---|---|---|---|")
    for w, sides in runs.items():
        for m in METRICS:
            vals = {s: [ms[m]["value"] for _, ms in sorted(sides[s], key=lambda x: x[0])] for s in ("parent", "change")}
            p, c = statistics.mean(vals["parent"]), statistics.mean(vals["change"])
            ratio = f"{c / p:.3f}" if p else "—"
            print(f"| `{w}` | `{m}` | {' / '.join(map(fmt, vals['parent']))} | "
                  f"{' / '.join(map(fmt, vals['change']))} | {ratio} |")


if __name__ == "__main__":
    main()
