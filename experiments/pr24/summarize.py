#!/usr/bin/env python3
"""Summarize alternating parent/change benchmark passes.

usage: summarize.py BENCHMARK.json runs.jsonl [runs.jsonl ...]

Each input line is one pass of benchmark/run.sh: {"workload", "side"
(parent|change), "round", "order", "seed", "trace", "result": <the pass's
last output line>}. Prints one markdown row per (workload, end_to_end
metric): medians with inclusive quartiles, the ratio, the parent's spread,
in how many pairs the change read better, and the verdict by the rule of
the choosing-metrics guide (resolved only when the change wins or loses at
least nine tenths of the pairs and the medians differ by more than the
parent's inter-quartile range).
"""
import json
import statistics
import sys
from collections import defaultdict


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def fmt(x):
    return f"{x:.4g}"


def main():
    bench = json.load(open(sys.argv[1]))
    runs = defaultdict(lambda: defaultdict(dict))  # workload -> round -> side -> result
    for path in sys.argv[2:]:
        for line in open(path):
            r = json.loads(line)
            runs[r["workload"]][(r["seed"], r["round"])][r["side"]] = r["result"]
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | parent IQR/median | change better in | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for w in [x["name"] for x in bench["workloads"]]:
        pairs = [p for p in runs[w].values() if "parent" in p and "change" in p]
        if not pairs:
            continue
        for m in bench["end_to_end"]:
            name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
            ps = [p["parent"]["metrics"][name]["value"] for p in pairs]
            cs = [p["change"]["metrics"][name]["value"] for p in pairs]
            pq1, pmed, pq3 = quartiles(ps)
            cq1, cmed, cq3 = quartiles(cs)
            wins = sum((c > p) if higher else (c < p) for p, c in zip(ps, cs))
            losses = sum((c < p) if higher else (c > p) for p, c in zip(ps, cs))
            gain = (cmed - pmed) if higher else (pmed - cmed)
            n = len(pairs)
            if wins >= 0.9 * n and gain > pq3 - pq1:
                verdict = "better"
            elif losses >= 0.9 * n and -gain > pq3 - pq1:
                verdict = "worse"
            else:
                verdict = "unresolved"
            verdict += ", within bound" if -gain <= bound * pmed else ", OUTSIDE bound"
            print(f"| `{w}` | `{name}` | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] | {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | "
                  f"{cmed / pmed:.3f} | {100 * (pq3 - pq1) / pmed:.1f} % | {wins}/{n} | {verdict} |")
        att = {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")}
        bad = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
        ok = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
        print(f"| `{w}` | failed/attempted | {bad['parent']}/{att['parent']} | {bad['change']}/{att['change']} | | | | all correct: {ok} |")


if __name__ == "__main__":
    main()
