#!/usr/bin/env python3
"""Gain verdict for an interleaved A/B run of the standalone benchmark.

    scripts/ab_verdict.py OLD.jsonl NEW.jsonl

OLD.jsonl and NEW.jsonl hold one `benchmark --json` document per line,
as `scripts/bench_ab.sh` writes them: line i of each is pair i. For every
workload and every end-to-end metric of the BENCHMARK.json at the
repository root, it prints:

- the new side's wins out of the pairs, in the metric's better direction;
  a tie counts for neither side, and a pair with a missing value on
  either side is left out;
- each side's median and quartiles (linear interpolation between order
  statistics, `statistics.quantiles(..., method="inclusive")`);
- whether the medians differ, in the better direction, by more than the
  old side's interquartile range (IQR).

A metric reads GAIN when the new side wins at least nine pairs in ten
and its median is better by more than the old IQR, and `-` otherwise.
Exit status is 2 on a usage error and 0 otherwise; the verdict is
information, not a gate.
"""

import json
import math
import os
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def series(docs, workload, metric):
    """The metric's value in each doc, None where the doc lacks it."""
    out = []
    for doc in docs:
        value = None
        for w in doc.get("workloads", []):
            if w.get("name") == workload:
                value = w.get("end_to_end", {}).get(metric, {}).get("value")
        out.append(value)
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(old, new, lower_is_better):
    pairs = [(o, n) for o, n in zip(old, new) if o is not None and n is not None]
    if not pairs:
        return None
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    o_q1, o_med, o_q3 = quartiles([o for o, _ in pairs])
    n_q1, n_med, n_q3 = quartiles([n for _, n in pairs])
    iqr = o_q3 - o_q1
    gap = sign * (n_med - o_med) + 0.0  # + 0.0 turns -0.0 into 0.0
    gain = wins >= math.ceil(0.9 * len(pairs)) and gap > iqr
    return {
        "pairs": len(pairs),
        "wins": wins,
        "old": (o_med, o_q1, o_q3),
        "new": (n_med, n_q1, n_q3),
        "iqr": iqr,
        "gap": gap,
        "call": "GAIN" if gain else "-",
    }


def num(x):
    return f"{x:.1f}" if abs(x) >= 1000 else f"{x:.4g}"


def fmt(q):
    med, q1, q3 = q
    return f"{num(med)} [{num(q1)}, {num(q3)}]"


def main(argv):
    if len(argv) != 3:
        print("usage: scripts/ab_verdict.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec_path = os.path.join(root, "BENCHMARK.json")
    old_docs, new_docs = load(argv[1]), load(argv[2])
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if len(old_docs) != len(new_docs):
        print(f"ab_verdict: {len(old_docs)} old runs but {len(new_docs)} new; "
              f"pairing the first {min(len(old_docs), len(new_docs))}")
    workloads = []
    for doc in old_docs:
        for w in doc.get("workloads", []):
            if w.get("name") not in workloads:
                workloads.append(w.get("name"))

    print("gain verdict: line i of old against line i of new; ties count for neither side")
    header = ("workload", "metric", "better", "wins", "old median [q1, q3]",
              "new median [q1, q3]", "gap", "old IQR", "gap>IQR", "verdict")
    rows = [header]
    for workload in workloads:
        for m in spec["end_to_end"]:
            lower = m["better"] == "lower"
            v = verdict(series(old_docs, workload, m["name"]),
                        series(new_docs, workload, m["name"]), lower)
            if v is None:
                rows.append((workload, m["name"], m["better"], "no pairs", "", "", "", "", "", "-"))
                continue
            rows.append((
                workload, m["name"], m["better"],
                f"{v['wins']}/{v['pairs']}",
                fmt(v["old"]), fmt(v["new"]),
                ("+" if v["gap"] >= 0 else "") + num(v["gap"]), num(v["iqr"]),
                "yes" if v["gap"] > v["iqr"] else "no",
                v["call"],
            ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    print("gap: how much better the new median is than the old one (negative: worse)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
