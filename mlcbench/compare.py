#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the spread of one.

    python3 mlcbench/compare.py BASE.jsonl [CHANGE.jsonl]

Inputs are collect.py output. For each (workload, end-to-end
metric) it prints each side's median and quartiles and the spread
(q3 - q1) / median. With one set, a spread under a third of the
metric's bound reads "steady", under the bound "ok", else "noisy".

With two sets, the verdict for CHANGE against BASE follows the
benchmark's bounds:
  worse       CHANGE's median is worse than BASE's by more than the bound;
  better      CHANGE's median is better by more than BASE's own spread
              and CHANGE wins at least 9 of 10 seed-matched pairs;
  unresolved  either side's spread exceeds the bound and not every
              CHANGE run beats every BASE run;
  unchanged   otherwise.
Metrics marked deterministic in metrics.json must also read exactly
the same for the same seed on both sides.

Exit status: 1 when a run failed, a verdict is "worse", a one-set
spread is noisy, or a deterministic metric differs; else 0.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    runs = [json.loads(l) for l in open(path) if l.strip()]
    failed = [r for r in runs if r["exit"] != 0 or r["result"] is None]
    return runs, failed


def values(runs, workload, metric, trace=0):
    """{seed: value} of untraced (or traced) runs with a result."""
    out = {}
    for r in runs:
        if (r["workload"] == workload and r["trace"] == trace
                and r["result"] and metric in r["result"]["metrics"]):
            out[r["seed"]] = r["result"]["metrics"][metric]["value"]
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(base, change, better):
    """Relative amount by which change is worse than base (> 0 worse)."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    rel = (change - base) / abs(base)
    return rel if better == "lower" else -rel


def verdict(a, b, better, bound):
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    if worse_by(qa[1], qb[1], better) > bound:
        return "worse"
    sa, sb = spread(list(a.values())), spread(list(b.values()))
    gain = -worse_by(qa[1], qb[1], better)
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
    if pairs and gain > sa and wins >= 0.9 * len(pairs):
        return "better"
    all_better = all(worse_by(x, y, better) < 0
                     for x in a.values() for y in b.values())
    if (sa > bound or sb > bound) and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.load(open(HERE.parent / "BENCHMARK.json"))
    spec = json.load(open(HERE / "metrics.json"))
    base, base_failed = load(sys.argv[1])
    change, change_failed = (load(sys.argv[2]) if len(sys.argv) == 3
                             else (None, []))
    bad = False
    for r in base_failed + change_failed:
        print("FAILED run: %s seed %d trace %d (exit %d)"
              % (r["workload"], r["seed"], r["trace"], r["exit"]))
        bad = True

    fmt = "%-13s %-12s %5s %12s %12s %12s %8s %6s  %s"
    print(fmt % ("workload", "metric", "n", "q1", "median", "q3",
                 "spread", "bound", "verdict"))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = values(base, w["name"], name)
            if not a:
                continue
            q1, q2, q3 = quartiles(list(a.values()))
            s = spread(list(a.values()))
            if change is None:
                v = ("steady" if s < bound / 3 else
                     "ok" if s <= bound else "noisy")
                bad |= v == "noisy"
                print(fmt % (w["name"], name, len(a), "%.6g" % q1,
                             "%.6g" % q2, "%.6g" % q3, "%.4f" % s,
                             bound, v))
                continue
            b = values(change, w["name"], name)
            if not b:
                print(fmt % (w["name"], name, 0, "", "", "", "", bound,
                             "missing"))
                bad = True
                continue
            v = verdict(a, b, m["better"], bound)
            bad |= v == "worse"
            c1, c2, c3 = quartiles(list(b.values()))
            print(fmt % (w["name"], name, len(a), "%.6g" % q1, "%.6g" % q2,
                         "%.6g" % q3, "%.4f" % s, bound, ""))
            print(fmt % ("", "", len(b), "%.6g" % c1, "%.6g" % c2,
                         "%.6g" % c3, "%.4f" % spread(list(b.values())),
                         "", "%s (%+.2f%%)" % (v, 100 * (c2 - q2) / q2)))

    if change is not None:
        exact = [n for n, m in spec["end_to_end"].items()
                 if m.get("deterministic")]
        exact += [n for n, m in spec["per_layer"].items()
                  if m.get("deterministic")]
        mismatches = 0
        for w in bench["workloads"]:
            for name in exact:
                for trace in (0, 1):
                    a = values(base, w["name"], name, trace)
                    b = values(change, w["name"], name, trace)
                    for seed in sorted(set(a) & set(b)):
                        if a[seed] != b[seed]:
                            mismatches += 1
                            print("NOT REPEATED: %s %s seed %d: %r vs %r"
                                  % (w["name"], name, seed, a[seed], b[seed]))
        print("deterministic metrics: %s"
              % ("repeat exactly" if not mismatches
                 else "%d mismatches" % mismatches))
        bad |= mismatches > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
