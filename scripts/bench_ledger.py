#!/usr/bin/env python3
"""Measure a change against its parent with mlcbench and write a ledger.

    python3 scripts/bench_ledger.py --parent DIR --change DIR --out BENCH.json
        [--workloads a,b] [--seeds 1-10] [--seconds S]
        [--trace-workloads a,b] [--trace-seeds 1-3]
        [--repo DIR] [--base REV] [--work DIR]

DIR are two checkouts, each with its own mlcbench build (run.py builds
into <checkout>/.bench_build on first use). For every workload and
seed the script runs mlcbench/collect.py once in each checkout; the
parent runs first on odd seeds, the change on even ones. /proc/loadavg
is read before and after every run. Traced runs (--trace 1) of
--trace-workloads follow, in the same alternation.

The ledger holds, per workload and end-to-end metric, each side's
median, quartiles, spread and per-seed values, and the verdict of
mlcbench/compare.py (its functions, imported from the change
checkout); per traced workload, each side's per-layer values by seed;
deterministic metrics that did not repeat; failed runs; every load
reading; and `git diff --shortstat` of src/, bench/ and examples/
between --base and the working tree of --repo (stage new files
first: git diff counts only tracked ones).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def git(repo, *args):
    r = subprocess.run(["git", "-C", str(repo)] + list(args),
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def collect(checkout, out, workload, seed, seconds, trace):
    """One collect.py run in @checkout, appended to @out."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout keeps its build
    cmd = [sys.executable, str(checkout / "mlcbench" / "collect.py"),
           "--out", str(out), "--workloads", workload, "--seeds",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = loadavg()
    t0 = time.time()
    subprocess.run(cmd, cwd=checkout, env=env, check=False)
    return {"before": before, "after": loadavg(),
            "wall_s": round(time.time() - t0, 1)}


def run_pairs(sides, work, workloads, seeds, seconds, trace, loads):
    for workload in workloads:
        for seed in seeds:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                out = work / ("%s.jsonl" % side)
                rec = collect(sides[side], out, workload, seed, seconds,
                              trace)
                rec.update(side=side, workload=workload, seed=seed,
                           trace=trace)
                loads.append(rec)
                print("%s %s seed %d trace %d: load %s -> %s"
                      % (side, workload, seed, trace, rec["before"],
                         rec["after"]), file=sys.stderr)


def summary(compare, runs, workload, metric, trace=0):
    vals = compare.values(runs, workload, metric, trace)
    if not vals:
        return None
    xs = list(vals.values())
    q1, q2, q3 = compare.quartiles(xs)
    return {"q1": q1, "median": q2, "q3": q3,
            "spread": compare.spread(xs),
            "by_seed": {str(k): v for k, v in sorted(vals.items())}}


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace-workloads", default="")
    ap.add_argument("--trace-seeds", default="1-3")
    ap.add_argument("--repo", type=Path, default=Path.cwd())
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--work", type=Path,
                    help="where the raw runs go (default: next to --out)")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(sides["change"] / "mlcbench"))
    sys.dont_write_bytecode = True  # leave mlcbench/ as it is
    import compare  # noqa: E402  (mlcbench's own verdict rules)

    bench = json.load(open(sides["change"] / "BENCHMARK.json"))
    spec = json.load(open(sides["change"] / "mlcbench" / "metrics.json"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    traced = [w for w in args.trace_workloads.split(",") if w]
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    work = args.work or Path(args.out).resolve().parent / "ledger_runs"
    work.mkdir(parents=True, exist_ok=True)
    for side in sides:
        (work / ("%s.jsonl" % side)).unlink(missing_ok=True)

    loads = []
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    run_pairs(sides, work, workloads, seeds, seconds, 0, loads)
    run_pairs(sides, work, traced, seed_list(args.trace_seeds), seconds,
              1, loads)

    runs = {}
    failed = []
    for side in sides:
        runs[side], bad = compare.load(work / ("%s.jsonl" % side))
        failed += [{"side": side, "workload": r["workload"],
                    "seed": r["seed"], "trace": r["trace"],
                    "exit": r["exit"]} for r in bad]
        failed += [{"side": side, "workload": r["workload"],
                    "seed": r["seed"], "trace": r["trace"],
                    "failed_ops": r["result"]["failed"]}
                   for r in runs[side]
                   if r["result"] and r["result"].get("failed")]

    end_to_end = {}
    for workload in workloads:
        rows = {}
        for m in bench["end_to_end"]:
            a = compare.values(runs["parent"], workload, m["name"])
            b = compare.values(runs["change"], workload, m["name"])
            if not a or not b:
                continue
            rows[m["name"]] = {
                "unit": m["unit"], "better": m["better"],
                "bound": m["bound"],
                "parent": summary(compare, runs["parent"], workload,
                                  m["name"]),
                "change": summary(compare, runs["change"], workload,
                                  m["name"]),
                "verdict": compare.verdict(a, b, m["better"], m["bound"]),
            }
        end_to_end[workload] = rows

    per_layer = {}
    for workload in traced:
        rows = {}
        for name, meta in spec["per_layer"].items():
            if workload not in meta["workloads"]:
                continue
            rows[name] = {side: summary(compare, runs[side], workload,
                                        name, 1)
                          for side in sides}
        per_layer[workload] = rows

    exact = [n for n, m in spec["end_to_end"].items()
             if m.get("deterministic")]
    exact += [n for n, m in spec["per_layer"].items()
              if m.get("deterministic")]
    not_repeated = []
    for workload in set(workloads) | set(traced):
        for name in exact:
            for trace in (0, 1):
                a = compare.values(runs["parent"], workload, name, trace)
                b = compare.values(runs["change"], workload, name, trace)
                for seed in sorted(set(a) & set(b)):
                    if a[seed] != b[seed]:
                        not_repeated.append(
                            {"workload": workload, "metric": name,
                             "seed": seed, "trace": trace,
                             "parent": a[seed], "change": b[seed]})

    ledger = {
        "provenance": {
            "started_utc": started,
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime()),
            "parent_rev": git(sides["parent"], "rev-parse", "HEAD"),
            "base_rev": git(args.repo, "rev-parse", args.base),
            "host": {"nproc": os.cpu_count(),
                     "machine": platform.machine(),
                     "python": platform.python_version()},
            "seconds": seconds,
            "seeds": seeds,
            "trace_seeds": seed_list(args.trace_seeds) if traced else [],
            "order": "parent first on odd seeds, change first on even",
        },
        "diff_shortstat": {d: git(args.repo, "diff", "--shortstat",
                                  args.base, "--", d)
                           for d in ("src", "bench", "examples")},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "deterministic_not_repeated": not_repeated,
        "failed_runs": failed,
        "loadavg": loads,
    }
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    for workload, rows in end_to_end.items():
        for name, row in rows.items():
            print("%-13s %-12s %12.6g -> %12.6g  %s"
                  % (workload, name, row["parent"]["median"],
                     row["change"]["median"], row["verdict"]))
    print("deterministic metrics: %s"
          % ("repeat exactly" if not not_repeated
             else "%d mismatches" % len(not_repeated)))
    return 1 if failed or not_repeated else 0


if __name__ == "__main__":
    sys.exit(main())
