#!/usr/bin/env python3
"""Run the benchmark over several seeds and save every result.

    python3 mlcbench/collect.py --out runs.jsonl [--workloads a,b]
                                [--seeds 1-10] [--trace 0|1] [--seconds S]

Appends one JSON line per run to --out: {"workload", "seed",
"trace", "exit", "result"}, where result is run.py's last line (null
when it printed none). compare.py reads these files.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in seed_list(args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                rec = {"workload": workload, "seed": seed,
                       "trace": args.trace, "exit": proc.returncode,
                       "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                status = "ok" if proc.returncode == 0 else "FAILED"
                print("%s seed %d: %s" % (workload, seed, status),
                      file=sys.stderr)


if __name__ == "__main__":
    main()
