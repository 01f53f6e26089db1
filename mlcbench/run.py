#!/usr/bin/env python3
"""Run one mlcsim benchmark workload and print its metrics.

    python3 mlcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (the library from src/ plus the mlcbench binary
from mlcbench/src) on first use into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs it. With --trace 0 the last
line holds every end-to-end metric; with --trace 1 every per-layer
metric (a layer the workload does not exercise reads 0) and the
spans are written to <build>/traces/. Earlier lines are provenance
and one {"record":"check"} line per output check.

Exit status: 0 when every check passed; 1 when a check failed (the
result line is still printed, with "correct": false); 3 when the
build failed, the binary crashed or ran out of time (a check record
names the failure; no result line is printed).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175


def load_metrics():
    with open(HERE / "metrics.json") as f:
        return json.load(f)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(bdir):
    """Configure (once) and build; returns the binary path or None."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                return None
    return bdir / "mlcbench"


def fail_record(name, reason):
    """A failure with no result line: a check record on stdout."""
    print(json.dumps({"record": "check", "name": name,
                      "status": "fail", "reason": reason}), flush=True)


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def finish(result, spec, workload, trace):
    """Check the binary's metric names against metrics.json, attach
    units, and return (result line, list of problems)."""
    problems = []
    raw = result.get("metrics", {})
    if trace:
        table = spec["per_layer"]
        wanted = {n for n, m in table.items() if workload in m["workloads"]}
    else:
        table = spec["end_to_end"]
        wanted = set(table)
    for name in sorted(set(raw) - wanted):
        problems.append("unexpected_metric:" + name)
    metrics = {}
    for name, meta in table.items():
        value = raw.get(name, 0.0 if name not in wanted else None)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("missing_metric:" + name)
            value = 0.0
        metrics[name] = {"value": value, "unit": meta["unit"]}
    line = {
        "correct": bool(result.get("correct")) and not problems,
        "attempted": max(1, int(result.get("attempted", 1))),
        "failed": int(result.get("failed", 0)) + len(problems),
        "metrics": metrics,
    }
    return line, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: every trace shrunk")
    args = ap.parse_args()

    spec = load_metrics()
    if args.workload not in spec["workloads"]:
        sys.exit("run.py: unknown workload " + args.workload)
    bdir = build_dir()
    exe = build(bdir)
    if exe is None or not exe.exists():
        fail_record("build", "build_failed")
        return 3
    # The deadline covers the run, not a first (cold) build.
    t0 = time.monotonic()

    tag = "%s-seed%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--workdir", str(bdir / "work" / tag),
           "--git-sha", git_sha()]
    if args.trace:
        (bdir / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(bdir / "traces" / (tag + ".jsonl"))]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env.pop("MLC_QUICK", None)
    budget = max(10.0, DEADLINE_S - (time.monotonic() - t0))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail_record("mlcbench", "timeout_%.0fs" % budget)
        return 3
    finally:
        shutil.rmtree(bdir / "work" / tag, ignore_errors=True)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        if "metrics" not in result:
            raise ValueError
    except (IndexError, ValueError):
        fail_record("mlcbench", "no_result_exit_%d" % proc.returncode)
        return 3
    for l in lines[:-1]:
        print(l)
    line, problems = finish(result, spec, args.workload, args.trace)
    for p in problems:
        kind, name = p.split(":", 1)
        fail_record("metric_" + name, kind)
    print(json.dumps(line), flush=True)
    return 0 if proc.returncode == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
