#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few minutes).

    python3 mlcbench/selftest.py

Checks that BENCHMARK.json and metrics.json agree; that every
workload prints every named metric with its unit, plus provenance;
that the same seed repeats every deterministic metric and the input
fingerprint exactly, while another seed changes the input stream;
and that a checkout holding only the benchmark fails without
printing a result. Exit status 1 on any failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PROVENANCE = ("git_sha", "build_type", "compiler", "nproc", "seed",
              "trace_refs", "workers", "input_fingerprint",
              "latency_samples")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, str(root / "mlcbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def static_checks(bench, spec):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are well formed and unique")
    check(all(UNIT.match(m["unit"])
              for m in bench["end_to_end"] + bench["per_layer"]),
          "units are well formed")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "every bound is in (0, 0.25]")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in bench["end_to_end"]),
          "setup_s is an end-to-end metric in s, lower is better")
    check({w["name"]: w["why"] for w in bench["workloads"]}
          == spec["workloads"]
          and all(len(w["why"]) <= 200 for w in bench["workloads"]),
          "workload rationales agree with metrics.json")
    for kind in ("end_to_end", "per_layer"):
        mine = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        theirs = {n: (m["unit"], m["better"]) for n, m in spec[kind].items()}
        check(mine == theirs, kind + " metrics agree with metrics.json")
    check(all(m.get("moves") for m in spec["per_layer"].values()),
          "every per-layer metric names what it should move")


def output_checks(bench, spec, workload, code, lines, trace):
    tag = "%s trace=%d" % (workload, trace)
    check(code == 0, tag + ": exit 0")
    if not lines:
        check(False, tag + ": printed a result")
        return None
    result = lines[-1]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result line has exactly the contract's keys")
    check(result.get("correct") is True and result.get("failed") == 0,
          tag + ": every output check passed")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = result.get("metrics", {})
    check(set(got) == set(want)
          and all(got[n]["unit"] == u and isinstance(got[n]["value"],
                                                     (int, float))
                  for n, u in want.items()),
          tag + ": every %s metric printed with its unit" % kind)
    if not trace:
        check(all(got[n]["value"] != 0 for n in want),
              tag + ": no end-to-end metric reads 0")
    else:
        exercised = [n for n, m in spec["per_layer"].items()
                     if workload in m["workloads"]]
        check(all(got[n]["value"] != 0 for n in exercised
                  if n not in ("ckpt.fallbacks",)),
              tag + ": every exercised layer reports a non-zero value")
    prov = [l for l in lines if l.get("record") == "provenance"]
    check(len(prov) == 1 and all(k in prov[0] for k in PROVENANCE),
          tag + ": provenance carries %s" % ", ".join(PROVENANCE))
    checks = [l for l in lines if l.get("record") == "check"]
    check(checks and all(set(c) == {"record", "name", "status", "reason"}
                         for c in checks),
          tag + ": checks carry machine-readable status and reason")
    return prov[0] if prov else {}


def deterministic(spec, trace):
    kind = "per_layer" if trace else "end_to_end"
    return [n for n, m in spec[kind].items() if m.get("deterministic")]


def bare_checkout():
    """The benchmark alone, without the library, must fail cleanly."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "mlcbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.rglob("*"):
        if f.is_file() and "__pycache__" not in f.parts:
            dst = bare / "mlcbench" / f.relative_to(HERE)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(f, dst)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "mlcbench/run.py", "--workload", "grid_timing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=180)
    printed = any('"metrics"' in l for l in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed,
          "a checkout without the library fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.load(open(ROOT / "BENCHMARK.json"))
    spec = json.load(open(HERE / "metrics.json"))
    static_checks(bench, spec)
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            first = run(w, 1, trace)
            prov1 = output_checks(bench, spec, w, *first, trace)
            again = run(w, 1, trace)
            prov2 = output_checks(bench, spec, w, *again, trace)
            other = run(w, 2, trace)
            prov3 = output_checks(bench, spec, w, *other, trace)
            if not (first[1] and again[1] and other[1]):
                continue
            tag = "%s trace=%d" % (w, trace)
            m1, m2 = first[1][-1]["metrics"], again[1][-1]["metrics"]
            same = all(m1[n]["value"] == m2[n]["value"]
                       for n in deterministic(spec, trace))
            check(same, tag + ": same seed repeats every deterministic metric")
            check(prov1.get("input_fingerprint")
                  == prov2.get("input_fingerprint"),
                  tag + ": same seed gives the same inputs")
            check(prov1.get("input_fingerprint")
                  != prov3.get("input_fingerprint"),
                  tag + ": another seed gives other inputs")
    bare_checkout()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
