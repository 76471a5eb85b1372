#!/usr/bin/env python3
"""Calibrate the repository benchmark and record its traced baseline.

Run from the repository root:

    python3 benchmarks/benchmark/calibrate.py [--runs 10] [--workload NAME ...]

For every workload it runs the benchmark command from BENCHMARK.json
untraced, `--runs` times per set with a distinct seed each time, in two
sets (seeds 11.. and 21..). For each end-to-end metric and set it records
the median and quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (q3 - q1) / median. A metric passes when both spreads are within its bound (setup_s
excepted) and set 2's median is not worse than set 1's by more than the
bound; it is steady when both spreads are below a third of the bound. It
then runs every workload untraced and traced at the held-out seed 7 (all
ops must pass) and traced at seed 1, whose ledger becomes
traced_seed1.json. Results go to calibration.json beside this script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SET_SEEDS = [11, 21]
HELD_OUT_SEED = 7
LEDGER_SEED = 1


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"host": host(), "run_seconds": seconds, "runs_per_set": opts.runs,
              "set_seeds": SET_SEEDS, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    ledger = {"host": report["host"], "seed": LEDGER_SEED, "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        print(f"{workload}:", flush=True)
        sets = []
        for first in SET_SEEDS:
            results = [run(command, workload, first + i, seconds, 0) for i in range(opts.runs)]
            ok &= all(r["correct"] for r in results)
            sets.append({name: summary([r["metrics"][name]["value"] for r in results])
                         for name in bounds})
        checks = {}
        for name, bound in bounds.items():
            first, second = sets[0][name], sets[1][name]
            drift = second["median"] / first["median"] - 1.0
            spread = max(first["spread"], second["spread"])
            within = name == "setup_s" or spread <= bound
            checks[name] = {"bound": bound, "median_drift": drift, "within_bound": within,
                            "steady": spread < bound / 3, "sets_agree": drift <= bound}
            ok &= within and drift <= bound
        held_out = [run(command, workload, HELD_OUT_SEED, seconds, t) for t in (0, 1)]
        ok &= all(r["correct"] and r["failed"] == 0 for r in held_out)
        traced = run(command, workload, LEDGER_SEED, seconds, 1)
        ok &= traced["correct"]
        report["workloads"][workload] = {
            "sets": sets, "checks": checks,
            "held_out": [{"trace": t, "correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"]} for t, r in zip((0, 1), held_out)],
        }
        ledger["workloads"][workload] = traced
        for name, c in checks.items():
            print(f"  {name}: spreads {sets[0][name]['spread']:.4f} / {sets[1][name]['spread']:.4f}, "
                  f"drift {c['median_drift']:+.4f}, bound {c['bound']}", flush=True)

    report["accepted"] = ok
    for name, doc in (("calibration.json", report), ("traced_seed1.json", ledger)):
        with open(os.path.join(HERE, name), "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    print("calibration", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
