#!/usr/bin/env python3
"""Measures the benchmark over ten seeds, twice, and writes a ledger file.

Run from the root of a checkout:

    python3 perfbench/ledger.py [--out perfbench/baseline.json]

Every workload in BENCHMARK.json is run with `--trace 0` on seeds 1-10 in
two sets, A and B. The sets are interleaved: for each seed and workload,
one run of A and one of B follow each other (in alternating order), so host
speed drift reaches both sets alike and no two runs compete for CPUs. For
each set and end-to-end metric the ledger reports the median, quartiles and
spread (interquartile distance as a share of the median); for each metric
it reports how far set B's median lies from set A's, as a share of A's.
Then one `--trace 1` run per workload, on the first seed, gives the
per-layer metrics. The ledger records the run context (nproc, build type,
compiler, git revision) next to the numbers.

Exits 1 if any run fails, any spread exceeds its metric's bound in
BENCHMARK.json, or the two sets' medians differ by more than the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

import run

SEEDS = list(range(1, 11))
SETS = ("A", "B")


def invoke(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), proc.stderr


def git_revision():
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=run.ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": round(spread, 4),
            "within_bound": spread <= bound, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join(run.HERE, "baseline.json"))
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ledger = {"context": {"nproc": os.cpu_count(), "git_revision": git_revision(),
                          "seeds": SEEDS, "sets": list(SETS), "run_seconds": seconds},
              "workloads": {}}
    values = {(name, s, m["name"]): [] for name in names for s in SETS
              for m in spec["end_to_end"]}
    for i, seed in enumerate(SEEDS):
        for name in names:
            for s in (SETS if i % 2 == 0 else SETS[::-1]):
                result, stderr = invoke(name, seed, seconds, 0)
                header = re.search(r"build=(\S+) compiler=(\S+)", stderr)
                if header:
                    ledger["context"]["build_type"], ledger["context"]["compiler"] = header.groups()
                for metric in spec["end_to_end"]:
                    values[(name, s, metric["name"])].append(
                        result["metrics"][metric["name"]]["value"])
                print(f"{name} set {s} seed {seed}: " + " ".join(
                    f"{m['name']}={values[(name, s, m['name'])][-1]:.4g}"
                    for m in spec["end_to_end"]), flush=True)

    ok = True
    for name in names:
        summary = {}
        print(name)
        for metric in spec["end_to_end"]:
            bound = metric["bound"]
            sets = {s: summarize(values[(name, s, metric["name"])], bound) for s in SETS}
            a, b = sets["A"]["median"], sets["B"]["median"]
            shift = (b - a) / a if a else float("inf")
            agree = abs(shift) <= bound
            fine = agree and all(v["within_bound"] for v in sets.values())
            ok = ok and fine
            summary[metric["name"]] = {"unit": metric["unit"], "bound": bound, "sets": sets,
                                       "b_vs_a": round(shift, 4), "sets_agree": agree}
            print(f"  {metric['name']:16s} median A {a:.5g} B {b:.5g} {metric['unit']}"
                  f" (B vs A {shift:+.3f}); spread A {sets['A']['spread']:.3f}"
                  f" B {sets['B']['spread']:.3f}; bound {bound}{'' if fine else '  OVER BOUND'}",
                  flush=True)
        traced, stderr = invoke(name, SEEDS[0], seconds, 1)
        fingerprint = re.search(r"traced fingerprint (\w+)", stderr)
        longest = re.search(r"longest solve (\S+) s", stderr)
        ledger["workloads"][name] = {
            "end_to_end": summary,
            "decision_fingerprint": fingerprint.group(1) if fingerprint else None,
            "longest_solve_s": float(longest.group(1)) if longest else None,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    ledger["all_within_bounds"] = ok
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ledger written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
