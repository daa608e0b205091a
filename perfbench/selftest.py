#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A short (--quick) run of every workload in both modes must exit 0, pass
   its checks, and print every metric BENCHMARK.json names, with its unit.
2. Negative test: --perturb-rng burns one simulator RNG draw in the second
   repetition of a high-fidelity run. Its decisions change, so the
   determinism check must fail the run (exit 1, "correct": false).
3. A directory holding only BENCHMARK.json and perfbench/ must make
   run.py exit non-zero without printing a result.

Builds like run.py does. Scratch output goes under .bench_out/.
"""

import json
import os
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
OUT_DIR = os.path.join(ROOT, ".bench_out")


def bench(args):
    proc = subprocess.run([run.BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(label, result, declared, failures):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        failures.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            failures.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            failures.append(f"{label}: metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        failures.append(f"{label}: undeclared metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 2
    failures = []
    common = ["--seed", "3", "--seconds", "1", "--quick", "--out-dir", OUT_DIR]

    for workload in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            code, result, stderr = bench(["--workload", workload["name"], "--trace", trace] + common)
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}\n{stderr}")
                continue
            check_metrics(label, result, declared, failures)
            print(f"selftest: {label}: {len(result['metrics'])} metrics ok")

    code, result, stderr = bench(["--workload", "fig06_google", "--trace", "0", "--perturb-rng"]
                                 + common)
    if code != 1 or result is None or result["correct"] or "nondeterministic" not in stderr:
        failures.append(f"perturbed run was not caught: exit {code}, result {result}")
    else:
        print("selftest: perturbed decisions fail the determinism check")

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", "fig06_google", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"selftest: bare directory exits {proc.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print(f"selftest: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
