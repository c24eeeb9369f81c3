"""Self-test of the benchmark: budget evidence and an output-shape smoke.

Usage::

    python3 perfbench/selftest.py                 # both parts
    python3 perfbench/selftest.py --smoke-only    # shape only, ~1 minute
    python3 perfbench/selftest.py --seeds 20      # budget evidence over 20 seeds

*Budget evidence* counts ins-tri and turn-churn at their benchmark
budgets on every seed and records how many medians land within epsilon
of the exact count; it writes ``budget_evidence.json`` next to this
file and fails unless every seed passes.  The *smoke* runs every
workload at tiny budgets, traced and untraced, and checks the result
object's keys, metric names and units against BENCHMARK.json.  It
checks no timing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads
import worker

EVIDENCE = os.path.join(run.BENCH_DIR, "budget_evidence.json")


def budget_evidence(seeds: int) -> bool:
    os.makedirs(run.WORK, exist_ok=True)
    evidence = {}
    for workload in ("ins-tri", "turn-churn"):
        budget = workloads.BUDGETS[workload]
        rows = []
        for seed in range(1, seeds + 1):
            directory = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
            try:
                inp = workloads.build_counting_input(workload, seed, directory)
                spec = {"workload": workload, "path": inp.path, "seed": seed}
                result = worker.count(spec, worker.open_streams(spec), budget.copies, budget.trials)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            error = abs(result.estimate - inp.exact) / inp.exact
            rows.append({"seed": seed, "exact": inp.exact, "estimate": result.estimate,
                         "error": round(error, 4), "within": error <= budget.epsilon})
            print(f"{workload} seed={seed} exact={inp.exact} estimate={result.estimate:.1f} "
                  f"error={error:.3f}", flush=True)
        evidence[workload] = {
            "copies": budget.copies,
            "trials_per_copy": budget.trials,
            "epsilon": budget.epsilon,
            "seeds": seeds,
            "passed": sum(row["within"] for row in rows),
            "max_error": max(row["error"] for row in rows),
            "runs": rows,
        }
    with open(EVIDENCE, "w") as handle:
        json.dump(evidence, handle, indent=1)
        handle.write("\n")
    ok = all(item["passed"] == item["seeds"] for item in evidence.values())
    for workload, item in evidence.items():
        print(f"{workload}: {item['passed']}/{item['seeds']} seeds within epsilon={item['epsilon']} "
              f"(max error {item['max_error']})")
    return ok


def smoke() -> bool:
    end_to_end, per_layer = run.declared_metrics()
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            process = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=300, cwd=run.ROOT)
            problems = []
            try:
                doc = json.loads(process.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                doc = {}
                problems.append(f"no JSON result (exit {process.returncode}): {process.stderr[-500:]}")
            if doc:
                if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(doc)}")
                if doc.get("correct") is not True or doc.get("failed") != 0:
                    problems.append(f"check failed: {process.stderr[-500:]}")
                if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
                    problems.append(f"attempted {doc.get('attempted')!r}")
                units = per_layer if trace else end_to_end
                metrics = doc.get("metrics", {})
                if set(metrics) != set(units):
                    problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
                for name, entry in metrics.items():
                    if entry.get("unit") != units.get(name) or not isinstance(entry.get("value"), (int, float)):
                        problems.append(f"metric {name}: {entry}")
            if process.returncode != 0:
                problems.append(f"exit code {process.returncode}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--smoke-only", action="store_true")
    parser.add_argument("--budgets-only", action="store_true")
    args = parser.parse_args()
    ok = True
    if not args.budgets_only:
        ok = smoke() and ok
    if not args.smoke_only:
        ok = budget_evidence(args.seeds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
