"""Counting worker: opens the workload's stream files and times the answers.

Run as ``python3 worker.py SPEC.json OUT.json``.  The spec names the
workload, its files and budget, the seed, the measuring time and the
trace flag.  The worker is a process of its own so that its peak RSS is
the counting run's alone and so that the program sees only the files.

``python3 worker.py SPEC.json --setup-only`` imports the program, opens
the files, prints its pace factor and exits: the parent times it from
spawn to exit as one cold set-up.  Every time is also rescaled to the
reference pace (see pace.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time

from pace import FREE_PERIOD_S, PINNED_PERIOD_S, PaceMeter, pin_to_one_cpu

#: Workloads whose counting runs on one thread; their worker is pinned.
SINGLE_THREADED = ("ins-tri", "turn-churn")


def open_streams(spec):
    from repro.streams.datasets import open_disk_stream, open_stream_shards

    if spec["workload"] == "turn-shard2":
        return open_stream_shards(spec["path"], len(spec["shard_paths"]))
    return open_disk_stream(spec["path"])


def count(spec, stream, copies, trials):
    from repro import patterns
    from repro.engine import (
        count_subgraphs_insertion_only_fused,
        count_subgraphs_turnstile_fused,
        count_subgraphs_turnstile_sharded,
    )

    triangle = patterns.triangle()
    seed = spec["seed"]
    workload = spec["workload"]
    if workload == "ins-tri":
        return count_subgraphs_insertion_only_fused(
            stream, triangle, copies=copies, trials=trials, rng=seed, backend="serial")
    if workload == "turn-churn":
        return count_subgraphs_turnstile_fused(
            stream, triangle, copies=copies, trials=trials, rng=seed, backend="serial")
    return count_subgraphs_turnstile_sharded(
        stream, triangle, copies=copies, trials=trials, rng=seed, backend="thread", workers=2)


def _summary(result) -> dict:
    ensemble = result.details.get("ensemble_space_words")
    if ensemble is None:
        ensemble = sum(copy.space_words for copy in result.copies)
    return {
        "estimate": result.estimate,
        "estimates": list(result.estimates),
        "successes": sum(copy.successes for copy in result.copies),
        "trials": sum(copy.trials for copy in result.copies),
        "space_words": float(ensemble),
        "passes": result.passes,
    }


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    if spec["workload"] in SINGLE_THREADED or out_path == "--setup-only":
        pin_to_one_cpu()
        meter = PaceMeter(PINNED_PERIOD_S).start()
    else:
        meter = PaceMeter(FREE_PERIOD_S).start()
    began = time.perf_counter()
    sys.path.insert(0, spec["src"])
    if out_path == "--setup-only":
        import repro.engine  # noqa: F401  (what a counting run imports)

        open_streams(spec)
        print(json.dumps({"pace": meter.factor(began, time.perf_counter())}))
        return 0

    # Untimed warm-up at a tiny budget: lazy imports and first-call set-up.
    count(spec, open_streams(spec), 1, 2)

    copies, trials = spec["copies"], spec["trials"]
    walls, paces, summaries = [], [], []
    began = time.perf_counter()
    while True:
        stream = open_streams(spec)
        start = time.perf_counter()
        result = count(spec, stream, copies, trials)
        end = time.perf_counter()
        walls.append(end - start)
        paces.append(meter.factor(start, end))
        summaries.append(_summary(result))
        if spec["trace"] or end + max(walls) > began + spec["seconds"]:
            break

    out = {
        "answer_s": [wall * pace for wall, pace in zip(walls, paces)],
        "wall_answer_s": walls,
        "pace": paces,
        "results": summaries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if spec["trace"]:
        import tracing

        recorder = tracing.SpanRecorder()
        installation = tracing.install(recorder)
        try:
            start = time.perf_counter()
            result = recorder.call_root(count, spec, open_streams(spec), copies, trials)
            end = time.perf_counter()
        finally:
            installation.uninstall()
        out["traced_wall_answer_s"] = end - start
        out["traced_pace"] = meter.factor(start, end)
        out["traced_result"] = _summary(result)
        recorder.dump(spec["spans_out"])

    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
