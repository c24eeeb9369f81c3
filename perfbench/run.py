"""Time-to-answer benchmark for the streaming subgraph counters.

Usage::

    python3 perfbench/run.py --workload ins-tri --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The inputs are generated from
``--seed`` and written to files under ``.perfbench_work/`` before any
timing starts; every answer is checked (see README.md).  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
BENCHMARK.json; with ``--trace 1`` they are its ``per_layer`` metrics,
taken from a run that wraps the program's layer functions in spans.
``--smoke`` shrinks inputs and budgets so that only the output shape
is exercised: the epsilon check is skipped, the exact checks are not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER_TIMEOUT_S = 150
#: Cold set-ups per run (fresh interpreter: import the program, open the files).
SETUP_REPEATS = 3

sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


#: Per-layer counters copied straight from the span dump.
LAYER_COUNTS = [
    "streams.elements", "streams.passes", "engine.sharded.merges", "engine.sharded.skew",
    "fgp.trials", "oracle.queries", "sketch.reservoir.calls", "sketch.reservoir.items",
    "sketch.l0.update_calls", "sketch.l0.updates", "sketch.hashing.mulmod_calls",
    "sketch.hashing.powmod_calls", "engine.live.snapshot_bytes", "service.bytes_in",
]


def layer_metrics(dump, window=None):
    """Per-layer self times and counters from a span dump."""
    selfs = tracing.self_times(dump, window)
    counters = dump["counters"]
    metrics = {span + "_s": selfs.get(span, 0.0) for span in tracing.SPAN_NAMES}
    metrics.update({name: float(counters.get(name, 0)) for name in LAYER_COUNTS})
    calls = counters.get("sketch.l0.sample_calls", 0)
    metrics["sketch.l0.sample_ok_ratio"] = counters.get("sketch.l0.sample_ok", 0) / calls if calls else 0.0
    attributed = sum(value for span, value in selfs.items() if span != tracing.ROOT)
    return metrics, attributed


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def document(self, units) -> dict:
        metrics = {}
        if self.correct:
            metrics = {name: {"value": self.metrics[name], "unit": units[name]} for name in units}
        return {"correct": self.correct, "attempted": max(self.attempted, 1),
                "failed": self.failed if self.correct else max(self.failed, 1), "metrics": metrics}


def _same_answer(a: dict, b: dict) -> bool:
    return a["estimates"] == b["estimates"] and a["estimate"] == b["estimate"]


def run_counting(args, workdir: str, outcome: Outcome) -> None:
    budgets = workloads.SMOKE_BUDGETS if args.smoke else workloads.BUDGETS
    budget = budgets[args.workload]
    inp = workloads.build_counting_input(args.workload, args.seed, workdir, args.smoke)
    spec = {
        "workload": args.workload, "path": inp.path, "shard_paths": inp.shard_paths,
        "seed": args.seed, "copies": budget.copies, "trials": budget.trials,
        "seconds": args.seconds, "trace": bool(args.trace),
        "src": SRC, "spans_out": os.path.join(workdir, "spans.json"),
    }
    spec_path = os.path.join(workdir, "spec.json")
    out_path = os.path.join(workdir, "out.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    worker = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.run(worker + ["--setup-only"], check=True, timeout=60,
                               stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        setups.append(wall * json.loads(probe.stdout.splitlines()[-1])["pace"])
    subprocess.run(worker + [out_path], check=True, timeout=WORKER_TIMEOUT_S, stdout=sys.stderr)
    with open(out_path) as handle:
        out = json.load(handle)

    answers = out["results"] + ([out["traced_result"]] if args.trace else [])
    outcome.attempted = len(answers)
    reference = answers[0]
    for answer in answers:
        if not _same_answer(answer, reference):
            outcome.failed += 1
            outcome.fail(f"repeated answers differ: {answer['estimates']} vs {reference['estimates']}")
        elif budget.epsilon is not None and not args.smoke:
            error = abs(answer["estimate"] - inp.exact) / inp.exact
            if error > budget.epsilon:
                outcome.failed += 1
                outcome.fail(f"estimate {answer['estimate']:.1f} vs exact {inp.exact}: "
                             f"error {error:.3f} > epsilon {budget.epsilon}")
    if args.workload == "turn-shard2":
        mirror = _unsharded_mirror(inp, args.seed, budget)
        if not _same_answer(reference, mirror):
            outcome.failed += 1
            outcome.fail(f"sharded {reference['estimates']} != unsharded mirror {mirror['estimates']}")

    print(f"{args.workload} seed={args.seed} n={inp.n} m={inp.m} updates={inp.length} "
          f"exact={inp.exact} budget={budget.copies}x{budget.trials} "
          f"median={reference['estimate']:.1f} wall_s={_rounded(out['wall_answer_s'])} "
          f"pace={_rounded(out['pace'])} answer_s={_rounded(out['answer_s'])}", file=sys.stderr)

    if not args.trace:
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "answer_s": statistics.median(out["answer_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
            "space_words": reference["space_words"],
        }
        return
    dump = tracing.load_dump(spec["spans_out"])
    metrics, _ = layer_metrics(dump)
    traced = out["traced_wall_answer_s"]
    # Wall time inside some layer span below the root (on any thread).
    covered = tracing.root_time(dump) - metrics["engine.loop_s"]
    metrics.update(_zero_service_metrics())
    metrics.update({
        "estimate.success_ratio": reference["successes"] / reference["trials"],
        "trace.coverage": covered / traced,
        "trace.unattributed_s": traced - covered,
        "trace.overhead": traced * out["traced_pace"] / out["answer_s"][0] - 1.0,
        "bench.pace": statistics.median(out["pace"] + [out["traced_pace"]]),
    })
    outcome.metrics = metrics


def _rounded(values):
    return [round(value, 3) for value in values]


def _unsharded_mirror(inp, seed: int, budget) -> dict:
    from repro import patterns
    from repro.engine import count_subgraphs_turnstile_fused
    from repro.streams.datasets import open_disk_stream

    result = count_subgraphs_turnstile_fused(
        open_disk_stream(inp.path), patterns.triangle(), copies=budget.copies,
        trials=budget.trials, rng=seed, mode="mirror")
    return {"estimate": result.estimate, "estimates": list(result.estimates)}


SERVICE_ONLY = ["service.ckpt_stall_s", "service.refusals", "service.wait_s", "gen.late_p99_ms",
                "serve.feed_p50_ms", "serve.feed_p99_ms", "serve.query_p50_ms", "serve.feeds",
                "serve.queries"]


def _zero_service_metrics() -> dict:
    return {name: 0.0 for name in SERVICE_ONLY}


def run_serve(args, workdir: str, outcome: Outcome) -> None:
    import serve_mixed

    shape = workloads.SMOKE_SERVE_SHAPE if args.smoke else workloads.SERVE_SHAPE
    feeds = int(round(shape.feeds_per_s * args.seconds))
    inp = workloads.build_serve_input(args.seed, shape, feeds)
    plain = serve_mixed.phase(BENCH_DIR, SRC, workdir, "plain", shape, inp, args.seconds,
                              shape.setup_repeats)
    phases = [plain]
    if args.trace:
        spans_out = os.path.join(workdir, "spans.json")
        traced = serve_mixed.phase(BENCH_DIR, SRC, workdir, "traced", shape, inp, args.seconds,
                                   1, trace_out=spans_out)
        phases.append(traced)
    for result in phases:
        load = result["load"]
        outcome.attempted += load.attempted
        outcome.failed += load.failed
        for problem in result["problems"]:
            outcome.fail(problem)
    summary = serve_mixed.latency_summary(plain["load"])
    print(f"serve-mixed seed={args.seed} feeds={summary['feeds']} queries={summary['queries']} "
          f"feed_p50={summary['feed_p50_ms']:.1f}ms feed_p99={summary['feed_p99_ms']:.1f}ms "
          f"query_p50={summary['query_p50_ms']:.1f}ms late_p99={summary['late_p99_ms']:.1f}ms",
          file=sys.stderr)
    if not args.trace:
        outcome.metrics = {
            "setup_s": statistics.median(plain["setup_s"]),
            "answer_s": summary["query_p50_ms"] / 1000.0,
            "peak_rss_mb": plain["peak_rss_mb"],
            "space_words": plain["space_words"],
        }
        return
    traced_load = traced["load"]
    dump = tracing.load_dump(spans_out)
    metrics, attributed = layer_metrics(dump, traced_load.window)
    client = sum(traced_load.feed_latency) + sum(traced_load.query_latency)
    traced_summary = serve_mixed.latency_summary(traced_load)
    metrics.update({
        "service.ckpt_stall_s": serve_mixed.checkpoint_stall_s(traced_load.status),
        "service.refusals": float(traced_load.failed),
        "service.wait_s": client - attributed,
        "gen.late_p99_ms": summary["late_p99_ms"],
        "serve.feed_p50_ms": summary["feed_p50_ms"],
        "serve.feed_p99_ms": summary["feed_p99_ms"],
        "serve.query_p50_ms": summary["query_p50_ms"],
        "serve.feeds": float(summary["feeds"]),
        "serve.queries": float(summary["queries"]),
        "estimate.success_ratio": plain["success_ratio"],
        "trace.coverage": attributed / client,
        "trace.unattributed_s": client - attributed,
        "trace.overhead": traced_summary["query_p50_ms"] / summary["query_p50_ms"] - 1.0,
        "bench.pace": statistics.median([plain["load"].pace, traced_load.pace]),
    })
    outcome.metrics = metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro; run from a source checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    outcome = Outcome()
    try:
        if args.workload == workloads.SERVE:
            run_serve(args, workdir, outcome)
        else:
            run_counting(args, workdir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.correct:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise RuntimeError(f"metrics declared but not measured: {missing}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(outcome.document(units)))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
