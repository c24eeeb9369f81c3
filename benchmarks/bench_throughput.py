"""Stream-throughput benches: the cost model behind repro band 4/5.

The calibration note for this reproduction ("easy to code but slow on
large edge streams") is about exactly these numbers: elements/second
through the pass loop.  Two regimes matter:

* the oracle pass loop with *many* concurrent f1/f3 queries — this is
  where the skip-ahead reservoir bank turns O(m·K) coin flips into
  O(m + K log m) heap wakes (see ``repro.sketch.reservoir``);
* the plain baselines (single reservoir, TRIEST) as a floor.
"""

import os
import time

from conftest import emit_json, emit_table

from repro.engine import (
    DEFAULT_BATCH_SIZE,
    FusionMode,
    count_subgraphs_insertion_only_fused,
)
from repro.experiments.tables import Table
from repro.graph import generators as gen
from repro.sketch.reservoir import SingleReservoir, SkipAheadReservoirBank
from repro.streaming.three_pass import count_subgraphs_insertion_only
from repro.patterns import pattern as zoo
from repro.streams.stream import insertion_stream


def test_throughput_skip_ahead_bank(benchmark):
    # 2000 concurrent single-item reservoirs over a 20k stream.
    def run_bank():
        bank = SkipAheadReservoirBank(2000, rng=1)
        for item in range(20_000):
            bank.offer(item)
        return bank

    bank = benchmark(run_bank)
    assert bank.count == 20_000


def test_throughput_naive_reservoirs_for_scale(benchmark):
    # The O(m*K) naive grid at 1/20 of the bank's K, for comparison.
    def run_naive():
        reservoirs = [SingleReservoir(rng=i) for i in range(100)]
        for item in range(20_000):
            for reservoir in reservoirs:
                reservoir.offer(item)
        return reservoirs

    reservoirs = benchmark(run_naive)
    assert all(r.count == 20_000 for r in reservoirs)


def test_throughput_three_pass_large_stream(benchmark, capsys):
    graph = gen.barabasi_albert(4000, 5, rng=2)

    def run_counter():
        stream = insertion_stream(graph, rng=3)
        return count_subgraphs_insertion_only(
            stream, zoo.triangle(), trials=3000, rng=4
        )

    result = benchmark.pedantic(run_counter, rounds=1, iterations=1)
    assert result.passes == 3

    # A small scaling table: elements/second at three stream sizes.
    table = Table(
        "Throughput: 3-pass triangle counter (trials=2000)",
        ["n", "m", "stream elements x passes", "seconds", "elements/s"],
    )
    for n in (1000, 2000, 4000):
        g = gen.barabasi_albert(n, 5, rng=5)
        stream = insertion_stream(g, rng=6)
        start = time.perf_counter()
        count_subgraphs_insertion_only(stream, zoo.triangle(), trials=2000, rng=7)
        elapsed = time.perf_counter() - start
        processed = 3 * g.m
        table.add_row(n, g.m, processed, elapsed, processed / elapsed)
    emit_table(table, "throughput", capsys)


def test_throughput_fused_vs_sequential(benchmark, capsys):
    """Median-of-K amplification: fused engine vs the sequential loop.

    The sequential loop replays the stream 3K times (K copies × 3
    passes); the fused engine replays it 3 times however large K is.
    ``elements/s`` counts the stream elements an ensemble member must
    observe — K × 3m either way — per wall-clock second, so the column
    ratio IS the wall-clock speedup.  The K=32 shared-mode row is the
    ISSUE's acceptance gate (>= 2x); observed ~3-5x on a laptop.
    """
    graph = gen.barabasi_albert(8000, 5, rng=11)
    trials_per_copy = 200
    pattern = zoo.triangle()

    table = Table(
        f"Fused vs sequential median-of-K (trials/copy={trials_per_copy}, "
        f"m={graph.m})",
        ["K", "mode", "stream passes", "seconds", "elements/s", "speedup"],
    )

    speedups = {}
    for copies in (8, 32):
        ensemble_elements = copies * 3 * graph.m

        stream = insertion_stream(graph, rng=12)
        start = time.perf_counter()
        for index in range(copies):
            count_subgraphs_insertion_only(
                stream, pattern, trials=trials_per_copy, rng=1000 + index
            )
        sequential_seconds = time.perf_counter() - start
        table.add_row(
            copies,
            "sequential",
            3 * copies,
            sequential_seconds,
            ensemble_elements / sequential_seconds,
            1.0,
        )

        for mode in (FusionMode.MIRROR, FusionMode.SHARED):
            stream = insertion_stream(graph, rng=12)
            start = time.perf_counter()
            fused = count_subgraphs_insertion_only_fused(
                stream,
                pattern,
                copies=copies,
                trials=trials_per_copy,
                rng=13,
                mode=mode,
            )
            seconds = time.perf_counter() - start
            assert fused.passes == 3
            assert stream.passes_used == 3
            speedup = sequential_seconds / seconds
            speedups[(copies, mode)] = speedup
            table.add_row(
                copies,
                f"fused-{mode}",
                3,
                seconds,
                ensemble_elements / seconds,
                speedup,
            )

    emit_table(table, "throughput_fused", capsys)
    assert speedups[(32, FusionMode.SHARED)] >= 2.0, (
        f"fused shared mode at K=32 must be >= 2x the sequential loop, "
        f"got {speedups[(32, FusionMode.SHARED)]:.2f}x"
    )

    # Register the gate workload with pytest-benchmark too, so the
    # documented `pytest benchmarks/ --benchmark-only` invocation
    # collects this test (fixture-less tests are skipped there) and
    # tracks the fused run's timing alongside the other benches.
    def run_fused_shared_32():
        return count_subgraphs_insertion_only_fused(
            insertion_stream(graph, rng=12),
            pattern,
            copies=32,
            trials=trials_per_copy,
            rng=13,
        )

    fused = benchmark.pedantic(run_fused_shared_32, rounds=1, iterations=1)
    assert fused.passes == 3


def test_throughput_columnar_pipeline(benchmark, capsys):
    """The columnar EdgeBatch pipeline at K=32, mirror and shared mode.

    K=32 median-of-K insertion-only counting on a ~300k-element stream,
    serial backend.  ``edges/s`` counts ensemble-observed elements
    (K × 3m) per wall-clock second.  Mirror mode runs at two batch
    sizes, whose estimates must be bit-identical (asserted below).
    This table records throughput only; the regression bound on the
    insertion pipeline is the perfbench ``ins-tri`` ``answer_s``
    metric.  Results land in
    ``benchmarks/results/throughput_columnar.json``.
    """
    graph = gen.barabasi_albert(60_000, 5, rng=11)
    copies, trials = 32, 100
    pattern = zoo.triangle()
    ensemble_elements = copies * 3 * graph.m

    table = Table(
        f"Columnar pipeline (K={copies}, trials/copy={trials}, m={graph.m})",
        ["mode", "batch size", "seconds", "elements/s", "estimate"],
    )
    rows = []
    estimates = {}
    for mode, batch_size in (
        (FusionMode.MIRROR, DEFAULT_BATCH_SIZE),
        (FusionMode.MIRROR, 512),
        (FusionMode.SHARED, DEFAULT_BATCH_SIZE),
    ):
        stream = insertion_stream(graph, rng=12)
        start = time.perf_counter()
        fused = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=copies,
            trials=trials,
            rng=13,
            mode=mode,
            batch_size=batch_size,
        )
        elapsed = time.perf_counter() - start
        assert fused.passes == 3
        estimates[(mode, batch_size)] = fused.estimates
        table.add_row(
            mode, batch_size, elapsed, ensemble_elements / elapsed, fused.estimate
        )
        rows.append(
            {
                "mode": mode,
                "pipeline": "columnar",
                "batch_size": batch_size,
                "seconds": elapsed,
                "edges_per_sec": ensemble_elements / elapsed,
                "estimate": fused.estimate,
            }
        )

    # Mirror mode: the batch split must change nothing but the clock.
    assert (
        estimates[(FusionMode.MIRROR, DEFAULT_BATCH_SIZE)]
        == estimates[(FusionMode.MIRROR, 512)]
    )

    emit_table(table, "throughput_columnar", capsys, json_twin=False)
    emit_json(
        "throughput_columnar",
        params={
            "n": graph.n,
            "m": graph.m,
            "copies": copies,
            "trials_per_copy": trials,
            "pattern": pattern.name,
            "backend": "serial",
            "ensemble_elements": ensemble_elements,
        },
        rows=rows,
    )

    def run_columnar_mirror():
        return count_subgraphs_insertion_only_fused(
            insertion_stream(graph, rng=12),
            pattern,
            copies=copies,
            trials=trials,
            rng=13,
            mode=FusionMode.MIRROR,
        )

    fused = benchmark.pedantic(run_columnar_mirror, rounds=1, iterations=1)
    assert fused.passes == 3


def test_throughput_serial_vs_parallel_backend(benchmark, capsys):
    """The thread and process backends vs serial at K=32 (mirror mode).

    One fused mirror-mode run per row, identical seeds throughout, so
    every row's estimate is the same number and the table isolates
    *execution* cost: the serial row is the in-process dispatch loop,
    the thread rows add queue hops (by-reference handoff, no copies),
    the process rows add the shared-memory ring transport — each batch
    packed once, every worker handed a slot reference — and divide the
    estimator work by the pool size.

    A parallel row only *measures parallelism* when the machine has a
    core for the driver plus one per worker; rows that oversubscribe
    (``cpus < workers + 1``) mostly measure protocol overhead and are
    flagged ``valid_parallelism: false`` in the archived JSON — and
    the >= 2x speedup gate is asserted only on machines with at least
    4 CPUs, where a 2-worker pool has honest cores to win on.
    ``elements/s`` counts ensemble-observed elements (K × 3m) per
    wall-clock second, as in the fused-vs-sequential table above.
    Results land in ``benchmarks/results/throughput_parallel.json``.
    """
    graph = gen.barabasi_albert(8000, 5, rng=11)
    trials_per_copy = 200
    copies = 32
    pattern = zoo.triangle()
    ensemble_elements = copies * 3 * graph.m
    cpus = os.cpu_count() or 1

    table = Table(
        f"Serial vs thread vs process backends, mirror mode (K={copies}, "
        f"trials/copy={trials_per_copy}, m={graph.m}, cpus={cpus})",
        ["backend", "workers", "seconds", "elements/s", "speedup vs serial",
         "valid", "estimate"],
    )

    def run_fused(backend, workers=None):
        stream = insertion_stream(graph, rng=12)
        start = time.perf_counter()
        result = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=copies,
            trials=trials_per_copy,
            rng=13,
            mode=FusionMode.MIRROR,
            backend=backend,
            workers=workers,
        )
        seconds = time.perf_counter() - start
        assert result.passes == 3
        return result, seconds

    serial, serial_seconds = run_fused("serial")
    table.add_row("serial", 1, serial_seconds,
                  ensemble_elements / serial_seconds, 1.0, True,
                  serial.estimate)
    rows = [
        {
            "backend": "serial",
            "workers": 1,
            "seconds": serial_seconds,
            "edges_per_sec": ensemble_elements / serial_seconds,
            "speedup_vs_serial": 1.0,
            "valid_parallelism": True,
            "estimate": serial.estimate,
        }
    ]
    speedups = {}
    for backend in ("thread", "process"):
        for workers in dict.fromkeys([1, 2, max(2, cpus)]):
            result, seconds = run_fused(backend, workers)
            # Mirror mode: sharding may not be *fast* on this machine,
            # but it must never change the answer.
            assert result.estimates == serial.estimates
            valid = cpus >= workers + 1
            speedup = serial_seconds / seconds
            speedups[(backend, workers)] = speedup
            table.add_row(backend, workers, seconds,
                          ensemble_elements / seconds, speedup, valid,
                          result.estimate)
            rows.append(
                {
                    "backend": backend,
                    "workers": workers,
                    "seconds": seconds,
                    "edges_per_sec": ensemble_elements / seconds,
                    "speedup_vs_serial": speedup,
                    "valid_parallelism": valid,
                    "estimate": result.estimate,
                }
            )

    emit_table(table, "throughput_parallel", capsys, json_twin=False)
    emit_json(
        "throughput_parallel",
        params={
            "n": graph.n,
            "m": graph.m,
            "copies": copies,
            "trials_per_copy": trials_per_copy,
            "pattern": pattern.name,
            "mode": "mirror",
            "cpus": cpus,
            "ensemble_elements": ensemble_elements,
        },
        rows=rows,
        extra={
            "best_process_speedup": max(
                speedups[k] for k in speedups if k[0] == "process"
            ),
        },
    )

    # The ISSUE's >= 2x acceptance gate — only meaningful where the
    # pool has real cores to shard onto.
    if cpus >= 4:
        best = max(speedups[("process", w)] for w in (2, max(2, cpus)))
        assert best >= 2.0, (
            f"process backend must be >= 2x serial on a {cpus}-CPU box, "
            f"got {best:.2f}x"
        )

    fused = benchmark.pedantic(
        lambda: run_fused("process", min(2, cpus))[0], rounds=1, iterations=1
    )
    assert fused.estimates == serial.estimates
