#!/usr/bin/env python3
"""CI perf-smoke: a tiny throughput run that validates the JSON contract.

Runs a miniature version of the K-copy insertion-only throughput
benchmark twice on the columnar pipeline, at the default batch size
and at a small one, checks the mirror-mode bit-equality invariant
across the two splits, then replays the same stream from
a disk-backed (tmpfile) binary through the fused engine under an LRU
batch cache — asserting the out-of-core estimates equal the in-memory
ones bit for bit and the cache stayed under its byte budget.  Both
legs archive through the same ``emit_json`` path the real benchmarks
use, and the emitted documents (including the new ``ingest_smoke``
ingestion table) are re-read and validated against the shared schema
(``benchmarks/conftest.JSON_SCHEMA_KEYS``).

It fails on *errors* — a broken pipeline, a bit-equality violation, a
budget overrun, a malformed document — never on timings, so it stays
flake-free on shared CI runners.

Run: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from conftest import emit_json, validate_benchmark_json  # noqa: E402

import numpy as np  # noqa: E402

from repro.engine import (  # noqa: E402
    DEFAULT_BATCH_SIZE,
    FusionMode,
    count_subgraphs_insertion_only_fused,
)
from repro.graph import generators as gen  # noqa: E402
from repro.patterns import pattern as zoo  # noqa: E402
from repro.streams.datasets import DiskEdgeStream, write_binary_updates  # noqa: E402
from repro.streams.stream import insertion_stream  # noqa: E402


def disk_ingestion_smoke(graph, pattern, copies, trials, reference) -> int:
    """Disk-backed leg: a tmpfile stream through the fused engine.

    Writes the same shuffled update sequence the in-memory run used to
    a binary tmpfile, streams it back through a bounded LRU cache, and
    checks (a) bit-equality of the mirror estimates with *reference*,
    (b) the LRU byte budget was respected, and (c) the archived
    ``ingest_smoke`` JSON validates against the shared schema.
    """
    u, v, _ = insertion_stream(graph, rng=12).columns()
    budget = 64 << 10
    with tempfile.TemporaryDirectory() as tmp:
        path = write_binary_updates(os.path.join(tmp, "smoke.reb"), graph.n, u, v)
        stream = DiskEdgeStream(path, cache=f"lru:{budget}")
        start = time.perf_counter()
        fused = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=copies,
            trials=trials,
            rng=13,
            mode=FusionMode.MIRROR,
            batch_size=512,
        )
        elapsed = time.perf_counter() - start
        policy = stream.cache_policy
        if fused.estimates != reference:
            print("perf-smoke: disk-backed estimates diverged from in-memory run")
            return 1
        if policy.peak_resident_bytes > budget:
            print(
                f"perf-smoke: LRU cache exceeded its budget "
                f"({policy.peak_resident_bytes} > {budget})"
            )
            return 1
        path = emit_json(
            "ingest_smoke",
            params={
                "n": graph.n,
                "m": graph.m,
                "copies": copies,
                "trials_per_copy": trials,
                "pattern": pattern.name,
                "mode": "mirror",
                "cache": "lru",
                "cache_budget_bytes": budget,
            },
            rows=[
                {
                    "source": "disk",
                    "seconds": elapsed,
                    "edges_per_sec": copies * 3 * graph.m / elapsed,
                    "estimate": fused.estimate,
                    "cache_peak_bytes": policy.peak_resident_bytes,
                    "cache_hits": policy.hits,
                    "cache_misses": policy.misses,
                }
            ],
        )
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        validate_benchmark_json(document)
    except ValueError as error:
        print(f"perf-smoke: ingest_smoke JSON failed schema validation: {error}")
        return 1
    print(
        f"perf-smoke: disk leg ok (lru peak {policy.peak_resident_bytes:,} B "
        f"<= {budget:,} B, hits {policy.hits}, misses {policy.misses}) -> {path}"
    )
    return 0


def main() -> int:
    graph = gen.barabasi_albert(1500, 4, rng=11)
    copies, trials = 4, 20
    pattern = zoo.triangle()
    ensemble_elements = copies * 3 * graph.m

    rows = []
    estimates = {}
    for batch_size in (DEFAULT_BATCH_SIZE, 7):
        stream = insertion_stream(graph, rng=12)
        start = time.perf_counter()
        fused = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=copies,
            trials=trials,
            rng=13,
            mode=FusionMode.MIRROR,
            batch_size=batch_size,
        )
        elapsed = time.perf_counter() - start
        if fused.passes != 3:
            print(f"perf-smoke: expected 3 fused passes, got {fused.passes}")
            return 1
        estimates[batch_size] = fused.estimates
        rows.append(
            {
                "pipeline": "columnar",
                "batch_size": batch_size,
                "seconds": elapsed,
                "edges_per_sec": ensemble_elements / elapsed,
                "estimate": fused.estimate,
            }
        )

    if estimates[DEFAULT_BATCH_SIZE] != estimates[7]:
        print("perf-smoke: mirror-mode bit-equality violated between batch sizes")
        return 1

    path = emit_json(
        "perf_smoke",
        params={
            "n": graph.n,
            "m": graph.m,
            "copies": copies,
            "trials_per_copy": trials,
            "pattern": pattern.name,
            "mode": "mirror",
        },
        rows=rows,
    )
    # Round-trip: the archived document must satisfy the shared schema.
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        validate_benchmark_json(document)
    except ValueError as error:
        print(f"perf-smoke: emitted JSON failed schema validation: {error}")
        return 1
    print(
        f"perf-smoke: ok (m={graph.m}, batch {DEFAULT_BATCH_SIZE} "
        f"{rows[0]['edges_per_sec']:,.0f} e/s, batch 7 "
        f"{rows[1]['edges_per_sec']:,.0f} e/s) -> {path}"
    )
    return disk_ingestion_smoke(
        graph, pattern, copies, trials, estimates[DEFAULT_BATCH_SIZE]
    )


if __name__ == "__main__":
    raise SystemExit(main())
