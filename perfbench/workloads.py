"""Workload definitions: seeded inputs, exact answers and fixed budgets.

Every input is a pure function of the workload seed.  The counting
workloads write their streams to ``.reb`` files before any timing
starts; the program under test only ever sees those files.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

COUNTING = ("ins-tri", "turn-churn", "turn-shard2")
SERVE = "serve-mixed"
WORKLOADS = COUNTING + (SERVE,)


@dataclass(frozen=True)
class CountingBudget:
    copies: int
    trials: int
    #: Relative error the median must meet (``None``: bit-identity check).
    epsilon: Optional[float] = None


#: Budgets for the full benchmark.  ins-tri and turn-churn are sized for
#: about 400 and 115 successful trials per answer, which puts epsilon
#: near 3 standard deviations of the median; selftest.py records how
#: many of 20 seeds pass (budget_evidence.json).  turn-shard2 is checked
#: by bit-identity against the unsharded mirror run, so its budget only
#: sets the run length.
BUDGETS: Dict[str, CountingBudget] = {
    "ins-tri": CountingBudget(copies=8, trials=3500, epsilon=0.2),
    "turn-churn": CountingBudget(copies=5, trials=250, epsilon=0.35),
    "turn-shard2": CountingBudget(copies=5, trials=30),
}

#: Tiny budgets for the shape-only smoke (no epsilon check).
SMOKE_BUDGETS: Dict[str, CountingBudget] = {
    "ins-tri": CountingBudget(copies=2, trials=20),
    "turn-churn": CountingBudget(copies=2, trials=4),
    "turn-shard2": CountingBudget(copies=2, trials=4),
}


#: ins-tri graph: power_law_cluster(INS_TRI_N, 20, 0.9), m ~ 5.6k,
#: FGP success rate ~ 0.017 per trial.
INS_TRI_N = 300
#: turn-* graph: gnm(30, TURN_M) -- gnp(30, 0.7) at a fixed edge count,
#: so that every seed streams the same number of updates -- plus 100
#: churn edges; success rate ~ 0.09.
TURN_M = 305


@dataclass(frozen=True)
class ServeShape:
    streams: int = 4
    n: int = 16000
    attach: int = 6
    triangle_probability: float = 0.7
    copies: int = 3
    trials: int = 300
    chunk: int = 256
    feeds_per_s: float = 50.0
    queries_per_s: float = 2.0
    checkpoint_every: int = 8192
    setup_repeats: int = 3


SERVE_SHAPE = ServeShape()
SMOKE_SERVE_SHAPE = ServeShape(n=3000, attach=4, copies=2, trials=20,
                               feeds_per_s=20.0, queries_per_s=4.0,
                               checkpoint_every=2048, setup_repeats=1)


def sub_seed(workload: str, seed: int, part: str) -> int:
    """A stable 31-bit seed for one random part of one workload's input."""
    return zlib.crc32(f"{workload}/{seed}/{part}".encode()) & 0x7FFFFFFF


@dataclass
class CountingInput:
    workload: str
    path: str
    n: int
    m: int
    length: int
    exact: int
    shard_paths: List[str] = field(default_factory=list)


def _columns(stream) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    u, v, delta = stream.columns()
    return np.asarray(u, np.int64), np.asarray(v, np.int64), np.asarray(delta, np.int8)


def build_counting_input(workload: str, seed: int, directory: str, smoke: bool = False) -> CountingInput:
    """Generate the graph, write its stream to ``.reb``, count it exactly."""
    from repro import count_subgraphs_exact, generators, insertion_stream, patterns
    from repro.streams.datasets import write_binary_updates, write_stream_shards
    from repro.streams.generators import turnstile_churn_stream

    triangle = patterns.triangle()
    if workload == "ins-tri":
        n = 100 if smoke else INS_TRI_N
        graph = generators.power_law_cluster(n, 20, 0.9, rng=sub_seed(workload, seed, "graph"))
        stream = insertion_stream(graph, rng=sub_seed(workload, seed, "order"))
        deletions = False
    else:
        # turn-churn and turn-shard2 share one input per seed.
        graph = generators.gnm(30, TURN_M, rng=sub_seed("turn", seed, "graph"))
        stream = turnstile_churn_stream(graph, 100, rng=sub_seed("turn", seed, "churn"))
        deletions = True
    u, v, delta = _columns(stream)
    path = os.path.join(directory, f"{workload}.reb")
    write_binary_updates(path, graph.n, u, v, delta, allow_deletions=deletions)
    shard_paths = write_stream_shards(path, 2) if workload == "turn-shard2" else []
    return CountingInput(
        workload=workload,
        path=path,
        n=graph.n,
        m=int(stream.net_edge_count),
        length=len(u),
        exact=int(count_subgraphs_exact(graph, triangle)),
        shard_paths=shard_paths,
    )


@dataclass
class ServeInput:
    configs: List[Dict]
    #: Per stream, the feed chunks as ``(u, v)`` int lists.
    chunks: List[List[Tuple[List[int], List[int]]]]


def build_serve_input(seed: int, shape: ServeShape, feeds: int) -> ServeInput:
    """Four insertion streams, cut into the chunks the load generator feeds."""
    from repro import generators, insertion_stream

    per_stream = -(-feeds // shape.streams)
    configs, chunks = [], []
    for index in range(shape.streams):
        graph = generators.power_law_cluster(
            shape.n, shape.attach, shape.triangle_probability,
            rng=sub_seed(SERVE, seed, f"graph-{index}"),
        )
        stream = insertion_stream(graph, rng=sub_seed(SERVE, seed, f"order-{index}"))
        u, v, _ = _columns(stream)
        needed = per_stream * shape.chunk
        if len(u) < needed:
            raise ValueError(f"stream {index} has {len(u)} edges, the run needs {needed}")
        chunks.append([
            (u[start:start + shape.chunk].tolist(), v[start:start + shape.chunk].tolist())
            for start in range(0, needed, shape.chunk)
        ])
        configs.append({
            "n": graph.n,
            "estimator": "insertion",
            "copies": shape.copies,
            "trials": shape.trials,
            "seed": sub_seed(SERVE, seed, f"estimator-{index}"),
        })
    return ServeInput(configs=configs, chunks=chunks)
