"""Property-based differential fuzz suite.

Randomized streams (insertion-only and turnstile, with deletions,
re-inserted edges, adversarial chunkings) are driven through pairs of
execution paths that the engine guarantees are **bit-identical**:

* production vs per-element reference pass states
  (``tests/reference_passes.py``),
* arbitrary batch-size splits and cache policies,
* fed-live (:class:`repro.engine.live.LiveEngine`) vs one-shot fused,
* snapshot → restore → continue vs uninterrupted,
* serial vs thread vs process backends,
* sharded scatter/merge ingestion (random shard counts and random
  by-edge partitions, shard files with vertex ids past 2^32) vs the
  unsharded mirror run.

Seeds policy
------------
Every case derives its seed deterministically from ``BASE_SEED``
(default 20220704, the suite is fully reproducible), and every
assertion message carries the failing case's seed so a CI failure is
one command away from a local repro:

    REPRO_FUZZ_SEED=<printed seed> pytest tests/test_differential_fuzz.py

The CI fuzz job rotates ``REPRO_FUZZ_SEED`` per run (logged in the job
output and uploaded as an artifact on failure); tier-1 runs the fixed
default.
"""

import contextlib
import os
import random

import pytest

from repro.engine import (
    EstimatorSpec,
    FusionMode,
    LiveEngine,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
)
from repro.engine.parallel import build_exact_stream, build_triest
from repro.errors import StreamError
from repro.patterns import pattern as zoo
from repro.streams.stream import EdgeStream, Update

from reference_passes import reference_passes

pytestmark = pytest.mark.fuzz

#: Root seed of the whole suite; rotate via REPRO_FUZZ_SEED.
BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20220704"))


def case_rng(case: int, salt: str) -> random.Random:
    """The deterministic generator of one fuzz case."""
    return random.Random((BASE_SEED, salt, case).__repr__())


def random_stream(rng: random.Random, turnstile: bool) -> EdgeStream:
    """A random valid stream: dup re-insertions, deletions, skewed sizes.

    Turnstile streams interleave deletions of live edges (~35% of
    steps) with insertions, and deleted edges may be re-inserted later
    — the "dup edges over time" shape that exercises multiplicity
    bookkeeping.  Final multiplicities stay in {0, 1} by construction.
    """
    n = rng.randrange(10, 30)
    steps = rng.randrange(30, 110)
    present = []
    present_set = set()
    updates = []
    for _ in range(steps):
        if turnstile and present and rng.random() < 0.35:
            index = rng.randrange(len(present))
            edge = present.pop(index)
            present_set.discard(edge)
            u, v = edge if rng.random() < 0.5 else (edge[1], edge[0])
            updates.append(Update(u, v, -1))
            continue
        for _ in range(8):  # rejection-sample a non-present pair
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present_set:
                continue
            present.append(edge)
            present_set.add(edge)
            updates.append(Update(u, v, 1))
            break
    return EdgeStream(n, updates, allow_deletions=turnstile)


def random_cuts(rng: random.Random, length: int) -> list:
    """Random ragged chunk boundaries covering [0, length]."""
    cuts = sorted(rng.sample(range(1, max(2, length)), k=min(rng.randrange(1, 6), max(1, length - 1))))
    return [0] + [c for c in cuts if c < length] + [length]


def _fused(stream, pattern, rng, turnstile, **kwargs):
    entry = count_subgraphs_turnstile_fused if turnstile else count_subgraphs_insertion_only_fused
    return entry(stream, pattern, **kwargs)


CASES_REFERENCE = 40
CASES_CACHE = 40
CASES_LIVE = 60
CASES_SNAPSHOT = 40
CASES_PROCESS = 5
CASES_VALIDATION = 16
CASES_WORLDS = 6
CASES_GEN_REPLAY = 10
CASES_SHARDED = 12
CASES_SHARD_FILES = 8


@pytest.mark.parametrize("case", range(CASES_REFERENCE))
def test_reference_vs_production(case):
    rng = case_rng(case, "reference")
    turnstile = case % 2 == 1
    stream = random_stream(rng, turnstile)
    pattern = zoo.triangle() if rng.random() < 0.7 else zoo.path(3)
    seeds = [rng.randrange(1 << 30) for _ in range(2)]
    batch_a = rng.randrange(1, 64)
    batch_b = rng.randrange(1, 64)
    production = _fused(
        stream, pattern, rng, turnstile,
        copies=2, trials=6, mode=FusionMode.MIRROR, copy_rngs=list(seeds),
        batch_size=batch_a,
    )
    with reference_passes():
        reference = _fused(
            stream, pattern, rng, turnstile,
            copies=2, trials=6, mode=FusionMode.MIRROR, copy_rngs=list(seeds),
            batch_size=batch_b,
        )
    assert production.estimates == reference.estimates, (
        f"reference/production divergence (case={case}, base_seed={BASE_SEED}, "
        f"batch_sizes=({batch_a}, {batch_b}))"
    )


@pytest.mark.parametrize("case", range(CASES_CACHE))
def test_cache_policy_and_batch_split_invariance(case):
    rng = case_rng(case, "cache")
    turnstile = case % 2 == 0
    stream = random_stream(rng, turnstile)
    pattern = zoo.triangle()
    seeds = [rng.randrange(1 << 30)]
    reference = None
    for cache in ("all", f"lru:{rng.randrange(1, 8) << 10}", "none"):
        result = _fused(
            stream, pattern, rng, turnstile,
            copies=1, trials=8, mode=FusionMode.MIRROR, copy_rngs=list(seeds),
            batch_size=rng.randrange(1, 96), cache=cache,
        )
        if reference is None:
            reference = result
        assert result.estimates == reference.estimates, (
            f"cache-policy divergence under {cache!r} (case={case}, "
            f"base_seed={BASE_SEED})"
        )


@pytest.mark.parametrize("case", range(CASES_LIVE))
def test_fed_live_vs_one_shot(case):
    rng = case_rng(case, "live")
    turnstile = case % 4 == 0
    stream = random_stream(rng, turnstile)
    pattern = zoo.triangle()
    trials = rng.randrange(3, 8)
    seed = rng.randrange(1 << 30)
    factory = fgp_turnstile_estimator if turnstile else fgp_insertion_estimator

    one_shot = _fused(
        stream, pattern, rng, turnstile,
        copies=1, trials=trials, mode=FusionMode.MIRROR, copy_rngs=[seed],
    )

    engine = LiveEngine(
        n=stream.n,
        allow_deletions=turnstile,
        batch_size=rng.randrange(1, 64),
    )
    # A quarter of the cases feed the live engine through the
    # per-element reference passes.
    on_reference = rng.random() >= 0.75
    engine.register_spec(EstimatorSpec(
        name="copy-0", factory=factory,
        kwargs=dict(pattern=pattern, trials=trials, rng=seed, name="copy-0"),
    ))
    if not turnstile and rng.random() < 0.4:
        engine.register_spec(EstimatorSpec(
            name="triest", factory=build_triest,
            kwargs=dict(capacity=max(2, rng.randrange(2, 40)), rng=seed + 1),
        ))
    u, v, d = stream.columns()
    cuts = random_cuts(rng, len(u))
    with reference_passes() if on_reference else contextlib.nullcontext():
        for a, b in zip(cuts, cuts[1:]):
            engine.feed((u[a:b], v[a:b], d[a:b]))
        live = engine.estimate()["copy-0"]
    assert (live.estimate, live.successes) == (
        one_shot.copies[0].estimate,
        one_shot.copies[0].successes,
    ), (
        f"fed-live/one-shot divergence (case={case}, base_seed={BASE_SEED}, "
        f"cuts={cuts}, reference={on_reference})"
    )


@pytest.mark.parametrize("case", range(CASES_SNAPSHOT))
def test_snapshot_restore_vs_uninterrupted(case, tmp_path):
    rng = case_rng(case, "snapshot")
    turnstile = case % 3 == 1
    stream = random_stream(rng, turnstile)
    pattern = zoo.triangle()
    trials = rng.randrange(3, 7)
    seed = rng.randrange(1 << 30)
    factory = fgp_turnstile_estimator if turnstile else fgp_insertion_estimator

    def build():
        engine = LiveEngine(n=stream.n, allow_deletions=turnstile,
                            batch_size=rng.randrange(1, 48))
        engine.register_spec(EstimatorSpec(
            name="copy-0", factory=factory,
            kwargs=dict(pattern=pattern, trials=trials, rng=seed, name="copy-0"),
        ))
        engine.register_spec(EstimatorSpec(
            name="exact", factory=build_exact_stream, kwargs=dict(pattern=pattern),
        ))
        return engine

    u, v, d = stream.columns()
    quiet = build()
    quiet.feed((u, v, d))
    expected = quiet.estimate()

    cut = rng.randrange(0, len(u) + 1)
    interrupted = build()
    if cut:
        interrupted.feed((u[:cut], v[:cut], d[:cut]))
    path = tmp_path / f"fuzz-{case}.ckpt"
    interrupted.snapshot(path)
    restored = LiveEngine.restore(path)
    if cut < len(u):
        restored.feed((u[cut:], v[cut:], d[cut:]))
    resumed = restored.estimate()
    for name in expected:
        assert resumed[name].estimate == expected[name].estimate, (
            f"snapshot/restore divergence for {name!r} (case={case}, "
            f"base_seed={BASE_SEED}, cut={cut})"
        )


@pytest.mark.parametrize("case", range(CASES_PROCESS))
def test_serial_vs_thread_vs_process_backend(case):
    # Three-way: mirror-mode estimates are a pure function of the
    # seeds, whatever pool flavour (or worker count) ran the copies.
    rng = case_rng(case, "process")
    stream = random_stream(rng, turnstile=False)
    pattern = zoo.triangle()
    seeds = [rng.randrange(1 << 30) for _ in range(3)]
    serial = count_subgraphs_insertion_only_fused(
        stream, pattern, copies=3, trials=6,
        mode=FusionMode.MIRROR, copy_rngs=list(seeds),
    )
    for backend in ("thread", "process"):
        parallel = count_subgraphs_insertion_only_fused(
            stream, pattern, copies=3, trials=6,
            mode=FusionMode.MIRROR, copy_rngs=list(seeds),
            backend=backend, workers=1 + case % 3,
        )
        assert parallel.estimates == serial.estimates, (
            f"serial/{backend} divergence (case={case}, base_seed={BASE_SEED}, "
            f"workers={1 + case % 3})"
        )


@pytest.mark.parametrize("case", range(CASES_VALIDATION))
def test_journal_rejects_invalid_feeds_atomically(case):
    rng = case_rng(case, "validation")
    stream = random_stream(rng, turnstile=True)
    engine = LiveEngine(n=stream.n, allow_deletions=True)
    engine.register_spec(EstimatorSpec(
        name="exact", factory=build_exact_stream, kwargs=dict(pattern=zoo.edge()),
    ))
    u, v, d = stream.columns()
    engine.feed((u, v, d))
    before = engine.elements
    kind = case % 4
    if kind == 0:
        bad = [(0, 0, 1)]  # self-loop
    elif kind == 1:
        bad = [(0, engine.n + 3, 1)]  # out of range
    elif kind == 2:
        bad = [(0, 1, 2)]  # bad delta
    else:
        # deleting an edge that is definitely absent: the stream model
        # forbids multiplicity below zero.
        seen = {(min(x, y), max(x, y)) for x, y in zip(u.tolist(), v.tolist())}
        absent = next(
            (a, b)
            for a in range(engine.n)
            for b in range(a + 1, engine.n)
            if (a, b) not in seen
        )
        engine.feed([absent])  # insert once...
        engine.feed([(absent[0], absent[1], -1)])  # ...delete it...
        before = engine.elements
        bad = [(absent[0], absent[1], -1)]  # ...delete again: absent
    with pytest.raises(StreamError):
        engine.feed(bad)
    assert engine.elements == before, (
        f"rejected feed mutated the journal (case={case}, base_seed={BASE_SEED})"
    )


def random_world_cell(rng: random.Random):
    """A random worlds grid point: family, scenario, compatible estimator."""
    from repro.worlds import FamilySpec, ScenarioSpec

    family = rng.choice([
        lambda: FamilySpec.create("gnp", n=rng.randrange(16, 33), p=0.2),
        lambda: FamilySpec.create("ws", n=rng.randrange(16, 33) | 1, k=4,
                                  rewire_p=0.2),
        lambda: FamilySpec.create("kronecker", power=5,
                                  edges=rng.randrange(40, 100)),
        lambda: FamilySpec.create("config", n=rng.randrange(24, 49),
                                  exponent=2.2, min_degree=1),
    ])()
    scenario = rng.choice([
        lambda: ScenarioSpec.create("insertion"),
        lambda: ScenarioSpec.create("adversarial"),
        lambda: ScenarioSpec.create("deletion_heavy",
                                    deletion_rate=rng.choice([0.3, 0.7])),
        lambda: ScenarioSpec.create("sliding_window",
                                    window_fraction=rng.choice([0.4, 0.8])),
    ])()
    turnstile = scenario.needs_deletions or rng.random() < 0.3
    return family, scenario, turnstile


@pytest.mark.parametrize("case", range(CASES_WORLDS))
def test_worlds_sampled_cell_is_backend_invariant(case, tmp_path):
    # A random grid cell, materialized out-of-core twice (the .reb
    # bytes must replay bit for bit), then driven through a random
    # estimator on serial vs thread backends: mirror-mode estimates
    # are a pure function of the seeds, whatever executed them.
    from repro.streams.datasets import DiskEdgeStream
    from repro.worlds import materialize_workload

    rng = case_rng(case, "worlds")
    family, scenario, turnstile = random_world_cell(rng)
    seed = rng.randrange(1 << 30)
    path_a = tmp_path / "a.reb"
    path_b = tmp_path / "b.reb"
    materialize_workload(family, scenario, seed, path_a)
    materialize_workload(family, scenario, seed, path_b)
    assert path_a.read_bytes() == path_b.read_bytes(), (
        f"workload materialization not bit-stable (case={case}, "
        f"base_seed={BASE_SEED}, family={family.label}, "
        f"scenario={scenario.label})"
    )

    stream = DiskEdgeStream(path_a, cache=rng.choice(["all", "lru:8K", "none"]))
    pattern = zoo.triangle() if rng.random() < 0.7 else zoo.path(3)
    seeds = [rng.randrange(1 << 30) for _ in range(2)]
    serial = _fused(
        stream, pattern, rng, turnstile,
        copies=2, trials=5, mode=FusionMode.MIRROR, copy_rngs=list(seeds),
        batch_size=rng.randrange(1, 64),
    )
    threaded = _fused(
        stream, pattern, rng, turnstile,
        copies=2, trials=5, mode=FusionMode.MIRROR, copy_rngs=list(seeds),
        batch_size=rng.randrange(1, 64), backend="thread", workers=2,
    )
    assert threaded.estimates == serial.estimates, (
        f"serial/thread divergence on worlds cell (case={case}, "
        f"base_seed={BASE_SEED}, family={family.label}, "
        f"scenario={scenario.label}, turnstile={turnstile})"
    )


@pytest.mark.parametrize("case", range(CASES_GEN_REPLAY))
def test_streaming_generators_replay_bit_stable(case):
    # The out-of-core contract of the streaming generator families:
    # identical arguments must yield identical chunk sequences, or
    # multi-pass DiskEdgeStream materialization silently diverges.
    import numpy as np

    from repro.graph import generators as gen

    rng = case_rng(case, "genreplay")
    seed = rng.randrange(1 << 30)
    chunk_size = rng.choice([7, 64, 8192])
    if case % 2 == 0:
        power = rng.randrange(4, 9)
        capacity = (1 << power) * ((1 << power) - 1) // 2
        edges = rng.randrange(20, min(200, capacity))

        def make():
            return list(gen.stochastic_kronecker_chunks(
                power, edges, seed=seed, chunk_size=chunk_size))
    else:
        degrees = gen.powerlaw_degree_sequence(
            rng.randrange(30, 120), rng.uniform(1.6, 3.5),
            min_degree=rng.randrange(1, 3), seed=seed,
        )

        def make():
            return list(gen.configuration_model_chunks(
                degrees, seed=seed, chunk_size=chunk_size))

    first = make()
    second = make()
    assert len(first) == len(second), (
        f"replay chunk-count drift (case={case}, base_seed={BASE_SEED})"
    )
    for (u1, v1), (u2, v2) in zip(first, second):
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2), (
            f"replay bit-drift (case={case}, base_seed={BASE_SEED})"
        )


@pytest.mark.parametrize("case", range(CASES_SHARDED))
def test_sharded_scatter_merge_vs_unsharded(case):
    # Scatter/merge exactness: a turnstile run over ANY by-edge
    # partition of the stream — the canonical hash routing on even
    # cases, a completely random edge -> shard assignment (random "cut
    # points") on odd ones — merges back bit-identical to the
    # unsharded mirror run, whatever the shard count, batch sizes, or
    # local backend.
    import numpy as np

    from repro.engine import count_subgraphs_turnstile_sharded
    from repro.streams.datasets import stream_shard_views
    from repro.streams.stream import ColumnEdgeStream

    rng = case_rng(case, "sharded")
    stream = random_stream(rng, turnstile=True)
    pattern = zoo.triangle() if rng.random() < 0.7 else zoo.path(3)
    seeds = [rng.randrange(1 << 30) for _ in range(2)]
    unsharded = count_subgraphs_turnstile_fused(
        stream, pattern, copies=2, trials=6,
        mode=FusionMode.MIRROR, copy_rngs=list(seeds),
        batch_size=rng.randrange(1, 64),
    )
    shards_n = rng.randrange(1, 9)
    if case % 2 == 0:
        shard_streams = stream_shard_views(stream, shards_n)
    else:
        # A mergeable partition only needs all updates of one edge on
        # one shard, in stream order — sample the assignment freely.
        u, v, d = stream.columns()
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        assignment = {}
        routes = np.array([
            assignment.setdefault((a, b), rng.randrange(shards_n))
            for a, b in zip(lo.tolist(), hi.tolist())
        ] or [], dtype=np.int64)
        shard_streams = []
        for shard in range(shards_n):
            hit = routes == shard
            shard_streams.append(ColumnEdgeStream(
                stream.n, u[hit], v[hit], d[hit],
                allow_deletions=True, validate=False,
                net_edge_count=int(d[hit].sum()),
            ))
    sharded = count_subgraphs_turnstile_sharded(
        shard_streams, pattern, copies=2, trials=6,
        copy_rngs=list(seeds),
        backend=rng.choice(["serial", "thread"]),
        workers=rng.randrange(1, 4),
        batch_size=rng.randrange(1, 64),
    )
    assert sharded.estimates == unsharded.estimates, (
        f"sharded/unsharded divergence (case={case}, base_seed={BASE_SEED}, "
        f"shards={shards_n})"
    )


@pytest.mark.parametrize("case", range(CASES_SHARD_FILES))
def test_shard_files_big_ids_round_trip(case, tmp_path):
    # Shard routing and the shard file format must stay exact for
    # vertex ids past 2^32 (raw SNAP ids routinely are): routing is a
    # pure symmetric function of the normalized edge, every written
    # shard replays only rows routed to it, in stream order, and the
    # union of the shard headers reassembles the source's exactly.
    import numpy as np

    from repro.streams.datasets import (
        open_stream_shards,
        shard_route,
        write_binary_updates,
        write_stream_shards,
    )

    rng = case_rng(case, "shardfiles")
    shards_n = rng.randrange(1, 9)
    n = 1 << 40
    edges = set()
    while len(edges) < rng.randrange(6, 30):
        a = rng.randrange(n)
        b = rng.randrange(1 << 33, n)  # at least one endpoint past 2^32
        if a != b:
            edges.add((min(a, b), max(a, b)))
    rows = []
    for a, b in edges:
        if rng.random() < 0.4:  # churn: insert, delete, re-insert
            rows += [(a, b, 1), (b, a, -1), (a, b, 1)]
        else:
            rows.append((a, b, 1))
    rng.shuffle(rows)  # NOTE: may interleave edges, not their updates
    # restore per-edge update order (insert before delete before
    # re-insert) while keeping the shuffled global interleaving
    order = {}
    fixed = []
    for a, b, _ in rows:
        key = (min(a, b), max(a, b))
        seen = order.get(key, 0)
        fixed.append((a, b, 1 if seen % 2 == 0 else -1))
        order[key] = seen + 1
    u = np.array([r[0] for r in fixed], dtype=np.int64)
    v = np.array([r[1] for r in fixed], dtype=np.int64)
    d = np.array([r[2] for r in fixed], dtype=np.int8)

    route = shard_route(u, v, shards_n)
    assert np.array_equal(route, shard_route(v, u, shards_n)), (
        f"routing not symmetric (case={case}, base_seed={BASE_SEED})"
    )
    assert ((route >= 0) & (route < shards_n)).all()

    base = str(tmp_path / "big.reb")
    write_binary_updates(base, n, u, v, d, allow_deletions=True)
    write_stream_shards(base, shards_n)
    shards = open_stream_shards(base, shards_n)
    assert sum(s.length for s in shards) == len(u)
    assert sum(s.net_edge_count for s in shards) == int(d.sum())
    reassembled = []
    for index, shard in enumerate(shards):
        su = np.asarray(shard._u)
        sv = np.asarray(shard._v)
        sd = np.asarray(shard._delta, dtype=np.int64)
        assert (shard_route(su, sv, shards_n) == index).all(), (
            f"shard {index} holds foreign rows (case={case}, "
            f"base_seed={BASE_SEED})"
        )
        # every shard is itself a prefix-valid turnstile stream
        live = {}
        for a, b, delta in zip(su.tolist(), sv.tolist(), sd.tolist()):
            key = (min(a, b), max(a, b))
            live[key] = live.get(key, 0) + delta
            assert 0 <= live[key] <= 1, (
                f"shard {index} prefix-invalid (case={case}, "
                f"base_seed={BASE_SEED})"
            )
        reassembled += list(zip(su.tolist(), sv.tolist(), sd.tolist()))
    assert sorted(reassembled) == sorted(zip(u.tolist(), v.tolist(), d.tolist())), (
        f"shard union lost rows (case={case}, base_seed={BASE_SEED})"
    )
