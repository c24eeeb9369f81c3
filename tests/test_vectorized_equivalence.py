"""Bit-equality of the columnar pipeline with its per-element references.

The columnar edge-batch pipeline (``repro.streams.batch`` + the
vectorized sketch kernels) promises *bit-identical* results to
per-element reference implementations that exist only in the tests
(``tests/reference_passes.py`` for the oracle pass states,
:class:`_ScalarL0` for the ℓ0 bank).  These tests pin that promise
down at every layer: the field-arithmetic kernels, the batched sketch
entry points, the oracle pass states, and the fused engine end to end
— under seeded fuzz over batch sizes (including 0, 1, and uneven
splits of the same stream), negative turnstile deltas, and duplicate
items inside one batch.
"""

import contextlib
import hashlib
import math
import pickle
import random

import numpy as np
import pytest

from repro import generators, insertion_stream, patterns
from repro.engine import (
    StreamEngine,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
)
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.errors import MergeError
from repro.sketch.hashing import (
    MERSENNE_PRIME,
    PolynomialHash,
    addmod_vec,
    mulmod_vec,
    powmod_vec,
)
from repro.sketch.l0 import L0Bank, L0Sampler
from repro.sketch.onesparse import OneSparseRecovery
from repro.sketch.reservoir import SkipAheadReservoirBank
from repro.streams.batch import EdgeBatch, sorted_member_mask
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import EdgeStream, Update
from repro.transform.insertion import InsertionPassState, InsertionStreamOracle
from repro.transform.turnstile import TurnstilePassState, TurnstileStreamOracle
from repro.utils.rng import derive_rng

from reference_passes import (
    ReferenceInsertionPassState,
    ReferenceTurnstilePassState,
    reference_passes,
)


class TestFieldKernels:
    def test_mulmod_matches_python_ints(self):
        rng = random.Random(7)
        a = np.array([rng.randrange(MERSENNE_PRIME) for _ in range(4096)], dtype=np.uint64)
        b = np.array([rng.randrange(MERSENNE_PRIME) for _ in range(4096)], dtype=np.uint64)
        out = mulmod_vec(a, b)
        for i in range(0, 4096, 97):
            assert int(out[i]) == (int(a[i]) * int(b[i])) % MERSENNE_PRIME

    def test_mulmod_boundary_values(self):
        p = MERSENNE_PRIME
        edge = np.array([0, 1, 2, p - 1, p - 2, (1 << 32) - 1, 1 << 32], dtype=np.uint64)
        for x in edge.tolist():
            out = mulmod_vec(np.full(len(edge), x, dtype=np.uint64), edge)
            for i, y in enumerate(edge.tolist()):
                assert int(out[i]) == (x * y) % p

    def test_addmod_boundary_values(self):
        p = MERSENNE_PRIME
        edge = np.array([0, 1, 2, p - 2, p - 1, 1 << 60], dtype=np.uint64)
        for x in edge.tolist():
            out = addmod_vec(np.full(len(edge), x, dtype=np.uint64), edge)
            for i, y in enumerate(edge.tolist()):
                assert int(out[i]) == (x + y) % p

    def test_powmod_matches_builtin_pow(self):
        rng = random.Random(11)
        base = 2 + rng.randrange(MERSENNE_PRIME - 2)
        exponents = np.array(
            [0, 1, 2, 63] + [rng.randrange(1 << 50) for _ in range(500)], dtype=np.uint64
        )
        out = powmod_vec(base, exponents)
        for i, e in enumerate(exponents.tolist()):
            assert int(out[i]) == pow(base, e, MERSENNE_PRIME)

    def test_sorted_member_mask_matches_isin(self):
        rng = np.random.default_rng(5)
        haystack = np.unique(rng.integers(0, 1000, 64)).astype(np.int64)
        needles = rng.integers(0, 1000, 512).astype(np.int64)
        assert (sorted_member_mask(haystack, needles) == np.isin(needles, haystack)).all()


def _random_updates(rng, universe, count, allow_negative=True):
    """(item, delta) pairs with duplicates and (optionally) deletions."""
    updates = []
    for _ in range(count):
        item = rng.randrange(universe)
        delta = rng.choice([1, -1]) if allow_negative else 1
        updates.append((item, delta))
        if rng.random() < 0.3:  # force duplicate items inside the batch
            updates.append((item, -delta if allow_negative else 1))
    return updates


def _one_sparse_aggregates(z, updates):
    """Exact ``(Σ delta, Σ delta·item, Σ delta·z^item mod p)`` of *updates*."""
    return (
        sum(delta for _, delta in updates),
        sum(delta * item for item, delta in updates),
        sum(delta * pow(z, item, MERSENNE_PRIME) for item, delta in updates)
        % MERSENNE_PRIME,
    )


def _one_sparse_state(sketch):
    return (sketch._weight, sketch._weighted_sum, sketch._fingerprint)


class TestBatchedSketches:
    @pytest.mark.parametrize("universe", [1, 50, 10**6, 1 << 45])
    def test_one_sparse_batched_updates_match_scalar(self, universe):
        rng = random.Random(universe % 997)
        scalar = OneSparseRecovery(universe, rng=5)
        batched = OneSparseRecovery(universe, z=scalar.z)
        folded = OneSparseRecovery(universe, z=scalar.z)
        updates = _random_updates(rng, universe, 200)
        for item, delta in updates:
            scalar.update(item, delta)
        batched.update_many(updates)
        folded.apply_aggregates(*_one_sparse_aggregates(folded.z, updates))
        assert _one_sparse_state(batched) == _one_sparse_state(scalar)
        assert _one_sparse_state(folded) == _one_sparse_state(scalar)
        assert batched.recover() == folded.recover() == scalar.recover()

    def test_one_sparse_large_deltas_stay_exact(self):
        # Deltas and weighted sums far past int64 stay exact Python ints
        # on every batched entry point.
        universe = 1 << 40
        updates = [((1 << 32) - 1, 1 << 31), ((1 << 32) - 1, 1 << 31), (7, -(1 << 62)),
                   (7, -(1 << 62)), (7, -(1 << 62))]
        scalar = OneSparseRecovery(universe, rng=3)
        batched = OneSparseRecovery(universe, z=scalar.z)
        folded = OneSparseRecovery(universe, z=scalar.z)
        for item, delta in updates:
            scalar.update(item, delta)
        batched.update_many(updates)
        folded.apply_aggregates(*_one_sparse_aggregates(folded.z, updates))
        assert _one_sparse_state(batched) == _one_sparse_state(scalar)
        assert _one_sparse_state(folded) == _one_sparse_state(scalar)
        assert scalar._weight == (1 << 32) - 3 * (1 << 62)

    def test_one_sparse_empty_batch_is_noop(self):
        sketch = OneSparseRecovery(100, rng=1)
        sketch.update_many([])
        sketch.apply_aggregates(0, 0, 0)
        assert sketch.is_empty
        assert _one_sparse_state(sketch) == (0, 0, 0)

    @pytest.mark.parametrize("split", [[200], [1, 199], [0, 77, 123], [200] * 1])
    def test_l0_update_many_arrays_matches_scalar_across_splits(self, split):
        universe = 5000
        rng = random.Random(sum(split))
        updates = _random_updates(rng, universe, 200)[:200]
        scalar = L0Sampler(universe, rng=9, repetitions=4)
        vector = L0Sampler(universe, rng=9, repetitions=4)
        scalar.update_many(updates)
        cursor = 0
        for size in split:
            chunk = updates[cursor : cursor + size]
            cursor += size
            vector.update_many_arrays(
                np.array([i for i, _ in chunk], dtype=np.int64),
                np.array([d for _, d in chunk], dtype=np.int64),
            )
        # Remaining tail (splits may not cover all 200)
        tail = updates[cursor:]
        if tail:
            vector.update_many_arrays(
                np.array([i for i, _ in tail], dtype=np.int64),
                np.array([d for _, d in tail], dtype=np.int64),
            )
        # Every level's (weight, weighted_sum, fingerprint) plus the
        # frozen randomness: equal-or-stronger than comparing the
        # aggregates alone.
        assert scalar.state_dict() == vector.state_dict()
        assert scalar.sample() == vector.sample()

    def test_l0_update_many_arrays_validates_universe(self):
        sampler = L0Sampler(10, rng=1, repetitions=1)
        from repro.errors import SketchError

        with pytest.raises(SketchError):
            sampler.update_many_arrays(
                np.array([3, 10], dtype=np.int64), np.array([1, 1], dtype=np.int64)
            )
        with pytest.raises(SketchError):
            sampler.update_many_arrays(
                np.array([3, 4], dtype=np.int64), np.array([1], dtype=np.int64)
            )

    @pytest.mark.parametrize("sizes", [[0, 1, 499], [500], [250, 250], [13] * 38 + [6]])
    def test_skip_ahead_bank_matches_per_element_across_batch_sizes(self, sizes):
        assert sum(sizes) == 500
        reference = SkipAheadReservoirBank(29, rng=4)
        batched = SkipAheadReservoirBank(29, rng=4)
        items = list(range(500))
        for item in items:
            reference.offer(item)
        cursor = 0
        for size in sizes:
            batched.offer_many(items[cursor : cursor + size])
            cursor += size
        assert reference.items() == batched.items()
        assert reference.count == batched.count

    def test_skip_ahead_bank_accepts_lazy_views_and_iterators(self):
        bank = SkipAheadReservoirBank(5, rng=8)
        bank.offer_many(iter(range(100)))  # non-indexable iterable
        other = SkipAheadReservoirBank(5, rng=8)
        other.offer_many(list(range(100)))
        assert bank.items() == other.items()
        assert bank.count == other.count == 100


def _query_mix(rng, n):
    """A batch exercising every insertion-oracle query type."""
    batch = [EdgeCountQuery(), RandomEdgeQuery(), RandomEdgeQuery()]
    for _ in range(4):
        batch.append(DegreeQuery(rng.randrange(n)))
        batch.append(AdjacencyQuery(rng.randrange(n), rng.randrange(n - 1) + 1))
        batch.append(NeighborQuery(rng.randrange(n), rng.randrange(3)))
        batch.append(RandomNeighborQuery(rng.randrange(n)))
    return batch


def _feed(oracle, queries, stream, batch_size, reference):
    """One pass of *queries*: ``(state_dict, answers)``."""
    with reference_passes() if reference else contextlib.nullcontext():
        state = oracle.begin_batch(queries)
    for chunk in stream.batches(batch_size):
        state.ingest_batch(chunk)
    return state.state_dict(), state.finish()


class TestOraclePassStates:
    def test_reference_passes_swap_in_and_out(self):
        stream = insertion_stream(generators.gnp(10, 0.3, rng=1), rng=2)
        turnstile = turnstile_churn_stream(generators.gnp(10, 0.3, rng=1), churn_edges=5, rng=2)
        oracles = (InsertionStreamOracle(stream, rng=1), TurnstileStreamOracle(turnstile, rng=1))
        with reference_passes():
            inside = [type(oracle.begin_batch([EdgeCountQuery()])) for oracle in oracles]
        outside = [type(oracle.begin_batch([EdgeCountQuery()])) for oracle in oracles]
        assert inside == [ReferenceInsertionPassState, ReferenceTurnstilePassState]
        assert outside == [InsertionPassState, TurnstilePassState]

    @pytest.mark.parametrize("batch_size", [1, 3, 64, 10_000])
    def test_insertion_pass_state_reference_vs_production(self, batch_size):
        rng = random.Random(batch_size)
        graph = generators.gnp(40, 0.2, rng=1)
        stream = insertion_stream(graph, rng=2)
        queries = _query_mix(rng, stream.n)
        runs = {}
        for reference in (True, False):
            oracle = InsertionStreamOracle(stream, rng=77)
            runs[reference] = _feed(oracle, queries, stream, batch_size, reference)
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_turnstile_pass_state_reference_vs_production(self, batch_size):
        rng = random.Random(batch_size)
        graph = generators.gnp(30, 0.3, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=25, rng=4)
        assert stream.allows_deletions  # negative deltas exercised
        queries = [
            EdgeCountQuery(),
            RandomEdgeQuery(),
            DegreeQuery(rng.randrange(stream.n)),
            AdjacencyQuery(0, 1),
            RandomNeighborQuery(rng.randrange(stream.n)),
        ]
        runs = {}
        for reference in (True, False):
            oracle = TurnstileStreamOracle(stream, rng=31, sampler_repetitions=4)
            runs[reference] = _feed(oracle, queries, stream, batch_size, reference)
        assert runs[True] == runs[False]

    def test_empty_stream_pass_state(self):
        stream = EdgeStream(5, [], allow_deletions=True)
        oracle = TurnstileStreamOracle(stream, rng=1)
        state = oracle.begin_batch([EdgeCountQuery(), RandomEdgeQuery()])
        for chunk in stream.batches():
            state.ingest_batch(chunk)
        assert state.finish() == [0, None]

    @pytest.mark.parametrize("kind", ["insertion", "turnstile"])
    def test_split_feed_matches_one_batch(self, kind):
        # Two half EdgeBatches must leave the pass exactly where one
        # whole batch does (the flat accumulators add up).
        if kind == "insertion":
            stream = insertion_stream(generators.gnp(25, 0.3, rng=9), rng=10)
            queries = _query_mix(random.Random(0), stream.n)

            def make_oracle():
                return InsertionStreamOracle(stream, rng=5)

        else:
            stream = turnstile_churn_stream(
                generators.gnp(25, 0.3, rng=9), churn_edges=20, rng=10
            )
            queries = [
                EdgeCountQuery(), RandomEdgeQuery(), DegreeQuery(3),
                AdjacencyQuery(0, 1), RandomNeighborQuery(3), RandomNeighborQuery(7),
            ]

            def make_oracle():
                return TurnstileStreamOracle(stream, rng=5, sampler_repetitions=3)

        whole = EdgeBatch.from_updates(list(stream.updates()))
        half = len(whole) // 2
        runs = []
        for parts in ([whole], [whole[:half], whole[half:]]):
            state = make_oracle().begin_batch(queries)
            for part in parts:
                state.ingest_batch(part)
            runs.append((state.state_dict(), state.finish()))
        assert runs[0] == runs[1]


class TestEndToEnd:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 100_000])
    def test_fused_insertion_reference_vs_production_engine(self, batch_size):
        graph = generators.barabasi_albert(150, 4, rng=11)
        stream = insertion_stream(graph, rng=12)
        results = {}
        for reference in (True, False):
            engine = StreamEngine(stream, batch_size=batch_size)
            engine.register(
                fgp_insertion_estimator(
                    stream, patterns.triangle(), trials=40, rng=61, name="fgp"
                )
            )
            with reference_passes() if reference else contextlib.nullcontext():
                results[reference] = engine.run()["fgp"]
        assert results[True].estimate == results[False].estimate
        assert results[True].details == results[False].details

    def test_fused_turnstile_reference_vs_production_engine(self):
        graph = generators.gnp(30, 0.3, rng=13)
        stream = turnstile_churn_stream(graph, churn_edges=20, rng=14)
        results = {}
        for reference in (True, False):
            engine = StreamEngine(stream, batch_size=13)
            engine.register(
                fgp_turnstile_estimator(
                    stream, patterns.triangle(), trials=8, rng=71, name="fgp"
                )
            )
            with reference_passes() if reference else contextlib.nullcontext():
                results[reference] = engine.run()["fgp"]
        assert results[True].estimate == results[False].estimate

    def test_fused_entry_point_matches_reference_passes(self):
        graph = generators.barabasi_albert(120, 4, rng=21)
        stream = insertion_stream(graph, rng=22)
        runs = []
        for reference in (True, False):
            with reference_passes() if reference else contextlib.nullcontext():
                runs.append(
                    count_subgraphs_insertion_only_fused(
                        stream, patterns.triangle(), copies=3, trials=25, rng=5,
                        mode="mirror",
                    )
                )
        assert runs[0].estimates == runs[1].estimates

    def test_fused_turnstile_entry_point_matches_reference_passes(self):
        graph = generators.gnp(25, 0.3, rng=23)
        stream = turnstile_churn_stream(graph, churn_edges=15, rng=24)
        runs = []
        for reference in (True, False):
            with reference_passes() if reference else contextlib.nullcontext():
                runs.append(
                    count_subgraphs_turnstile_fused(
                        stream, patterns.triangle(), copies=2, trials=6, rng=7,
                        mode="mirror",
                    )
                )
        assert runs[0].estimates == runs[1].estimates

    def test_process_backend_ships_columnar_batches_bit_identically(self):
        graph = generators.barabasi_albert(100, 4, rng=31)
        stream = insertion_stream(graph, rng=32)
        serial = count_subgraphs_insertion_only_fused(
            stream, patterns.triangle(), copies=2, trials=15, rng=3, mode="mirror"
        )
        process = count_subgraphs_insertion_only_fused(
            stream,
            patterns.triangle(),
            copies=2,
            trials=15,
            rng=3,
            mode="mirror",
            backend="process",
            workers=2,
        )
        assert serial.estimates == process.estimates


class TestEdgeBatch:
    def test_sequence_protocol_matches_decoded_tuples(self):
        updates = [Update(0, 3), Update(2, 1), Update(4, 0)]
        batch = EdgeBatch.from_updates(updates)
        expected = [(u.u, u.v, u.delta, u.edge) for u in updates]
        assert list(batch) == expected
        assert batch[1] == expected[1]
        assert len(batch) == 3
        assert batch.edge_list() == [u.edge for u in updates]
        assert all(isinstance(x, int) for tup in batch for x in tup[:3])

    def test_slicing_returns_batches(self):
        batch = EdgeBatch.from_updates([Update(0, 1), Update(1, 2), Update(2, 3)])
        tail = batch[1:]
        assert isinstance(tail, EdgeBatch)
        assert list(tail) == list(batch)[1:]

    def test_pickle_drops_caches_and_round_trips(self):
        import pickle

        batch = EdgeBatch.from_updates([Update(0, 5), Update(3, 1)])
        batch.tuples()  # materialize caches
        batch.edge_ids(6)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._tuples is None and clone._edge_ids is None
        assert list(clone) == list(batch)

    def test_edge_ids_match_turnstile_encoding(self):
        from repro.transform.turnstile import _edge_id

        batch = EdgeBatch.from_updates([Update(4, 1), Update(0, 5), Update(2, 3)])
        ids = batch.edge_ids(6).tolist()
        assert ids == [_edge_id(u, v, 6) for u, v, _, _ in batch]

    def test_events_interleave_in_stream_order(self):
        batch = EdgeBatch.from_updates([Update(1, 2), Update(3, 0)])
        endpoint, other, index = batch.events()
        assert endpoint.tolist() == [1, 2, 3, 0]
        assert other.tolist() == [2, 1, 0, 3]
        assert index.tolist() == [0, 0, 1, 1]

    def test_stream_batches_cache_and_count_passes(self):
        graph = generators.gnp(20, 0.3, rng=2)
        stream = insertion_stream(graph, rng=3)
        stream.reset_pass_count()
        first = list(stream.batches(7))
        second = list(stream.batches(7))
        assert stream.passes_used == 2
        assert all(a is b for a, b in zip(first, second))  # cached objects
        flat = [tup for batch in first for tup in batch]
        reference = [(u.u, u.v, u.delta, u.edge) for u in stream.updates()]
        assert flat == reference


class _ScalarL0:
    """Per-element reference for one ℓ0-sampler, used only by tests.

    The layout the bank replaced — one ``PolynomialHash`` and one row of
    ``OneSparseRecovery`` sketches per repetition, drawn from the seed
    in the documented order — updated one element at a time with exact
    Python-int arithmetic.  Its capture is the ``L0Sampler.state_dict``
    format, so a bank must reproduce it field for field.
    """

    def __init__(self, universe, seed, repetitions, levels=None):
        source = random.Random(seed)
        self.universe = universe
        self.levels = levels if levels is not None else max(2, int(math.log2(universe)) + 2)
        self.repetitions = repetitions
        self.hashes, self.sketches = [], []
        for repetition in range(repetitions):
            child = derive_rng(source, f"l0-rep-{repetition}")
            self.hashes.append(PolynomialHash(8, child))
            probe = OneSparseRecovery(universe, child)
            self.sketches.append(
                [OneSparseRecovery(universe, z=probe.z) for _ in range(self.levels + 1)]
            )

    def update(self, item, delta):
        for hash_function, levels in zip(self.hashes, self.sketches):
            z_power = pow(levels[0].z, item, MERSENNE_PRIME)
            for level in range(hash_function.level(item, self.levels) + 1):
                levels[level].update_with_power(item, delta, z_power)

    def state_dict(self):
        return {
            "universe": self.universe,
            "levels": self.levels,
            "repetitions": self.repetitions,
            "bases": [levels[0].z for levels in self.sketches],
            "hashes": [h.state_dict() for h in self.hashes],
            "sketches": [[s.state_dict() for s in levels] for levels in self.sketches],
        }


def _feed_bank(bank, updates, cuts, rows=slice(None)):
    """Feed *updates* to *bank* in batches split at *cuts* (empties included)."""
    bounds = [0] + sorted(cuts) + [len(updates)]
    for start, stop in zip(bounds, bounds[1:]):
        chunk = updates[start:stop]
        bank.update(
            np.array([i for i, _ in chunk], dtype=np.int64),
            np.array([d for _, d in chunk], dtype=np.int64),
            rows,
        )


class TestL0Bank:
    """The bank kernel is bit-identical to per-element updates."""

    @pytest.mark.parametrize(
        "samplers, repetitions, universe",
        [(1, 1, 1), (3, 2, 50), (4, 3, 435), (2, 4, 5000), (3, 2, 1 << 40)],
    )
    def test_matches_per_element_reference(self, samplers, repetitions, universe):
        rng = random.Random(universe + samplers)
        seeds = [rng.randrange(1 << 30) for _ in range(samplers)]
        updates = _random_updates(rng, universe, 150)
        # |delta| > 1, and items that cancel inside one batch.
        updates += [(rng.randrange(universe), rng.choice([-3, 2, 5])) for _ in range(40)]
        updates += [(item, -delta) for item, delta in updates[:25]]
        rng.shuffle(updates)
        bank = L0Bank(universe, seeds, repetitions)
        cuts = [0, 0, 1] + [rng.randrange(len(updates)) for _ in range(4)]
        _feed_bank(bank, updates, cuts)
        references = [_ScalarL0(universe, seed, repetitions) for seed in seeds]
        views = [L0Sampler(universe, seed, repetitions) for seed in seeds]
        for item, delta in updates:
            for reference, view in zip(references, views):
                reference.update(item, delta)
                view.update(item, delta)
        expected = [reference.state_dict() for reference in references]
        assert bank.state_dicts() == expected
        assert [view.state_dict() for view in views] == expected
        for index, view in enumerate(views):
            assert bank.sampler(index).sample() == view.sample()

    @pytest.mark.parametrize(
        "items",
        [
            [2 ** 32 + 5, 2 ** 40 + 123, 2 ** 62 - 1, 7, 2 ** 31 + 1],
            [2 ** 32 + 5 + k for k in range(64)],
        ],
        ids=["mixed", "run-above-2-32"],
    )
    def test_matches_per_element_reference_above_2_32(self, items):
        # The batched Horner, levels and z^item tables run on uint64
        # limbs; at ids past 2^32 (up to 2^62 - 1) they must still agree
        # with the exact Python-int hash and fingerprint arithmetic.
        universe = 1 << 62
        updates = [(item, 1) for item in items] + [(items[0], -1), (items[-1], 2)]
        bank = L0Bank(universe, [71, 72], 2)
        _feed_bank(bank, updates, [1, len(items) // 2])
        references = [_ScalarL0(universe, seed, 2) for seed in (71, 72)]
        for item, delta in updates:
            for reference in references:
                reference.update(item, delta)
        assert bank.state_dicts() == [r.state_dict() for r in references]

    def test_all_cancelling_and_empty_batches_leave_zero_state(self):
        rng = random.Random(2)
        updates = _random_updates(rng, 300, 80)
        cancelling = updates + [(item, -delta) for item, delta in updates]
        bank = L0Bank(300, [5, 6], 3)
        pristine = bank.state_dicts()
        _feed_bank(bank, cancelling, [])
        _feed_bank(bank, [], [])
        assert bank.state_dicts() == pristine
        assert bank.sample(0) is None and bank.is_empty(1)

    def test_batch_split_invariance(self):
        rng = random.Random(3)
        updates = _random_updates(rng, 1000, 300)
        whole = L0Bank(1000, [11, 12, 13], 4)
        _feed_bank(whole, updates, [])
        for cuts in ([1], [0, 150, 150, 299], list(range(0, 300, 7))):
            split = L0Bank(1000, [11, 12, 13], 4)
            _feed_bank(split, updates, cuts)
            assert split.state_dicts() == whole.state_dicts()

    def test_row_range_updates_only_its_samplers(self):
        updates = _random_updates(random.Random(4), 200, 60)
        bank = L0Bank(200, [1, 2, 3], 2)
        _feed_bank(bank, updates, [17], rows=bank.rows(1))
        references = [_ScalarL0(200, seed, 2) for seed in (1, 2, 3)]
        for item, delta in updates:
            references[1].update(item, delta)
        assert bank.state_dicts() == [r.state_dict() for r in references]

    def test_large_batch_fallback_is_exact(self):
        # max|delta| × length > 2^31: the batch sums run as Python ints,
        # and a weight past int64 promotes the stored aggregates.
        universe = 1 << 40
        updates = [((1 << 32) - 1, 1 << 31), ((1 << 32) - 1, 1 << 31), (7, -(1 << 62)),
                   (7, -(1 << 62)), (7, -(1 << 62)), (123456789, 3)]
        bank = L0Bank(universe, [21, 22], 3)
        _feed_bank(bank, updates, [])
        _feed_bank(bank, updates, [2])
        references = [_ScalarL0(universe, seed, 3) for seed in (21, 22)]
        for item, delta in updates + updates:
            for reference in references:
                reference.update(item, delta)
        assert bank.state_dicts() == [r.state_dict() for r in references]
        # Back on the int64 fast path after promotion.
        _feed_bank(bank, [(5, 1), (9, -1)], [])
        for reference in references:
            reference.update(5, 1)
            reference.update(9, -1)
        assert bank.state_dicts() == [r.state_dict() for r in references]

    def test_weighted_sums_past_two_to_the_63_stay_exact(self):
        universe = 1 << 41
        rng = random.Random(6)
        base = 1 << 40
        updates = [(base + rng.randrange(64), rng.choice([1 << 14, 1 << 14, 3, -1]))
                   for _ in range(1500)]
        bank = L0Bank(universe, [31], 2)
        _feed_bank(bank, updates, [500, 1000])
        reference = _ScalarL0(universe, 31, 2)
        for item, delta in updates:
            reference.update(item, delta)
        state = bank.state_dicts()[0]
        assert state == reference.state_dict()
        assert max(abs(level["weighted_sum"]) for level in state["sketches"][0]) > 1 << 63
        # One surviving item near 2^40 with a large weight is recovered.
        single = L0Bank(universe, [32], 2)
        _feed_bank(single, [(base + 5, 1 << 20)] * 1000, [250, 600])
        assert single.sample(0) == base + 5

    def test_merge_equals_single_bank_ingestion(self):
        rng = random.Random(8)
        updates = _random_updates(rng, 435, 200)
        seeds = [41, 42, 43]
        reference = L0Bank(435, seeds, 3)
        _feed_bank(reference, updates, [90])
        left, right = L0Bank(435, seeds, 3), L0Bank(435, seeds, 3)
        _feed_bank(left, updates[:120], [33])
        _feed_bank(right, updates[120:], [])
        left.merge(right)
        assert left.state_dicts() == reference.state_dicts()
        with pytest.raises(MergeError, match="bases"):
            left.merge(L0Bank(435, [41, 99, 43], 3))
        with pytest.raises(MergeError, match="samplers"):
            left.merge(L0Bank(435, seeds[:2], 3))

    def test_state_round_trip_rebuilds_power_tables(self):
        updates = _random_updates(random.Random(9), 500, 100)
        source = L0Bank(500, [51, 52], 3)
        _feed_bank(source, updates[:50], [])
        target = L0Bank(500, [61, 62], 3)
        _feed_bank(target, updates[:10], [])  # tables built for other bases
        target.load_state_dicts(source.state_dicts())
        _feed_bank(source, updates[50:], [])
        _feed_bank(target, updates[50:], [])
        assert target.state_dicts() == source.state_dicts()

    def test_pass_state_capture_matches_golden(self):
        # sha256 of the pickled TurnstilePassState.state_dict() of a fixed
        # scenario, recorded with the per-sampler implementation the bank
        # replaced: the plain-data checkpoint format is unchanged byte
        # for byte (mid-pass and at the end of the pass).
        graph = generators.gnp(30, 0.3, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=25, rng=4)
        queries = [
            EdgeCountQuery(), RandomEdgeQuery(), RandomNeighborQuery(7),
            DegreeQuery(3), RandomNeighborQuery(2), RandomEdgeQuery(),
            AdjacencyQuery(0, 1), RandomNeighborQuery(7), RandomNeighborQuery(2),
            RandomEdgeQuery(), RandomNeighborQuery(11),
        ]
        oracle = TurnstileStreamOracle(stream, rng=2024, sampler_repetitions=3)
        oracle.begin_batch(queries[:2])  # advance the pass index and rng once
        state = oracle.begin_batch(queries)
        batches = list(stream.batches(16))
        digests = []
        for part in (batches[: len(batches) // 2], batches[len(batches) // 2:]):
            for batch in part:
                state.ingest_batch(batch)
            digests.append(
                hashlib.sha256(pickle.dumps(state.state_dict(), protocol=4)).hexdigest()
            )
        assert digests == [
            "d5380fb5b12a24700de1634b6bc41884a70464496fcf0a9ff5fbf28fca24f643",
            "3fb3a7a0ef9cf5bb3003a21781f2f007f529100c994436427ade0902f0ef73dc",
        ]
        assert state.finish() == [
            112, (6, 18), 15, 11, 10, (13, 28), True, 0, 17, (2, 18), 8,
        ]
