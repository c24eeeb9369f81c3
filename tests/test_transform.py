"""Tests for the query->streaming transformation (Theorems 9 and 11).

The emulators must answer every query *exactly* like the direct oracle
(degrees, adjacency, edge count, indexed neighbors in arrival order)
or with the right distribution (random edges / neighbors).
"""

from collections import Counter

import pytest

from repro.errors import OracleError
from repro.graph import generators as gen
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.streams.batch import edge_from_id, edge_id
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import EdgeStream, Update, insertion_stream
from repro.transform.driver import parallel_rounds, run_round_adaptive
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle
from repro.transform.turnstile import _edge_from_id, _edge_id


@pytest.fixture
def graph():
    return gen.gnp(25, 0.3, rng=42)


class TestInsertionEmulation:
    def test_rejects_turnstile_streams(self, graph):
        stream = turnstile_churn_stream(graph, 5, rng=1)
        with pytest.raises(OracleError):
            InsertionStreamOracle(stream)

    def test_exact_queries_match_graph(self, graph):
        stream = insertion_stream(graph, rng=2)
        oracle = InsertionStreamOracle(stream, rng=3)
        batch = [EdgeCountQuery()] + [DegreeQuery(v) for v in range(10)] + [
            AdjacencyQuery(u, v) for u in range(5) for v in range(u + 1, 5)
        ]
        answers = oracle.answer_batch(batch)
        assert answers[0] == graph.m
        for v in range(10):
            assert answers[1 + v] == graph.degree(v)
        offset = 11
        for i, (u, v) in enumerate(
            (u, v) for u in range(5) for v in range(u + 1, 5)
        ):
            assert answers[offset + i] == graph.has_edge(u, v)

    def test_one_pass_per_batch(self, graph):
        stream = insertion_stream(graph, rng=2)
        oracle = InsertionStreamOracle(stream, rng=3)
        oracle.answer_batch([EdgeCountQuery()])
        oracle.answer_batch([DegreeQuery(0)])
        assert oracle.passes_used == 2

    def test_indexed_neighbor_follows_arrival_order(self):
        updates = [Update(0, 3), Update(1, 2), Update(0, 4), Update(0, 2)]
        stream = EdgeStream(5, updates)
        oracle = InsertionStreamOracle(stream, rng=1)
        answers = oracle.answer_batch(
            [NeighborQuery(0, 0), NeighborQuery(0, 1), NeighborQuery(0, 2), NeighborQuery(0, 3)]
        )
        assert answers == [3, 4, 2, None]

    def test_random_edge_uniform_over_stream(self, graph):
        stream = insertion_stream(graph, rng=4)
        oracle = InsertionStreamOracle(stream, rng=5)
        answers = oracle.answer_batch([RandomEdgeQuery() for _ in range(3000)])
        counts = Counter(answers)
        assert set(counts) <= set(graph.edges())
        expected = 3000 / graph.m
        assert all(c <= 3 * expected for c in counts.values())

    def test_random_neighbor_supported(self, graph):
        stream = insertion_stream(graph, rng=6)
        oracle = InsertionStreamOracle(stream, rng=7)
        vertex = max(graph.vertices(), key=graph.degree)
        answers = oracle.answer_batch([RandomNeighborQuery(vertex) for _ in range(500)])
        assert set(answers) <= set(graph.neighbors(vertex))

    def test_space_charged_and_released(self, graph):
        stream = insertion_stream(graph, rng=8)
        oracle = InsertionStreamOracle(stream, rng=9)
        oracle.answer_batch([DegreeQuery(0), RandomEdgeQuery()])
        assert oracle.space.peak_words >= 3
        assert oracle.space.current_words == 0


class TestTurnstileEmulation:
    def test_edge_id_roundtrip(self):
        n = 12
        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                identifier = _edge_id(u, v, n)
                assert _edge_from_id(identifier, n) == (u, v)
                seen.add(identifier)
        assert seen == set(range(n * (n - 1) // 2))

    @pytest.mark.parametrize("n", [2, 3, 30, 1000])
    def test_edge_from_id_exhaustive_round_trip(self, n):
        identifier = 0
        for u in range(n):
            for v in range(u + 1, n):
                assert edge_id(u, v, n) == identifier
                assert edge_from_id(identifier, n) == (u, v)
                identifier += 1

    def test_edge_from_id_boundaries_near_two_to_the_32(self):
        for n in ((1 << 32) - 1, 1 << 32):
            pairs = [(0, 1), (0, n - 1), (1, 2), (n - 3, n - 2), (n - 3, n - 1),
                     (n - 2, n - 1), (n // 2, n // 2 + 1), (n // 2 - 1, n - 1)]
            for a, b in pairs:
                identifier = edge_id(a, b, n)
                assert edge_from_id(identifier, n) == (a, b)
                # The ids on either side of a row boundary land in the
                # neighbouring rows.
                for near in (identifier - 1, identifier + 1):
                    if 0 <= near < n * (n - 1) // 2:
                        c, d = edge_from_id(near, n)
                        assert 0 <= c < d < n and edge_id(c, d, n) == near

    def test_edge_from_id_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            edge_from_id(3, 3)
        with pytest.raises(ValueError):
            edge_from_id(-1, 5)

    def test_exact_queries_respect_deletions(self, graph):
        stream = turnstile_churn_stream(graph, 20, rng=10)
        oracle = TurnstileStreamOracle(stream, rng=11, sampler_repetitions=3)
        batch = [EdgeCountQuery()] + [DegreeQuery(v) for v in range(8)]
        answers = oracle.answer_batch(batch)
        assert answers[0] == graph.m
        for v in range(8):
            assert answers[1 + v] == graph.degree(v)

    def test_adjacency_of_deleted_edge_is_false(self, graph):
        stream = turnstile_churn_stream(graph, 20, rng=12)
        # Find an edge that was churned (inserted then deleted).
        churned = None
        for update in stream.updates():
            if update.delta < 0:
                churned = update.edge
                break
        stream.reset_pass_count()
        assert churned is not None
        oracle = TurnstileStreamOracle(stream, rng=13, sampler_repetitions=3)
        answers = oracle.answer_batch(
            [AdjacencyQuery(*churned)] + [AdjacencyQuery(u, v) for u, v in list(graph.edges())[:5]]
        )
        assert answers[0] is False
        assert all(answers[1:])

    def test_random_edge_sampler_hits_live_edges(self, graph):
        stream = turnstile_churn_stream(graph, 15, rng=14)
        oracle = TurnstileStreamOracle(stream, rng=15, sampler_repetitions=5)
        answers = oracle.answer_batch([RandomEdgeQuery() for _ in range(30)])
        live = set(graph.edges())
        for answer in answers:
            if answer is not None:
                assert tuple(answer) in live

    def test_random_neighbor_sampler(self, graph):
        stream = turnstile_churn_stream(graph, 15, rng=16)
        oracle = TurnstileStreamOracle(stream, rng=17, sampler_repetitions=5)
        vertex = max(graph.vertices(), key=graph.degree)
        answers = oracle.answer_batch([RandomNeighborQuery(vertex) for _ in range(20)])
        neighbors = set(graph.neighbors(vertex))
        for answer in answers:
            if answer is not None:
                assert answer in neighbors

    def test_indexed_neighbor_rejected(self, graph):
        stream = turnstile_churn_stream(graph, 5, rng=18)
        oracle = TurnstileStreamOracle(stream, rng=19)
        with pytest.raises(OracleError):
            oracle.answer_batch([NeighborQuery(0, 0)])


class TestDriver:
    def test_rounds_equal_longest_algorithm(self, graph):
        def two_rounds():
            answers = yield [EdgeCountQuery()]
            answers = yield [DegreeQuery(0)]
            return answers[0]

        def one_round():
            answers = yield [EdgeCountQuery()]
            return answers[0]

        stream = insertion_stream(graph, rng=20)
        oracle = InsertionStreamOracle(stream, rng=21)
        result = run_round_adaptive([two_rounds(), one_round()], oracle)
        assert result.rounds == 2
        assert oracle.passes_used == 2
        assert result.outputs == [graph.degree(0), graph.m]

    def test_immediate_return_consumes_no_pass(self, graph):
        def immediate():
            return 7
            yield  # pragma: no cover

        stream = insertion_stream(graph, rng=22)
        oracle = InsertionStreamOracle(stream, rng=23)
        result = run_round_adaptive([immediate()], oracle)
        assert result.rounds == 0
        assert oracle.passes_used == 0
        assert result.outputs == [7]

    def test_parallel_rounds_composition(self, graph):
        def child(v):
            answers = yield [DegreeQuery(v)]
            return answers[0]

        def parent():
            degrees = yield from parallel_rounds([child(0), child(1), child(2)])
            answers = yield [EdgeCountQuery()]
            return (degrees, answers[0])

        stream = insertion_stream(graph, rng=24)
        oracle = InsertionStreamOracle(stream, rng=25)
        result = run_round_adaptive([parent()], oracle)
        degrees, m = result.outputs[0]
        assert degrees == [graph.degree(0), graph.degree(1), graph.degree(2)]
        assert m == graph.m
        assert result.rounds == 2

    def test_query_accounting_totals(self, graph):
        def asker():
            yield [DegreeQuery(0), DegreeQuery(1)]
            return None

        stream = insertion_stream(graph, rng=26)
        oracle = InsertionStreamOracle(stream, rng=27)
        result = run_round_adaptive([asker(), asker()], oracle)
        assert result.total_queries == 4
