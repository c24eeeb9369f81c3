"""Out-of-core ingestion: readers, binary format, scenarios, big ids.

Covers the dataset layer end to end — SNAP text parsing and
conversion, the ``.reb``/``.npz`` round-trips, :class:`DiskEdgeStream`
equivalence with the in-memory stream, the turnstile scenario
generators, and the uint64 dtype audit for vertex ids above 2^32
(raw SNAP ids routinely exceed 2^31).
"""

import contextlib
import io

import numpy as np
import pytest

from repro.errors import StreamError
from repro.graph import generators
from repro.streams.batch import EDGE_ID_MAX_N, EdgeBatch, VertexMembership, edge_id
from repro.streams.datasets import (
    BinaryUpdateWriter,
    DiskEdgeStream,
    compact_ids,
    convert_edge_list,
    degree_adversarial_order,
    deletion_heavy_updates,
    is_stream_path,
    open_disk_stream,
    read_snap_chunks,
    save_npz_updates,
    sliding_window_updates,
    write_binary_updates,
)
from repro.streams.stream import EdgeStream, Update, insertion_stream


SNAP_TEXT = """\
# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId\tToNodeId
0\t1
1\t0
7\t7
% another comment style
2\t7 1383399394
4294967299\t2
0\t2
"""


class TestSnapReader:
    def test_chunks_skip_comments_and_extra_columns(self):
        chunks = list(read_snap_chunks(io.StringIO(SNAP_TEXT), chunk_lines=2))
        u = np.concatenate([c[0] for c in chunks])
        v = np.concatenate([c[1] for c in chunks])
        assert u.tolist() == [0, 1, 7, 2, 4294967299, 0]
        assert v.tolist() == [1, 0, 7, 7, 2, 2]
        assert all(len(c[0]) <= 2 for c in chunks)

    def test_malformed_lines_raise(self):
        with pytest.raises(StreamError):
            list(read_snap_chunks(io.StringIO("1\n")))
        with pytest.raises(StreamError):
            list(read_snap_chunks(io.StringIO("a b\n")))
        with pytest.raises(StreamError):
            list(read_snap_chunks(io.StringIO("-1 2\n")))

    def test_compact_ids_preserves_pairing(self):
        u = np.array([10, 99, 4294967299], dtype=np.int64)
        v = np.array([99, 10, 10], dtype=np.int64)
        cu, cv, raw = compact_ids(u, v)
        assert raw.tolist() == [10, 99, 4294967299]
        assert cu.tolist() == [0, 1, 2]
        assert cv.tolist() == [1, 0, 0]


class TestConversion:
    def test_convert_dedupes_and_compacts(self, tmp_path):
        path = tmp_path / "snap.reb"
        stream = convert_edge_list(io.StringIO(SNAP_TEXT), path)
        # Unique undirected edges: {0,1}, {2,7}, {4294967299→id, 2}, {0,2};
        # the self-loop 7-7 and the reversed 1-0 are dropped.
        assert stream.length == 4
        assert stream.net_edge_count == 4
        assert stream.n == 5  # ids 0,1,2,7,4294967299 compacted
        assert not stream.allows_deletions
        graph = stream.final_graph()
        assert graph.m == 4

    def test_convert_to_npz(self, tmp_path):
        path = tmp_path / "snap.npz"
        stream = convert_edge_list(io.StringIO(SNAP_TEXT), path)
        assert stream.length == 4
        assert is_stream_path(path) and is_stream_path("x.reb")
        assert not is_stream_path("x.txt")

    def test_convert_rejects_unrecognized_suffix(self, tmp_path):
        # A destination `repro count` would not recognize as a stream
        # must fail at convert time, not with a confusing parse error
        # later.
        with pytest.raises(StreamError):
            convert_edge_list(io.StringIO(SNAP_TEXT), tmp_path / "snap.bin")

    def test_convert_no_dedupe_rejects_self_loops(self, tmp_path):
        with pytest.raises(StreamError):
            convert_edge_list(
                io.StringIO("1 1\n"), tmp_path / "x.reb", dedupe=False
            )

    def test_round_trip_matches_in_memory_stream(self, tmp_path):
        graph = generators.gnp(25, 0.3, rng=1)
        stream = insertion_stream(graph, rng=2)
        u, v, _ = stream.columns()
        path = write_binary_updates(tmp_path / "g.reb", graph.n, u, v)
        disk = DiskEdgeStream(path)
        assert (disk.n, disk.length, disk.net_edge_count) == (
            stream.n,
            stream.length,
            stream.net_edge_count,
        )
        assert list(disk.updates()) == list(stream.updates())
        memory_batches = [b.tuples() for b in stream.batches(7)]
        disk_batches = [b.tuples() for b in disk.batches(7)]
        assert memory_batches == disk_batches
        assert disk.passes_used == 2
        assert sorted(disk.final_graph().edges()) == sorted(graph.edges())

    def test_npz_round_trip_with_deletions(self, tmp_path):
        u = np.array([0, 1, 0], dtype=np.int64)
        v = np.array([1, 2, 1], dtype=np.int64)
        delta = np.array([1, 1, -1], dtype=np.int8)
        path = save_npz_updates(tmp_path / "t.npz", 3, u, v, delta)
        disk = open_disk_stream(path)
        assert disk.allows_deletions
        assert disk.net_edge_count == 1
        (batch,) = list(disk.batches(10))
        assert [t[:3] for t in batch.tuples()] == [(0, 1, 1), (1, 2, 1), (0, 1, -1)]

    def test_binary_writer_validates(self, tmp_path):
        with pytest.raises(StreamError):
            with BinaryUpdateWriter(tmp_path / "bad.reb", 5) as writer:
                writer.append(np.array([1]), np.array([1]))  # self-loop
        with pytest.raises(StreamError):
            with BinaryUpdateWriter(tmp_path / "bad2.reb", 5) as writer:
                writer.append(np.array([0]), np.array([7]))  # out of range
        with pytest.raises(StreamError):
            with BinaryUpdateWriter(tmp_path / "bad3.reb", 5) as writer:
                writer.append(
                    np.array([0]), np.array([1]), np.array([-1])
                )  # deletion in insertion-only
        # Aborted writers leave no partial files behind.
        assert not list(tmp_path.glob("*.tmp"))

    def test_bad_magic_and_truncation_raise(self, tmp_path):
        bad = tmp_path / "bad.reb"
        bad.write_bytes(b"NOTAREPRO FILE")
        with pytest.raises(StreamError):
            DiskEdgeStream(bad)
        good = write_binary_updates(
            tmp_path / "good.reb", 4, np.array([0, 1]), np.array([1, 2])
        )
        data = open(good, "rb").read()
        truncated = tmp_path / "trunc.reb"
        truncated.write_bytes(data[:-4])
        with pytest.raises(StreamError):
            DiskEdgeStream(truncated)
        # A corrupt header (negative length) must also fail with the
        # library's StreamError, not a raw numpy error.
        import struct

        from repro.streams.datasets import BINARY_MAGIC

        corrupt = tmp_path / "corrupt.reb"
        corrupt.write_bytes(BINARY_MAGIC + struct.pack("<4q", 4, -1, 0, 0))
        with pytest.raises(StreamError):
            DiskEdgeStream(corrupt)


class TestScenarios:
    def _edges(self, seed=4, n=30, p=0.25):
        graph = generators.gnp(n, p, rng=seed)
        edges = np.array(sorted(graph.edges()), dtype=np.int64)
        return graph, edges[:, 0], edges[:, 1]

    def test_deletion_heavy_final_graph_is_input(self):
        graph, u, v = self._edges()
        out_u, out_v, delta = deletion_heavy_updates(
            u, v, churn_rounds=2, churn_fraction=0.7, seed=1
        )
        assert (delta == -1).sum() > 0
        stream = EdgeStream(
            graph.n,
            [Update(int(a), int(b), int(d)) for a, b, d in zip(out_u, out_v, delta)],
            allow_deletions=True,
        )
        assert sorted(stream.final_graph().edges()) == sorted(graph.edges())
        assert stream.length == len(out_u)

    def test_deletion_heavy_empty_input(self):
        out_u, out_v, delta = deletion_heavy_updates(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(out_u) == len(out_v) == len(delta) == 0

    def test_deletion_heavy_zero_rounds_is_identity(self):
        _, u, v = self._edges()
        out_u, out_v, delta = deletion_heavy_updates(u, v, churn_rounds=0)
        assert out_u.tolist() == u.tolist()
        assert (delta == 1).all()

    def test_sliding_window_keeps_last_window(self):
        graph, u, v = self._edges()
        window = 10
        out_u, out_v, delta = sliding_window_updates(u, v, window)
        stream = EdgeStream(
            graph.n,
            [Update(int(a), int(b), int(d)) for a, b, d in zip(out_u, out_v, delta)],
            allow_deletions=True,
        )
        expected = sorted(
            (int(a), int(b)) for a, b in zip(u[-window:], v[-window:])
        )
        assert sorted(stream.final_graph().edges()) == expected
        assert len(out_u) == len(u) + max(0, len(u) - window)

    def test_sliding_window_wider_than_stream(self):
        _, u, v = self._edges()
        out_u, out_v, delta = sliding_window_updates(u, v, window=10 ** 6)
        assert (delta == 1).all()
        assert len(out_u) == len(u)

    def test_degree_adversarial_order_is_permutation(self):
        _, u, v = self._edges()
        au, av = degree_adversarial_order(u, v)
        assert sorted(zip(au.tolist(), av.tolist())) == sorted(
            zip(u.tolist(), v.tolist())
        )
        # High-degree incidences arrive last.
        n = int(max(u.max(), v.max())) + 1
        degrees = np.bincount(np.concatenate((u, v)), minlength=n)
        weights = np.maximum(degrees[au], degrees[av])
        assert (np.diff(weights) >= 0).all()

    def test_scenarios_reject_self_loops_and_bad_params(self):
        with pytest.raises(StreamError):
            deletion_heavy_updates([1], [1])
        with pytest.raises(StreamError):
            deletion_heavy_updates([0], [1], churn_rounds=-1)
        with pytest.raises(StreamError):
            sliding_window_updates([0], [1], window=0)


class TestScenarioInvariants:
    """Structural invariants of the turnstile scenario generators.

    The worlds sweeps trust these unconditionally: any prefix of the
    update stream keeps every multiplicity in {0, 1} (the stream model
    forbids negative multiplicities and the generators never duplicate
    a live edge), and the final support is exactly what the scenario
    advertises.  Checked by replaying the columns through a Counter —
    no ``Graph(n)`` allocation, so the same check runs on vertex ids
    above 2^32.
    """

    def _edges(self, seed=9, n=40, p=0.2):
        graph = generators.gnp(n, p, rng=seed)
        edges = np.array(sorted(graph.edges()), dtype=np.int64)
        return edges[:, 0], edges[:, 1]

    @staticmethod
    def _replay(out_u, out_v, delta):
        """Multiplicity map after replaying all updates, asserting every
        prefix stays within {0, 1}."""
        from collections import Counter

        counts: Counter = Counter()
        for a, b, d in zip(out_u.tolist(), out_v.tolist(), delta.tolist()):
            key = (min(a, b), max(a, b))
            counts[key] += int(d)
            assert 0 <= counts[key] <= 1, (
                f"multiplicity {counts[key]} for {key} mid-stream"
            )
        return {key for key, count in counts.items() if count == 1}

    @pytest.mark.parametrize("churn_rounds,churn_fraction",
                             [(1, 0.5), (3, 0.9), (2, 0.25)])
    def test_deletion_heavy_prefixes_never_negative(self, churn_rounds,
                                                    churn_fraction):
        u, v = self._edges()
        out_u, out_v, delta = deletion_heavy_updates(
            u, v, churn_rounds=churn_rounds, churn_fraction=churn_fraction,
            seed=3,
        )
        support = self._replay(out_u, out_v, delta)
        assert support == set(zip(u.tolist(), v.tolist()))

    @pytest.mark.parametrize("window", [1, 7, 25, 10 ** 6])
    def test_sliding_window_final_support_is_the_window(self, window):
        u, v = self._edges()
        out_u, out_v, delta = sliding_window_updates(u, v, window)
        support = self._replay(out_u, out_v, delta)
        kept = min(window, len(u))
        assert support == set(zip(u[-kept:].tolist(), v[-kept:].tolist()))

    def test_big_ids_survive_the_columnar_path(self):
        # Vertex ids above 2^32 through scenario generation AND the
        # columnar EdgeBatch path: every batch tuple must carry the
        # exact id (no float round-trip, no int32 truncation).
        big = 2 ** 32 + 11
        u = np.array([big, big + 1, 3, big + 4], dtype=np.int64)
        v = np.array([3, big + 2, big + 4, big + 7], dtype=np.int64)
        for out_u, out_v, delta in (
            deletion_heavy_updates(u, v, churn_rounds=2, churn_fraction=0.8,
                                   seed=5),
            sliding_window_updates(u, v, window=2),
        ):
            support = self._replay(out_u, out_v, delta)
            assert all(isinstance(a, int) for pair in support for a in pair)
            stream = EdgeStream(
                2 ** 33,
                [Update(int(a), int(b), int(d))
                 for a, b, d in zip(out_u, out_v, delta)],
                allow_deletions=True,
            )
            seen = []
            for batch in stream.batches(3):
                assert batch.lo.dtype == np.int64
                assert batch.hi.dtype == np.int64
                seen.extend(batch.tuples())
            assert len(seen) == len(out_u)
            assert {(min(t[0], t[1]), max(t[0], t[1])) for t in seen} >= support
        # The reorder scenario builds a dense degree table, so it is
        # bound to compacted ids — it must reorder, not corrupt, right
        # up to the table limit.
        small_u, small_v = self._edges(n=25)
        au, av = degree_adversarial_order(small_u, small_v)
        assert sorted(zip(au.tolist(), av.tolist())) == sorted(
            zip(small_u.tolist(), small_v.tolist())
        )


class TestBigVertexIds:
    """Satellite audit: exactness for vertex ids >= 2^31 (and > 2^32)."""

    BIG = 2 ** 32 + 5

    def test_edge_stream_accepts_big_ids(self):
        n = 2 ** 33
        stream = EdgeStream(
            n, [Update(self.BIG, 3), Update(self.BIG + 1, self.BIG + 7)]
        )
        batch = next(iter(stream.batches()))
        tuples = batch.tuples()
        assert tuples[0][:2] == (self.BIG, 3)
        assert tuples[1][:2] == (self.BIG + 1, self.BIG + 7)
        assert batch.hi.dtype == np.int64
        assert int(batch.hi[1]) == self.BIG + 7

    def test_edge_ids_exact_near_uint32_boundary(self):
        # int64 intermediates wrap past n ≈ 3.0e9; the uint64 path must
        # agree with exact Python-int edge_id right up to n = 2^32.
        n = EDGE_ID_MAX_N
        pairs = [
            (0, 1),
            (n - 2, n - 1),
            (n // 2, n - 1),
            (2 ** 31 - 1, 2 ** 31),
            (123, n - 7),
        ]
        batch = EdgeBatch(
            np.array([a for a, _ in pairs], dtype=np.int64),
            np.array([b for _, b in pairs], dtype=np.int64),
            np.ones(len(pairs), dtype=np.int64),
        )
        expected = [edge_id(a, b, n) for a, b in pairs]
        assert batch.edge_ids(n).tolist() == expected

    def test_edge_ids_overflow_guard(self):
        batch = EdgeBatch.from_updates([Update(0, 1)])
        with pytest.raises(StreamError):
            batch.edge_ids(EDGE_ID_MAX_N + 1)

    def test_vertex_membership_sparse_path_above_dense_limit(self):
        n = 2 ** 33
        watched = [self.BIG, 5, 2 ** 32 + 999]
        members = VertexMembership(watched, n)
        values = np.array(
            [5, 6, self.BIG, 2 ** 32 + 999, 2 ** 33 - 1], dtype=np.int64
        )
        assert members.mask(values).tolist() == [True, False, True, True, False]
        hits = values[members.mask(values)]
        assert members.slots(hits).tolist() == [0, 1, 2]

    def test_vertex_membership_dense_and_sparse_agree(self):
        rng = np.random.default_rng(3)
        watched = rng.choice(5000, size=40, replace=False)
        values = rng.integers(0, 5000, size=1000)
        dense = VertexMembership(watched, 5000)
        sparse = VertexMembership(watched, 2 ** 33)
        mask_d = dense.mask(values)
        # Sparse path only accepts int64 arrays of any range.
        assert sparse.mask(values.astype(np.int64)).tolist() == mask_d.tolist()

    def test_big_id_oracle_pass_end_to_end(self):
        # A columnar oracle pass over a stream whose ids exceed 2^32:
        # degree counters and f1 edge reservoirs must behave exactly as
        # the per-element reference pass (Python ints throughout).
        from reference_passes import reference_passes
        from repro.oracle.base import DegreeQuery, EdgeCountQuery, RandomEdgeQuery
        from repro.transform.insertion import InsertionStreamOracle

        n = 2 ** 33
        updates = [
            Update(self.BIG, 3),
            Update(self.BIG, self.BIG + 1),
            Update(3, self.BIG + 1),
            Update(self.BIG + 2, 3),
        ]
        queries = [DegreeQuery(self.BIG), DegreeQuery(3), EdgeCountQuery(),
                   RandomEdgeQuery()]
        answers = {}
        for reference, batch_size in ((True, 2), (False, 2), (False, 3)):
            stream = EdgeStream(n, updates)
            oracle = InsertionStreamOracle(stream, rng=17)
            with reference_passes() if reference else contextlib.nullcontext():
                state = oracle.begin_batch(list(queries))
            for batch in stream.batches(batch_size):
                state.ingest_batch(batch)
            answers[(reference, batch_size)] = state.finish()
        baseline = answers[(True, 2)]
        assert baseline[0] == 2 and baseline[1] == 3 and baseline[2] == 4
        assert all(result == baseline for result in answers.values())
