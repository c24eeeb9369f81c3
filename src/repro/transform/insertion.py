"""Theorem 9: emulating the augmented general graph model over an
insertion-only stream.

One call to :meth:`InsertionStreamOracle.answer_batch` makes exactly
one pass over the stream and answers every query of the batch:

* f1 (random edge) — one single-item reservoir per query: O(log n) bits;
* f2 (degree) — a counter per queried vertex;
* f3 (i-th neighbor) — a per-vertex arrival counter that captures the
  i-th incident edge;
* f4 (adjacency) — a boolean per queried pair;
* edge count — one counter.

The relaxed-model random-neighbor query is also supported (a
reservoir over arrivals incident to v serves an exactly uniform
neighbor), so relaxed-mode algorithms can run on insertion-only
streams too.

Total space is O(q log n) words for q queries plus the algorithm's own
state — the bound of Theorem 9.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import CheckpointError, MergeError, OracleError
from repro.graph.graph import normalize_edge
from repro.oracle.base import (
    AdjacencyQuery,
    DegreeQuery,
    EdgeCountQuery,
    NeighborQuery,
    Query,
    QueryAccounting,
    QueryBatch,
    RandomEdgeQuery,
    RandomNeighborQuery,
)
from repro.sketch.reservoir import SkipAheadReservoirBank
from repro.streams.batch import (
    EdgeBatch,
    VertexMembership,
    edge_id,
    sorted_member_mask,
)
from repro.streams.space import SpaceMeter
from repro.streams.stream import EdgeStream, pass_batches
from repro.utils.checkpoint import (
    check_state_config,
    rng_state,
    set_rng_state,
    state_field,
)
from repro.utils.rng import RandomSource, derive_rng, ensure_rng


class InsertionPassState:
    """One in-flight oracle pass: built from a batch, fed updates, finished.

    Created by :meth:`InsertionStreamOracle.begin_batch`.  The caller —
    either :meth:`InsertionStreamOracle.answer_batch` (which iterates
    the stream itself) or the fused engine (which shares one stream
    iteration among many estimators) — feeds decoded updates through
    :meth:`ingest_batch` and then collects the answers with
    :meth:`finish`.  Randomness is drawn only at construction (the
    skip-ahead banks) and during ingestion (bank offers), in the same
    order as the historical monolithic pass loop, so both drivers
    produce bit-identical answers for the same oracle seed.
    """

    __slots__ = (
        "_oracle",
        "_size",
        "_component",
        "_n",
        "_edge_positions",
        "_neighbor_positions",
        "_degree_positions",
        "_neighbor_query_positions",
        "_adjacency_positions",
        "_edge_count_positions",
        "_degree_counts",
        "_arrival_counts",
        "_neighbor_watch",
        "_captured",
        "_adjacency_pairs",
        "_present_pairs",
        "_edge_count",
        "_edge_bank",
        "_neighbor_banks",
        "_degree_members",
        "_degree_accumulator",
        "_arrival_members",
        "_neighbor_members",
        "_adjacency_ids",
        "_adjacency_seen",
    )

    def __init__(self, oracle: "InsertionStreamOracle", batch: QueryBatch, pass_index: int) -> None:
        self._oracle = oracle
        self._size = len(batch)

        edge_positions: List[int] = []
        neighbor_positions: Dict[int, List[int]] = {}
        degree_positions: List[Tuple[int, int]] = []
        neighbor_query_positions: List[int] = []
        adjacency_positions: List[Tuple[int, Tuple[int, int]]] = []
        edge_count_positions: List[int] = []
        degree_vertices: Set[int] = set()
        neighbor_watch: Dict[int, Dict[int, List[int]]] = {}
        adjacency_pairs: Set[Tuple[int, int]] = set()

        for position, query in enumerate(batch):
            kind = type(query)
            if kind is RandomEdgeQuery:
                edge_positions.append(position)
            elif kind is RandomNeighborQuery:
                neighbor_positions.setdefault(query.vertex, []).append(position)
            elif kind is DegreeQuery:
                degree_vertices.add(query.vertex)
                degree_positions.append((position, query.vertex))
            elif kind is NeighborQuery:
                if query.index < 0:
                    raise OracleError(f"neighbor index must be >= 0, got {query.index}")
                neighbor_watch.setdefault(query.vertex, {}).setdefault(
                    query.index, []
                ).append(position)
                neighbor_query_positions.append(position)
            elif kind is AdjacencyQuery:
                edge = normalize_edge(query.u, query.v)
                adjacency_pairs.add(edge)
                adjacency_positions.append((position, edge))
            elif kind is EdgeCountQuery:
                edge_count_positions.append(position)
            else:
                raise OracleError(f"unsupported query type {kind.__name__}")

        self._edge_positions = edge_positions
        self._neighbor_positions = neighbor_positions
        self._degree_positions = degree_positions
        self._neighbor_query_positions = neighbor_query_positions
        self._adjacency_positions = adjacency_positions
        self._edge_count_positions = edge_count_positions
        self._degree_counts: Dict[int, int] = {v: 0 for v in degree_vertices}
        self._arrival_counts: Dict[int, int] = {v: 0 for v in neighbor_watch}
        self._neighbor_watch = neighbor_watch
        self._captured: Dict[int, Optional[int]] = {}
        self._adjacency_pairs = adjacency_pairs
        self._present_pairs: Set[Tuple[int, int]] = set()
        self._edge_count = 0

        self._n = n = oracle._stream.n
        # Vectorized-ingest lookup structures: per-vertex membership
        # filters (:class:`~repro.streams.batch.VertexMembership`:
        # dense boolean gather tables for ordinary ``n``, sorted binary
        # search on huge-universe disk graphs), the sorted adjacency-
        # pair ids, and a compact per-watched-vertex degree accumulator
        # that finish() folds back into the dicts.  Transient
        # engineering scratch outside the paper's space accounting
        # (which meters the *algorithmic* state only), never
        # proportional to ``n`` beyond the dense-table regime.
        self._degree_members = None
        self._degree_accumulator = None
        self._arrival_members = None
        self._neighbor_members = None
        self._adjacency_ids = None
        self._adjacency_seen = None
        if degree_vertices:
            self._degree_members = VertexMembership(degree_vertices, n)
            self._degree_accumulator = np.zeros(len(degree_vertices), dtype=np.int64)
        if neighbor_watch:
            self._arrival_members = VertexMembership(neighbor_watch, n)
        if neighbor_positions:
            self._neighbor_members = VertexMembership(neighbor_positions, n)
        if adjacency_pairs:
            ids = sorted(edge_id(a, b, n) for a, b in adjacency_pairs)
            self._adjacency_ids = np.array(ids, dtype=np.int64)
            self._adjacency_seen = np.zeros(len(ids), dtype=bool)

        # Skip-ahead banks: O(1) amortized per stream element however
        # many f1/f3 queries the batch carries (see repro.sketch.reservoir).
        self._edge_bank: SkipAheadReservoirBank = SkipAheadReservoirBank(
            len(edge_positions),
            derive_rng(oracle._rng, f"edges-{pass_index}"),
        )
        self._neighbor_banks: Dict[int, SkipAheadReservoirBank] = {
            vertex: SkipAheadReservoirBank(
                len(positions),
                derive_rng(oracle._rng, f"nbrs-{pass_index}-{vertex}"),
            )
            for vertex, positions in neighbor_positions.items()
        }

        # Charge the space meter: O(1) words per query of this batch.
        self._component = f"insertion-pass-{pass_index}"
        words = (
            2 * len(edge_positions)
            + 2 * sum(len(p) for p in neighbor_positions.values())
            + len(degree_vertices)
            + sum(len(ix) for ix in neighbor_watch.values())
            + len(neighbor_watch)
            + len(adjacency_pairs)
            + (1 if edge_count_positions else 0)
        )
        oracle.space.set_usage(self._component, words)

    def ingest_batch(self, batch: EdgeBatch) -> None:
        """Consume one :class:`~repro.streams.batch.EdgeBatch` of the pass.

        Structures are independent consumers of the same ordered
        element sequence (each bank draws from its own rng), so every
        tracker becomes array work over the batch columns, skipped
        entirely when no query of the pass needs it:

        * the f1 edge bank skips ahead over a lazy edge view, touching
          only accepted elements;
        * degree counters are a membership filter plus a grouped count
          into a flat accumulator (folded into the dicts at finish);
        * f3 arrival watchers and random-neighbor reservoirs filter the
          interleaved endpoint events down to watched-incident ones and
          walk only those, grouped by vertex with stream order
          preserved (stable sort) — the reservoir draws therefore
          happen in exactly the per-element order per bank;
        * adjacency flags are one membership test on the batch's dense
          edge ids.
        """
        self._edge_count += len(batch)
        if self._edge_bank.size:
            self._edge_bank.offer_many(batch.edges_view())

        degree_members = self._degree_members
        arrival_members = self._arrival_members
        neighbor_members = self._neighbor_members
        if (
            degree_members is not None
            or arrival_members is not None
            or neighbor_members is not None
        ):
            endpoint, other, _ = batch.events()

            if degree_members is not None:
                hits = endpoint[degree_members.mask(endpoint)]
                if len(hits):
                    np.add.at(
                        self._degree_accumulator, degree_members.slots(hits), 1
                    )

            if neighbor_members is not None:
                mask = neighbor_members.mask(endpoint)
                if mask.any():
                    self._offer_grouped(endpoint[mask], other[mask], self._offer_bank)

            if arrival_members is not None:
                mask = arrival_members.mask(endpoint)
                if mask.any():
                    self._offer_grouped(endpoint[mask], other[mask], self._watch_arrivals)

        adjacency_ids = self._adjacency_ids
        if adjacency_ids is not None:
            ids = batch.edge_ids(self._n)
            mask = sorted_member_mask(adjacency_ids, ids)
            if mask.any():
                self._adjacency_seen[np.searchsorted(adjacency_ids, ids[mask])] = True

    @staticmethod
    def _offer_grouped(endpoints: np.ndarray, others: np.ndarray, consume) -> None:
        """Group watched-incident events by endpoint, preserving order.

        The stable sort keeps each vertex's incident arrivals in stream
        order; *consume(vertex, arrivals)* receives them as a plain int
        list, exactly the sequence a per-element walk would feed it.
        """
        order = np.argsort(endpoints, kind="stable")
        endpoints = endpoints[order]
        others = others[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], endpoints[1:] != endpoints[:-1]))
        )
        stops = np.concatenate((boundaries[1:], [len(endpoints)]))
        for start, stop in zip(boundaries.tolist(), stops.tolist()):
            consume(int(endpoints[start]), others[start:stop].tolist())

    def _offer_bank(self, vertex: int, arrivals: List[int]) -> None:
        self._neighbor_banks[vertex].offer_many(arrivals)

    def _watch_arrivals(self, vertex: int, arrivals: List[int]) -> None:
        seen = self._arrival_counts[vertex]
        watchers = self._neighbor_watch[vertex]
        stop = seen + len(arrivals)
        for index, positions in watchers.items():
            if seen <= index < stop:
                captured = arrivals[index - seen]
                for position in positions:
                    self._captured[position] = captured
        self._arrival_counts[vertex] = stop

    def _fold_accumulators(self) -> None:
        """Fold the flat accumulators back into the dicts (idempotent).

        Called by :meth:`finish` before answering and by
        :meth:`state_dict` before capturing, so the serialized state is
        always the dict form, independent of the batch split.
        """
        if self._degree_accumulator is not None:
            accumulator = self._degree_accumulator
            degree_counts = self._degree_counts
            for slot, vertex in enumerate(self._degree_members.vertices.tolist()):
                count = int(accumulator[slot])
                if count:
                    degree_counts[vertex] += count
                    accumulator[slot] = 0
        if self._adjacency_seen is not None and self._adjacency_seen.any():
            n = self._n
            adjacency_by_id = {
                edge_id(a, b, n): (a, b) for a, b in self._adjacency_pairs
            }
            for identifier in self._adjacency_ids[self._adjacency_seen].tolist():
                self._present_pairs.add(adjacency_by_id[identifier])
            self._adjacency_seen[:] = False

    def merge(self, other: "InsertionPassState") -> None:
        """Always raises :class:`~repro.errors.MergeError`.

        The insertion-path emulation samples f1/f3 with reservoirs
        (:class:`~repro.sketch.reservoir.SkipAheadReservoirBank`), whose
        acceptance probabilities depend on the global stream position —
        per-shard reservoirs are not distributed like one reservoir
        over the combined stream, so there is no correct merge (see
        ``repro.sketch.reservoir._reservoir_merge_error``).  Even the
        deterministic counters (f2/f4/edge count) are not folded:
        returning a partially merged pass would silently bias the f1/f3
        answers.  Partitioned ingestion must run the turnstile path,
        whose sketches are linear.
        """
        raise MergeError(
            "InsertionPassState cannot be merged: its f1/f3 answers come from "
            "reservoir samplers whose draws depend on the global stream order "
            "and element count, so per-shard passes do not compose; use the "
            "turnstile (L0-sketch) path for partitioned ingestion"
        )

    def state_dict(self) -> dict:
        """Mutable runtime state of the in-flight pass.

        Structure (query positions, watch maps, bank sizes) is *not*
        captured: a restore rebuilds it deterministically via
        ``oracle.begin_batch`` on the replayed merged batch and then
        overlays this runtime state (see
        :meth:`~repro.engine.estimators.RoundAdaptiveEstimator.load_state_dict`).
        """
        self._fold_accumulators()
        return {
            "size": self._size,
            "edge_count": self._edge_count,
            "degree_counts": dict(self._degree_counts),
            "arrival_counts": dict(self._arrival_counts),
            "captured": dict(self._captured),
            "present_pairs": sorted(self._present_pairs),
            "edge_bank": self._edge_bank.state_dict(),
            "neighbor_banks": {
                vertex: bank.state_dict()
                for vertex, bank in self._neighbor_banks.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore runtime state into a structurally identical pass."""
        check_state_config("InsertionPassState", state, size=self._size)
        for field, current in (
            ("degree_counts", self._degree_counts),
            ("arrival_counts", self._arrival_counts),
            ("neighbor_banks", self._neighbor_banks),
        ):
            captured = state_field("InsertionPassState", state, field)
            if set(captured) != set(current):
                raise CheckpointError(
                    f"InsertionPassState state field {field!r} tracks vertices "
                    f"{sorted(captured)} but this pass tracks {sorted(current)}; "
                    "the pass was rebuilt from a different query batch"
                )
        self._fold_accumulators()
        self._edge_count = int(state_field("InsertionPassState", state, "edge_count"))
        self._degree_counts = {
            vertex: int(count) for vertex, count in state["degree_counts"].items()
        }
        self._arrival_counts = {
            vertex: int(count) for vertex, count in state["arrival_counts"].items()
        }
        self._captured = dict(state_field("InsertionPassState", state, "captured"))
        self._present_pairs = {
            tuple(pair) for pair in state_field("InsertionPassState", state, "present_pairs")
        }
        self._edge_bank.load_state_dict(state["edge_bank"])
        for vertex, bank in self._neighbor_banks.items():
            bank.load_state_dict(state["neighbor_banks"][vertex])

    def finish(self) -> List[Any]:
        """Collect the batch's answers and release the pass's space."""
        self._fold_accumulators()
        answers: List[Any] = [None] * self._size
        edge_bank = self._edge_bank
        for slot, position in enumerate(self._edge_positions):
            answers[position] = edge_bank.item(slot)
        for vertex, positions in self._neighbor_positions.items():
            bank = self._neighbor_banks[vertex]
            for slot, position in enumerate(positions):
                answers[position] = bank.item(slot)
        degree_counts = self._degree_counts
        for position, vertex in self._degree_positions:
            answers[position] = degree_counts[vertex]
        captured_get = self._captured.get
        for position in self._neighbor_query_positions:
            answers[position] = captured_get(position)
        present_pairs = self._present_pairs
        for position, edge in self._adjacency_positions:
            answers[position] = edge in present_pairs
        edge_count = self._edge_count
        for position in self._edge_count_positions:
            answers[position] = edge_count

        self._oracle.space.release(self._component)
        return answers


class InsertionStreamOracle:
    """Answers query batches with one stream pass per batch.

    *stream* may also be a :class:`~repro.engine.parallel.StreamHandle`
    — the oracle reads only stream *metadata* (``allows_deletions``,
    ``passes_used``); iteration happens in :meth:`answer_batch`, which
    a handle-backed oracle must never reach (the fused engine and the
    parallel driver own the iteration and feed pass-states directly).
    That is what lets worker processes rebuild oracles from picklable
    specs without shipping the stream contents (serialization audit:
    the oracle's own state — rng, accounting, space meter — pickles;
    in-flight :class:`InsertionPassState` objects are transient and
    never cross a process boundary).
    """

    def __init__(
        self,
        stream: EdgeStream,
        rng: RandomSource = None,
        space_meter: Optional[SpaceMeter] = None,
    ) -> None:
        if stream.allows_deletions:
            raise OracleError(
                "InsertionStreamOracle requires an insertion-only stream; "
                "use TurnstileStreamOracle for streams with deletions"
            )
        self._stream = stream
        self._rng = ensure_rng(rng)
        self._pass_index = 0
        self.accounting = QueryAccounting()
        self.space = space_meter if space_meter is not None else SpaceMeter()

    @property
    def passes_used(self) -> int:
        """Stream passes consumed so far."""
        return self._stream.passes_used

    def begin_batch(self, batch: QueryBatch) -> InsertionPassState:
        """Open a pass for *batch* without touching the stream.

        The returned :class:`InsertionPassState` must be fed exactly one
        full pass worth of decoded updates and then finished.  Used by
        the fused engine, which iterates the stream once on behalf of
        every registered estimator.
        """
        self.accounting.record_batch(batch)
        self._pass_index += 1
        return InsertionPassState(self, batch, self._pass_index)

    def answer_batch(self, batch: QueryBatch) -> List[Any]:
        """Answer one round's batch in a single pass over the stream.

        The pass runs over the stream's cached columnar batches
        (:func:`~repro.streams.stream.pass_batches`).
        """
        state = self.begin_batch(batch)
        for chunk in pass_batches(self._stream):
            state.ingest_batch(chunk)
        return state.finish()

    def merge(self, other: "InsertionStreamOracle") -> None:
        """Always raises: insertion passes are reservoir-backed.

        See :meth:`InsertionPassState.merge` for the documented reason;
        raising here (before any pass state is touched) is what makes a
        sharded run over an insertion-only estimator fail loudly at the
        first merge barrier instead of returning silently wrong
        estimates.
        """
        raise MergeError(
            "InsertionStreamOracle cannot be merged: the insertion-only "
            "emulation answers f1/f3 with reservoir samplers, whose draws "
            "depend on the global stream order; use TurnstileStreamOracle "
            "(linear L0 sketches) for partitioned ingestion"
        )

    def state_dict(self) -> dict:
        """Oracle-level runtime state (rng position, accounting, space)."""
        return {
            "rng": rng_state(self._rng),
            "pass_index": self._pass_index,
            "accounting": self.accounting.state_dict(),
            "space": self.space.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture; future passes derive identical randomness."""
        set_rng_state(self._rng, state_field("InsertionStreamOracle", state, "rng"))
        self._pass_index = int(
            state_field("InsertionStreamOracle", state, "pass_index")
        )
        self.accounting.load_state_dict(
            state_field("InsertionStreamOracle", state, "accounting")
        )
        self.space.load_state_dict(state_field("InsertionStreamOracle", state, "space"))
