"""Theorem 11: emulating the relaxed augmented model over a turnstile
stream.

One :meth:`TurnstileStreamOracle.answer_batch` call makes one pass and
answers the batch with sketch-backed structures:

* f1 (near-uniform edge) — a fresh ℓ0-sampler over the adjacency-
  matrix vector (edge ids), O(log^4 n) bits each (Lemma 7);
* f3 (near-uniform neighbor of v) — a fresh ℓ0-sampler over the
  adjacency-list column of v;
* f2 (degree) — a signed counter;
* f4 (adjacency) — a signed counter (present iff net count is 1);
* edge count — a signed counter (final multiplicities are 0/1, so the
  signed sum is exactly m).

Indexed neighbor queries (f3 of the non-relaxed model) are rejected —
they have no turnstile emulation, which is exactly why the paper
introduces the relaxed model (Definition 10).
"""

from __future__ import annotations

from operator import itemgetter
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
from repro.sketch.l0 import L0Bank
from repro.streams.batch import (
    EdgeBatch,
    VertexMembership,
    edge_from_id,
    edge_id,
    sorted_member_mask,
)
from repro.streams.space import SpaceMeter
from repro.streams.stream import EdgeStream, pass_batches
from repro.utils.checkpoint import (
    check_merge_config,
    check_state_config,
    rng_state,
    set_rng_state,
    state_field,
)
from repro.utils.rng import RandomSource, derive_rng, ensure_rng, seed_fingerprint


#: Single home of the dense pair encoding and its inverse:
#: repro.streams.batch.edge_id / edge_from_id (kept under the historical
#: private names for this module's callers).
_edge_id = edge_id
_edge_from_id = edge_from_id


class TurnstilePassState:
    """One in-flight turnstile pass (see :class:`InsertionPassState`).

    The pass's ℓ0-samplers live in two :class:`~repro.sketch.l0.L0Bank`
    instances: one edge bank (f1) over the edge-id universe and one
    neighbor bank (f3) over ``[0, n)`` whose rows are grouped by watched
    vertex into contiguous ranges.  A batch therefore costs one edge-bank
    kernel call plus one neighbor-bank call per watched vertex that the
    batch touches, whatever the number of samplers.  No randomness is
    drawn during ingestion, so answers are bit-identical to updating
    each sampler on its own.
    """

    __slots__ = (
        "_oracle",
        "_size",
        "_component",
        "_n",
        "_edge_positions",
        "_edge_bank",
        "_neighbor_positions",
        "_neighbor_order",
        "_neighbor_bank",
        "_neighbor_rows",
        "_degree_positions",
        "_adjacency_positions",
        "_edge_count_positions",
        "_degree_counts",
        "_pair_counts",
        "_edge_count",
        "_degree_members",
        "_degree_accumulator",
        "_sampler_members",
        "_pair_ids",
        "_pair_accumulator",
    )

    def __init__(self, oracle: "TurnstileStreamOracle", batch: QueryBatch, pass_index: int) -> None:
        self._oracle = oracle
        self._size = len(batch)
        n = oracle._stream.n
        self._n = n
        edge_universe = max(1, n * (n - 1) // 2)

        edge_positions: List[int] = []
        edge_rngs = []
        neighbor_entries = []
        degree_positions: List[Tuple[int, int]] = []
        adjacency_positions: List[Tuple[int, Tuple[int, int]]] = []
        edge_count_positions: List[int] = []
        degree_vertices: Set[int] = set()
        adjacency_pairs: Set[Tuple[int, int]] = set()

        for position, query in enumerate(batch):
            kind = type(query)
            if kind is RandomEdgeQuery:
                edge_positions.append(position)
                edge_rngs.append(derive_rng(oracle._rng, f"l0edge-{pass_index}-{position}"))
            elif kind is RandomNeighborQuery:
                child = derive_rng(oracle._rng, f"l0nbr-{pass_index}-{position}")
                neighbor_entries.append((query.vertex, position, child))
            elif kind is DegreeQuery:
                degree_vertices.add(query.vertex)
                degree_positions.append((position, query.vertex))
            elif kind is AdjacencyQuery:
                edge = normalize_edge(query.u, query.v)
                adjacency_pairs.add(edge)
                adjacency_positions.append((position, edge))
            elif kind is EdgeCountQuery:
                edge_count_positions.append(position)
            elif kind is NeighborQuery:
                raise OracleError(
                    "indexed neighbor queries (f3, Definition 6) cannot be emulated "
                    "over turnstile streams; the relaxed model (Definition 10) uses "
                    "RandomNeighborQuery instead"
                )
            else:
                raise OracleError(f"unsupported query type {kind.__name__}")

        repetitions = oracle._sampler_repetitions
        self._edge_positions = edge_positions
        self._edge_bank = L0Bank(edge_universe, edge_rngs, repetitions)
        # Each sampler draws only from its own child generator, so the
        # neighbor bank may order its rows by watched vertex (stable:
        # query order within a vertex) and keep each vertex's samplers
        # in one contiguous row range.
        neighbor_entries.sort(key=itemgetter(0))
        self._neighbor_positions = [(position, vertex) for vertex, position, _ in neighbor_entries]
        self._neighbor_bank = L0Bank(
            max(1, n), [child for _, _, child in neighbor_entries], repetitions
        )
        self._neighbor_rows: Dict[int, slice] = {}
        for index, (vertex, _, _) in enumerate(neighbor_entries):
            rows = self._neighbor_bank.rows(index)
            if vertex in self._neighbor_rows:
                rows = slice(self._neighbor_rows[vertex].start, rows.stop)
            self._neighbor_rows[vertex] = rows
        #: Bank indices of the neighbor samplers in query order.
        self._neighbor_order = sorted(
            range(len(neighbor_entries)), key=lambda index: neighbor_entries[index][1]
        )
        self._degree_positions = degree_positions
        self._adjacency_positions = adjacency_positions
        self._edge_count_positions = edge_count_positions
        self._degree_counts: Dict[int, int] = {v: 0 for v in degree_vertices}
        self._pair_counts: Dict[Tuple[int, int], int] = {pair: 0 for pair in adjacency_pairs}
        self._edge_count = 0

        # Vectorized-ingest lookup structures (see InsertionPassState);
        # finish() folds the flat accumulators back into the dicts.
        self._degree_members = None
        self._degree_accumulator = None
        self._sampler_members = None
        self._pair_ids = None
        self._pair_accumulator = None
        if degree_vertices:
            self._degree_members = VertexMembership(degree_vertices, n)
            self._degree_accumulator = np.zeros(len(degree_vertices), dtype=np.int64)
        if self._neighbor_rows:
            self._sampler_members = VertexMembership(self._neighbor_rows, n)
        if adjacency_pairs:
            ids = sorted(_edge_id(a, b, n) for a, b in adjacency_pairs)
            self._pair_ids = np.array(ids, dtype=np.int64)
            self._pair_accumulator = np.zeros(len(ids), dtype=np.int64)

        self._component = f"turnstile-pass-{pass_index}"
        words = (
            self._edge_bank.space_words
            + self._neighbor_bank.space_words
            + len(degree_vertices)
            + len(adjacency_pairs)
            + (1 if edge_count_positions else 0)
        )
        oracle.space.set_usage(self._component, words)

    def ingest_batch(self, batch: EdgeBatch) -> None:
        """Consume one :class:`~repro.streams.batch.EdgeBatch` of the pass.

        Counters become filtered grouped sums into flat accumulators;
        the ℓ0-sampler banks consume the batch in :meth:`_feed_banks`.
        The sketches are linear and no randomness is drawn during
        ingestion, so answers are independent of the batch split.
        """
        self._edge_count += int(batch.delta.sum())

        degree_members = self._degree_members
        if degree_members is not None:
            endpoint, _, index = batch.events()
            mask = degree_members.mask(endpoint)
            if mask.any():
                np.add.at(
                    self._degree_accumulator,
                    degree_members.slots(endpoint[mask]),
                    batch.delta[index[mask]],
                )

        pair_ids = self._pair_ids
        if pair_ids is not None:
            ids = batch.edge_ids(self._n)
            mask = sorted_member_mask(pair_ids, ids)
            if mask.any():
                slots = np.searchsorted(pair_ids, ids[mask])
                np.add.at(self._pair_accumulator, slots, batch.delta[mask])

        self._feed_banks(batch)

    def _feed_banks(self, batch: EdgeBatch) -> None:
        """One edge-bank kernel call, plus one per touched watched vertex.

        The neighbor bank's rows are ordered by watched vertex, and so
        are the membership slots, so a stable sort of the batch's
        endpoint events by slot yields each vertex's incident
        ``(neighbor, delta)`` run for its row range in one pass.
        """
        if len(self._edge_bank):
            self._edge_bank.update(batch.edge_ids(self._n), batch.delta)
        if not len(self._neighbor_bank):
            return
        members = self._sampler_members
        endpoint, other, index = batch.events()
        hits = np.flatnonzero(members.mask(endpoint))
        if not len(hits):
            return
        slots = members.slots(endpoint[hits])
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        hits = hits[order]
        others = other[hits]
        deltas = batch.delta[index[hits]]
        starts = np.flatnonzero(np.concatenate(([True], slots[1:] != slots[:-1])))
        stops = np.concatenate((starts[1:], [len(slots)]))
        vertices = members.vertices
        neighbor_rows = self._neighbor_rows
        for start, stop in zip(starts.tolist(), stops.tolist()):
            rows = neighbor_rows[int(vertices[slots[start]])]
            self._neighbor_bank.update(others[start:stop], deltas[start:stop], rows)

    def _fold_accumulators(self) -> None:
        """Fold the flat accumulators back into the dicts (idempotent).

        Shared by :meth:`finish`, :meth:`merge` and :meth:`state_dict`,
        so captures are independent of the batch split.
        """
        if self._degree_accumulator is not None:
            accumulator = self._degree_accumulator
            degree_counts = self._degree_counts
            for slot, vertex in enumerate(self._degree_members.vertices.tolist()):
                count = int(accumulator[slot])
                if count:
                    degree_counts[vertex] += count
                    accumulator[slot] = 0
        if self._pair_accumulator is not None and self._pair_accumulator.any():
            n = self._n
            pair_counts = self._pair_counts
            pair_by_id = {_edge_id(a, b, n): (a, b) for a, b in pair_counts}
            for identifier, count in zip(
                self._pair_ids.tolist(), self._pair_accumulator.tolist()
            ):
                if count:
                    pair_counts[pair_by_id[identifier]] += count
            self._pair_accumulator[:] = 0

    def merge(self, other: "TurnstilePassState") -> None:
        """Fold another shard's pass state into this one, exactly.

        Every structure of a turnstile pass is linear in the updates —
        signed counters add, and the ℓ0-sampler banks add row-wise
        (:meth:`~repro.sketch.l0.L0Bank.merge`) — and **no randomness
        is drawn during ingestion**, so two replica pass states (built
        by identically seeded oracles for the same round's query batch,
        each fed a disjoint shard of the stream) merge into a state
        bit-identical to one pass over the whole stream, whatever the
        shard order.  Structural disagreement — different query batch,
        different seeds, different pass index — raises
        :class:`~repro.errors.MergeError`.
        """
        if not isinstance(other, TurnstilePassState):
            raise MergeError(
                f"cannot merge TurnstilePassState with {type(other).__name__}"
            )
        # The space-accounting component label is deliberately NOT
        # compared: a replica rehydrated through state_dict/load keeps
        # the label of the oracle it was rebuilt on (its own accounting
        # releases against it), while the pass *identity* is enforced
        # one level up by TurnstileStreamOracle.merge (pass_index and
        # rng fingerprint) and by the sketch-level coefficient checks.
        check_merge_config(
            "TurnstilePassState",
            size=(self._size, other._size),
            n=(self._n, other._n),
            edge_sampler_positions=(self._edge_positions, other._edge_positions),
            neighbor_sampler_positions=(
                sorted(self._neighbor_positions),
                sorted(other._neighbor_positions),
            ),
            degree_vertices=(
                sorted(self._degree_counts),
                sorted(other._degree_counts),
            ),
            adjacency_pairs=(
                sorted(self._pair_counts),
                sorted(other._pair_counts),
            ),
            edge_count_positions=(
                self._edge_count_positions,
                other._edge_count_positions,
            ),
        )
        self._fold_accumulators()
        other._fold_accumulators()
        self._edge_count += other._edge_count
        for vertex, count in other._degree_counts.items():
            self._degree_counts[vertex] += count
        for pair, count in other._pair_counts.items():
            self._pair_counts[pair] += count
        self._edge_bank.merge(other._edge_bank)
        self._neighbor_bank.merge(other._neighbor_bank)

    def state_dict(self) -> dict:
        """Mutable runtime state of the in-flight pass.

        Sampler entries are stored in query order, each in the
        :meth:`~repro.sketch.l0.L0Sampler.state_dict` format (hash
        coefficients, fingerprint bases, aggregates), read off the
        banks by :meth:`~repro.sketch.l0.L0Bank.state_dicts`.
        """
        self._fold_accumulators()
        return {
            "size": self._size,
            "edge_count": self._edge_count,
            "degree_counts": dict(self._degree_counts),
            "pair_counts": sorted(
                (pair, count) for pair, count in self._pair_counts.items()
            ),
            "edge_samplers": self._edge_bank.state_dicts(),
            "neighbor_samplers": self._neighbor_bank.state_dicts(self._neighbor_order),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore runtime state into a structurally identical pass."""
        check_state_config("TurnstilePassState", state, size=self._size)
        captured_degrees = state_field("TurnstilePassState", state, "degree_counts")
        if set(captured_degrees) != set(self._degree_counts):
            raise CheckpointError(
                "TurnstilePassState state tracks different degree vertices than "
                "this pass; the pass was rebuilt from a different query batch"
            )
        edge_states = state_field("TurnstilePassState", state, "edge_samplers")
        neighbor_states = state_field("TurnstilePassState", state, "neighbor_samplers")
        if len(edge_states) != len(self._edge_bank) or len(neighbor_states) != len(
            self._neighbor_bank
        ):
            raise CheckpointError(
                f"TurnstilePassState state carries {len(edge_states)} edge / "
                f"{len(neighbor_states)} neighbor samplers; this pass has "
                f"{len(self._edge_bank)} / {len(self._neighbor_bank)}"
            )
        self._fold_accumulators()
        self._edge_count = int(state_field("TurnstilePassState", state, "edge_count"))
        self._degree_counts = {
            vertex: int(count) for vertex, count in captured_degrees.items()
        }
        self._pair_counts = {
            tuple(pair): int(count)
            for pair, count in state_field("TurnstilePassState", state, "pair_counts")
        }
        self._edge_bank.load_state_dicts(edge_states)
        self._neighbor_bank.load_state_dicts(neighbor_states, self._neighbor_order)

    def finish(self) -> List[Any]:
        """Collect the batch's answers and release the pass's space."""
        self._fold_accumulators()
        n = self._n
        answers: List[Any] = [None] * self._size
        for index, position in enumerate(self._edge_positions):
            identifier = self._edge_bank.sampler(index).sample()
            answers[position] = (
                None if identifier is None else edge_from_id(identifier, n)
            )
        for index, (position, _) in enumerate(self._neighbor_positions):
            answers[position] = self._neighbor_bank.sampler(index).sample()
        degree_counts = self._degree_counts
        for position, vertex in self._degree_positions:
            answers[position] = degree_counts[vertex]
        pair_counts = self._pair_counts
        for position, edge in self._adjacency_positions:
            answers[position] = pair_counts[edge] == 1
        edge_count = self._edge_count
        for position in self._edge_count_positions:
            answers[position] = edge_count

        self._oracle.space.release(self._component)
        return answers


class TurnstileStreamOracle:
    """Answers relaxed-model query batches over a turnstile stream.

    Like :class:`~repro.transform.insertion.InsertionStreamOracle`,
    *stream* may be a :class:`~repro.engine.parallel.StreamHandle`:
    construction and :meth:`begin_batch` touch only metadata (``n``,
    ``passes_used``), so worker processes rebuild turnstile oracles
    from picklable specs and feed the pass-states from broadcast
    batches.  :class:`TurnstilePassState` instances are transient and
    never cross a process boundary.
    """

    def __init__(
        self,
        stream: EdgeStream,
        rng: RandomSource = None,
        space_meter: Optional[SpaceMeter] = None,
        sampler_repetitions: int = 8,
    ) -> None:
        self._stream = stream
        self._rng = ensure_rng(rng)
        self._pass_index = 0
        self._sampler_repetitions = sampler_repetitions
        self.accounting = QueryAccounting()
        self.space = space_meter if space_meter is not None else SpaceMeter()

    @property
    def passes_used(self) -> int:
        return self._stream.passes_used

    def begin_batch(self, batch: QueryBatch) -> TurnstilePassState:
        """Open a pass for *batch* without touching the stream.

        Counterpart of :meth:`InsertionStreamOracle.begin_batch` for the
        fused engine; the caller owns the stream iteration.
        """
        self.accounting.record_batch(batch)
        self._pass_index += 1
        return TurnstilePassState(self, batch, self._pass_index)

    def answer_batch(self, batch: QueryBatch) -> List[Any]:
        """Answer one round's batch in a single pass over the stream.

        The pass runs over the stream's cached columnar batches
        (:func:`~repro.streams.stream.pass_batches`).
        """
        state = self.begin_batch(batch)
        for chunk in pass_batches(self._stream):
            state.ingest_batch(chunk)
        return state.finish()

    def merge(self, other: "TurnstileStreamOracle") -> None:
        """Validate that *other* is a replica oracle in lockstep with self.

        Oracles hold no stream aggregates — their state is the rng
        position, the pass index and the accounting — so the merge is a
        pure compatibility check: replicas built from the same seed that
        opened the same passes agree on all three, and any disagreement
        means the pass states they produced were built from different
        frozen randomness and must not be added.  The rng positions are
        compared by :func:`~repro.utils.rng.seed_fingerprint` so the
        error stays readable.
        """
        if not isinstance(other, TurnstileStreamOracle):
            raise MergeError(
                f"cannot merge TurnstileStreamOracle with {type(other).__name__}"
            )
        check_merge_config(
            "TurnstileStreamOracle",
            sampler_repetitions=(self._sampler_repetitions, other._sampler_repetitions),
            pass_index=(self._pass_index, other._pass_index),
            rng_fingerprint=(
                seed_fingerprint(self._rng),
                seed_fingerprint(other._rng),
            ),
        )

    def state_dict(self) -> dict:
        """Oracle-level runtime state (rng position, accounting, space)."""
        return {
            "rng": rng_state(self._rng),
            "pass_index": self._pass_index,
            "sampler_repetitions": self._sampler_repetitions,
            "accounting": self.accounting.state_dict(),
            "space": self.space.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture; future passes derive identical randomness."""
        check_state_config(
            "TurnstileStreamOracle",
            state,
            sampler_repetitions=self._sampler_repetitions,
        )
        set_rng_state(self._rng, state_field("TurnstileStreamOracle", state, "rng"))
        self._pass_index = int(
            state_field("TurnstileStreamOracle", state, "pass_index")
        )
        self.accounting.load_state_dict(
            state_field("TurnstileStreamOracle", state, "accounting")
        )
        self.space.load_state_dict(
            state_field("TurnstileStreamOracle", state, "space")
        )
