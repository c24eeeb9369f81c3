"""Per-element reference passes for the oracle pass states (tests only).

The production pass states
(:class:`~repro.transform.insertion.InsertionPassState`,
:class:`~repro.transform.turnstile.TurnstilePassState`) ingest whole
:class:`~repro.streams.batch.EdgeBatch` columns: membership filters,
grouped event walks, flat accumulators, skip-ahead reservoir offers
and one ℓ0-bank kernel call per batch.  The subclasses here override
only ``ingest_batch``, with a plain loop over ``batch.tuples()`` that
updates the dict counters and offers to the reservoirs and ℓ0-samplers
one stream element at a time.  Construction (and so every random
draw), merge, state capture and ``finish`` are inherited, so a
reference pass and a production pass fed the same stream must agree
bit for bit, however the production pass was split into batches.

:func:`reference_passes` swaps the references in behind both oracles'
``begin_batch``, so whole engine runs (fused, live, sharded) execute
on them.  The swap is process-local: use it with the serial and thread
backends.
"""

import contextlib

import numpy as np

from repro.streams.batch import edge_id
from repro.transform.insertion import InsertionPassState, InsertionStreamOracle
from repro.transform.turnstile import TurnstilePassState, TurnstileStreamOracle


class ReferenceInsertionPassState(InsertionPassState):
    """:class:`InsertionPassState` fed one element at a time."""

    __slots__ = ()

    def ingest_batch(self, batch):
        updates = batch.tuples()
        self._edge_count += len(updates)
        edge_bank = self._edge_bank
        neighbor_banks = self._neighbor_banks
        degree_counts = self._degree_counts
        arrival_counts = self._arrival_counts
        neighbor_watch = self._neighbor_watch
        captured = self._captured
        adjacency_pairs = self._adjacency_pairs
        present_pairs = self._present_pairs
        for u, v, _, edge in updates:
            if edge_bank.size:
                edge_bank.offer(edge)
            bank = neighbor_banks.get(u)
            if bank is not None:
                bank.offer(v)
            bank = neighbor_banks.get(v)
            if bank is not None:
                bank.offer(u)
            if u in degree_counts:
                degree_counts[u] += 1
            if v in degree_counts:
                degree_counts[v] += 1
            for endpoint, other in ((u, v), (v, u)):
                if endpoint in arrival_counts:
                    seen = arrival_counts[endpoint]
                    for position in neighbor_watch[endpoint].get(seen, ()):
                        captured[position] = other
                    arrival_counts[endpoint] = seen + 1
            if edge in adjacency_pairs:
                present_pairs.add(edge)


class ReferenceTurnstilePassState(TurnstilePassState):
    """:class:`TurnstilePassState` fed one element at a time."""

    __slots__ = ()

    def ingest_batch(self, batch):
        n = self._n
        degree_counts = self._degree_counts
        pair_counts = self._pair_counts
        neighbor_rows = self._neighbor_rows
        for u, v, delta, edge in batch.tuples():
            self._edge_count += delta
            if u in degree_counts:
                degree_counts[u] += delta
            if v in degree_counts:
                degree_counts[v] += delta
            if edge in pair_counts:
                pair_counts[edge] += delta
            deltas = np.array([delta], dtype=np.int64)
            if len(self._edge_bank):
                self._edge_bank.update(np.array([edge_id(u, v, n)], dtype=np.int64), deltas)
            for endpoint, other in ((u, v), (v, u)):
                rows = neighbor_rows.get(endpoint)
                if rows is not None:
                    self._neighbor_bank.update(
                        np.array([other], dtype=np.int64), deltas, rows
                    )


@contextlib.contextmanager
def reference_passes():
    """Make both stream oracles open reference passes while active.

    The production ``begin_batch`` still builds the pass (recording the
    accounting, advancing the pass index, drawing the randomness); the
    result is then re-classed to its reference subclass, which shares
    the slot layout.
    """
    originals = {
        InsertionStreamOracle: (InsertionStreamOracle.begin_batch, ReferenceInsertionPassState),
        TurnstileStreamOracle: (TurnstileStreamOracle.begin_batch, ReferenceTurnstilePassState),
    }

    def patched(begin_batch, reference):
        def begin_reference_batch(self, batch):
            state = begin_batch(self, batch)
            state.__class__ = reference
            return state

        return begin_reference_batch

    for oracle, (begin_batch, reference) in originals.items():
        oracle.begin_batch = patched(begin_batch, reference)
    try:
        yield
    finally:
        for oracle, (begin_batch, _) in originals.items():
            oracle.begin_batch = begin_batch
