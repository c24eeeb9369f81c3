"""The arbitrary-order edge stream model.

An :class:`EdgeStream` is a finite sequence of edge *updates* over a
fixed vertex set [n].  In the insertion-only (cash-register) setting
every update inserts an edge; in the turnstile setting updates carry a
sign and the graph is the result of applying all of them to the empty
graph (final multiplicities must be 0 or 1 — the paper's model is
simple graphs).

Multi-pass algorithms call :meth:`EdgeStream.updates` once per pass;
the stream counts passes so tests and experiments can assert the pass
complexity claimed by the theorems (3 passes for Theorem 1/17, 5r for
Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.streams.batch import EdgeBatch
from repro.streams.cache import BatchCachePolicy, resolve_cache_policy
from repro.utils.rng import RandomSource, ensure_rng


#: Default elements per decoded columnar batch.
DEFAULT_CHUNK_SIZE = 4096


def check_batch_size(batch_size) -> int:
    """Validate a batch size: an integer >= 1 (``bool`` rejected).

    The single home of the check — :meth:`EdgeStream.batches`, the
    disk streams, and the engine all route through it, so a bad
    ``--batch-size`` fails with one clear :class:`ValueError` instead
    of a silent ``range`` misbehavior deep in the decode loop.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise StreamError(
            f"batch_size must be an int, got {type(batch_size).__name__} "
            f"({batch_size!r})"
        )
    if batch_size < 1:
        raise StreamError(f"batch_size must be >= 1, got {batch_size}")
    return int(batch_size)


class CachedBatchStream:
    """Shared pass-counting + batch-cache surface of the stream classes.

    Subclasses initialize ``self._passes = 0`` and ``self._cache``
    (via :func:`~repro.streams.cache.resolve_cache_policy`), implement
    ``__len__`` and :meth:`_decode_batch`, and inherit the whole
    consulting loop: one cache key per ``(batch_size, batch_index)``,
    decode on miss, retention at the policy's discretion.  Keeping the
    loop in one place is what guarantees the in-memory and disk
    streams can never drift apart on cache semantics.
    """

    @property
    def passes_used(self) -> int:
        """How many passes have been read so far."""
        return self._passes

    def reset_pass_count(self) -> None:
        """Zero the pass counter (e.g. between estimator runs)."""
        self._passes = 0

    @property
    def cache_policy(self) -> BatchCachePolicy:
        """The active batch-cache policy (inspect for hit/byte meters)."""
        return self._cache

    def set_cache_policy(self, cache) -> BatchCachePolicy:
        """Replace the batch-cache policy (dropping retained batches).

        *cache* is any spec accepted by
        :func:`~repro.streams.cache.resolve_cache_policy`; the resolved
        policy is returned so callers can meter it.
        """
        self._cache.clear()
        self._cache = resolve_cache_policy(cache)
        return self._cache

    def batches(self, batch_size: int = DEFAULT_CHUNK_SIZE) -> Iterator["EdgeBatch"]:
        """Read one pass as columnar :class:`~repro.streams.batch.EdgeBatch`\\ es.

        Counts a pass, like ``updates()``.  Which batches (and their
        lazily materialized decoded views) survive between passes is
        the cache policy's call (see :mod:`repro.streams.cache`):
        under ``"all"`` every batch is decoded once per stream and
        reused by every later pass and every estimator sharing a fused
        pass; under ``"lru"`` a bounded working set is; under
        ``"none"`` nothing is.  Batches are immutable by convention;
        consumers must not mutate the arrays.
        """
        batch_size = check_batch_size(batch_size)
        self._passes += 1
        return self._iter_batches(batch_size)

    def _iter_batches(self, batch_size: int) -> Iterator["EdgeBatch"]:
        cache = self._cache
        length = len(self)
        for index, start in enumerate(range(0, length, batch_size)):
            key = (batch_size, index)
            batch = cache.get(key)
            if batch is None:
                batch = self._decode_batch(start, min(start + batch_size, length))
                cache.put(key, batch)
            yield batch

    def _decode_batch(self, start: int, stop: int) -> "EdgeBatch":
        """Decode updates ``[start, stop)`` into a fresh batch."""
        raise NotImplementedError


@dataclass(frozen=True)
class Update:
    """A single stream element: edge {u, v} with sign +1 or -1."""

    u: int
    v: int
    delta: int = 1

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise StreamError(f"self-loop update ({self.u}, {self.v})")
        if self.delta not in (1, -1):
            raise StreamError(f"update delta must be +1 or -1, got {self.delta}")

    @property
    def edge(self) -> Edge:
        """The normalized (min, max) edge."""
        return normalize_edge(self.u, self.v)

    @property
    def is_insertion(self) -> bool:
        return self.delta == 1


class EdgeStream(CachedBatchStream):
    """A replayable, pass-counting edge stream.

    Parameters
    ----------
    n:
        Number of vertices of the underlying graph.
    updates:
        The stream contents, in order.
    allow_deletions:
        ``False`` models the insertion-only setting and rejects any
        negative update at construction time.
    cache:
        Batch-cache policy for :meth:`batches` — ``"all"`` (default:
        unbounded, right for small replayed streams), ``"lru"`` /
        ``"lru:<bytes>"`` (bounded by a byte budget), ``"none"``, or a
        :class:`~repro.streams.cache.BatchCachePolicy` instance.
        Estimates are bit-identical across policies; the policy only
        trades decode work against resident memory.

    Notes
    -----
    The stream validates on construction that the final edge
    multiplicities are all 0 or 1 and never dip below 0 — i.e. that
    the updates describe a simple graph, as the paper's turnstile
    model requires.
    """

    def __init__(
        self,
        n: int,
        updates: Sequence[Update],
        allow_deletions: bool = False,
        cache=None,
    ) -> None:
        self._n = n
        self._updates: Tuple[Update, ...] = tuple(updates)
        self._allow_deletions = allow_deletions
        self._passes = 0
        self._cache: BatchCachePolicy = resolve_cache_policy(cache)
        self._columns = None
        self._validate()

    def _validate(self) -> None:
        multiplicity: Dict[Edge, int] = {}
        for index, update in enumerate(self._updates):
            if not (0 <= update.u < self._n and 0 <= update.v < self._n):
                raise StreamError(f"update #{index} touches vertex outside [0, {self._n})")
            if update.delta < 0 and not self._allow_deletions:
                raise StreamError(f"update #{index} is a deletion in an insertion-only stream")
            edge = update.edge
            count = multiplicity.get(edge, 0) + update.delta
            if count < 0:
                raise StreamError(f"update #{index} deletes absent edge {edge}")
            if count > 1:
                raise StreamError(f"update #{index} duplicates edge {edge}")
            multiplicity[edge] = count
        self._final_edges: Tuple[Edge, ...] = tuple(
            sorted(edge for edge, count in multiplicity.items() if count == 1)
        )

    # -- stream interface ------------------------------------------------

    @property
    def n(self) -> int:
        """Vertex count of the underlying graph."""
        return self._n

    @property
    def length(self) -> int:
        """Number of stream elements (insertions + deletions)."""
        return len(self._updates)

    @property
    def net_edge_count(self) -> int:
        """m: edges of the final graph."""
        return len(self._final_edges)

    @property
    def allows_deletions(self) -> bool:
        return self._allow_deletions

    def updates(self) -> Iterator[Update]:
        """Read one pass over the stream, counting it."""
        self._passes += 1
        return iter(self._updates)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole stream as ``(u, v, delta)`` ``int64`` columns.

        Decoded once and shared with the batch pipeline; does **not**
        count a pass.  The public bridge to the array-based ingestion
        layer (:func:`repro.streams.datasets.write_binary_updates`, the
        scenario generators) — callers must not mutate the arrays.
        """
        if self._columns is None:
            length = len(self._updates)
            self._columns = tuple(
                np.fromiter(
                    (getattr(update, field) for update in self._updates),
                    dtype=np.int64,
                    count=length,
                )
                for field in ("u", "v", "delta")
            )
        return self._columns

    def _decode_batch(self, start: int, stop: int) -> "EdgeBatch":
        u, v, delta = self.columns()
        return EdgeBatch(u[start:stop], v[start:stop], delta[start:stop])

    def final_graph(self) -> Graph:
        """The graph the stream describes (updates applied in order)."""
        return Graph(self._n, self._final_edges)

    def __len__(self) -> int:
        return len(self._updates)

    def __repr__(self) -> str:
        kind = "turnstile" if self._allow_deletions else "insertion-only"
        return (
            f"EdgeStream({kind}, n={self._n}, length={self.length}, "
            f"m={self.net_edge_count}, passes_used={self._passes})"
        )


class ColumnEdgeStream(CachedBatchStream):
    """A replayable stream over pre-decoded ``(u, v, delta)`` columns.

    The array-native sibling of :class:`EdgeStream`: same protocol
    (metadata, ``updates()``, ``batches()``, pass counting, cache
    policy), but the contents live as three numpy columns instead of
    :class:`Update` objects — no per-element dataclass cost to build,
    and ``_decode_batch`` is a pure slice.  Used by the live engine
    (:mod:`repro.engine.live`) to replay its journaled prefix through
    the multi-pass estimators, and handy anywhere updates already
    exist as arrays (scenario generators, ``.npz`` round trips).

    ``net_edge_count`` may be passed by callers that already validated
    the stream (the live journal validates incrementally); with
    ``validate=True`` the columns are checked against the simple-graph
    stream model exactly as :class:`EdgeStream` checks updates.
    """

    def __init__(
        self,
        n: int,
        u,
        v,
        delta=None,
        allow_deletions: Optional[bool] = None,
        net_edge_count: Optional[int] = None,
        validate: bool = True,
        cache=None,
    ) -> None:
        if n < 1:
            raise StreamError(f"column stream needs n >= 1, got {n}")
        self._n = int(n)
        self._u = np.ascontiguousarray(u, dtype=np.int64)
        self._v = np.ascontiguousarray(v, dtype=np.int64)
        if delta is None:
            delta = np.ones(len(self._u), dtype=np.int64)
        self._delta = np.ascontiguousarray(delta, dtype=np.int64)
        if not (len(self._u) == len(self._v) == len(self._delta)):
            raise StreamError("u/v/delta column lengths differ")
        if allow_deletions is None:
            allow_deletions = bool(len(self._delta)) and bool((self._delta < 0).any())
        self._allow_deletions = bool(allow_deletions)
        self._passes = 0
        self._cache: BatchCachePolicy = resolve_cache_policy(cache)
        if validate:
            self._final_edges: Optional[Tuple[Edge, ...]] = self._validate()
            self._net = len(self._final_edges)
        else:
            self._final_edges = None
            self._net = (
                int(net_edge_count)
                if net_edge_count is not None
                else int(self._delta.sum())
            )

    def _validate(self) -> Tuple[Edge, ...]:
        multiplicity: Dict[Edge, int] = {}
        for index, (u, v, delta) in enumerate(
            zip(self._u.tolist(), self._v.tolist(), self._delta.tolist())
        ):
            if u == v:
                raise StreamError(f"update #{index} is a self-loop ({u}, {v})")
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise StreamError(
                    f"update #{index} touches vertex outside [0, {self._n})"
                )
            if delta not in (1, -1):
                raise StreamError(
                    f"update #{index} delta must be +1 or -1, got {delta}"
                )
            if delta < 0 and not self._allow_deletions:
                raise StreamError(
                    f"update #{index} is a deletion in an insertion-only stream"
                )
            edge = normalize_edge(u, v)
            count = multiplicity.get(edge, 0) + delta
            if count < 0:
                raise StreamError(f"update #{index} deletes absent edge {edge}")
            if count > 1:
                raise StreamError(f"update #{index} duplicates edge {edge}")
            multiplicity[edge] = count
        return tuple(sorted(e for e, count in multiplicity.items() if count == 1))

    @property
    def n(self) -> int:
        return self._n

    @property
    def length(self) -> int:
        return len(self._u)

    @property
    def net_edge_count(self) -> int:
        return self._net

    @property
    def allows_deletions(self) -> bool:
        return self._allow_deletions

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The backing ``(u, v, delta)`` columns (do not mutate)."""
        return self._u, self._v, self._delta

    def updates(self) -> Iterator[Update]:
        """Read one pass as :class:`Update` objects (per-element compatibility path)."""
        self._passes += 1

        def generate() -> Iterator[Update]:
            for u, v, delta in zip(
                self._u.tolist(), self._v.tolist(), self._delta.tolist()
            ):
                yield Update(u, v, delta)

        return generate()

    def _decode_batch(self, start: int, stop: int) -> "EdgeBatch":
        return EdgeBatch(
            self._u[start:stop], self._v[start:stop], self._delta[start:stop]
        )

    def final_graph(self) -> Graph:
        """The graph the columns describe (computed on demand)."""
        if self._final_edges is None:
            self._final_edges = self._validate()
        return Graph(self._n, self._final_edges)

    def __len__(self) -> int:
        return len(self._u)

    def __repr__(self) -> str:
        kind = "turnstile" if self._allow_deletions else "insertion-only"
        return (
            f"ColumnEdgeStream({kind}, n={self._n}, length={self.length}, "
            f"m={self._net}, passes_used={self._passes})"
        )


#: A decoded stream element: ``(u, v, delta, normalized_edge)``.
DecodedUpdate = Tuple[int, int, int, Edge]


def pass_batches(stream, batch_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[EdgeBatch]:
    """One stream pass as dispatchable batches (counting the pass).

    The single entry point behind every pass consumer — the engine's
    dispatch loop, the parallel driver's broadcast loop, the oracles'
    one-shot ``answer_batch`` and the baseline one-shot wrappers.  The
    pass yields the stream's cached
    :class:`~repro.streams.batch.EdgeBatch` columns, which also iterate
    as decoded ``(u, v, delta, edge)`` tuples.
    """
    return stream.batches(batch_size)


def insertion_stream(
    graph: Graph, rng: RandomSource = None, shuffle: bool = True
) -> EdgeStream:
    """An insertion-only stream of *graph*'s edges.

    With *shuffle* (the default) the arrival order is a uniformly
    random permutation drawn from *rng*; otherwise edges arrive in the
    graph's insertion order.  Note the algorithms are analyzed for
    arbitrary (adversarial) order — shuffling is just a convenient
    instance, and :func:`repro.streams.generators.adversarial_order_stream`
    provides nastier ones.
    """
    edges: List[Edge] = list(graph.edges())
    if shuffle:
        ensure_rng(rng).shuffle(edges)
    return EdgeStream(graph.n, [Update(u, v, 1) for u, v in edges], allow_deletions=False)


def turnstile_stream(
    n: int, updates: Iterable[Tuple[int, int, int]]
) -> EdgeStream:
    """A turnstile stream from raw ``(u, v, delta)`` triples."""
    return EdgeStream(n, [Update(u, v, d) for u, v, d in updates], allow_deletions=True)
