"""Columnar edge batches: the unit of computation of the fast pipeline.

An :class:`EdgeBatch` holds one decoded chunk of a stream pass as
numpy columns — ``u``, ``v``, ``delta`` as ``int64`` arrays plus the
normalized endpoint columns ``lo``/``hi`` — instead of a list of
``(u, v, delta, edge)`` tuples.  It still *behaves* like that list
(``len``, iteration, indexing all yield decoded tuples), so every
scalar consumer keeps working unchanged, while vectorized consumers
read the columns directly and the engine ships batches across process
boundaries as flat array buffers instead of pickled tuple lists.

Derived representations are computed lazily and cached **on the
batch**: the decoded tuple list, the normalized edge-tuple list, the
per-``n`` dense edge ids, and the interleaved endpoint/other event
columns.  Because the stream caches its batches across passes
(:meth:`repro.streams.stream.EdgeStream.batches`), a representation is
materialized at most once per stream however many passes run and
however many estimator copies consume each pass — this cache sharing
is where the fused engine's per-copy decode cost goes to zero.

Caches never cross a process boundary: pickling reduces a batch to its
three defining columns.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.graph import Edge

#: A decoded stream element: ``(u, v, delta, normalized_edge)``.
DecodedTuple = Tuple[int, int, int, Edge]

#: Bytes one stream element occupies in a packed column triple: the
#: three defining ``int64`` columns (``u``, ``v``, ``delta``) laid out
#: back to back — the unit the shared-memory batch ring is sized in.
PACKED_ELEMENT_BYTES = 24

#: Largest vertex count whose dense edge ids stay exact: for
#: ``n <= 2^32`` the id universe ``n(n-1)/2 < 2^63`` fits ``int64``
#: and the uint64 intermediate ``a(2n-a-1) <= n(n-1) < 2^64`` cannot
#: wrap.  Beyond that the encoding itself overflows — callers must
#: compact/relabel vertex ids first (the dataset readers do).
EDGE_ID_MAX_N = 1 << 32

#: Above this vertex count the pass states switch their vertex filters
#: from Θ(n) boolean gather tables to sorted binary search — a few
#: dozen watched vertices never justify gigabyte tables on big-id
#: disk graphs.
DENSE_MEMBERSHIP_MAX_N = 1 << 22


def edge_id(u: int, v: int, n: int) -> int:
    """Dense id of the (sorted) pair {u, v} in ``[0, n(n-1)/2)``.

    Pairs ``(a, b)`` with ``a < b`` ordered lexicographically — the
    single home of the encoding; :meth:`EdgeBatch.edge_ids` is its
    vectorized form and the turnstile oracle's ℓ0 edge universe and the
    pass states' adjacency lookups all key off it.
    """
    a, b = (u, v) if u < v else (v, u)
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


def edge_from_id(identifier: int, n: int) -> Tuple[int, int]:
    """Inverse of :func:`edge_id`: the pair ``(a, b)``, ``a < b``, with that id.

    Row ``a`` starts at ``f(a) = a(2n - a - 1)/2``; the row of an id is
    the largest ``a`` with ``f(a) <= id``, i.e. the floor of the smaller
    root ``(d - sqrt(d^2 - 8·id))/2`` with ``d = 2n - 1``.  With
    ``s = isqrt(d^2 - 8·id)`` that floor is ``(d - s)//2`` when the
    discriminant is a perfect square and ``(d - s - 1)//2`` otherwise —
    exact integer arithmetic, O(1) for any ``n``.
    """
    if not 0 <= identifier < n * (n - 1) // 2:
        raise ValueError(f"edge id {identifier} outside [0, {n * (n - 1) // 2}) for n={n}")
    d = 2 * n - 1
    discriminant = d * d - 8 * identifier
    root = math.isqrt(discriminant)
    a = (d - root - (root * root != discriminant)) // 2
    return a, identifier - a * (2 * n - a - 1) // 2 + a + 1


def sorted_member_mask(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean membership of *values* in the pre-sorted *sorted_values*.

    Equivalent to ``np.isin(values, sorted_values)`` but exploits that
    the haystack is already sorted and deduplicated (``np.isin``
    re-sorts it on every call): one binary search per element, no
    temporaries proportional to the haystack.
    """
    positions = np.searchsorted(sorted_values, values)
    mask = positions < len(sorted_values)
    mask[mask] = sorted_values[positions[mask]] == values[mask]
    return mask


class VertexMembership:
    """Vertex filter over a small watched set, scale-aware in ``n``.

    The columnar pass states test every batch event against a handful
    of watched vertices (degree counters, arrival watchers, sampler
    owners).  For ordinary ``n`` a dense boolean table makes that an
    O(1) gather per event; on huge-universe disk graphs
    (``n > DENSE_MEMBERSHIP_MAX_N``) allocating Θ(n) scratch per pass
    state would dwarf the algorithm's own space, so membership falls
    back to binary search against the sorted watched set — same mask,
    bounded memory.  :meth:`slots` gives each member a compact index
    so accumulators are sized by the watched set, never by ``n``.
    """

    __slots__ = ("vertices", "_table")

    def __init__(self, vertices, n: int) -> None:
        self.vertices = np.asarray(sorted(vertices), dtype=np.int64)
        if n <= DENSE_MEMBERSHIP_MAX_N:
            table = np.zeros(n, dtype=bool)
            table[self.vertices] = True
            self._table = table
        else:
            self._table = None

    def __len__(self) -> int:
        return len(self.vertices)

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean membership of *values* in the watched set."""
        if self._table is not None:
            return self._table[values]
        return sorted_member_mask(self.vertices, values)

    def slots(self, members: np.ndarray) -> np.ndarray:
        """Compact ``[0, len)`` indices of *members* (all must belong)."""
        return np.searchsorted(self.vertices, members)


class _EdgeView(Sequence):
    """Lazy indexable view of a batch's normalized edge tuples.

    The skip-ahead reservoir bank touches only the elements it
    accepts, so handing it this view instead of a materialized list
    keeps a no-acceptance batch at O(1) total work.  Once the batch's
    edge list is materialized the view serves from it directly.
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: "EdgeBatch") -> None:
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch)

    def __getitem__(self, index):
        batch = self._batch
        if batch._edge_list is not None:
            return batch._edge_list[index]
        return (int(batch.lo[index]), int(batch.hi[index]))

    def __iter__(self):
        return iter(self._batch.edge_list())


class EdgeBatch(Sequence):
    """One decoded chunk of a stream pass, stored as numpy columns.

    Constructed from parallel ``u``/``v``/``delta`` arrays (``int64``).
    Sequence access decodes to plain ``(u, v, delta, edge)`` tuples
    with Python ints, bit-compatible with the historical decoded
    chunks.
    """

    __slots__ = (
        "u",
        "v",
        "delta",
        "_lo",
        "_hi",
        "_tuples",
        "_edge_list",
        "_edge_ids_n",
        "_edge_ids",
        "_events",
    )

    def __init__(self, u: np.ndarray, v: np.ndarray, delta: np.ndarray) -> None:
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        self.v = np.ascontiguousarray(v, dtype=np.int64)
        self.delta = np.ascontiguousarray(delta, dtype=np.int64)
        self._lo: Optional[np.ndarray] = None
        self._hi: Optional[np.ndarray] = None
        self._tuples: Optional[List[DecodedTuple]] = None
        self._edge_list: Optional[List[Edge]] = None
        self._edge_ids_n: int = -1
        self._edge_ids: Optional[np.ndarray] = None
        self._events: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @classmethod
    def from_updates(cls, updates: Sequence) -> "EdgeBatch":
        """Decode a run of :class:`~repro.streams.stream.Update` objects."""
        u = np.fromiter((update.u for update in updates), dtype=np.int64, count=len(updates))
        v = np.fromiter((update.v for update in updates), dtype=np.int64, count=len(updates))
        delta = np.fromiter(
            (update.delta for update in updates), dtype=np.int64, count=len(updates)
        )
        return cls(u, v, delta)

    @classmethod
    def from_tuples(cls, decoded: Sequence[DecodedTuple]) -> "EdgeBatch":
        """Build from already-decoded ``(u, v, delta, edge)`` tuples."""
        u = np.fromiter((t[0] for t in decoded), dtype=np.int64, count=len(decoded))
        v = np.fromiter((t[1] for t in decoded), dtype=np.int64, count=len(decoded))
        delta = np.fromiter((t[2] for t in decoded), dtype=np.int64, count=len(decoded))
        return cls(u, v, delta)

    # -- sequence protocol (scalar-consumer compatibility) ---------------

    def __len__(self) -> int:
        return len(self.u)

    def __iter__(self) -> Iterator[DecodedTuple]:
        return iter(self.tuples())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EdgeBatch(self.u[index], self.v[index], self.delta[index])
        return self.tuples()[index]

    def __repr__(self) -> str:
        return f"EdgeBatch(length={len(self.u)})"

    # -- columnar accessors ----------------------------------------------

    @property
    def lo(self) -> np.ndarray:
        """Normalized smaller endpoint per element."""
        if self._lo is None:
            self._lo = np.minimum(self.u, self.v)
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        """Normalized larger endpoint per element."""
        if self._hi is None:
            self._hi = np.maximum(self.u, self.v)
        return self._hi

    def tuples(self) -> List[DecodedTuple]:
        """The decoded ``(u, v, delta, edge)`` tuple list (cached).

        All values are plain Python ints (via ``tolist``), so tuples
        compare, hash, and pickle exactly like the historical decode.
        """
        if self._tuples is None:
            self._tuples = list(
                zip(self.u.tolist(), self.v.tolist(), self.delta.tolist(), self.edge_list())
            )
        return self._tuples

    def edge_list(self) -> List[Edge]:
        """The normalized ``(lo, hi)`` edge-tuple list (cached)."""
        if self._edge_list is None:
            self._edge_list = list(zip(self.lo.tolist(), self.hi.tolist()))
        return self._edge_list

    def edges_view(self) -> _EdgeView:
        """Lazy indexable view over :meth:`edge_list` (no materialization)."""
        return _EdgeView(self)

    @property
    def nbytes(self) -> int:
        """Bytes of the defining columns (what the cache budgets meter).

        Lazily materialized views (tuples, edge lists, events) are
        extra and are released together with the batch object — the
        cache policies evict whole batches, so bounding the column
        bytes bounds the views too.
        """
        return self.u.nbytes + self.v.nbytes + self.delta.nbytes

    def edge_ids(self, n: int) -> np.ndarray:
        """Dense triangular edge ids in ``[0, n(n-1)/2)``, cached per *n*.

        The vectorized form of :func:`edge_id`:
        ``a(2n - a - 1)/2 + (b - a - 1)`` for the normalized pair
        ``a < b``, computed in ``uint64`` so the intermediate product
        stays exact up to ``n = 2^32`` (an ``int64`` product silently
        wraps past ``n ≈ 3.0e9``); the ids themselves fit ``int64``
        for every such ``n``.  Larger universes have no exact dense
        encoding and raise — compact the vertex ids first.
        """
        if self._edge_ids is None or self._edge_ids_n != n:
            if n > EDGE_ID_MAX_N:
                raise StreamError(
                    f"dense edge ids overflow for n={n} (> 2^32); "
                    "compact/relabel vertex ids first (see repro.streams.datasets)"
                )
            a = self.lo.astype(np.uint64)
            b = self.hi.astype(np.uint64)
            two_n = np.uint64(2 * n)
            one = np.uint64(1)
            ids = a * (two_n - a - one) // np.uint64(2) + (b - a - one)
            self._edge_ids = ids.astype(np.int64)
            self._edge_ids_n = n
        return self._edge_ids

    def events(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interleaved endpoint events ``(endpoint, other, element_index)``.

        Element i expands to two events in stream order — ``(u_i, v_i)``
        then ``(v_i, u_i)`` — which is exactly the order the scalar
        per-element trackers (degree counters, arrival watchers,
        neighbor reservoirs) visit endpoints.  Cached.
        """
        if self._events is None:
            length = len(self.u)
            endpoint = np.empty(2 * length, dtype=np.int64)
            endpoint[0::2] = self.u
            endpoint[1::2] = self.v
            other = np.empty(2 * length, dtype=np.int64)
            other[0::2] = self.v
            other[1::2] = self.u
            index = np.repeat(np.arange(length, dtype=np.int64), 2)
            self._events = (endpoint, other, index)
        return self._events

    # -- pickling (process-backend broadcast) ------------------------------

    def __reduce__(self):
        # Ship only the defining columns (flat buffers); caches are
        # per-process and rebuilt on demand.
        return (EdgeBatch, (self.u, self.v, self.delta))


# -- packed column transport (shared-memory broadcast) -------------------
#
# The parallel driver publishes a batch once by packing its columns
# into a flat int64 buffer of a fixed per-slot capacity; workers
# rebuild the batch from a view of the same buffer.  The layout is
# plain column concatenation at capacity-sized strides:
#
#     [ u[0:cap] | v[0:cap] | delta[0:cap] ]
#
# so a slot holds exactly ``capacity * PACKED_ELEMENT_BYTES`` bytes and
# a shorter batch simply leaves each column's tail unused.


def pack_columns(batch: "EdgeBatch", view: np.ndarray, capacity: int) -> int:
    """Write *batch*'s columns into the flat ``int64`` *view*; returns length.

    *view* must hold at least ``3 * capacity`` int64 slots.  Only the
    first ``len(batch)`` entries of each column stride are written —
    the reader passes the length alongside the buffer reference.
    """
    length = len(batch)
    if length > capacity:
        raise StreamError(
            f"batch of {length} elements exceeds the packed slot capacity "
            f"{capacity}"
        )
    view[0:length] = batch.u
    view[capacity:capacity + length] = batch.v
    view[2 * capacity:2 * capacity + length] = batch.delta
    return length


def unpack_columns(
    view: np.ndarray, capacity: int, length: int, copy: bool = True
) -> "EdgeBatch":
    """Rebuild an :class:`EdgeBatch` from a buffer written by :func:`pack_columns`.

    With ``copy=True`` (the default, and what the shared-memory workers
    use) the columns are copied out of *view*, so the batch stays valid
    after the underlying slot is reused or unmapped.  ``copy=False``
    constructs zero-copy column views — only safe while the buffer is
    guaranteed to stay alive and unmodified.
    """
    u = view[0:length]
    v = view[capacity:capacity + length]
    delta = view[2 * capacity:2 * capacity + length]
    if copy:
        u, v, delta = u.copy(), v.copy(), delta.copy()
    return EdgeBatch(u, v, delta)
