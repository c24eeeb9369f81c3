"""The one pass scheduler under every engine driver.

The paper's Theorem 9/11 transformation is one loop: each query round
becomes one stream pass, repeated until no sampler wants another round.
:func:`run_passes` is that loop — the ``max_passes`` guard, the
``pass_batches`` iteration over one or more sources, the element and
dispatch accounting, and the :class:`~repro.engine.core.EngineReport`
— and :class:`~repro.engine.core.StreamEngine`,
:func:`~repro.engine.parallel.run_parallel_engine`,
:class:`~repro.engine.sharded.ShardedRunner` and the estimate forks of
:class:`~repro.engine.live.LiveEngine` are thin callers of it.

Where the estimators run is a *transport*'s business.  A transport has
``open()`` / ``close(graceful)``, ``poll()`` (names of the estimators
wanting another pass), ``begin(index)`` (returns the receivers per
batch), ``ingest(source, batch)``, ``end()`` (returns the seconds spent
in a merge barrier), ``collect()`` (``(results, lost names)``), and
``feeders`` / ``workers`` counts.  Three exist:

* :class:`InlineTransport` calls estimator objects in this process (the
  serial backend).  With one replica set per source it is also the
  in-process scatter/merge transport: replicas merge directly into set
  0 before each pass closes, and ``feeders`` threads read the sources.
* :class:`PoolTransport` publishes each batch to a thread or process
  worker pool (:mod:`repro.engine.parallel`).
* :class:`ScatterPoolTransport` is scatter/merge across processes:
  replicas cannot share state, so they merge through ``state_dict``
  round trips.

A new backend is a new transport.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.core import EngineBackend, EngineReport, apply_cache_policy
from repro.engine.parallel import (
    DEFAULT_REPLY_TIMEOUT,
    StreamHandle,
    make_worker_pool,
    resolve_workers,
    shard_indices,
)
from repro.errors import EngineError
from repro.streams.stream import pass_batches

__all__ = [
    "InlineTransport",
    "PoolTransport",
    "ScatterPoolTransport",
    "make_transport",
    "run_passes",
]


def run_passes(
    transport,
    sources: Sequence,
    batch_size: int,
    max_passes: int = 0,
    cache=None,
    reset_pass_count: bool = False,
) -> EngineReport:
    """Drive *transport* until no estimator wants another pass.

    Every pass reads each of *sources* once, in *batch_size* batches,
    and hands each batch to the transport tagged with its source index.
    *cache* and *reset_pass_count* are applied to every source first.
    The transport is opened here and always closed — gracefully only
    if the run completed.
    """
    for source in sources:
        apply_cache_policy(source, cache)
        if reset_pass_count:
            source.reset_pass_count()

    def feed(source: int) -> Tuple[int, int]:
        fed = batches = 0
        for batch in pass_batches(sources[source], batch_size):
            fed += len(batch)
            batches += 1
            transport.ingest(source, batch)
        return fed, batches

    passes = elements = dispatches = 0
    merge_seconds = 0.0
    graceful = False
    try:
        transport.open()
        while True:
            wanting = transport.poll()
            if not wanting:
                break
            if max_passes and passes >= max_passes:
                raise EngineError(
                    f"estimators still want passes after max_passes="
                    f"{max_passes}: {', '.join(wanting)}"
                )
            fanout = transport.begin(passes)
            for fed, batches in _feed_sources(feed, len(sources), transport.feeders):
                elements += fed
                dispatches += batches * fanout
            merge_seconds += transport.end()
            passes += 1
        results, lost = transport.collect()
        graceful = True
    finally:
        transport.close(graceful)
    return EngineReport(
        results=results,
        passes=passes,
        elements=elements,
        dispatches=dispatches,
        batch_size=batch_size,
        workers=transport.workers,
        degraded=bool(lost),
        lost=tuple(lost),
        merge_seconds=merge_seconds,
    )


def _feed_sources(
    feed: Callable[[int], Tuple[int, int]], count: int, feeders: int
) -> List[Tuple[int, int]]:
    """Run ``feed(source)`` for every source; returns the counts in order.

    With several feeders, thread *t* reads sources t, t+T, ...: each
    source's replicas are touched by exactly one thread, so no
    estimator state is shared, and the merge barrier runs in the caller
    after every feeder joined.  The first feeder error re-raises.
    """
    if feeders <= 1 or count <= 1:
        return [feed(source) for source in range(count)]
    counts: List[Tuple[int, int]] = [(0, 0)] * count
    errors: List[BaseException] = []

    def run(first: int) -> None:
        try:
            for source in range(first, count, feeders):
                counts[source] = feed(source)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(
            target=run, args=(index,), name=f"shard-feeder-{index}", daemon=True
        )
        for index in range(min(feeders, count))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return counts


class InlineTransport:
    """Estimators called directly in this process, one set per source.

    ``InlineTransport(estimators)`` is the serial backend.  Several
    replica sets make it the in-process scatter/merge transport (see
    the module docstring); ``feeders`` threads then read the sources
    concurrently.  Set 0 holds the primaries the results come from.
    """

    #: In-process estimators cannot be lost.
    loss_handler = None

    def __init__(self, *replicas: Sequence[Any], feeders: int = 1) -> None:
        self.replicas = [list(replica_set) for replica_set in replicas]
        self.estimators = self.replicas[0]
        self.feeders = feeders
        self.workers = feeders
        #: Per source, the estimators receiving the current pass.
        self.fed: List[List[Any]] = [[] for _ in self.replicas]

    def open(self) -> None:
        """Nothing to acquire: the estimators already exist."""

    def close(self, graceful: bool) -> None:
        """Nothing to release."""

    def poll(self) -> List[str]:
        slots = [i for i, estimator in enumerate(self.estimators) if estimator.wants_pass()]
        self.fed = [[replica_set[i] for i in slots] for replica_set in self.replicas]
        return [estimator.name for estimator in self.fed[0]]

    def begin(self, index: int) -> int:
        for active in self.fed:
            for estimator in active:
                estimator.begin_pass(index)
        return len(self.fed[0])

    def ingest(self, source: int, batch) -> None:
        for estimator in self.fed[source]:
            estimator.ingest_batch(batch)

    def end(self) -> float:
        start = time.perf_counter()
        primaries, *others = self.fed
        for slot, primary in enumerate(primaries):
            for active in others:
                primary.merge(active[slot])
            answers = primary.end_pass()
            for active in others:
                active[slot].end_pass_adopting(answers)
        return time.perf_counter() - start if others else 0.0

    def collect(self) -> Tuple[Dict[str, Any], tuple]:
        return {e.name: e.result() for e in self.estimators}, ()

    # -- the live engine's checkpoint surface ----------------------------

    def states(self, names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """``state_dict`` of the named estimators (all by default)."""
        wanted = None if names is None else set(names)
        return {
            e.name: e.state_dict()
            for e in self.estimators
            if wanted is None or e.name in wanted
        }

    def load(self, states: Dict[str, Any]) -> None:
        """Restore every estimator; those with an open pass keep ingesting."""
        for estimator in self.estimators:
            estimator.load_state_dict(states[estimator.name])
        self.poll()


class PoolTransport:
    """Estimator specs sharded across a thread or process worker pool.

    ``active`` holds the ids of the workers receiving the current pass;
    the live engine's loss handler edits it when it respawns a worker.
    Under a ``loss_handler`` a lost worker's estimators drop out of the
    results and are reported as lost.
    """

    feeders = 1

    def __init__(
        self,
        backend: str,
        shards: Sequence[Sequence[Any]],
        handle: StreamHandle,
        timeout: float = DEFAULT_REPLY_TIMEOUT,
        **pool_options,
    ) -> None:
        self.shards = [list(shard) for shard in shards]
        self.workers = len(self.shards)
        self.handle = handle
        self.loss_handler: Optional[Callable[[List[int]], None]] = None
        self.pool: Any = None
        self.active: List[int] = []
        self._wants: Dict[int, List[str]] = {}
        #: :func:`~repro.engine.parallel.make_worker_pool` arguments.
        self._pool_args = dict(
            backend=backend, shards=self.shards, handle=handle, timeout=timeout,
            **pool_options,
        )

    def open(self) -> None:
        self.pool = make_worker_pool(**self._pool_args)
        self.pool.loss_handler = self.loss_handler
        self._wants = self.pool.gather("ready", range(self.workers))

    def close(self, graceful: bool) -> None:
        if self.pool is not None:
            self.pool.shutdown(graceful)

    def poll(self) -> List[str]:
        self.active = [w for w in self.pool.live_ids() if self._wants.get(w)]
        return [name for w in self.active for name in self._wants[w]]

    def begin(self, index: int) -> int:
        self.pool.broadcast(self.active, ("begin_pass", index))
        return len(self.active)

    def ingest(self, source: int, batch) -> None:
        self.pool.publish_batch(self.active, batch)

    def end(self) -> float:
        self.pool.broadcast(self.active, ("end_pass",))
        self._wants.update(self.pool.gather("pass_done", self.active))
        return 0.0

    def lost(self) -> List[str]:
        """Estimators whose every hosting worker was written off."""
        pool = self.pool
        alive = {spec.name for w in pool.live_ids() for spec in pool.shards[w]}
        return sorted(
            {spec.name for w in pool.discarded for spec in pool.shards[w]} - alive
        )

    def collect(self) -> Tuple[Dict[str, Any], tuple]:
        live = self.pool.live_ids()
        if not live:
            raise EngineError(
                f"all {self.workers} workers were lost "
                f"(worker ids {sorted(self.pool.discarded)}); no estimates survive"
            )
        self.pool.broadcast(live, ("collect",))
        results: Dict[str, Any] = {}
        for payload in self.pool.gather("results", live).values():
            results.update(payload)
        lost = self.lost()
        surviving = [
            spec.name for shard in self.shards for spec in shard if spec.name not in lost
        ]
        missing = [name for name in surviving if name not in results]
        if missing:
            raise EngineError(f"workers returned no result for {missing}")
        return {name: results[name] for name in surviving}, tuple(lost)

    # -- the live engine's checkpoint surface ----------------------------

    def states(self, names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """``state_dict`` of the named estimators (all by default).

        Workers answer per shard, so a subset query still touches every
        worker.  A worker lost mid-gather triggers recovery, which may
        leave the round partial (a freshly respawned worker never saw
        this round's ``state_dict`` broadcast) — so the gather re-asks
        the surviving pool until every needed state is in hand, bounded
        to a handful of rounds (each round can only be disrupted by
        another loss, and losses are budgeted).
        """
        wanted = None if names is None else set(names)
        needed = {
            spec.name
            for shard in self.shards
            for spec in shard
            if wanted is None or spec.name in wanted
        }
        states: Dict[str, Any] = {}
        for _ in range(4):
            # Estimators lost so far drop out of the ask; an empty ask
            # is a clean exit (the caller decides whether a partial
            # gather is a refusal).
            needed -= set(self.lost())
            if needed <= set(states):
                break
            live = self.pool.live_ids()
            self.pool.broadcast(live, ("state_dict",))
            for payload in self.pool.gather("state", live).values():
                states.update(payload)
        else:
            raise EngineError(
                f"could not gather estimator state for "
                f"{sorted(needed - set(states))} after repeated worker "
                "losses"
            )
        return {
            name: state
            for name, state in states.items()
            if wanted is None or name in wanted
        }

    def load(self, states: Dict[str, Any]) -> None:
        """Restore every shard mid-pass: loaded open passes keep ingesting."""
        for worker_id, shard in enumerate(self.shards):
            payload = {spec.name: states[spec.name] for spec in shard}
            self.pool.send(worker_id, ("load_state", payload))
        self._wants = self.pool.gather("loaded", self.pool.live_ids())
        self.poll()


class ScatterPoolTransport(PoolTransport):
    """Scatter/merge across processes: one pool worker per source.

    Every worker hosts a replica of every spec and ingests its own
    source.  The driver keeps a primary replica set that never ingests
    a batch: each pass it opens the pass (consuming the same oracle
    randomness as the workers' replicas), pulls every worker's mid-pass
    ``state_dict``, rehydrates it into a scratch replica and merges it
    in, ends the pass, and broadcasts the global answers back
    (``adopt_answers``).  A lost worker aborts the run — a dead
    source's updates exist nowhere else, so there is no degrading.
    """

    def __init__(self, specs: Sequence[Any], handle: StreamHandle, sources: int, **options) -> None:
        super().__init__(EngineBackend.PROCESS, [specs] * sources, handle, **options)
        self.specs = {spec.name: spec for spec in specs}
        self.primaries = InlineTransport([spec.build(handle) for spec in specs])

    def poll(self) -> List[str]:
        return self.primaries.poll()

    def begin(self, index: int) -> int:
        live = self.pool.live_ids()
        if len(live) != self.workers:
            lost = sorted(set(range(self.workers)) - set(live))
            raise EngineError(
                f"shard workers {lost} were lost; a sharded run cannot "
                "degrade (their updates exist nowhere else)"
            )
        self.pool.broadcast(live, ("begin_pass", index))
        return self.primaries.begin(index)

    def ingest(self, source: int, batch) -> None:
        self.pool.publish_batch([source], batch)

    def end(self) -> float:
        start = time.perf_counter()
        live = self.pool.live_ids()
        self.pool.broadcast(live, ("state_dict",))
        states = self.pool.gather("state", live)
        answers: Dict[str, list] = {}
        for primary in self.primaries.fed[0]:
            for worker_id in sorted(states):
                scratch = self.specs[primary.name].build(self.handle)
                scratch.load_state_dict(states[worker_id][primary.name])
                primary.merge(scratch)
            answers[primary.name] = primary.end_pass()
        self.pool.broadcast(live, ("adopt_answers", answers))
        self.pool.gather("pass_done", live)
        return time.perf_counter() - start

    def collect(self) -> Tuple[Dict[str, Any], tuple]:
        return self.primaries.collect()


def make_transport(
    backend: str,
    specs: Sequence[Any],
    stream,
    workers: Optional[int] = None,
    on_worker_loss: str = "abort",
    **pool_options,
):
    """The transport for *backend* over *specs*, built against *stream*.

    Serial builds every estimator here against the real stream (the
    live engine passes its journal, whose metadata tracks the feed).
    The pool backends shard the specs contiguously over
    ``resolve_workers(workers, len(specs))`` workers, which build
    against a :class:`~repro.engine.parallel.StreamHandle`; under
    ``on_worker_loss="degrade"`` a lost worker is written off and the
    run finishes on the survivors.  *pool_options* go to
    :func:`~repro.engine.parallel.make_worker_pool`.
    """
    if backend == EngineBackend.SERIAL:
        return InlineTransport([spec.build(stream) for spec in specs])
    size = resolve_workers(workers, len(specs))
    shards = [[specs[i] for i in indices] for indices in shard_indices(len(specs), size)]
    transport = PoolTransport(backend, shards, StreamHandle.of(stream), **pool_options)
    if on_worker_loss == "degrade":
        transport.loss_handler = lambda lost: transport.pool.discard(lost)
    return transport
