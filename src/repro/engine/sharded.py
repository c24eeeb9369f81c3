"""Scatter/merge execution: one stream, split across shard engines.

The parallel backends in :mod:`repro.engine.parallel` replicate K
estimator copies over a *single* stream — every byte still funnels
through one reader.  This module splits the **stream** instead: each
shard (a hash-partition of the update sequence, see
:func:`repro.streams.datasets.write_stream_shards`) is fed to an
independent replica of every registered estimator, and at the end of
every pass the replicas' states are merged — *before* the pass closes —
through the ``merge()`` protocol that runs from
:class:`~repro.engine.estimators.RoundAdaptiveEstimator` down to the
one-sparse sketch aggregates.

Why this is exact (the merge laws)
----------------------------------
Turnstile pass state is **linear**: signed counters and GF(2^61-1)
sketch aggregates are sums over the updates, computed in exact integer
/ modular arithmetic, and ingestion draws **no randomness**.  Replicas
built from the same spec (same seeds) therefore carry identical frozen
randomness (hash coefficients, fingerprint bases), and adding their
aggregates is associative, commutative, and bit-identical to one
estimator ingesting the whole stream — whatever the shard count or cut
points.  After the merge, the *global* round answers are broadcast back
so every replica dispatches the same answers to its generators and all
replicas consume identical randomness next round
(:meth:`~repro.engine.estimators.RoundAdaptiveEstimator.end_pass_adopting`).

Reservoir-backed paths (the insertion-only oracle) have no such law —
their draws depend on the global stream position — and raise a typed
:class:`~repro.errors.MergeError` at the first merge barrier, never a
silently wrong estimate.

Backends
--------
``backend="serial"`` feeds the shards one after another in this
process; ``backend="thread"`` feeds them concurrently from daemon
threads (the numpy kernels release the GIL); ``backend="process"``
reuses the worker pool of :mod:`repro.engine.parallel` — one worker
process per shard, batches published through the shared-memory ring,
mid-pass states gathered with the ``state_dict`` worker command,
merged driver-side, and the global answers broadcast back with
``adopt_answers``.  All three produce bit-identical results for the
same seeds; the process backend additionally pays a per-pass replica
rebuild (O(shards x trials) generator construction) to move sketch
state across the process boundary.

Memory stays bounded by the shard batch caches: apply a
``cache="lru:..."`` policy and the peak decoded bytes are metered per
shard (``peak_resident_bytes`` via :mod:`repro.streams.cache`), so a
disk graph far larger than RAM counts in one pass per round.

Quick tour::

    from repro.engine.sharded import count_subgraphs_turnstile_sharded
    from repro.streams.datasets import open_stream_shards

    shards = open_stream_shards("graph.reb", 4)     # graph.shard-*.reb
    fused = count_subgraphs_turnstile_sharded(
        shards, patterns.triangle(), copies=8, trials=64, rng=7)
    # bit-identical to count_subgraphs_turnstile_fused(stream, ...,
    # mode="mirror") over the unsharded stream, any shard count.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.core import (
    DEFAULT_BATCH_SIZE,
    EngineBackend,
    EngineReport,
    apply_cache_policy,
)
from repro.engine.estimators import fgp_turnstile_estimator
from repro.engine.fused import FusedCountResult, FusionMode, _check_fused_args
from repro.engine.parallel import (
    DEFAULT_REPLY_TIMEOUT,
    EstimatorSpec,
    StreamHandle,
    make_worker_pool,
    resolve_workers,
)
from repro.errors import EngineError, StreamError
from repro.estimate.concentration import ParamMode
from repro.patterns.pattern import Pattern
from repro.streaming.three_pass import resolve_trials
from repro.streams.stream import check_batch_size, pass_batches
from repro.utils.rng import RandomSource, derive_seed, ensure_rng

__all__ = [
    "ShardedRunner",
    "sharded_stream_handle",
    "count_subgraphs_turnstile_sharded",
]


def sharded_stream_handle(shards: Sequence) -> StreamHandle:
    """The union :class:`StreamHandle` describing a set of shard streams.

    Estimator replicas must be built against the **global** stream
    metadata — trial resolution and the FGP finalizer read
    ``net_edge_count`` (the estimate scales with m^rho), and the
    oracles read ``n`` — never against a single shard's, which would
    skew every estimate by roughly ``shards^rho``.  The handle carries
    the union: shared ``n``, summed ``length`` and ``net_edge_count``,
    ``allows_deletions`` if any shard deletes.  Shards disagreeing on
    ``n`` were not cut from the same stream and are rejected.
    """
    if not shards:
        raise EngineError("sharded run needs at least one shard stream")
    n = shards[0].n
    for index, shard in enumerate(shards):
        if shard.n != n:
            raise EngineError(
                f"shard {index} has n={shard.n} but shard 0 has n={n}; "
                "shards must be partitions of one stream"
            )
    return StreamHandle(
        n=n,
        length=sum(shard.length for shard in shards),
        net_edge_count=sum(shard.net_edge_count for shard in shards),
        allows_deletions=any(shard.allows_deletions for shard in shards),
    )


class ShardedRunner:
    """Drive estimator specs over stream shards, merging every pass.

    Registration is spec-based only (:class:`EstimatorSpec`): each
    shard needs its own *replica* of every estimator, and replicas are
    only mergeable when rebuilt from identical seeds — so specs must
    pin seed integers, not live generators (enforced at registration).

    Per pass: every replica opens the pass, shard ``r``'s batches feed
    replica set ``r``, then — before the pass closes — replicas
    1..R-1 merge into replica 0, replica 0 ends the pass normally, and
    the resulting *global* answers are adopted by the other replicas.
    The final results are read off replica set 0, which at that point
    is bit-identical to an unsharded run.
    """

    def __init__(
        self,
        shards: Sequence,
        batch_size: int = DEFAULT_BATCH_SIZE,
        backend: str = EngineBackend.SERIAL,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        cache=None,
        max_passes: int = 0,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        reset_pass_count: bool = True,
    ) -> None:
        if backend not in EngineBackend._ALL:
            raise EngineError(
                f"unknown backend {backend!r}; expected one of {EngineBackend._ALL}"
            )
        if max_passes < 0:
            raise EngineError(f"max_passes must be >= 0, got {max_passes}")
        try:
            batch_size = check_batch_size(batch_size)
        except StreamError as error:
            raise EngineError(str(error)) from error
        self._shards = list(shards)
        self._handle = sharded_stream_handle(self._shards)
        self._batch_size = batch_size
        self._backend = backend
        self._workers = workers
        self._start_method = start_method
        self._cache = cache
        self._max_passes = max_passes
        self._reply_timeout = reply_timeout
        self._reset_pass_count = reset_pass_count
        self._specs: List[EstimatorSpec] = []

    @property
    def handle(self) -> StreamHandle:
        """The union metadata replicas are built against."""
        return self._handle

    def register(self, spec: EstimatorSpec) -> None:
        """Register one estimator spec (a replica is built per shard)."""
        if any(existing.name == spec.name for existing in self._specs):
            raise EngineError(f"estimator {spec.name!r} is already registered")
        for key, value in spec.kwargs.items():
            if isinstance(value, random.Random):
                raise EngineError(
                    f"spec {spec.name!r} carries a live random.Random in "
                    f"kwargs[{key!r}]; shard replicas built from a shared "
                    "generator would diverge — pin an integer seed instead"
                )
        self._specs.append(spec)

    def register_many(self, specs: Sequence[EstimatorSpec]) -> None:
        for spec in specs:
            self.register(spec)

    def run(self) -> EngineReport:
        """Drive all specs to completion; results come from replica 0."""
        if not self._specs:
            raise EngineError("no estimator specs registered")
        for shard in self._shards:
            apply_cache_policy(shard, self._cache)
            if self._reset_pass_count:
                shard.reset_pass_count()
        if self._backend == EngineBackend.PROCESS:
            return self._run_pooled()
        return self._run_local()

    # -- serial / thread: replicas live in this process ------------------

    def _feed_shard(self, shard_index: int, estimators: Sequence) -> List[int]:
        """One shard's pass: feed every batch to the shard's replicas."""
        elements = 0
        batches = 0
        for batch in pass_batches(self._shards[shard_index], self._batch_size):
            elements += len(batch)
            batches += 1
            for estimator in estimators:
                estimator.ingest_batch(batch)
        return [elements, batches]

    def _run_local(self) -> EngineReport:
        count = len(self._shards)
        replicas = [
            [spec.build(self._handle) for spec in self._specs] for _ in range(count)
        ]
        primaries = replicas[0]
        threads = (
            resolve_workers(self._workers, count)
            if self._backend == EngineBackend.THREAD
            else 1
        )
        passes = 0
        elements = 0
        dispatches = 0
        merge_seconds = 0.0
        while True:
            active = [
                index
                for index, estimator in enumerate(primaries)
                if estimator.wants_pass()
            ]
            if not active:
                break
            if self._max_passes and passes >= self._max_passes:
                names = [self._specs[index].name for index in active]
                raise EngineError(
                    f"estimators still want passes after max_passes="
                    f"{self._max_passes}: {names}"
                )
            for shard_replicas in replicas:
                for index in active:
                    shard_replicas[index].begin_pass(passes)
            actives = [
                [shard_replicas[index] for index in active]
                for shard_replicas in replicas
            ]
            if self._backend == EngineBackend.THREAD and count > 1:
                counts = self._feed_threaded(actives, threads)
            else:
                counts = [
                    self._feed_shard(shard, actives[shard]) for shard in range(count)
                ]
            for fed, batches in counts:
                elements += fed
                dispatches += batches * len(active)
            merge_start = time.perf_counter()
            for index in active:
                primary = primaries[index]
                for shard_replicas in replicas[1:]:
                    primary.merge(shard_replicas[index])
                answers = primary.end_pass()
                for shard_replicas in replicas[1:]:
                    shard_replicas[index].end_pass_adopting(answers)
            merge_seconds += time.perf_counter() - merge_start
            passes += 1
        results = {
            spec.name: primaries[index].result()
            for index, spec in enumerate(self._specs)
        }
        return EngineReport(
            results=results,
            passes=passes,
            elements=elements,
            dispatches=dispatches,
            batch_size=self._batch_size,
            workers=threads if self._backend == EngineBackend.THREAD else 1,
            merge_seconds=merge_seconds,
        )

    def _feed_threaded(self, actives: Sequence[Sequence], threads: int) -> List[List[int]]:
        """Feed all shards concurrently: thread t owns shards t, t+T, ...

        Each shard's replicas are touched by exactly one thread, so no
        estimator state is shared; the merge barrier runs in the caller
        after every feeder joined.  The first feeder error re-raises.
        """
        count = len(self._shards)
        counts: List[List[int]] = [[0, 0] for _ in range(count)]
        errors: List[BaseException] = []
        lock = threading.Lock()

        def feed(thread_index: int) -> None:
            try:
                for shard in range(thread_index, count, threads):
                    counts[shard] = self._feed_shard(shard, actives[shard])
            except BaseException as error:  # noqa: BLE001 - re-raised below
                with lock:
                    errors.append(error)

        feeders = [
            threading.Thread(
                target=feed, args=(index,), name=f"shard-feeder-{index}", daemon=True
            )
            for index in range(min(threads, count))
        ]
        for feeder in feeders:
            feeder.start()
        for feeder in feeders:
            feeder.join()
        if errors:
            raise errors[0]
        return counts

    # -- process: shard replicas live in pool workers --------------------

    def _run_pooled(self) -> EngineReport:
        """One pool worker per shard, merge through state round-trips.

        The driver keeps its own primary replica set that never ingests
        a batch: each pass it opens the pass (consuming the same oracle
        randomness as the workers' replicas), pulls every worker's
        mid-pass ``state_dict``, rehydrates it into a scratch replica
        and merges it in, ends the pass, and broadcasts the global
        answers back (``adopt_answers``).  A lost worker aborts the
        run — unlike copy-parallelism there is no degrading: a dead
        shard's updates are simply missing from every estimate.
        """
        count = len(self._shards)
        pool = make_worker_pool(
            EngineBackend.PROCESS,
            [list(self._specs) for _ in range(count)],
            self._handle,
            self._reply_timeout,
            start_method=self._start_method,
            batch_capacity=self._batch_size,
        )
        primaries = [spec.build(self._handle) for spec in self._specs]
        passes = 0
        elements = 0
        dispatches = 0
        merge_seconds = 0.0
        graceful = False
        try:
            pool.gather("ready", range(count))
            while True:
                active = [
                    index
                    for index, estimator in enumerate(primaries)
                    if estimator.wants_pass()
                ]
                if not active:
                    break
                if self._max_passes and passes >= self._max_passes:
                    names = [self._specs[index].name for index in active]
                    raise EngineError(
                        f"estimators still want passes after max_passes="
                        f"{self._max_passes}: {names}"
                    )
                live = pool.live_ids()
                if len(live) != count:
                    lost = sorted(set(range(count)) - set(live))
                    raise EngineError(
                        f"shard workers {lost} were lost; a sharded run cannot "
                        "degrade (their updates exist nowhere else)"
                    )
                pool.broadcast(live, ("begin_pass", passes))
                for index in active:
                    primaries[index].begin_pass(passes)
                for shard in range(count):
                    for batch in pass_batches(self._shards[shard], self._batch_size):
                        elements += len(batch)
                        dispatches += len(active)
                        pool.publish_batch([shard], batch)
                merge_start = time.perf_counter()
                pool.broadcast(live, ("state_dict",))
                states = pool.gather("state", live)
                answers: Dict[str, list] = {}
                for index in active:
                    spec = self._specs[index]
                    primary = primaries[index]
                    for shard in sorted(states):
                        scratch = spec.build(self._handle)
                        scratch.load_state_dict(states[shard][spec.name])
                        primary.merge(scratch)
                    answers[spec.name] = primary.end_pass()
                pool.broadcast(live, ("adopt_answers", answers))
                pool.gather("pass_done", live)
                merge_seconds += time.perf_counter() - merge_start
                passes += 1
            graceful = True
        finally:
            pool.shutdown(graceful)
        results = {
            spec.name: primaries[index].result()
            for index, spec in enumerate(self._specs)
        }
        return EngineReport(
            results=results,
            passes=passes,
            elements=elements,
            dispatches=dispatches,
            batch_size=self._batch_size,
            workers=count,
            merge_seconds=merge_seconds,
        )


def count_subgraphs_turnstile_sharded(
    shards: Sequence,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
    max_passes: int = 0,
) -> FusedCountResult:
    """Median of K Theorem-1 copies over hash-partitioned stream shards.

    The partitioned counterpart of
    :func:`~repro.engine.fused.count_subgraphs_turnstile_fused` with
    ``mode="mirror"``: trial resolution and the per-copy seeds are
    derived identically (``derive_seed(master, "copy-i")`` after one
    ``resolve_trials`` against the *union* metadata), so for the same
    ``rng`` the result is **bit-identical** to the unsharded mirror run
    — for any shard count, cut points, or backend.  Only turnstile
    estimators run here; insertion-only paths raise
    :class:`~repro.errors.MergeError` at the first merge barrier.
    """
    _check_fused_args(copies, FusionMode.MIRROR, copy_rngs, backend)
    handle = sharded_stream_handle(shards)
    master = ensure_rng(rng)
    k = resolve_trials(handle, pattern, epsilon, lower_bound, trials, param_mode)
    if copy_rngs is None:
        copy_rngs = [derive_seed(master, f"copy-{index}") for index in range(copies)]
    runner = ShardedRunner(
        shards,
        batch_size=batch_size,
        backend=backend,
        workers=workers,
        start_method=start_method,
        cache=cache,
        max_passes=max_passes,
    )
    names = [f"copy-{index}" for index in range(copies)]
    for index, name in enumerate(names):
        runner.register(
            EstimatorSpec(
                name=name,
                factory=fgp_turnstile_estimator,
                kwargs=dict(
                    pattern=pattern,
                    trials=k,
                    rng=copy_rngs[index],
                    sampler_repetitions=sampler_repetitions,
                    name=name,
                ),
            )
        )
    report = runner.run()
    copy_results = [report.results[name] for name in names]
    median = statistics.median(result.estimate for result in copy_results)
    return FusedCountResult(
        algorithm="fgp-3pass-turnstile",
        pattern=pattern.name,
        estimate=median,
        copies=copy_results,
        passes=report.passes,
        mode=FusionMode.MIRROR,
        backend=backend,
        m=handle.net_edge_count,
        details={
            "trials_per_copy": float(k),
            "elements": float(report.elements),
            "batch_size": float(report.batch_size),
            "workers": float(report.workers),
            "shards": float(len(shards)),
            "merge_seconds": float(report.merge_seconds),
        },
    )
