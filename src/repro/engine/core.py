"""The fused multi-estimator stream engine.

The paper amplifies success probability by running many independent
estimator copies and aggregating (medians of Theorem 1/17 runs,
Algorithm 2's outer repetitions).  Driving each copy separately costs
O(copies × m) stream traffic; the engine restores the theorems'
O(m)-per-pass cost model by iterating each stream pass **once** and
dispatching the decoded updates, in configurable batches, to every
registered estimator.

An estimator is anything implementing the pass-callback protocol:

* ``name``                — unique registration key;
* ``wants_pass()``        — whether it needs another pass;
* ``begin_pass(i)``       — a fused pass is starting;
* ``ingest_batch(batch)`` — a chunk of decoded ``(u, v, delta, edge)``
  stream elements, in stream order;
* ``end_pass()``          — the pass is over;
* ``result()``            — the finished estimate.

The library's estimators additionally implement ``passes_consumed``
(how many passes they have already been driven through — registration
rejects non-fresh estimators, whose pass accounting would silently go
stale) and the checkpoint protocol ``state_dict()`` /
``load_state_dict()`` (see :mod:`repro.engine.live` and
:mod:`repro.utils.checkpoint`); custom estimators need them only to
run under the live engine.

Estimators with different pass counts co-exist: the engine keeps
iterating while *any* estimator wants a pass, and finished estimators
simply stop receiving batches.  ``EdgeStream.passes_used`` therefore
ends at ``max_i passes(estimator_i)`` — K fused copies of a 3-pass
counter consume exactly 3 passes, not 3K (asserted in
``tests/test_engine_passes.py``).

Decoding is shared across estimators: each pass is read as columnar
:class:`~repro.streams.batch.EdgeBatch` objects (numpy
``u``/``v``/``delta`` columns plus lazily shared decoded views), so
however many estimators consume a fused pass, the per-element decode
runs once.  Whether *later passes* also reuse the decoded batches is
the stream's batch-cache policy's call (:mod:`repro.streams.cache`,
engine knob ``cache=``): ``"all"`` retains everything (the in-memory
default), ``"lru:<bytes>"`` a bounded working set (disk streams
bigger than RAM), ``"none"`` nothing.  Results are identical across
all of these.

The engine runs on one of three execution backends
(:class:`EngineBackend`): ``serial`` dispatches in-process; ``thread``
and ``process`` shard the registered estimator *specs* across a worker
pool while this process keeps the single stream iteration and
publishes the decoded batches — by reference to threads, through a
shared-memory batch ring to processes (:mod:`repro.engine.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import EngineError, StreamError
from repro.streams.stream import (
    DEFAULT_CHUNK_SIZE,
    DecodedUpdate,
    EdgeStream,
    check_batch_size,
    pass_batches,
)

#: What the engine dispatches to estimators: a run of decoded elements,
#: in practice a columnar :class:`~repro.streams.batch.EdgeBatch`
#: (which also iterates as ``(u, v, delta, edge)`` tuples).
DecodedBatch = Sequence[DecodedUpdate]

#: Default updates per dispatched batch — the same knob as the
#: sequential paths' decode granularity (results are invariant to it;
#: it only trades loop overhead against peak decoded-batch memory).
DEFAULT_BATCH_SIZE = DEFAULT_CHUNK_SIZE


def apply_cache_policy(stream, cache) -> None:
    """Apply a batch-cache spec to *stream* if one was requested.

    ``None`` leaves the stream's own policy in place.  Streams without
    a policy surface (:class:`~repro.engine.parallel.StreamHandle`)
    only reject a non-``None`` request.
    """
    if cache is None:
        return
    if not hasattr(stream, "set_cache_policy"):
        raise EngineError(
            f"stream {type(stream).__name__} does not support cache policies"
        )
    stream.set_cache_policy(cache)


@dataclass
class EngineReport:
    """Outcome of one :meth:`StreamEngine.run`.

    ``workers`` is 1 for the serial backend; for the process backend it
    records the pool size, and ``dispatches`` counts batch broadcasts
    (batches × active workers) rather than batches × active estimators.

    ``degraded`` records that the run lost workers under
    ``on_worker_loss="degrade"`` and finished on the survivors:
    ``results`` then holds only the surviving estimators and ``lost``
    names the shards that died with their workers.  Each surviving
    estimate is still bit-identical to a run configured without the
    lost copies.
    """

    results: Dict[str, Any]
    passes: int
    elements: int
    dispatches: int
    batch_size: int
    workers: int = 1
    degraded: bool = False
    lost: tuple = ()
    #: Wall-clock seconds spent inside merge barriers (scatter/merge
    #: runs only — see :mod:`repro.engine.sharded`; 0.0 elsewhere).
    merge_seconds: float = 0.0

    def __getitem__(self, name: str) -> Any:
        return self.results[name]


class EngineBackend:
    """Where the registered estimators execute.

    ``SERIAL``
        All estimators run in this process, inside the engine's own
        dispatch loop — the default, and the only backend that accepts
        live (pre-built) estimator objects.
    ``THREAD``
        Estimators are sharded across a pool of daemon threads running
        the same worker loop as the process backend
        (:mod:`repro.engine.parallel`).  Batches are handed over by
        reference — zero serialization — and the columnar numpy
        kernels release the GIL, so thread workers overlap on real
        work.  Registration goes through specs (uniform with the
        process backend, and what the live engine's checkpoints
        require).
    ``PROCESS``
        Estimators are sharded across a multiprocessing worker pool.
        Registration goes through picklable
        :class:`~repro.engine.parallel.EstimatorSpec` recipes (live
        estimators hold generator frames and cannot cross a process
        boundary); the driver publishes each decoded batch **once**
        through a shared-memory ring and merges the per-shard results.
    """

    SERIAL = "serial"
    THREAD = "thread"
    PROCESS = "process"

    _ALL = (SERIAL, THREAD, PROCESS)


class StreamEngine:
    """Fused single-iteration executor for K independent estimators.

    Parameters
    ----------
    stream:
        The :class:`~repro.streams.stream.EdgeStream` every estimator
        reads.  The engine owns the iteration: one ``stream.updates()``
        call per fused pass, however many estimators are registered.
    batch_size:
        Updates per dispatched chunk.  Results are invariant to the
        batch size (asserted in the equivalence tests); it only trades
        Python loop overhead against peak decoded-batch memory.
    reset_pass_count:
        Whether :meth:`run` zeroes the stream's pass counter first, so
        ``stream.passes_used`` afterwards reads the fused pass count.
    backend:
        :data:`EngineBackend.SERIAL` (default) runs everything in-process;
        :data:`EngineBackend.THREAD` / :data:`EngineBackend.PROCESS`
        shard the registered specs across a worker pool (see
        :class:`EngineBackend` and :mod:`repro.engine.parallel`).
    workers:
        Parallel-backend pool size; ``None`` means one worker per CPU,
        capped at the number of registered specs.  Ignored by the
        serial backend.
    start_method:
        Multiprocessing start method for the process backend (``None``:
        ``fork`` where available, else ``spawn``).
    cache:
        Batch-cache policy applied to the stream before the run — any
        spec of :func:`~repro.streams.cache.resolve_cache_policy`
        (``"all"``, ``"lru"``/``"lru:<bytes>"``, ``"none"``, or a
        policy instance).  ``None`` (default) leaves the stream's own
        policy untouched.  Results are bit-identical across policies;
        only decode work and resident memory change.
    on_worker_loss:
        Parallel backends only: ``"abort"`` (default) raises
        :class:`~repro.errors.WorkerLossError` when a worker dies
        silently or wedges; ``"degrade"`` finishes the run on the
        surviving workers and reports ``degraded=True`` with the lost
        estimator names (see :func:`~repro.engine.parallel.run_parallel_engine`).
    fault_plan:
        A :class:`~repro.faults.FaultPlan` shipped to every parallel
        worker — the deterministic drill harness.  ``None`` (default)
        disables injection.
    """

    def __init__(
        self,
        stream: EdgeStream,
        batch_size: int = DEFAULT_BATCH_SIZE,
        reset_pass_count: bool = True,
        max_passes: int = 0,
        backend: str = EngineBackend.SERIAL,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        cache=None,
        on_worker_loss: str = "abort",
        fault_plan=None,
    ) -> None:
        try:
            batch_size = check_batch_size(batch_size)
        except StreamError as error:
            raise EngineError(str(error)) from error
        if max_passes < 0:
            raise EngineError(f"max_passes must be >= 0, got {max_passes}")
        if backend not in EngineBackend._ALL:
            raise EngineError(
                f"unknown backend {backend!r}; expected one of {EngineBackend._ALL}"
            )
        if on_worker_loss not in ("abort", "degrade"):
            raise EngineError(
                f"on_worker_loss must be 'abort' or 'degrade', "
                f"got {on_worker_loss!r}"
            )
        self._stream = stream
        self._batch_size = batch_size
        self._reset_pass_count = reset_pass_count
        self._max_passes = max_passes
        self._backend = backend
        self._workers = workers
        self._start_method = start_method
        self._cache = cache
        self._on_worker_loss = on_worker_loss
        self._fault_plan = fault_plan
        self._estimators: List[Any] = []
        self._specs: List[Any] = []
        self._names: Dict[str, Any] = {}
        self._ran = False
        self._started = False

    @property
    def stream(self) -> EdgeStream:
        return self._stream

    @property
    def estimators(self) -> List[Any]:
        """The registered estimators, in registration order."""
        return list(self._estimators)

    @property
    def backend(self) -> str:
        """The configured :class:`EngineBackend` value."""
        return self._backend

    def register(self, estimator) -> Any:
        """Add a live *estimator* to the fused run; returns it for chaining.

        Serial backend only: a live estimator (generator frames, open
        oracle state) cannot be shipped to a worker process — register
        a picklable recipe with :meth:`register_spec` instead.
        """
        if self._backend != EngineBackend.SERIAL:
            raise EngineError(
                "live estimators cannot be shipped to a worker pool; use "
                "register_spec() with the thread/process backends"
            )
        name = getattr(estimator, "name", None)
        if not name:
            raise EngineError("estimators must expose a non-empty .name")
        if name in self._names:
            raise EngineError(f"estimator name {name!r} already registered")
        self._check_registration_open()
        consumed = getattr(estimator, "passes_consumed", 0)
        if consumed:
            raise EngineError(
                f"estimator {name!r} has already consumed {consumed} stream "
                "pass(es); registering it would silently corrupt the fused "
                "run's pass accounting — build a fresh estimator instead"
            )
        self._names[name] = estimator
        self._estimators.append(estimator)
        return estimator

    def _check_registration_open(self) -> None:
        """Registration closes the moment a run starts (or finished)."""
        if self._started and not self._ran:
            raise EngineError(
                "cannot register estimators while a run is in progress: the "
                "current pass has already been partially dispatched, so a "
                "late estimator's pass accounting would be silently stale"
            )
        if self._ran:
            raise EngineError("cannot register estimators after run()")

    def register_all(self, estimators) -> List[Any]:
        """Register every estimator of an iterable, in order."""
        return [self.register(estimator) for estimator in estimators]

    def register_spec(self, spec) -> Any:
        """Register an :class:`~repro.engine.parallel.EstimatorSpec`.

        Works with every backend: the serial backend builds the
        estimator immediately against the real stream, the parallel
        backends defer construction to the worker that receives the
        shard.  Returns the spec for chaining.
        """
        if self._backend == EngineBackend.SERIAL:
            self.register(spec.build(self._stream))
            return spec
        if not spec.name:
            raise EngineError("estimator specs must carry a non-empty .name")
        if spec.name in self._names:
            raise EngineError(f"estimator name {spec.name!r} already registered")
        self._check_registration_open()
        self._names[spec.name] = spec
        self._specs.append(spec)
        return spec

    def run(self) -> EngineReport:
        """Drive every registered estimator to completion.

        Serial backend: iterates the stream once per fused pass and
        feeds each decoded batch to every estimator that is still
        consuming passes.  Thread/process backends: delegate the same
        loop to :func:`repro.engine.parallel.run_parallel_engine`,
        publishing each batch to the worker pool.
        """
        if self._started or self._ran:
            raise EngineError("engine already ran; build a new one per run")
        if self._backend != EngineBackend.SERIAL:
            if not self._specs:
                raise EngineError("no estimator specs registered")
            self._started = True
            self._ran = True
            from repro.engine.parallel import run_parallel_engine

            return run_parallel_engine(
                self._stream,
                self._specs,
                backend=self._backend,
                workers=self._workers,
                batch_size=self._batch_size,
                start_method=self._start_method,
                reset_pass_count=self._reset_pass_count,
                max_passes=self._max_passes,
                cache=self._cache,
                on_worker_loss=self._on_worker_loss,
                fault_plan=self._fault_plan,
            )
        if not self._estimators:
            raise EngineError("no estimators registered")
        self._started = True
        apply_cache_policy(self._stream, self._cache)
        if self._reset_pass_count:
            self._stream.reset_pass_count()

        passes = 0
        elements = 0
        dispatches = 0
        while True:
            active = [e for e in self._estimators if e.wants_pass()]
            if not active:
                break
            if self._max_passes and passes >= self._max_passes:
                names = ", ".join(e.name for e in active)
                raise EngineError(
                    f"estimators still want passes after max_passes="
                    f"{self._max_passes}: {names}"
                )
            for estimator in active:
                estimator.begin_pass(passes)
            for batch in pass_batches(self._stream, self._batch_size):
                elements += len(batch)
                for estimator in active:
                    estimator.ingest_batch(batch)
                    dispatches += 1
            for estimator in active:
                estimator.end_pass()
            passes += 1

        self._ran = True
        return EngineReport(
            results={e.name: e.result() for e in self._estimators},
            passes=passes,
            elements=elements,
            dispatches=dispatches,
            batch_size=self._batch_size,
        )
