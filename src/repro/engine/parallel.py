"""The sharded parallel execution backends of the fused engine.

The fused engine (:mod:`repro.engine.core`) removed the O(K·m) stream
traffic of median-of-K amplification, but all K estimator copies still
execute on one core.  The copies are embarrassingly parallel — in
``mirror`` mode they share *nothing* but the stream bytes — so this
module shards them across a pool of workers:

* the **driver** (the parent process) owns the stream.  It iterates
  each fused pass exactly once, decodes updates into batches, and
  publishes every batch to each worker that still has estimators
  wanting passes;
* each **worker** rebuilds its shard of estimators locally from a
  picklable :class:`EstimatorSpec` (live estimators hold generator
  frames and cannot cross a process boundary — they are
  *reconstructable from seeds* instead), feeds it the published
  batches, and ships the finished results back;
* the driver **merges**: per-copy results are reassembled in
  registration order, so median-of-K and per-copy diagnostics are
  computed exactly as in the serial backend.

Two pool flavours share one driver loop and one worker loop
(:func:`_worker_main`):

``backend="process"`` (:class:`_ProcessPool`)
    Workers are daemon processes.  Columnar batches travel through a
    **shared-memory batch ring**: the driver packs each batch's
    columns into one of a fixed ring of
    :mod:`multiprocessing.shared_memory` segments exactly once and
    broadcasts only a tiny ``(segment, capacity, length, seq)``
    reference, instead of pickling the columns onto every worker's
    command queue.  Per-worker acknowledgment counters release ring
    slots — a slot is rewritten only after every worker it was
    published to has consumed it — and double as the transport's
    refcount: segments are unlinked exactly once, in
    :meth:`~_PoolBase.shutdown`, which runs on the graceful path and
    on every error/terminate path alike (no leaked ``/dev/shm``
    segments; ``tests/test_parallel.py`` scans).  Because publishing
    only blocks when the ring wraps onto an unconsumed slot, the
    driver decodes batch N+1 while workers chew on batch N — the ring
    depth (bounded by the command-queue depth and a memory budget) is
    the decode-ahead window.
``backend="thread"`` (:class:`_ThreadPool`)
    Workers are daemon threads running the *same* worker loop over
    plain in-process queues.  Batches are handed over by reference —
    zero serialization, zero copies — and the numpy kernels release
    the GIL, so thread workers overlap on the columnar pipeline
    without any of the process transport's machinery.

Determinism
-----------
A spec carries explicit seed material (ints or pickled
``random.Random`` states), never "whatever entropy the worker has", so
a parallel run is a pure function of the seeds.  In ``mirror`` mode
each copy's state is private, which makes the results independent of
the worker count *and of the backend*: ``--workers 1``, ``2`` and
``4``, threads or processes, return identical estimates, equal
bit-for-bit to the serial backend (asserted in
``tests/test_parallel.py`` and fuzzed three ways in
``tests/test_differential_fuzz.py``).

Worker protocol
---------------
Driver → worker, over a bounded per-worker command queue (the bound is
the backpressure: a slow worker throttles the reader instead of
buffering the whole stream):

``("begin_pass", i)`` / ``("batch", updates)`` / ``("end_pass",)``
    One fused pass: updates are columnar
    :class:`~repro.streams.batch.EdgeBatch` objects, in stream order.
``("shm_batch", name, capacity, length, seq)``
    Process backend only: the batch's columns live in shared-memory
    segment *name* (packed by
    :func:`~repro.streams.batch.pack_columns`); the worker attaches,
    copies the columns out, and acknowledges *seq* so the driver may
    reuse the slot.  Rides the same queue as the control messages, so
    ordering against ``begin_pass``/``end_pass`` is preserved.
``("collect",)``
    Ship back ``{name: result}`` for the worker's shard.
``("state_dict",)``
    Ship back ``{name: estimator.state_dict()}`` for the shard — the
    driver-side checkpoint path of the live engine
    (:mod:`repro.engine.live`): the driver persists every shard's
    specs *plus* these states, so a restored pool resumes exactly
    where the snapshot was taken.
``("load_state", states, resume_active)``
    Restore each shard estimator from ``states[name]`` (freshly built
    estimators only).  With *resume_active* the worker re-derives its
    active set from ``wants_pass()`` so mid-pass restores keep
    receiving batches without a new ``begin_pass``.
``("stop",)``
    Exit the worker loop.

Worker → driver, over one shared reply queue, always tagged with the
worker id: ``("ready", wid, wants_pass)`` after building its shard,
``("pass_done", wid, wants_pass)`` after each pass, ``("results",
wid, mapping)``, and ``("error", wid, traceback)`` from any failure —
the driver then terminates the pool and re-raises as
:class:`~repro.errors.EngineError` with the worker's traceback.
While blocked (full command queue, occupied ring slot, pending
gather), the driver probes the liveness of **every** worker, not just
the one it is waiting on, so a silent death anywhere in the pool (OOM
kill, segfault) aborts the run within about a second instead of after
the full reply timeout.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.core import DEFAULT_BATCH_SIZE, EngineReport, apply_cache_policy
from repro.errors import EngineError, StreamError, WorkerLossError
from repro.faults.plan import FaultPlan, WorkerKilled
from repro.utils.retry import RetryPolicy, retry_call
from repro.streams.batch import EdgeBatch, PACKED_ELEMENT_BYTES, pack_columns, unpack_columns
from repro.streams.stream import EdgeStream, check_batch_size, pass_batches

__all__ = [
    "StreamHandle",
    "EstimatorSpec",
    "run_parallel_engine",
    "make_worker_pool",
    "resolve_workers",
    "shard_indices",
    "leaked_shm_segments",
    "build_triest",
    "build_doulion",
    "build_exact_stream",
]

#: Seconds the driver waits for a worker reply before declaring it hung.
DEFAULT_REPLY_TIMEOUT = 600.0

#: Command-queue bound: how many decoded batches may be in flight per
#: worker before the driver's broadcast blocks (the backpressure knob).
#: Also the upper bound on the shared-memory ring depth — the ring
#: never needs more decode-ahead than the queues can reference.
COMMAND_QUEUE_DEPTH = 16

#: Seconds the graceful shutdown spends trying to enqueue ``("stop",)``
#: on one worker's bounded command queue before falling back to
#: terminate.  A healthy worker drains its queue far faster; a wedged
#: worker must never hang the driver's happy path.
STOP_SEND_TIMEOUT = 5.0

#: Prefix of every shared-memory segment this module creates; the leak
#: checks (tests, CI smoke) scan ``/dev/shm`` for it.
SHM_NAME_PREFIX = "repro_shm_"

#: Cap on the total bytes of one pool's shared-memory ring.  At the
#: default batch size the ring comfortably reaches the full
#: COMMAND_QUEUE_DEPTH; for huge batches the depth shrinks (min 2, so
#: publishing still overlaps with consumption) instead of reserving
#: gigabytes of /dev/shm.
RING_MEMORY_BUDGET = 64 << 20

#: Retry schedule for a worker-side shared-memory attach: the attach
#: can transiently race segment creation (and the fault drills inject
#: exactly that), so it gets a couple of cheap retries before the
#: error surfaces as a worker failure.
SHM_ATTACH_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.1)

#: Retry schedule for launching a replacement worker process/thread —
#: a fork can lose a transient EAGAIN race under process pressure.
RESPAWN_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0)


@dataclass(frozen=True)
class StreamHandle:
    """Picklable metadata stub standing in for an :class:`EdgeStream`.

    Workers never see the stream contents (batches arrive over the
    command queue or the shared-memory ring), but estimator factories
    consult the stream's *metadata*: oracles check ``allows_deletions``
    and ``n``, trial resolution and finalizers read ``net_edge_count``
    / ``length``.  A handle carries exactly that surface and refuses
    iteration, so a mis-wired worker fails loudly instead of silently
    re-reading a stream it does not have.
    """

    n: int
    length: int
    net_edge_count: int
    allows_deletions: bool

    @classmethod
    def of(cls, stream) -> "StreamHandle":
        """The handle describing *stream* (idempotent on handles)."""
        if isinstance(stream, cls):
            return stream
        return cls(
            n=stream.n,
            length=stream.length,
            net_edge_count=stream.net_edge_count,
            allows_deletions=stream.allows_deletions,
        )

    @property
    def passes_used(self) -> int:
        """Always 0: the driver owns pass accounting in parallel mode."""
        return 0

    def reset_pass_count(self) -> None:
        """No-op; the driver's real stream counts the fused passes."""

    def updates(self):
        raise EngineError(
            "StreamHandle cannot be iterated: in the parallel backends the "
            "driver owns the stream and publishes decoded batches to workers"
        )

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class EstimatorSpec:
    """A picklable recipe for building one estimator inside a worker.

    ``factory`` must be an importable module-level callable (pickled by
    reference) invoked as ``factory(stream, **kwargs)``, where *stream*
    is the driver's :class:`StreamHandle`; ``kwargs`` must be picklable
    — plain ints/strings/patterns and seed material rather than live
    generators.  The factories in :mod:`repro.engine.estimators`
    (``fgp_insertion_estimator`` et al.) and the ``build_*`` wrappers
    below all qualify.
    """

    name: str
    factory: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self, stream) -> Any:
        """Construct the estimator against *stream* (handle or stream)."""
        estimator = self.factory(stream, **self.kwargs)
        built_name = getattr(estimator, "name", None)
        if built_name != self.name:
            raise EngineError(
                f"spec {self.name!r} built an estimator named {built_name!r}; "
                "pass the spec's name through to the factory"
            )
        return estimator


# -- spec factories for the baseline estimators -------------------------
#
# The baseline constructors do not take a stream (or take only ``n``),
# so these module-level adapters give them the uniform
# ``factory(stream, **kwargs)`` shape EstimatorSpec requires.


def build_triest(stream, **kwargs):
    """Spec factory: :class:`~repro.baselines.triest.TriestEstimator`."""
    from repro.baselines.triest import TriestEstimator

    return TriestEstimator(**kwargs)


def build_doulion(stream, **kwargs):
    """Spec factory: :class:`~repro.baselines.doulion.DoulionEstimator`
    (``stream.n`` is filled in from the handle)."""
    from repro.baselines.doulion import DoulionEstimator

    return DoulionEstimator(stream.n, **kwargs)


def build_exact_stream(stream, **kwargs):
    """Spec factory: :class:`~repro.baselines.exact_stream.ExactStreamEstimator`."""
    from repro.baselines.exact_stream import ExactStreamEstimator

    return ExactStreamEstimator(stream.n, **kwargs)


def resolve_workers(workers: Optional[int], jobs: int) -> int:
    """The effective pool size: requested (or cpu count), capped by jobs."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise EngineError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, jobs))


def shard_indices(count: int, shards: int) -> List[List[int]]:
    """Split ``range(count)`` into *shards* contiguous, nearly equal runs.

    The first ``count % shards`` shards get the extra element; empty
    shards are dropped (when ``shards > count``).
    """
    if shards < 1:
        raise EngineError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(count, shards)
    result: List[List[int]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        if size:
            result.append(list(range(start, start + size)))
        start += size
    return result


# -- shared-memory batch transport ---------------------------------------


def leaked_shm_segments() -> List[str]:
    """Names of this module's shared-memory segments present right now.

    Scans ``/dev/shm`` for the :data:`SHM_NAME_PREFIX`; empty on
    platforms without that mount.  A non-empty result *after* every
    pool has shut down means a segment leaked — the invariant the leak
    tests and the CI parallel smoke job assert.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(SHM_NAME_PREFIX))


def _attach_segment(name: str):
    """Attach a worker to an existing ring segment.

    On 3.13+ the attach opts out of resource tracking (``track=False``)
    — the driver, which created the segment, owns its lifetime.  Before
    3.13 attaching re-registers the name with the resource tracker;
    that is harmless here because worker processes inherit the
    *driver's* tracker (fork and spawn both hand the tracker fd down),
    whose registry is a set — the duplicate registration collapses and
    the driver's ``unlink()`` deregisters it exactly once.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


class _SegmentAttachments:
    """Worker-side cache of attached ring segments.

    The ring reuses a fixed set of segment names, so each worker
    attaches (and maps a column view of) every segment at most once and
    copies batch columns out per message.  The copy is deliberate: an
    estimator may retain the batch beyond the message (reservoirs keep
    edge tuples), and a zero-copy view would be silently corrupted when
    the driver rewrites the slot.
    """

    def __init__(
        self, worker_id: int = 0, fault_plan: Optional[FaultPlan] = None
    ) -> None:
        self._worker_id = worker_id
        self._fault_plan = fault_plan
        self._segments: Dict[str, Any] = {}
        self._views: Dict[str, np.ndarray] = {}

    def _attach(self, name: str):
        if self._fault_plan is not None:
            self._fault_plan.fire("shm.attach", worker=self._worker_id)
        return _attach_segment(name)

    def batch(self, name: str, capacity: int, length: int) -> EdgeBatch:
        view = self._views.get(name)
        if view is None:
            # The attach is the transient-failure site of the worker
            # side (a segment can briefly not be visible yet); retried
            # with a deterministic jitter schedule before the failure
            # surfaces as a worker error.
            segment = retry_call(
                lambda: self._attach(name),
                policy=SHM_ATTACH_RETRY,
                seed=self._worker_id,
                label=f"shm attach {name}",
            )
            view = np.frombuffer(segment.buf, dtype=np.int64, count=3 * capacity)
            self._segments[name] = segment
            self._views[name] = view
        return unpack_columns(view, capacity, length, copy=True)

    def close(self) -> None:
        segments = list(self._segments.values())
        # Drop the views first: a mapped buffer with live exports
        # cannot be closed.
        self._segments = {}
        self._views = {}
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still referenced
                pass


class _SharedBatchRing:
    """Driver-side ring of persistent shared-memory batch slots.

    Created once per pool (first ring publish), sized
    ``depth × capacity × PACKED_ELEMENT_BYTES`` bytes, unlinked exactly
    once in the pool's shutdown — which runs on success and on every
    failure path, so no path leaks ``/dev/shm`` segments.  Each slot
    records its current occupant ``(seq, worker_ids)``; the pool waits
    for those workers' acks before rewriting the slot.
    """

    def __init__(self, capacity: int, depth: int) -> None:
        from multiprocessing import shared_memory

        self.capacity = capacity
        self.depth = depth
        token = f"{os.getpid():x}_{os.urandom(4).hex()}"
        self.names: List[str] = []
        self._segments: List[Any] = []
        self._views: List[np.ndarray] = []
        #: per-slot ``(seq, worker_ids)`` of the batch currently in it.
        self.occupants: List[Optional[tuple]] = [None] * depth
        try:
            for slot in range(depth):
                name = f"{SHM_NAME_PREFIX}{token}_{slot}"
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=capacity * PACKED_ELEMENT_BYTES
                )
                self._segments.append(segment)
                self.names.append(name)
                self._views.append(
                    np.frombuffer(segment.buf, dtype=np.int64, count=3 * capacity)
                )
        except BaseException:
            self.release()
            raise

    def pack(self, slot: int, batch: EdgeBatch) -> None:
        pack_columns(batch, self._views[slot], self.capacity)

    def release(self) -> None:
        """Close and unlink every segment (idempotent, never raises)."""
        self._views = []
        segments = self._segments
        self._segments = []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still referenced
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _worker_main(
    worker_id: int,
    specs,
    handle: StreamHandle,
    commands,
    replies,
    ack=None,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Worker loop: build the shard, consume commands, ship results.

    Runs unchanged as a process target and as a thread target; *ack*
    is the process backend's shared acknowledgment counter for the
    shared-memory ring (``None`` on the thread backend, which hands
    batches over by reference).  *fault_plan* is the drill harness's
    seeded fault schedule (see :mod:`repro.faults`): the
    ``"worker.batch"`` site fires once per delivered batch, *before*
    the estimators ingest it and before any shm ack — an injected
    SIGKILL therefore tears the run at the nastiest point, with a
    published-but-unacknowledged ring slot in flight.
    """
    attachments = _SegmentAttachments(worker_id, fault_plan)

    def batch_fault() -> None:
        if fault_plan is not None:
            fault_plan.fire("worker.batch", worker=worker_id)

    try:
        estimators = [spec.build(handle) for spec in specs]
        active: List[Any] = []
        replies.put(("ready", worker_id, any(e.wants_pass() for e in estimators)))
        while True:
            message = commands.get()
            command = message[0]
            if command == "batch":
                batch = message[1]
                batch_fault()
                for estimator in active:
                    estimator.ingest_batch(batch)
            elif command == "shm_batch":
                _, name, capacity, length, seq = message
                batch = attachments.batch(name, capacity, length)
                batch_fault()
                for estimator in active:
                    estimator.ingest_batch(batch)
                # The columns are copied out; the ack releases the slot
                # for reuse (monotone per worker: seqs arrive in order).
                with ack.get_lock():
                    ack.value = seq
            elif command == "begin_pass":
                active = [e for e in estimators if e.wants_pass()]
                for estimator in active:
                    estimator.begin_pass(message[1])
            elif command == "end_pass":
                for estimator in active:
                    estimator.end_pass()
                active = []
                replies.put(
                    ("pass_done", worker_id, any(e.wants_pass() for e in estimators))
                )
            elif command == "adopt_answers":
                # Scatter/merge close: the driver merged every shard's
                # pass states and broadcasts the *global* answers; each
                # replica discards its shard-partial answers and adopts
                # these, keeping all replicas in randomness lockstep
                # (see repro.engine.sharded.ShardedRunner).
                payload = message[1]
                for estimator in active:
                    estimator.end_pass_adopting(payload[estimator.name])
                active = []
                replies.put(
                    ("pass_done", worker_id, any(e.wants_pass() for e in estimators))
                )
            elif command == "collect":
                results = {e.name: e.result() for e in estimators}
                replies.put(("results", worker_id, results))
            elif command == "state_dict":
                states = {e.name: e.state_dict() for e in estimators}
                replies.put(("state", worker_id, states))
            elif command == "load_state":
                states = message[1]
                for estimator in estimators:
                    estimator.load_state_dict(states[estimator.name])
                if message[2]:
                    # Mid-pass restore: the loaded states carry open
                    # passes, so batches must flow without a begin_pass.
                    active = [e for e in estimators if e.wants_pass()]
                else:
                    # Fresh restore: a later begin_pass opens the pass.
                    active = []
                replies.put(
                    ("loaded", worker_id, any(e.wants_pass() for e in estimators))
                )
            elif command == "stop":
                return
            else:  # pragma: no cover - driver never sends unknown commands
                raise EngineError(f"unknown worker command {command!r}")
    except WorkerKilled:
        # Injected silent death (thread workers, where a real SIGKILL
        # is impossible): exit WITHOUT an error reply, so the driver's
        # silent-death probes — not the error path — must catch it.
        return
    except BaseException:
        try:
            replies.put(("error", worker_id, traceback.format_exc()))
        finally:
            return
    finally:
        attachments.close()


class _PoolBase:
    """Driver-side logic shared by the process and thread pools.

    Subclasses fill in the transport (queues, worker objects,
    terminability) and may override :meth:`publish_batch` — the base
    implementation sends the batch object itself, which is the whole
    story for threads.

    Worker loss
    -----------
    A worker that dies *silently* (SIGKILL, OOM, segfault) or stops
    making progress (wedged mid-batch past the reply timeout) raises
    :class:`~repro.errors.WorkerLossError` from whichever pool call
    noticed — unless a ``loss_handler`` is installed.  The handler is
    the recovery policy (quarantine and/or respawn: see
    :meth:`discard` / :meth:`respawn` and the live engine); it MUST
    leave every reported worker id discarded (or the loss re-raises).
    After recovery the interrupted send/gather continues against the
    survivors: discarded ids are skipped by :meth:`send`, dropped from
    a gather's outstanding set, and excluded from ring-slot waits, so
    an in-flight broadcast completes its delivery to exactly the
    workers that are still alive.  Worker ids are never reused —
    respawned workers get fresh ids — so a stale reply from a lost
    worker can always be recognized and dropped.
    """

    #: What a member of the pool is called in error messages.
    kind = "worker"

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        # Legitimate replies pulled off the queue while probing for
        # failures mid-broadcast (a fast worker may answer an
        # ``end_pass``/``collect`` before the slowest worker received
        # it); gather() consumes these first.
        self._stashed: List[tuple] = []
        self.replies: Any = None
        self.commands: List[Any] = []
        self.processes: List[Any] = []
        self.shards: List[List[EstimatorSpec]] = []
        #: Recovery policy: ``loss_handler(worker_ids)`` or None (raise).
        self.loss_handler: Optional[Callable[[List[int]], None]] = None
        self._discarded: set = set()

    @property
    def discarded(self) -> frozenset:
        """Worker ids that were lost (dead or wedged) and written off."""
        return frozenset(self._discarded)

    def live_ids(self) -> List[int]:
        """Every worker id that has not been discarded."""
        return [w for w in range(len(self.processes)) if w not in self._discarded]

    # -- transport hooks --------------------------------------------------

    def _alive(self, worker_id: int) -> bool:
        return self.processes[worker_id].is_alive()

    def _terminate(self, worker_id: int) -> None:
        raise NotImplementedError

    def _join(self, worker_id: int, timeout: float) -> None:
        self.processes[worker_id].join(timeout=timeout)

    def _reap(self, worker_id: int) -> None:
        """Force a discarded worker down (kill + short join)."""
        self._terminate(worker_id)
        self._join(worker_id, 5.0)

    def _close_transport(self) -> None:
        """Release transport resources (queues, shared memory)."""

    # -- loss recovery -----------------------------------------------------

    def discard(self, worker_ids) -> None:
        """Write the workers off: terminate, mark dead, never reuse the id.

        Safe on already-discarded ids.  Discarded workers are skipped
        by every later send/gather/ack-wait; their stale replies (a
        wedged worker may wake up long after being written off) are
        dropped on sight.
        """
        for worker_id in worker_ids:
            if worker_id in self._discarded:
                continue
            self._discarded.add(worker_id)
            self._reap(worker_id)

    def respawn(self, worker_id: int) -> int:
        """Launch a fresh worker over *worker_id*'s shard; returns its id.

        The replacement is a brand-new worker (new id, new queue,
        fresh estimators built from the shard's specs) — the caller
        owns re-deriving its state, e.g. by replaying a journal.
        Launching retries transient spawn failures on a jittered
        exponential schedule (:data:`RESPAWN_RETRY`).
        """
        raise NotImplementedError

    def _recover(self, loss: WorkerLossError) -> None:
        """Run the loss handler for *loss*, or re-raise it.

        No handler means the historical contract: the loss aborts the
        run (as an :class:`~repro.errors.EngineError` subclass).  With
        a handler, every newly lost worker must come back discarded —
        a handler that silently ignores a loss would spin the caller
        forever, so that is treated as a fatal bug.
        """
        lost = [w for w in loss.worker_ids if w not in self._discarded]
        if not lost:
            return
        if self.loss_handler is None:
            raise loss
        self.loss_handler(list(lost))
        still = [w for w in lost if w not in self._discarded]
        if still:  # pragma: no cover - defensive: handler contract breach
            raise loss

    # -- sending ----------------------------------------------------------

    def send(self, worker_id: int, message) -> bool:
        """Put *message* on a worker's bounded queue without deadlocking.

        A worker that died mid-pass stops draining its queue; once the
        queue is full a plain ``put`` would block forever while the
        worker's error reply sits unread.  So on backpressure we probe
        the whole pool — errors raise immediately, legitimate replies
        from faster workers are stashed for the next ``gather``, and a
        silent death *anywhere* (not just the send target: the driver
        may be blocked on worker A precisely because it will never get
        to publish the batch worker B died on) aborts the run or, with
        a loss handler installed, triggers recovery and carries on.

        Returns whether the message was delivered (False: the target
        was, or became, discarded).
        """
        import queue as queue_module

        deadline = time.monotonic() + self._timeout
        while True:
            if worker_id in self._discarded:
                return False
            try:
                self.commands[worker_id].put(message, timeout=1.0)
                return True
            except queue_module.Full:
                try:
                    self.probe_failures()
                except WorkerLossError as loss:
                    self._recover(loss)
                    deadline = time.monotonic() + self._timeout
                    continue
                if time.monotonic() > deadline:
                    # The target is alive but not draining: wedged.
                    self._recover(
                        WorkerLossError(
                            f"timed out after {self._timeout}s sending to "
                            f"{self.kind} {worker_id} (command queue full; "
                            "worker wedged)",
                            worker_ids=[worker_id],
                        )
                    )
                    deadline = time.monotonic() + self._timeout

    def probe_failures(self) -> None:
        """Raise if any worker reported an error or died silently.

        Drains the reply queue (stashing legitimate replies), then
        checks liveness of every non-discarded worker.  When a dead
        worker is found with no error reply yet, waits a short grace
        period for an in-flight error message before declaring a
        silent death (:class:`~repro.errors.WorkerLossError`) — an
        erroring process may be reaped before its traceback clears
        the reply pipe.
        """
        import queue as queue_module

        while True:
            try:
                reply = self.replies.get_nowait()
            except queue_module.Empty:
                break
            if reply[1] in self._discarded:
                continue
            if reply[0] == "error":
                raise EngineError(f"{self.kind} {reply[1]} failed:\n{reply[2]}")
            self._stashed.append(reply)
        dead = [w for w in self.live_ids() if not self._alive(w)]
        if dead:
            grace = time.monotonic() + 1.0
            while time.monotonic() < grace:
                try:
                    reply = self.replies.get(timeout=0.1)
                except queue_module.Empty:
                    continue
                if reply[1] in self._discarded:
                    continue
                if reply[0] == "error":
                    raise EngineError(
                        f"{self.kind} {reply[1]} failed:\n{reply[2]}"
                    )
                self._stashed.append(reply)
            raise WorkerLossError(
                f"{self.kind}(s) {dead} died without reporting an error "
                "(command queue stalled)",
                worker_ids=dead,
            )

    def broadcast(self, worker_ids, message) -> None:
        """Send *message* to every listed worker, skipping discarded ids.

        Iterates a snapshot of *worker_ids* so a loss handler mutating
        the caller's active list mid-delivery cannot skip a survivor;
        workers discarded while the broadcast is in flight are simply
        not delivered to (their shard is gone either way).
        """
        for worker_id in list(worker_ids):
            self.send(worker_id, message)

    def publish_batch(self, worker_ids, batch) -> None:
        """Deliver one decoded batch to every listed worker.

        The base implementation enqueues the batch object itself: for
        threads that is a by-reference handoff (workers share the
        driver's arrays and lazily-built views — reads only, per the
        batch contract), with zero serialization.  The process pool
        overrides this with the shared-memory ring.
        """
        self.broadcast(worker_ids, ("batch", batch))

    # -- gathering --------------------------------------------------------

    def gather(self, kind: str, worker_ids) -> Dict[int, Any]:
        """One *kind* reply from each of *worker_ids*; abort on errors.

        Waits in short slices so a worker that dies *without* managing
        to ship an error reply (OOM kill, segfault) is noticed within
        ~a second instead of after the full reply timeout — and checks
        the whole pool, not just the workers gathered from.

        With a loss handler installed a detected loss (death or
        stalled-past-timeout) triggers recovery and the gather carries
        on with the survivors: discarded ids drop out of the
        outstanding set, so the result may be **partial** — callers in
        degrade mode own re-requesting anything a respawned worker now
        hosts.  Replies that belong to a different in-flight exchange
        (possible only across recovery boundaries) are stashed for the
        gather they answer; without a handler any unexpected reply is
        still the historical protocol-violation error.
        """
        import queue as queue_module

        outstanding = set(worker_ids) - self._discarded
        payloads: Dict[int, Any] = {}
        unmatched: List[tuple] = []
        deadline = time.monotonic() + self._timeout
        try:
            while outstanding:
                if self._stashed:
                    reply = self._stashed.pop(0)
                else:
                    try:
                        reply = self.replies.get(timeout=1.0)
                    except queue_module.Empty:
                        dead = [w for w in self.live_ids() if not self._alive(w)]
                        if dead:
                            self._recover(
                                WorkerLossError(
                                    f"{self.kind}(s) {dead} died without "
                                    "reporting an error while the driver "
                                    f"awaited {kind!r}",
                                    worker_ids=dead,
                                )
                            )
                        elif time.monotonic() > deadline:
                            self._recover(
                                WorkerLossError(
                                    f"timed out after {self._timeout}s waiting "
                                    f"for {self.kind} reply {kind!r} from "
                                    f"{sorted(outstanding)}",
                                    worker_ids=sorted(outstanding),
                                )
                            )
                        else:
                            continue
                        outstanding -= self._discarded
                        deadline = time.monotonic() + self._timeout
                        continue
                if reply[1] in self._discarded:
                    continue  # stale reply from a written-off worker
                if reply[0] == "error":
                    raise EngineError(
                        f"{self.kind} {reply[1]} failed:\n{reply[2]}"
                    )
                if reply[0] != kind or reply[1] not in outstanding:
                    if self.loss_handler is None:
                        raise EngineError(
                            f"protocol violation: expected {kind!r} from "
                            f"{sorted(outstanding)}, got {reply[0]!r} from "
                            f"{self.kind} {reply[1]}"
                        )
                    # Recovery can interleave exchanges (a respawn's
                    # "ready" gather may pull a survivor's "state"
                    # reply off the shared queue): park it for the
                    # gather it answers.
                    unmatched.append(reply)
                    continue
                outstanding.discard(reply[1])
                payloads[reply[1]] = reply[2]
            return payloads
        finally:
            if unmatched:
                self._stashed = unmatched + self._stashed

    # -- teardown ---------------------------------------------------------

    def _send_stop(self, worker_id: int) -> bool:
        """Try to enqueue ``("stop",)`` within a short bound; never block.

        The graceful path used to do a plain blocking ``put`` here — a
        worker wedged with a full command queue hung the driver
        forever.  Now a worker that cannot accept the stop within
        :data:`STOP_SEND_TIMEOUT` is terminated instead.
        """
        import queue as queue_module

        deadline = time.monotonic() + STOP_SEND_TIMEOUT
        while True:
            if not self._alive(worker_id):
                return True  # already exited; nothing to stop
            try:
                self.commands[worker_id].put(("stop",), timeout=0.25)
                return True
            except queue_module.Full:
                if time.monotonic() > deadline:
                    return False

    def shutdown(self, graceful: bool) -> None:
        """Stop every worker and release the transport; never hangs.

        Graceful: offer each worker a bounded ``stop``, terminating any
        worker that cannot take it (wedged queue).  Failure path: the
        error is already known and the workers are stateless daemons
        (likely blocked on ``commands.get()``), so kill first, reap
        after.  Both paths release the transport — including the
        shared-memory ring — in a ``finally``.
        """
        try:
            live = self.live_ids()
            if graceful:
                stopped = {w: self._send_stop(w) for w in live}
                for worker_id in live:
                    if not stopped[worker_id]:
                        self._terminate(worker_id)
                for worker_id in live:
                    self._join(worker_id, 30.0 if stopped[worker_id] else 5.0)
            else:
                for worker_id in live:
                    if self._alive(worker_id):
                        self._terminate(worker_id)
            for worker_id in live:
                if self._alive(worker_id):
                    self._terminate(worker_id)
                self._join(worker_id, 5.0)
        finally:
            self._close_transport()


class _ProcessPool(_PoolBase):
    """Worker pool over daemon processes plus the shared-memory ring."""

    def __init__(
        self,
        context,
        shards: Sequence[Sequence[EstimatorSpec]],
        handle,
        timeout: float,
        batch_capacity: int = DEFAULT_BATCH_SIZE,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(timeout)
        # Start the driver's resource tracker before any worker exists:
        # workers inherit its fd (fork and spawn both), so their
        # attach-side registrations land in the driver's tracker —
        # collapsing with the driver's own — instead of each worker
        # spinning up a private tracker that emits spurious
        # leaked-segment warnings when the worker exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platforms without a tracker
            pass
        self._batch_capacity = int(batch_capacity)
        self._context = context
        self._handle = handle
        self._fault_plan = fault_plan
        self._ring: Optional[_SharedBatchRing] = None
        self._next_seq = 0
        #: Batches shipped through the ring (vs pickled fallbacks) —
        #: a white-box diagnostic for tests and benchmarks.
        self.shm_batches = 0
        self.acks: List[Any] = []
        self.replies = context.Queue()
        for worker_id, shard in enumerate(shards):
            queue = context.Queue(COMMAND_QUEUE_DEPTH)
            # One shared int64 per worker: the highest ring seq the
            # worker has consumed.  Locked access on purpose — a torn
            # read could release a slot early and corrupt a batch.
            ack = context.Value("q", -1)
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id, list(shard), handle, queue, self.replies, ack,
                    fault_plan,
                ),
                daemon=True,
            )
            self.commands.append(queue)
            self.acks.append(ack)
            self.processes.append(process)
            self.shards.append(list(shard))
        try:
            for process in self.processes:
                process.start()
        except BaseException:
            # Partial startup (EAGAIN under process pressure, spawn
            # pickling error): reap whatever already launched instead
            # of leaking daemons blocked on commands.get().
            for process in self.processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            raise

    # -- transport hooks --------------------------------------------------

    def _terminate(self, worker_id: int) -> None:
        process = self.processes[worker_id]
        if process.is_alive():
            process.terminate()

    def respawn(self, worker_id: int) -> int:
        """Launch a replacement process over *worker_id*'s shard."""
        shard = list(self.shards[worker_id])
        new_id = len(self.processes)

        def launch():
            queue = self._context.Queue(COMMAND_QUEUE_DEPTH)
            ack = self._context.Value("q", -1)
            process = self._context.Process(
                target=_worker_main,
                args=(
                    new_id, list(shard), self._handle, queue, self.replies, ack,
                    self._fault_plan,
                ),
                daemon=True,
            )
            process.start()
            return queue, ack, process

        queue, ack, process = retry_call(
            launch, policy=RESPAWN_RETRY, seed=new_id,
            label=f"respawn worker {new_id}",
        )
        self.commands.append(queue)
        self.acks.append(ack)
        self.processes.append(process)
        self.shards.append(shard)
        return new_id

    def _close_transport(self) -> None:
        if self._ring is not None:
            self._ring.release()
            self._ring = None
        for queue in self.commands + [self.replies]:
            queue.close()

    # -- shared-memory publication ----------------------------------------

    def _ack_value(self, worker_id: int) -> int:
        ack = self.acks[worker_id]
        with ack.get_lock():
            return ack.value

    def _ensure_ring(self) -> _SharedBatchRing:
        if self._ring is None:
            capacity = max(1, self._batch_capacity)
            depth = max(
                2,
                min(
                    COMMAND_QUEUE_DEPTH,
                    RING_MEMORY_BUDGET // (capacity * PACKED_ELEMENT_BYTES),
                ),
            )
            self._ring = _SharedBatchRing(capacity, depth)
        return self._ring

    def _wait_for_slot(self, slot: int) -> None:
        """Block until the slot's previous occupant is fully consumed.

        This is where the ring's refcount lives: the occupant records
        which workers the batch was published to, and their ack
        counters say how far each has consumed.  Probes the whole pool
        while waiting, so a dead worker aborts instead of stalling
        until the reply timeout.
        """
        occupant = self._ring.occupants[slot]
        if occupant is None:
            return
        seq, worker_ids = occupant
        deadline = time.monotonic() + self._timeout
        while True:
            # A discarded recipient never acks its slots; its refcount
            # share is forfeited, otherwise one dead worker would
            # wedge the whole ring forever.
            pending = [
                w
                for w in worker_ids
                if w not in self._discarded and self._ack_value(w) < seq
            ]
            if not pending:
                self._ring.occupants[slot] = None
                return
            try:
                self.probe_failures()
            except WorkerLossError as loss:
                self._recover(loss)
                deadline = time.monotonic() + self._timeout
                continue
            if time.monotonic() > deadline:
                self._recover(
                    WorkerLossError(
                        f"timed out after {self._timeout}s waiting for workers "
                        f"{pending} to release shared batch #{seq}",
                        worker_ids=pending,
                    )
                )
                deadline = time.monotonic() + self._timeout
            time.sleep(0.001)

    def publish_batch(self, worker_ids, batch) -> None:
        """Publish one batch to all *worker_ids* via the ring.

        The columns are packed into shared memory **once** and every
        worker receives only a slot reference — O(1) queue bytes per
        worker instead of a full pickled copy each.  Empty batches and
        batches larger than the ring capacity fall back to the pickled
        queue path.

        The recipient list is snapshotted *before* the slot wait: loss
        recovery inside the wait may respawn a worker into the
        caller's active list, and that replacement already receives
        this chunk via journal replay — delivering the in-flight
        publish to it as well would double-ingest the chunk.
        """
        targets = list(worker_ids)
        if not 0 < len(batch) <= self._batch_capacity:
            self.broadcast(targets, ("batch", batch))
            return
        ring = self._ensure_ring()
        seq = self._next_seq
        slot = seq % ring.depth
        self._wait_for_slot(slot)
        ring.pack(slot, batch)
        ring.occupants[slot] = (seq, tuple(targets))
        self._next_seq += 1
        self.shm_batches += 1
        self.broadcast(
            targets, ("shm_batch", ring.names[slot], ring.capacity, len(batch), seq)
        )


class _ThreadPool(_PoolBase):
    """Worker pool over daemon threads — same loop, in-process queues.

    Batches are handed to workers by reference (see
    :meth:`_PoolBase.publish_batch`); the columnar kernels release the
    GIL, so the threads overlap on real work.  Threads cannot be
    terminated: a wedged worker is abandoned as a daemon (it dies with
    the process), which keeps shutdown bounded without the process
    pool's kill escalation.
    """

    kind = "thread worker"

    def __init__(
        self,
        shards: Sequence[Sequence[EstimatorSpec]],
        handle,
        timeout: float,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(timeout)
        import queue as queue_module
        import threading

        self._handle = handle
        self._fault_plan = fault_plan
        self.replies = queue_module.Queue()
        for worker_id, shard in enumerate(shards):
            queue = queue_module.Queue(COMMAND_QUEUE_DEPTH)
            thread = threading.Thread(
                target=_worker_main,
                args=(worker_id, list(shard), handle, queue, self.replies, None,
                      fault_plan),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
            self.commands.append(queue)
            self.processes.append(thread)
            self.shards.append(list(shard))
        for thread in self.processes:
            thread.start()

    def _terminate(self, worker_id: int) -> None:
        """Threads cannot be killed; daemon threads die with the process."""

    def _reap(self, worker_id: int) -> None:
        """A wedged daemon thread is abandoned, not joined.

        Joining would block the driver on the very thread it wrote off
        — a wedged thread may sleep for hours.  Its command queue stays
        allocated but unread; discarded ids never receive new sends.
        """

    def respawn(self, worker_id: int) -> int:
        import queue as queue_module
        import threading

        shard = list(self.shards[worker_id])
        new_id = len(self.processes)

        def launch():
            queue = queue_module.Queue(COMMAND_QUEUE_DEPTH)
            thread = threading.Thread(
                target=_worker_main,
                args=(new_id, list(shard), self._handle, queue, self.replies,
                      None, self._fault_plan),
                daemon=True,
                name=f"repro-worker-{new_id}",
            )
            thread.start()
            return queue, thread

        queue, thread = retry_call(
            launch,
            policy=RESPAWN_RETRY,
            seed=new_id,
            label=f"respawn thread worker {new_id}",
        )
        self.commands.append(queue)
        self.processes.append(thread)
        self.shards.append(shard)
        return new_id

    def shutdown(self, graceful: bool) -> None:
        live = self.live_ids()
        if graceful:
            for worker_id in live:
                self._send_stop(worker_id)
        for worker_id in live:
            self.processes[worker_id].join(timeout=5.0)


#: Backwards-compatible name for the process pool (the historical
#: single-backend pool class).
_WorkerPool = _ProcessPool


def _make_context(start_method: Optional[str]):
    import multiprocessing
    import sys

    if start_method is None:
        # Prefer fork only where it is the safe platform default
        # (Linux): macOS lists fork but made spawn the default in 3.8
        # because forking there can crash in system frameworks.
        if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
    return multiprocessing.get_context(start_method)


def make_worker_pool(
    backend: str,
    shards: Sequence[Sequence[EstimatorSpec]],
    handle,
    timeout: float,
    start_method: Optional[str] = None,
    batch_capacity: int = DEFAULT_BATCH_SIZE,
    fault_plan: Optional[FaultPlan] = None,
):
    """Build the worker pool for a parallel backend (thread or process).

    *batch_capacity* sizes the process pool's shared-memory ring slots;
    pass the driver's batch size so every columnar batch fits (larger
    batches still work — they fall back to the pickled queue path).
    *fault_plan* ships a :class:`~repro.faults.FaultPlan` to every
    worker so drills can kill/wedge them at chosen batches.
    """
    from repro.engine.core import EngineBackend

    if backend == EngineBackend.THREAD:
        return _ThreadPool(shards, handle, timeout, fault_plan=fault_plan)
    if backend == EngineBackend.PROCESS:
        return _ProcessPool(
            _make_context(start_method),
            shards,
            handle,
            timeout,
            batch_capacity,
            fault_plan=fault_plan,
        )
    raise EngineError(f"no worker pool for backend {backend!r}")


def run_parallel_engine(
    stream: EdgeStream,
    specs: Sequence[EstimatorSpec],
    backend: str = "process",
    workers: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    start_method: Optional[str] = None,
    reset_pass_count: bool = True,
    max_passes: int = 0,
    reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    cache=None,
    on_worker_loss: str = "abort",
    fault_plan: Optional[FaultPlan] = None,
) -> EngineReport:
    """Drive *specs* to completion across a worker pool.

    The parallel counterpart of :meth:`StreamEngine.run` — normally
    reached through ``StreamEngine(..., backend="process")`` or
    ``backend="thread"`` rather than called directly.  Specs are
    sharded contiguously across ``resolve_workers(workers, len(specs))``
    workers; the returned report's ``dispatches`` counts batch
    *publications* (batches × active workers) and ``workers`` records
    the pool size.

    The process backend publishes each
    :class:`~repro.streams.batch.EdgeBatch` through the shared-memory
    ring — the columns are written once, each worker gets a slot
    reference — and the thread backend hands the batch object over
    directly; workers rebuild the decoded views lazily on their side.

    *cache* applies a batch-cache policy to the **driver's** stream
    (see :mod:`repro.streams.cache`): the driver is the only
    participant that decodes, so its policy decides whether a later
    fused pass re-reads from memory or from disk.  Workers always
    consume the published buffers they receive — they never assume a
    cached batch exists on their side of the boundary.

    *on_worker_loss* selects the policy when a worker dies silently
    (SIGKILL, OOM) or wedges past *reply_timeout*: ``"abort"`` (the
    default) raises :class:`~repro.errors.WorkerLossError`;
    ``"degrade"`` writes the worker's shard off and finishes the run on
    the survivors — the report then carries ``degraded=True`` and the
    lost estimator names in ``lost``, and each surviving estimate is
    bit-identical to a run configured without the lost copies.
    """
    from repro.engine.core import EngineBackend

    if backend not in (EngineBackend.PROCESS, EngineBackend.THREAD):
        raise EngineError(
            f"run_parallel_engine drives the parallel backends "
            f"{(EngineBackend.THREAD, EngineBackend.PROCESS)}, got {backend!r}"
        )
    if on_worker_loss not in ("abort", "degrade"):
        raise EngineError(
            f"on_worker_loss must be 'abort' or 'degrade', got {on_worker_loss!r}"
        )
    if not specs:
        raise EngineError("no estimator specs registered")
    try:
        batch_size = check_batch_size(batch_size)
    except StreamError as error:
        raise EngineError(str(error)) from error
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise EngineError(f"duplicate estimator names in specs: {names}")

    pool_size = resolve_workers(workers, len(specs))
    shards = [
        [specs[i] for i in indices] for indices in shard_indices(len(specs), pool_size)
    ]
    handle = StreamHandle.of(stream)
    apply_cache_policy(stream, cache)
    if reset_pass_count:
        stream.reset_pass_count()

    pool = make_worker_pool(
        backend,
        shards,
        handle,
        reply_timeout,
        start_method=start_method,
        batch_capacity=batch_size,
        fault_plan=fault_plan,
    )
    lost_workers: set = set()
    if on_worker_loss == "degrade":
        def quarantine(lost: List[int]) -> None:
            pool.discard(lost)
            lost_workers.update(lost)

        pool.loss_handler = quarantine
    graceful = False
    try:
        wants = pool.gather("ready", range(pool_size))
        passes = 0
        elements = 0
        dispatches = 0
        while True:
            active = [
                worker_id
                for worker_id in pool.live_ids()
                if wants.get(worker_id, False)
            ]
            if not active:
                break
            if max_passes and passes >= max_passes:
                raise EngineError(
                    f"workers {active} still want passes after "
                    f"max_passes={max_passes}"
                )
            pool.broadcast(active, ("begin_pass", passes))
            for batch in pass_batches(stream, batch_size):
                elements += len(batch)
                pool.publish_batch(active, batch)
                dispatches += len(active)
            pool.broadcast(active, ("end_pass",))
            wants.update(pool.gather("pass_done", active))
            passes += 1

        collectors = pool.live_ids()
        if not collectors:
            raise EngineError(
                f"all {pool_size} workers were lost "
                f"(worker ids {sorted(lost_workers)}); no estimates survive"
            )
        pool.broadcast(collectors, ("collect",))
        shard_results = pool.gather("results", collectors)
        graceful = True
    finally:
        pool.shutdown(graceful)

    lost_names = sorted(
        {spec.name for worker_id in pool.discarded for spec in pool.shards[worker_id]}
    )
    results: Dict[str, Any] = {}
    for payload in shard_results.values():
        results.update(payload)
    surviving = [name for name in names if name not in lost_names]
    missing = [name for name in surviving if name not in results]
    if missing:
        raise EngineError(f"workers returned no result for {missing}")
    if not surviving:  # pragma: no cover - guarded by the collectors check
        raise EngineError("all estimator shards were lost; no estimates survive")
    return EngineReport(
        results={name: results[name] for name in surviving},
        passes=passes,
        elements=elements,
        dispatches=dispatches,
        batch_size=batch_size,
        workers=pool_size,
        degraded=bool(lost_names),
        lost=tuple(lost_names),
    )
