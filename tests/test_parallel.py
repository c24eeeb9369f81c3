"""Tests for the sharded parallel backends (:mod:`repro.engine.parallel`).

The backends' contract has four legs:

* **equality** — mirror-mode fused counts on ``backend="process"``
  and ``backend="thread"`` return the same estimates as
  ``backend="serial"`` for the same seeds, for every worker count
  (the copies are fully independent, so sharding cannot change them);
* **determinism** — every parallel run is a pure function of the
  seeds (and, in shared mode, the worker count): no worker-side
  entropy, no scheduling sensitivity, no dependence on which pool
  flavour ran the shards;
* **serializability** — everything that crosses the process boundary
  (estimator specs, seed material, baseline estimators, results)
  pickles; live generator-based estimators are *reconstructed from
  seeds* via :class:`EstimatorSpec` instead of being shipped;
* **teardown hygiene** — shutdown is bounded even with wedged
  workers, a silent worker death anywhere in the pool aborts the run
  promptly, and no shared-memory ring segment survives any teardown
  path (graceful or error).
"""

import pickle
import random
import time

import pytest

from repro import generators, insertion_stream, patterns
from repro.baselines import (
    DoulionEstimator,
    ExactStreamEstimator,
    TriestEstimator,
    doulion_count,
    exact_stream_count,
    triest_count,
)
from repro.engine import (
    EngineBackend,
    EstimatorSpec,
    FusionMode,
    StreamEngine,
    StreamHandle,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    count_subgraphs_two_pass_fused,
    fgp_insertion_estimator,
)
from repro.engine.parallel import (
    STOP_SEND_TIMEOUT,
    _make_context,
    _ProcessPool,
    build_doulion,
    build_exact_stream,
    build_triest,
    leaked_shm_segments,
    resolve_workers,
    run_parallel_engine,
    shard_indices,
)
from repro.errors import EngineError
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import pass_batches
from repro.utils.rng import derive_rng, derive_seed


def _insertion_fixture():
    graph = generators.barabasi_albert(150, 4, rng=11)
    return graph, insertion_stream(graph, rng=12)


def _assert_same_result(left, right):
    assert left.algorithm == right.algorithm
    assert left.estimate == right.estimate
    assert left.passes == right.passes
    assert left.space_words == right.space_words
    assert left.trials == right.trials
    assert left.successes == right.successes
    assert left.m == right.m
    assert left.details == right.details


class TestMirrorProcessEquality:
    """process/mirror == serial/mirror, independent of the worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_insertion_matches_serial_for_every_worker_count(self, workers):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        serial = count_subgraphs_insertion_only_fused(
            stream, pattern, copies=4, trials=30, rng=5, mode=FusionMode.MIRROR
        )
        parallel = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=4,
            trials=30,
            rng=5,
            mode=FusionMode.MIRROR,
            backend=EngineBackend.PROCESS,
            workers=workers,
        )
        assert parallel.estimate == serial.estimate
        assert parallel.estimates == serial.estimates
        assert parallel.passes == serial.passes == 3
        assert parallel.backend == "process"
        assert parallel.details["workers"] == float(min(workers, 4))
        for parallel_copy, serial_copy in zip(parallel.copies, serial.copies):
            _assert_same_result(parallel_copy, serial_copy)

    def test_turnstile_matches_serial(self):
        graph = generators.gnp(36, 0.25, rng=3)
        stream = turnstile_churn_stream(graph, churn_edges=25, rng=4)
        pattern = patterns.triangle()
        serial = count_subgraphs_turnstile_fused(
            stream, pattern, copies=3, trials=8, rng=9, mode=FusionMode.MIRROR
        )
        parallel = count_subgraphs_turnstile_fused(
            stream,
            pattern,
            copies=3,
            trials=8,
            rng=9,
            mode=FusionMode.MIRROR,
            backend=EngineBackend.PROCESS,
            workers=2,
        )
        assert parallel.estimates == serial.estimates
        for parallel_copy, serial_copy in zip(parallel.copies, serial.copies):
            _assert_same_result(parallel_copy, serial_copy)

    def test_two_pass_matches_serial(self):
        _, stream = _insertion_fixture()
        pattern = patterns.cycle(4)
        serial = count_subgraphs_two_pass_fused(
            stream, pattern, copies=3, trials=25, rng=7, mode=FusionMode.MIRROR
        )
        parallel = count_subgraphs_two_pass_fused(
            stream,
            pattern,
            copies=3,
            trials=25,
            rng=7,
            mode=FusionMode.MIRROR,
            backend=EngineBackend.PROCESS,
            workers=2,
        )
        assert parallel.passes == 2
        assert parallel.estimates == serial.estimates

    def test_explicit_copy_rngs_match_one_shot_runs(self):
        from repro import count_subgraphs_insertion_only

        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        sequential = [
            count_subgraphs_insertion_only(stream, pattern, trials=25, rng=100 + i)
            for i in range(3)
        ]
        parallel = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=3,
            trials=25,
            mode=FusionMode.MIRROR,
            copy_rngs=[100, 101, 102],
            backend=EngineBackend.PROCESS,
            workers=3,
        )
        for parallel_copy, sequential_copy in zip(parallel.copies, sequential):
            _assert_same_result(parallel_copy, sequential_copy)


class TestProcessDeterminism:
    def test_mirror_runs_are_reproducible(self):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        runs = [
            count_subgraphs_insertion_only_fused(
                stream,
                pattern,
                copies=3,
                trials=20,
                rng=17,
                mode=FusionMode.MIRROR,
                backend=EngineBackend.PROCESS,
                workers=2,
            )
            for _ in range(2)
        ]
        assert runs[0].estimates == runs[1].estimates

    def test_shared_runs_are_reproducible_for_fixed_workers(self):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        runs = [
            count_subgraphs_insertion_only_fused(
                stream,
                pattern,
                copies=4,
                trials=20,
                rng=23,
                mode=FusionMode.SHARED,
                backend=EngineBackend.PROCESS,
                workers=2,
            )
            for _ in range(2)
        ]
        assert runs[0].estimates == runs[1].estimates
        assert runs[0].passes == 3
        # Global copy indices survive sharding.
        assert [c.details["fused_copy"] for c in runs[0].copies] == [0.0, 1.0, 2.0, 3.0]

    def test_shared_rejects_copy_rngs(self):
        _, stream = _insertion_fixture()
        with pytest.raises(EngineError):
            count_subgraphs_insertion_only_fused(
                stream,
                patterns.triangle(),
                copies=2,
                trials=5,
                mode=FusionMode.SHARED,
                backend=EngineBackend.PROCESS,
                copy_rngs=[1, 2],
            )

    def test_derive_seed_matches_derive_rng(self):
        # The bridge that lets plain ints cross the process boundary in
        # place of generators.
        for label in ("copy-0", "oracle-shard-1", 7):
            a, b = random.Random(99), random.Random(99)
            assert random.Random(derive_seed(a, label)).random() == derive_rng(b, label).random()
            assert a.getstate() == b.getstate()


class TestEstimatorSerialization:
    """The first serialization audit: what crosses the boundary, pickles."""

    def test_baseline_estimators_pickle_round_trip(self):
        graph, stream = _insertion_fixture()
        pattern = patterns.triangle()
        estimators = [
            TriestEstimator(capacity=60, rng=31),
            DoulionEstimator(stream.n, 0.5, pattern, rng=32),
            ExactStreamEstimator(stream.n, pattern),
        ]
        batch = [(u, v, 1, (u, v)) for u, v in graph.edges()]
        for estimator in estimators:
            clone = pickle.loads(pickle.dumps(estimator))
            for consumer in (estimator, clone):
                consumer.begin_pass(0)
                consumer.ingest_batch(batch)
                consumer.end_pass()
            assert clone.result().estimate == estimator.result().estimate

    def test_spec_pickle_round_trip_builds_equivalent_estimator(self):
        # Generator-based estimators are reconstructable from seeds:
        # the spec (not the estimator) is what pickles.
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        spec = EstimatorSpec(
            name="fgp",
            factory=fgp_insertion_estimator,
            kwargs=dict(pattern=pattern, trials=20, rng=41, name="fgp"),
        )
        clone = pickle.loads(pickle.dumps(spec))
        results = []
        for recipe in (spec, clone):
            engine = StreamEngine(stream)
            engine.register_spec(recipe)
            results.append(engine.run()["fgp"])
        _assert_same_result(results[0], results[1])

    def test_spec_pickles_with_random_instance_seed_material(self):
        pattern = patterns.triangle()
        rng = random.Random(7)
        rng.random()  # advance: the *state*, not the seed, must survive
        spec = EstimatorSpec(
            name="fgp",
            factory=fgp_insertion_estimator,
            kwargs=dict(pattern=pattern, trials=5, rng=rng, name="fgp"),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.kwargs["rng"].getstate() == rng.getstate()

    def test_stream_handle_is_picklable_and_refuses_iteration(self):
        _, stream = _insertion_fixture()
        handle = StreamHandle.of(stream)
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.n == stream.n
        assert clone.net_edge_count == stream.net_edge_count
        assert clone.allows_deletions == stream.allows_deletions
        assert len(clone) == stream.length
        assert StreamHandle.of(clone) is clone
        with pytest.raises(EngineError):
            clone.updates()

    def test_fused_results_pickle(self):
        _, stream = _insertion_fixture()
        result = count_subgraphs_insertion_only_fused(
            stream, patterns.triangle(), copies=2, trials=10, rng=3
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.estimate == result.estimate
        assert clone.estimates == result.estimates


class TestProcessEngineApi:
    def test_heterogeneous_baseline_specs_match_one_shot(self):
        graph, stream = _insertion_fixture()
        pattern = patterns.triangle()
        sequential_triest = triest_count(stream, capacity=80, rng=31)
        sequential_doulion = doulion_count(stream, 0.5, pattern, rng=32)
        sequential_exact = exact_stream_count(stream, pattern)

        engine = StreamEngine(stream, backend=EngineBackend.PROCESS, workers=3)
        engine.register_spec(
            EstimatorSpec("triest", build_triest, dict(capacity=80, rng=31))
        )
        engine.register_spec(
            EstimatorSpec(
                "doulion",
                build_doulion,
                dict(keep_probability=0.5, pattern=pattern, rng=32),
            )
        )
        engine.register_spec(
            EstimatorSpec("exact", build_exact_stream, dict(pattern=pattern))
        )
        report = engine.run()

        assert report.passes == 1
        assert report.workers == 3
        assert report["triest"].estimate == sequential_triest.estimate
        assert report["doulion"].estimate == sequential_doulion.estimate
        assert report["exact"].estimate == sequential_exact.estimate

    def test_register_live_estimator_rejected_on_process_backend(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream, backend=EngineBackend.PROCESS)
        with pytest.raises(EngineError, match="worker pool"):
            engine.register(TriestEstimator(capacity=10, rng=1))

    def test_register_spec_on_serial_backend_builds_immediately(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream)
        engine.register_spec(
            EstimatorSpec("triest", build_triest, dict(capacity=30, rng=9))
        )
        assert [e.name for e in engine.estimators] == ["triest"]
        report = engine.run()
        assert report.workers == 1
        assert report["triest"].algorithm == "triest"

    def test_duplicate_spec_names_rejected(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream, backend=EngineBackend.PROCESS)
        engine.register_spec(EstimatorSpec("a", build_triest, dict(capacity=10, name="a")))
        with pytest.raises(EngineError):
            engine.register_spec(
                EstimatorSpec("a", build_triest, dict(capacity=10, name="a"))
            )

    def test_unknown_backend_rejected(self):
        _, stream = _insertion_fixture()
        with pytest.raises(EngineError):
            StreamEngine(stream, backend="threads")

    def test_run_without_specs_rejected(self):
        _, stream = _insertion_fixture()
        with pytest.raises(EngineError):
            StreamEngine(stream, backend=EngineBackend.PROCESS).run()

    def test_worker_failure_propagates_with_traceback(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream, backend=EngineBackend.PROCESS, workers=1)
        engine.register_spec(EstimatorSpec("boom", _exploding_factory, {}))
        with pytest.raises(EngineError, match="worker 0 failed"):
            engine.run()

    def test_mid_pass_worker_failure_does_not_deadlock(self):
        # The estimator dies on the first batch while the driver still
        # has a whole pass of batch_size=1 messages to broadcast; the
        # guarded send must surface the worker's error instead of
        # blocking forever on the full command queue.
        _, stream = _insertion_fixture()
        engine = StreamEngine(
            stream, batch_size=1, backend=EngineBackend.PROCESS, workers=1
        )
        engine.register_spec(EstimatorSpec("mine", _ingest_bomb_factory, {}))
        with pytest.raises(EngineError, match="worker 0 failed"):
            engine.run()

    def test_misnamed_spec_fails_in_worker(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream, backend=EngineBackend.PROCESS, workers=1)
        engine.register_spec(
            EstimatorSpec("expected", build_triest, dict(capacity=10, name="actual"))
        )
        with pytest.raises(EngineError, match="worker 0 failed"):
            engine.run()


class TestThreadBackend:
    """The thread tier: same worker loop, by-reference transport."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_insertion_mirror_matches_serial_for_every_worker_count(self, workers):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        serial = count_subgraphs_insertion_only_fused(
            stream, pattern, copies=4, trials=30, rng=5, mode=FusionMode.MIRROR
        )
        threaded = count_subgraphs_insertion_only_fused(
            stream,
            pattern,
            copies=4,
            trials=30,
            rng=5,
            mode=FusionMode.MIRROR,
            backend=EngineBackend.THREAD,
            workers=workers,
        )
        assert threaded.estimate == serial.estimate
        assert threaded.estimates == serial.estimates
        assert threaded.passes == serial.passes == 3
        assert threaded.backend == "thread"
        for threaded_copy, serial_copy in zip(threaded.copies, serial.copies):
            _assert_same_result(threaded_copy, serial_copy)

    def test_shared_mode_matches_process_backend(self):
        # Shared mode shards the merged oracles per worker, so the
        # estimates depend on the pool size — but not on the pool
        # flavour: every seed is derived driver-side.
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        results = {
            backend: count_subgraphs_insertion_only_fused(
                stream,
                pattern,
                copies=4,
                trials=20,
                rng=23,
                mode=FusionMode.SHARED,
                backend=backend,
                workers=2,
            )
            for backend in (EngineBackend.THREAD, EngineBackend.PROCESS)
        }
        assert (
            results[EngineBackend.THREAD].estimates
            == results[EngineBackend.PROCESS].estimates
        )

    def test_heterogeneous_baseline_specs_match_one_shot(self):
        _, stream = _insertion_fixture()
        pattern = patterns.triangle()
        engine = StreamEngine(stream, backend=EngineBackend.THREAD, workers=2)
        engine.register_spec(
            EstimatorSpec("triest", build_triest, dict(capacity=80, rng=31))
        )
        engine.register_spec(
            EstimatorSpec("exact", build_exact_stream, dict(pattern=pattern))
        )
        report = engine.run()
        assert report.workers == 2
        assert report["triest"].estimate == triest_count(stream, capacity=80, rng=31).estimate
        assert report["exact"].estimate == exact_stream_count(stream, pattern).estimate

    def test_register_live_estimator_rejected_on_thread_backend(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream, backend=EngineBackend.THREAD)
        with pytest.raises(EngineError, match="worker pool"):
            engine.register(TriestEstimator(capacity=10, rng=1))

    def test_worker_failure_propagates_with_traceback(self):
        _, stream = _insertion_fixture()
        engine = StreamEngine(stream, backend=EngineBackend.THREAD, workers=1)
        engine.register_spec(EstimatorSpec("boom", _exploding_factory, {}))
        with pytest.raises(EngineError, match="thread worker 0 failed"):
            engine.run()


class TestTeardownHygiene:
    """Bounded shutdown, pool-wide death probes, no leaked segments."""

    def _pool(self, shards, batch_capacity=None):
        _, stream = _insertion_fixture()
        handle = StreamHandle.of(stream)
        kwargs = {} if batch_capacity is None else dict(batch_capacity=batch_capacity)
        return (
            _ProcessPool(_make_context(None), shards, handle, 600.0, **kwargs),
            stream,
        )

    @staticmethod
    def _fill_command_queue(pool, worker_id, payload):
        """Stuff a wedged worker's bounded queue until it backpressures."""
        import queue as queue_module

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                pool.commands[worker_id].put_nowait(payload)
            except queue_module.Full:
                return
            time.sleep(0.001)
        pytest.fail("command queue never filled; the worker should be wedged")

    def test_graceful_shutdown_with_wedged_worker_is_bounded(self):
        # Regression: shutdown(graceful=True) used to do a blocking
        # put(("stop",)) — a worker stalled mid-ingest with a full
        # command queue hung the driver forever.
        pool, _ = self._pool([[EstimatorSpec("stall", _stalling_factory, {})]])
        try:
            pool.gather("ready", [0])
            pool.send(0, ("begin_pass", 0))
            self._fill_command_queue(pool, 0, ("batch", [(0, 1, 1, (0, 1))]))
        finally:
            start = time.monotonic()
            pool.shutdown(graceful=True)
            elapsed = time.monotonic() - start
        assert elapsed < STOP_SEND_TIMEOUT + 20.0
        assert not pool.processes[0].is_alive()

    def test_silent_sibling_death_aborts_blocked_send(self):
        # Regression: the guarded send used to probe only its own
        # target, so a sibling dying silently (kill -9, OOM) left the
        # driver blocked on the wedged worker until the 600s reply
        # timeout instead of aborting within about a second.
        pool, _ = self._pool(
            [
                [EstimatorSpec("stall", _stalling_factory, {})],
                [
                    EstimatorSpec(
                        "exact", build_exact_stream, dict(pattern=patterns.triangle())
                    )
                ],
            ]
        )
        try:
            pool.gather("ready", [0, 1])
            pool.broadcast([0, 1], ("begin_pass", 0))
            self._fill_command_queue(pool, 0, ("batch", [(0, 1, 1, (0, 1))]))
            pool.processes[1].kill()
            pool.processes[1].join(timeout=10.0)
            start = time.monotonic()
            with pytest.raises(EngineError, match="died without reporting an error"):
                pool.send(0, ("batch", [(1, 2, 1, (1, 2))]))
            assert time.monotonic() - start < 30.0
        finally:
            pool.shutdown(graceful=False)

    def test_columnar_batches_travel_through_the_ring(self):
        # White-box: drive the worker protocol by hand and check the
        # batches actually took the shared-memory path (shm_batches
        # counts ring publications, not pickled fallbacks) while the
        # results still match the serial exact count.
        pattern = patterns.triangle()
        shards = [[EstimatorSpec("exact", build_exact_stream, dict(pattern=pattern))]]
        before = set(leaked_shm_segments())
        pool, stream = self._pool(shards, batch_capacity=64)
        try:
            pool.gather("ready", [0])
            pool.send(0, ("begin_pass", 0))
            for batch in pass_batches(stream, 64):
                pool.publish_batch([0], batch)
            pool.send(0, ("end_pass",))
            pool.gather("pass_done", [0])
            pool.send(0, ("collect",))
            results = pool.gather("results", [0])
        finally:
            pool.shutdown(graceful=True)
        assert pool.shm_batches > 0
        assert results[0]["exact"].estimate == exact_stream_count(stream, pattern).estimate
        assert set(leaked_shm_segments()) == before

    def test_no_segments_leak_on_the_graceful_path(self):
        _, stream = _insertion_fixture()
        before = set(leaked_shm_segments())
        count_subgraphs_insertion_only_fused(
            stream,
            patterns.triangle(),
            copies=2,
            trials=5,
            rng=1,
            mode=FusionMode.MIRROR,
            backend=EngineBackend.PROCESS,
            workers=2,
            batch_size=32,
        )
        assert set(leaked_shm_segments()) == before

    def test_no_segments_leak_on_the_error_path(self):
        # The bomb detonates while ring slots are still in flight; the
        # terminate path must unlink every segment regardless.
        _, stream = _insertion_fixture()
        before = set(leaked_shm_segments())
        engine = StreamEngine(
            stream, batch_size=1, backend=EngineBackend.PROCESS, workers=1
        )
        engine.register_spec(EstimatorSpec("mine", _ingest_bomb_factory, {}))
        with pytest.raises(EngineError, match="worker 0 failed"):
            engine.run()
        assert set(leaked_shm_segments()) == before

    def test_no_segments_leak_after_sigkill_during_publish(self):
        # Hardest teardown case: a worker takes a real SIGKILL while a
        # shared-memory batch it was ingesting is still in its ring
        # slot.  The degrade path must finish with survivors AND the
        # ring teardown must still unlink every segment — a dead
        # attach-side process cannot be allowed to pin one.
        from repro.faults import FaultPlan

        _, stream = _insertion_fixture()
        before = set(leaked_shm_segments())
        plan = FaultPlan(seed=77).kill_worker(0, nth_batch=2)
        report = run_parallel_engine(
            stream,
            [
                EstimatorSpec("t0", build_triest,
                              dict(capacity=60, rng=31, name="t0")),
                EstimatorSpec("t1", build_triest,
                              dict(capacity=60, rng=32, name="t1")),
            ],
            backend="process",
            workers=2,
            batch_size=64,
            on_worker_loss="degrade",
            fault_plan=plan,
        )
        assert report.degraded
        assert report.lost == ("t0",)
        assert "t1" in report.results
        assert set(leaked_shm_segments()) == before


class TestShardingHelpers:
    def test_shard_indices_partition(self):
        assert shard_indices(5, 2) == [[0, 1, 2], [3, 4]]
        assert shard_indices(4, 4) == [[0], [1], [2], [3]]
        assert shard_indices(2, 5) == [[0], [1]]
        assert shard_indices(0, 3) == []
        with pytest.raises(EngineError):
            shard_indices(3, 0)

    def test_resolve_workers(self):
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(None, 3) >= 1
        with pytest.raises(EngineError):
            resolve_workers(0, 3)


def _exploding_factory(stream, **kwargs):
    raise RuntimeError("intentional failure for the error-path test")


class _IngestBomb:
    """Accepts the pass, then detonates on the first ingested batch."""

    name = "mine"

    def __init__(self):
        self._done = False

    def wants_pass(self):
        return not self._done

    def begin_pass(self, pass_index):
        pass

    def ingest_batch(self, batch):
        raise RuntimeError("intentional mid-pass failure")

    def end_pass(self):
        self._done = True

    def result(self):
        return None


def _ingest_bomb_factory(stream, **kwargs):
    return _IngestBomb()


class _StallingEstimator:
    """Wedges its worker: never returns from the first ingested batch."""

    name = "stall"

    def wants_pass(self):
        return True

    def begin_pass(self, pass_index):
        pass

    def ingest_batch(self, batch):
        time.sleep(600.0)

    def end_pass(self):
        pass

    def result(self):
        return None


def _stalling_factory(stream, **kwargs):
    return _StallingEstimator()
