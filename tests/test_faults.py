"""Fault-injection drills (:mod:`repro.faults`, :mod:`repro.utils.retry`).

Every drill here is deterministic: the fault plan's seed and rules are
the only inputs, so a failing drill reproduces from its parameters
alone.  The headline contracts:

* **degraded-K equality** — killing a worker mid-run drops exactly its
  shard; every surviving estimator is bit-equal to the same-named copy
  of an uninterrupted run (the copies are independent, so a dead
  sibling cannot perturb them);
* **respawn equality** — when the live engine respawns a dead worker
  and replays the journal, the replacement's estimates are bit-equal
  to an uninterrupted run (element order is all that matters);
* **transient-vs-deterministic** — injected ``EIO`` weather under the
  retry budget is invisible; past the budget it surfaces unchanged,
  and library-diagnosed errors are never retried at all;
* **delta-chain recovery** — a torn delta tip is dropped with a
  warning, restore lands on the longest valid prefix, and re-feeding
  the remainder reconverges bit-equal to a run that never tore.
"""

import errno
import os
import pickle
import random

import pytest

from repro import generators, insertion_stream, patterns
from repro.engine import EstimatorSpec, LiveEngine, checkpoint_manifest
from repro.engine.parallel import (
    build_triest,
    leaked_shm_segments,
    run_parallel_engine,
)
from repro.errors import (
    CheckpointError,
    EngineError,
    FaultInjected,
    WorkerLossError,
)
from repro.faults import (
    FaultPlan,
    FaultRule,
    WorkerKilled,
    activate,
    active_plan,
    append_garbage,
    fire,
    flip_bit,
    overwrite_bytes,
    truncate_file,
)
from repro.utils.retry import RetryPolicy, retry_call


def _insertion_fixture():
    graph = generators.barabasi_albert(120, 4, rng=11)
    return graph, insertion_stream(graph, rng=12)


def _triest_specs(copies=4, capacity=80, base_rng=31):
    return [
        EstimatorSpec(
            name=f"t{index}",
            factory=build_triest,
            kwargs=dict(capacity=capacity, rng=base_rng + index,
                        name=f"t{index}"),
        )
        for index in range(copies)
    ]


def _fgp_specs(stream, copies=4, trials=20, base_rng=200):
    from repro.engine.estimators import fgp_insertion_estimator

    pattern = patterns.triangle()
    return [
        EstimatorSpec(
            name=f"copy-{index}",
            factory=fgp_insertion_estimator,
            kwargs=dict(pattern=pattern, trials=trials,
                        rng=base_rng + index, name=f"copy-{index}"),
        )
        for index in range(copies)
    ]


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(FaultInjected):
            FaultRule(site="disk.write", action="melt")
        with pytest.raises(FaultInjected):
            FaultRule(site="disk.write", action="io_error", nth=0)
        with pytest.raises(FaultInjected):
            FaultRule(site="disk.write", action="io_error", count=0)

    def test_io_error_window(self):
        plan = FaultPlan(seed=1).fail_disk_write(nth=2, count=2)
        plan.fire("disk.write")  # call 1: clean
        for _ in range(2):  # calls 2 and 3: the window
            with pytest.raises(OSError) as info:
                plan.fire("disk.write")
            assert info.value.errno == errno.EIO
        plan.fire("disk.write")  # call 4: clean again

    def test_raise_action_and_site_isolation(self):
        plan = FaultPlan(seed=2, rules=[FaultRule(site="x", action="raise")])
        plan.fire("y")  # different site: not counted
        with pytest.raises(FaultInjected):
            plan.fire("x")

    def test_worker_filter(self):
        plan = FaultPlan(seed=3).fail_shm_attach(nth=1)
        plan.rules[0] = FaultRule(
            site="shm.attach", action="io_error", nth=1, worker=1
        )
        plan.fire("shm.attach", worker=0)  # not worker 1: ignored
        with pytest.raises(OSError):
            plan.fire("shm.attach", worker=1)

    def test_pickle_resets_counters(self):
        plan = FaultPlan(seed=4).fail_disk_write(nth=1)
        with pytest.raises(OSError):
            plan.fire("disk.write")
        plan.fire("disk.write")  # counter moved past the window
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed
        assert clone.rules == plan.rules
        with pytest.raises(OSError):
            clone.fire("disk.write")  # fresh process counts from zero

    def test_rng_is_seed_and_label_deterministic(self):
        a = FaultPlan(seed=7).rng("offsets")
        b = FaultPlan(seed=7).rng("offsets")
        assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]
        assert FaultPlan(seed=7).rng("other").random() != \
            FaultPlan(seed=7).rng("offsets").random()
        assert FaultPlan(seed=8).rng("offsets").random() != \
            FaultPlan(seed=7).rng("offsets").random()

    def test_activate_scoping(self):
        assert active_plan() is None
        plan = FaultPlan(seed=5).fail_disk_write(nth=1)
        with activate(plan):
            assert active_plan() is plan
            with pytest.raises(OSError):
                fire("disk.write")
        assert active_plan() is None
        fire("disk.write")  # no active plan: a no-op

    def test_fire_with_explicit_plan_beats_global(self):
        explicit = FaultPlan(seed=6).fail_disk_write(nth=1)
        with activate(FaultPlan(seed=6)):
            with pytest.raises(OSError):
                fire("disk.write", plan=explicit)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    def test_deterministic_jitter_schedule(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=1.0)
        first = list(policy.delays(random.Random(17)))
        second = list(policy.delays(random.Random(17)))
        assert first == second
        assert len(first) == 4
        assert all(d >= 0 for d in first)

    def test_succeeds_within_budget(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "weather")
            return "ok"

        result = retry_call(
            flaky, RetryPolicy(attempts=3), seed=0, sleep=lambda d: None
        )
        assert result == "ok"
        assert len(calls) == 3

    def test_exhaustion_reraises_last_error(self):
        def doomed():
            raise OSError(errno.ENOSPC, "still full")

        with pytest.raises(OSError) as info:
            retry_call(doomed, RetryPolicy(attempts=3), seed=0,
                       sleep=lambda d: None)
        assert info.value.errno == errno.ENOSPC

    def test_never_retries_repro_errors(self):
        calls = []

        def diagnosed():
            calls.append(1)
            raise CheckpointError("a deterministic diagnosis")

        with pytest.raises(CheckpointError):
            retry_call(diagnosed, RetryPolicy(attempts=5),
                       retry_on=(Exception,), sleep=lambda d: None)
        assert len(calls) == 1

    def test_on_retry_callback(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise OSError(errno.EIO, "once")
            return 42

        retry_call(flaky, RetryPolicy(attempts=2), seed=0,
                   sleep=lambda d: None,
                   on_retry=lambda attempt, err: seen.append((attempt, err)))
        assert len(seen) == 1
        assert seen[0][0] == 1
        assert isinstance(seen[0][1], OSError)


class TestCorruptionHelpers:
    def test_truncate_negative_counts_from_end(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"0123456789")
        assert truncate_file(path, -3) == 7
        assert path.read_bytes() == b"0123456"
        assert truncate_file(path, 100) == 7  # never grows

    def test_flip_bit_is_an_involution(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abcd")
        flip_bit(path, 1, bit=3)
        assert path.read_bytes() != b"abcd"
        flip_bit(path, 1, bit=3)
        assert path.read_bytes() == b"abcd"
        with pytest.raises(ValueError):
            flip_bit(path, 99)

    def test_overwrite_and_append(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abcd")
        overwrite_bytes(path, -2, b"XY")
        assert path.read_bytes() == b"abXY"
        garbage = append_garbage(path, 5, seed=9)
        assert append_garbage(path, 5, seed=9) == garbage
        assert path.read_bytes() == b"abXY" + garbage + garbage


class TestParallelWorkerLoss:
    """run_parallel_engine under injected worker death (thread tier)."""

    def _run(self, stream, specs, **kwargs):
        return run_parallel_engine(
            stream, specs, backend="thread", workers=4, batch_size=64,
            **kwargs,
        )

    def test_degrade_drops_only_the_dead_shard(self):
        _, stream = _insertion_fixture()
        specs = _triest_specs()
        reference = self._run(stream, [s for s in specs])
        plan = FaultPlan(seed=41).kill_worker(2, nth_batch=2)
        degraded = self._run(
            stream, specs, on_worker_loss="degrade", fault_plan=plan
        )
        assert degraded.degraded
        assert degraded.lost  # exactly the dead worker's shard
        survivors = [s.name for s in specs if s.name not in degraded.lost]
        assert survivors
        for name in survivors:
            assert degraded[name].estimate == reference[name].estimate
            assert degraded[name].details == reference[name].details
        for name in degraded.lost:
            assert name not in degraded.results

    def test_degrade_is_deterministic(self):
        _, stream = _insertion_fixture()
        runs = []
        for _ in range(2):
            plan = FaultPlan(seed=42).kill_worker(1, nth_batch=3)
            report = self._run(
                stream, _triest_specs(), on_worker_loss="degrade",
                fault_plan=plan,
            )
            runs.append((report.lost,
                         {n: r.estimate for n, r in report.results.items()}))
        assert runs[0] == runs[1]

    def test_abort_raises_worker_loss_error(self):
        _, stream = _insertion_fixture()
        plan = FaultPlan(seed=43).kill_worker(1, nth_batch=2)
        with pytest.raises(WorkerLossError) as info:
            self._run(stream, _triest_specs(), fault_plan=plan)
        assert 1 in info.value.worker_ids

    def test_wedge_is_detected_and_degraded(self):
        _, stream = _insertion_fixture()
        reference = self._run(stream, _triest_specs())
        plan = FaultPlan(seed=44).wedge_worker(3, nth_batch=2, seconds=120.0)
        report = run_parallel_engine(
            stream, _triest_specs(), backend="thread", workers=4,
            batch_size=16, reply_timeout=1.0, on_worker_loss="degrade",
            fault_plan=plan,
        )
        assert report.degraded
        for name, result in report.results.items():
            assert result.estimate == reference[name].estimate

    def test_invalid_policy_rejected(self):
        _, stream = _insertion_fixture()
        with pytest.raises(EngineError):
            run_parallel_engine(stream, _triest_specs(),
                                backend="thread", on_worker_loss="panic")


class TestProcessWorkerLoss:
    """One real-SIGKILL drill through the process pool."""

    def test_sigkill_degrades_and_leaks_nothing(self):
        _, stream = _insertion_fixture()
        specs = _triest_specs(copies=2)
        reference = run_parallel_engine(
            stream, [s for s in specs], backend="thread", workers=2,
            batch_size=64,
        )
        plan = FaultPlan(seed=45).kill_worker(0, nth_batch=2)
        report = run_parallel_engine(
            stream, specs, backend="process", workers=2, batch_size=64,
            on_worker_loss="degrade", fault_plan=plan,
        )
        assert report.degraded
        assert report.lost == ("t0",)
        assert report["t1"].estimate == reference["t1"].estimate
        assert leaked_shm_segments() == []

    def test_transient_shm_attach_failures_are_retried(self):
        _, stream = _insertion_fixture()
        specs = _triest_specs(copies=2)
        reference = run_parallel_engine(
            stream, [s for s in specs], backend="thread", workers=2,
            batch_size=64,
        )
        plan = FaultPlan(seed=46).fail_shm_attach(nth=1, count=2)
        report = run_parallel_engine(
            stream, specs, backend="process", workers=2, batch_size=64,
            fault_plan=plan,
        )
        assert not report.degraded
        for name in ("t0", "t1"):
            assert report[name].estimate == reference[name].estimate
        assert leaked_shm_segments() == []


class TestLiveEngineRecovery:
    """LiveEngine worker loss: respawn-and-replay, then degrade."""

    def _reference(self, stream, specs):
        engine = LiveEngine(n=stream.n)
        engine.register_all([EstimatorSpec(s.name, s.factory, dict(s.kwargs))
                             for s in specs])
        u, v, d = stream.columns()
        engine.feed((u, v, d))
        results = engine.estimate()
        engine.close()
        return results

    def _feed_chunks(self, engine, stream, chunk=64):
        u, v, d = stream.columns()
        for start in range(0, len(u), chunk):
            engine.feed((u[start:start + chunk], v[start:start + chunk],
                         d[start:start + chunk]))

    def test_respawn_replays_to_bit_equality(self):
        _, stream = _insertion_fixture()
        specs = _triest_specs()
        reference = self._reference(stream, specs)
        plan = FaultPlan(seed=51).kill_worker(2, nth_batch=3)
        engine = LiveEngine(
            n=stream.n, backend="thread", workers=4, batch_size=64,
            respawn_budget=2, fault_plan=plan,
        )
        engine.register_all(specs)
        self._feed_chunks(engine, stream)
        results = engine.estimate()
        assert not engine.degraded
        assert engine.respawns_left == 1
        for name, result in reference.items():
            assert results[name].estimate == result.estimate
            assert results[name].details == result.details
        engine.close()

    def test_exhausted_budget_degrades_to_survivors(self):
        _, stream = _insertion_fixture()
        specs = _triest_specs()
        reference = self._reference(stream, specs)
        plan = FaultPlan(seed=52).kill_worker(2, nth_batch=3)
        engine = LiveEngine(
            n=stream.n, backend="thread", workers=4, batch_size=64,
            respawn_budget=0, fault_plan=plan,
        )
        engine.register_all(specs)
        self._feed_chunks(engine, stream)
        # A silent thread death is detected lazily, at the next state
        # gather — estimate() both finds the body and degrades.
        results = engine.estimate()
        assert engine.degraded
        assert engine.lost_estimators == ["t2"]
        assert engine.surviving_copies == 3
        assert set(results) == {"t0", "t1", "t3"}
        for name, result in results.items():
            assert result.estimate == reference[name].estimate
        with pytest.raises(EngineError):
            engine.estimate(["t2"])
        status = engine.status()
        assert status["degraded"] is True
        assert status["lost"] == ["t2"]
        assert status["surviving_copies"] == 3
        engine.close()

    def test_abort_policy_raises(self):
        _, stream = _insertion_fixture()
        plan = FaultPlan(seed=53).kill_worker(1, nth_batch=2)
        engine = LiveEngine(
            n=stream.n, backend="thread", workers=4, batch_size=64,
            on_worker_loss="abort", fault_plan=plan,
        )
        engine.register_all(_triest_specs())
        with pytest.raises(WorkerLossError):
            self._feed_chunks(engine, stream)
            engine.estimate()  # detection is lazy; the gather finds the body
        engine.close()

    def test_degraded_snapshot_round_trips_lost_names(self, tmp_path):
        _, stream = _insertion_fixture()
        plan = FaultPlan(seed=54).kill_worker(0, nth_batch=2)
        engine = LiveEngine(
            n=stream.n, backend="thread", workers=4, batch_size=64,
            respawn_budget=0, fault_plan=plan,
        )
        engine.register_all(_triest_specs())
        self._feed_chunks(engine, stream)
        expected = {n: r.estimate for n, r in engine.estimate().items()}
        assert engine.degraded
        lost = engine.lost_estimators
        path = str(tmp_path / "degraded.ckpt")
        engine.snapshot(path)
        engine.close()
        restored = LiveEngine.restore(path)
        assert restored.degraded
        assert restored.lost_estimators == lost
        assert {n: r.estimate for n, r in restored.estimate().items()} == expected
        restored.close()


class TestDiskWriteRetry:
    """Injected EIO under/over the retry budget, snapshot and .reb paths."""

    def _small_engine(self, stream):
        engine = LiveEngine(n=stream.n)
        engine.register_all(_triest_specs(copies=2))
        u, v, d = stream.columns()
        engine.feed((u[:100], v[:100], d[:100]))
        return engine

    def test_snapshot_survives_two_transient_failures(self, tmp_path):
        _, stream = _insertion_fixture()
        engine = self._small_engine(stream)
        path = str(tmp_path / "ckpt.bin")
        with activate(FaultPlan(seed=61).fail_disk_write(nth=1, count=2)):
            engine.snapshot(path)
        restored = LiveEngine.restore(path)
        assert restored.elements == engine.elements
        engine.close()
        restored.close()

    def test_snapshot_fails_past_the_budget(self, tmp_path):
        _, stream = _insertion_fixture()
        engine = self._small_engine(stream)
        path = str(tmp_path / "ckpt.bin")
        with activate(FaultPlan(seed=62).fail_disk_write(nth=1, count=3)):
            with pytest.raises(OSError):
                engine.snapshot(path)
        assert not os.path.exists(path)  # never a half-written target
        assert not os.path.exists(path + ".tmp")
        engine.close()

    def test_binary_writer_publish_is_retried(self, tmp_path):
        import numpy as np

        from repro.streams.datasets import BinaryUpdateWriter, DiskEdgeStream

        path = str(tmp_path / "updates.reb")
        with activate(FaultPlan(seed=63).fail_disk_write(nth=1, count=2)):
            writer = BinaryUpdateWriter(path, n=10)
            writer.append(np.array([0, 1]), np.array([2, 3]))
            writer.close()
        stream = DiskEdgeStream(path)
        assert stream.length == 2
        assert not os.path.exists(path + ".part")

    def test_binary_writer_publish_fails_past_budget(self, tmp_path):
        import numpy as np

        from repro.streams.datasets import BinaryUpdateWriter

        path = str(tmp_path / "updates.reb")
        with activate(FaultPlan(seed=64).fail_disk_write(nth=1, count=3)):
            writer = BinaryUpdateWriter(path, n=10)
            writer.append(np.array([0, 1]), np.array([2, 3]))
            with pytest.raises(OSError):
                writer.close()
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".part")


class TestDeltaCheckpoints:
    """Base + journal-tail snapshots: chaining, rotation, torn-tip fallback."""

    def _engine(self, stream, copies=3):
        engine = LiveEngine(n=stream.n)
        engine.register_all(_fgp_specs(stream, copies=copies))
        return engine

    def _estimates(self, engine):
        return {n: r.estimate for n, r in engine.estimate().items()}

    def test_delta_chain_restores_bit_identical(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        cuts = [len(u) // 4, len(u) // 2, 3 * len(u) // 4, len(u)]
        path = str(tmp_path / "live.ckpt")

        engine = self._engine(stream)
        previous = 0
        written = []
        for cut in cuts:
            engine.feed((u[previous:cut], v[previous:cut], d[previous:cut]))
            written.append(engine.snapshot(path, mode="delta"))
            previous = cut
        expected = self._estimates(engine)
        engine.close()

        assert written[0] == path  # no base yet: the first write is full
        assert written[1:] == [f"{path}.delta.{i:05d}" for i in range(3)]
        sizes = [os.path.getsize(p) for p in written]
        assert max(sizes[1:]) < sizes[0]  # tails cost O(updates), not O(state)

        restored = LiveEngine.restore(path)
        assert restored.restore_info == {
            "path": path, "deltas_applied": 3, "fell_back": False,
            "dropped": [],
        }
        assert restored.elements == len(u)
        assert self._estimates(restored) == expected
        restored.close()

    def test_torn_tip_falls_back_then_reconverges(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        half, rest = len(u) // 2, 3 * len(u) // 4
        path = str(tmp_path / "live.ckpt")

        engine = self._engine(stream)
        engine.feed((u[:half], v[:half], d[:half]))
        engine.snapshot(path, mode="delta")  # full base
        engine.feed((u[half:rest], v[half:rest], d[half:rest]))
        tip = engine.snapshot(path, mode="delta")
        engine.feed((u[rest:], v[rest:], d[rest:]))
        expected = self._estimates(engine)
        engine.close()

        truncate_file(tip, -5)
        restored = LiveEngine.restore(path)
        assert restored.restore_info["fell_back"]
        assert restored.restore_info["dropped"] == [tip]
        assert restored.restore_info["deltas_applied"] == 0
        assert restored.elements == half  # the last valid point
        restored.feed((u[half:], v[half:], d[half:]))
        assert self._estimates(restored) == expected
        # The next delta snapshot overwrites the torn tip in place.
        assert restored.snapshot(path, mode="delta") == tip
        reread = LiveEngine.restore(path)
        assert not reread.restore_info["fell_back"]
        assert self._estimates(reread) == expected
        reread.close()
        restored.close()

    def test_corrupt_middle_delta_drops_the_suffix(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        path = str(tmp_path / "live.ckpt")
        engine = self._engine(stream)
        previous = 0
        written = []
        for cut in (len(u) // 4, len(u) // 2, 3 * len(u) // 4):
            engine.feed((u[previous:cut], v[previous:cut], d[previous:cut]))
            written.append(engine.snapshot(path, mode="delta"))
            previous = cut
        engine.close()

        flip_bit(written[1], -10)  # corrupt delta 0 of the two
        restored = LiveEngine.restore(path)
        assert restored.restore_info["deltas_applied"] == 0
        assert restored.restore_info["dropped"] == written[1:]
        assert restored.elements == len(u) // 4
        restored.close()

    def test_rotation_writes_a_fresh_full_base(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        path = str(tmp_path / "live.ckpt")
        engine = self._engine(stream, copies=2)
        chunk = len(u) // 5
        written = []
        for start in range(0, chunk * 5, chunk):
            engine.feed((u[start:start + chunk], v[start:start + chunk],
                         d[start:start + chunk]))
            written.append(engine.snapshot(path, mode="delta", max_deltas=2))
        expected = self._estimates(engine)
        engine.close()

        # full, delta 0, delta 1, rotated full, delta 0 (fresh chain)
        assert written[0] == path
        assert written[1] == f"{path}.delta.00000"
        assert written[2] == f"{path}.delta.00001"
        assert written[3] == path
        assert written[4] == f"{path}.delta.00000"
        assert not os.path.exists(f"{path}.delta.00001")  # pruned on rotation

        restored = LiveEngine.restore(path)
        assert restored.restore_info["deltas_applied"] == 1
        assert self._estimates(restored) == expected
        restored.close()

    def test_delta_snapshot_without_new_updates_is_a_noop(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        path = str(tmp_path / "live.ckpt")
        engine = self._engine(stream, copies=2)
        engine.feed((u[:50], v[:50], d[:50]))
        assert engine.snapshot(path, mode="delta") == path
        assert engine.snapshot(path, mode="delta") == path
        assert not os.path.exists(f"{path}.delta.00000")
        engine.close()

    def test_delta_file_rejected_as_base(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        path = str(tmp_path / "live.ckpt")
        engine = self._engine(stream, copies=2)
        engine.feed((u[:50], v[:50], d[:50]))
        engine.snapshot(path, mode="delta")
        engine.feed((u[50:100], v[50:100], d[50:100]))
        tip = engine.snapshot(path, mode="delta")
        engine.close()
        with pytest.raises(CheckpointError, match="delta"):
            LiveEngine.restore(tip)

    def test_mode_validation(self, tmp_path):
        _, stream = _insertion_fixture()
        engine = self._engine(stream, copies=2)
        with pytest.raises(CheckpointError):
            engine.snapshot(str(tmp_path / "x"), mode="increment")
        with pytest.raises(CheckpointError):
            engine.snapshot(str(tmp_path / "x"), mode="delta", max_deltas=0)
        engine.close()

    def test_manifest_exposes_the_byte_layout(self, tmp_path):
        _, stream = _insertion_fixture()
        u, v, d = stream.columns()
        path = str(tmp_path / "live.ckpt")
        engine = self._engine(stream, copies=2)
        engine.feed((u[:50], v[:50], d[:50]))
        engine.snapshot(path)
        engine.close()
        manifest = checkpoint_manifest(path)
        assert manifest["version"] == 2
        assert [s["name"] for s in manifest["sections"]] == [
            "engine", "journal", "estimators",
        ]
        last = manifest["sections"][-1]
        assert last["payload_offset"] + last["payload_length"] == \
            manifest["size"]


class TestDegradedQueries:
    """Queries against lost estimators refuse loudly, never partially.

    Regression tier for the degraded-path sweep: before it, an
    ``estimate(names=...)`` whose loss was discovered *during* the
    state gather silently returned a partial (or empty) result dict,
    and a fully degraded engine produced estimate dicts that blew up
    downstream median aggregation with a bare ``StatisticsError``.
    """

    def _feed_all(self, engine, stream, chunk=64):
        u, v, d = stream.columns()
        for start in range(0, len(u), chunk):
            engine.feed((u[start:start + chunk], v[start:start + chunk],
                         d[start:start + chunk]))

    def _engine(self, stream, plan):
        engine = LiveEngine(
            n=stream.n, backend="thread", workers=4, batch_size=64,
            respawn_budget=0, fault_plan=plan,
        )
        engine.register_all(_triest_specs())
        return engine

    def test_every_copy_lost_raises_naming_all(self):
        _, stream = _insertion_fixture()
        plan = FaultPlan(seed=61)
        for worker in range(4):
            plan = plan.kill_worker(worker, nth_batch=2)
        engine = self._engine(stream, plan)
        self._feed_all(engine, stream)
        with pytest.raises(EngineError, match="t0, t1, t2, t3"):
            engine.estimate()
        assert engine.degraded
        assert engine.lost_estimators == ["t0", "t1", "t2", "t3"]
        assert engine.surviving_copies == 0
        # The refusal is stable: asking again refuses the same way
        # instead of tripping on drained internal state.
        with pytest.raises(EngineError,
                           match="every (requested|registered) estimator"):
            engine.estimate()
        engine.close()

    def test_loss_discovered_mid_gather_refuses_partial_result(self):
        _, stream = _insertion_fixture()
        plan = FaultPlan(seed=62).kill_worker(2, nth_batch=3)
        engine = self._engine(stream, plan)
        self._feed_all(engine, stream)
        # The thread died silently mid-feed; this estimate() is the
        # FIRST gather, so the loss surfaces inside it — the old code
        # handed back {"t1": ...} and dropped t2 on the floor.
        with pytest.raises(EngineError, match="t2"):
            engine.estimate(["t1", "t2"])
        # Survivors stay queryable after the refusal (non-destructive).
        result = engine.estimate(["t1"])
        assert set(result) == {"t1"}
        engine.close()

    def test_explicit_request_for_known_lost_copy_names_it(self):
        _, stream = _insertion_fixture()
        plan = FaultPlan(seed=63).kill_worker(1, nth_batch=3)
        engine = self._engine(stream, plan)
        self._feed_all(engine, stream)
        engine.estimate()  # detect the body; engine now degraded
        assert engine.lost_estimators == ["t1"]
        with pytest.raises(EngineError, match="'t1'"):
            engine.estimate(["t1"])
        engine.close()

    def test_median_estimate_guard(self):
        from repro.engine import median_estimate
        from repro.errors import EstimationError

        _, stream = _insertion_fixture()
        engine = LiveEngine(n=stream.n)
        engine.register_all(_triest_specs(copies=3))
        u, v, d = stream.columns()
        engine.feed((u, v, d))
        import statistics

        results = engine.estimate()
        assert median_estimate(results) == statistics.median(
            r.estimate for r in results.values()
        )
        with pytest.raises(EstimationError, match="fully degraded"):
            median_estimate({})
        engine.close()
