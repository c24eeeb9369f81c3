"""repro.engine — the fused multi-estimator stream engine.

Registers K independent estimators (FGP counter copies, ERS clique
runs, TRIEST / Doulion / exact baselines) and drives them all from ONE
iteration of each stream pass, dispatching decoded updates in
configurable batches.  See :mod:`repro.engine.core` for the executor
and pass-callback protocol, :mod:`repro.engine.estimators` for the
adapters, :mod:`repro.engine.fused` for the median-of-K fused counting
entry points, :mod:`repro.engine.parallel` for the thread and process
execution backends (the worker protocol, the shared-memory batch
ring, :class:`EstimatorSpec` and :class:`StreamHandle`), and
:mod:`repro.engine.live` for the
checkpointable live layer (:class:`LiveEngine`: open-ended ``feed``,
mid-stream ``estimate``, checksummed full/delta ``snapshot`` and
corruption-tolerant ``restore``, graceful degradation under worker
loss).  Deterministic fault injection for all of the above lives in
:mod:`repro.faults`.

Quick tour::

    from repro.engine import StreamEngine, fgp_insertion_estimator
    from repro.baselines import TriestEstimator

    engine = StreamEngine(stream, batch_size=2048)
    engine.register(fgp_insertion_estimator(stream, patterns.triangle(),
                                            trials=500, rng=1, name="fgp"))
    engine.register(TriestEstimator(capacity=400, rng=2))
    report = engine.run()          # 3 stream passes total, not 3 + 1
    report["fgp"].estimate, report["triest"].estimate

Median amplification in 3 passes instead of 3K::

    from repro.engine import count_subgraphs_insertion_only_fused
    fused = count_subgraphs_insertion_only_fused(
        stream, patterns.triangle(), copies=32, trials=200, rng=7)
    fused.estimate                 # median of 32 independent copies

The same 3 passes, with the K copies sharded across workers — daemon
threads (zero-serialization handoff; the numpy kernels release the
GIL) or processes (batches published once through a shared-memory
ring).  CLI equivalent: ``python -m repro count --backend thread
--workers 4``::

    fused = count_subgraphs_insertion_only_fused(
        stream, patterns.triangle(), copies=32, trials=200, rng=7,
        mode="mirror", backend="thread", workers=4)
    # mirror-mode estimates are bit-identical to backend="serial"
    # for the same seeds, whatever the worker count or backend.

When the *stream* — not the copy count — is the bottleneck, the
scatter/merge driver (:mod:`repro.engine.sharded`) splits it into
hash-partitioned shards, feeds each shard an independent replica of
every estimator, and merges the linear sketch states before each pass
closes; for turnstile paths the result is bit-identical to the
unsharded mirror run at any shard count.  CLI equivalent: ``python -m
repro count --shards 4``::

    from repro.engine import count_subgraphs_turnstile_sharded
    from repro.streams.datasets import open_stream_shards

    shards = open_stream_shards("graph.reb", 4)
    fused = count_subgraphs_turnstile_sharded(
        shards, patterns.triangle(), copies=8, trials=64, rng=7)

Parallel execution of hand-registered estimators goes through
picklable specs (live estimators cannot cross a process boundary)::

    from repro.engine import EstimatorSpec, StreamEngine
    from repro.engine.parallel import build_triest

    engine = StreamEngine(stream, backend="process", workers=2)
    engine.register_spec(EstimatorSpec(
        name="triest", factory=build_triest,
        kwargs=dict(capacity=400, rng=2)))
    report = engine.run()
"""

from repro.engine.core import (
    DEFAULT_BATCH_SIZE,
    DecodedBatch,
    DecodedUpdate,
    EngineBackend,
    EngineReport,
    StreamEngine,
)
from repro.engine.estimators import (
    DoulionEstimator,
    ExactStreamEstimator,
    RoundAdaptiveEstimator,
    TriestEstimator,
    ers_clique_estimator,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
    fgp_two_pass_estimator,
)
from repro.engine.live import (
    CHECKPOINT_VERSION,
    DEFAULT_MAX_DELTAS,
    LiveEngine,
    UpdateJournal,
    checkpoint_manifest,
    median_estimate,
)
from repro.engine.fused import (
    FusedCountResult,
    FusionMode,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    count_subgraphs_two_pass_fused,
)
from repro.engine.parallel import (
    EstimatorSpec,
    StreamHandle,
    run_parallel_engine,
)
from repro.engine.sharded import (
    ShardedRunner,
    count_subgraphs_turnstile_sharded,
    sharded_stream_handle,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DecodedBatch",
    "DecodedUpdate",
    "EngineBackend",
    "EngineReport",
    "StreamEngine",
    "CHECKPOINT_VERSION",
    "DEFAULT_MAX_DELTAS",
    "LiveEngine",
    "UpdateJournal",
    "checkpoint_manifest",
    "median_estimate",
    "EstimatorSpec",
    "StreamHandle",
    "run_parallel_engine",
    "RoundAdaptiveEstimator",
    "fgp_insertion_estimator",
    "fgp_turnstile_estimator",
    "fgp_two_pass_estimator",
    "ers_clique_estimator",
    "TriestEstimator",
    "DoulionEstimator",
    "ExactStreamEstimator",
    "FusionMode",
    "FusedCountResult",
    "count_subgraphs_insertion_only_fused",
    "count_subgraphs_turnstile_fused",
    "count_subgraphs_two_pass_fused",
    "ShardedRunner",
    "count_subgraphs_turnstile_sharded",
    "sharded_stream_handle",
]
