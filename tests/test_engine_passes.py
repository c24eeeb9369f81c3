"""Pass-accounting regressions for the fused engine.

The theorems' pass complexity must survive fusion: K estimator copies
sharing the engine consume the pass count of ONE copy — 3 passes for
Theorems 1/17 (not 3K), 2 for the 2-pass counter, and <= 5r for the
Theorem 2 clique counter — measured by the stream's own pass counter,
which only the engine's ``stream.updates()`` calls can advance.
"""

import pytest

from repro import (
    generators,
    insertion_stream,
    patterns,
)
from repro.baselines import ExactStreamEstimator, TriestEstimator
from repro.engine import (
    EngineBackend,
    EstimatorSpec,
    FusionMode,
    ShardedRunner,
    StreamEngine,
    count_subgraphs_insertion_only_fused,
    count_subgraphs_turnstile_fused,
    count_subgraphs_two_pass_fused,
    ers_clique_estimator,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
)
from repro.errors import EngineError
from repro.streams.datasets import stream_shard_views
from repro.streams.generators import turnstile_churn_stream


def test_insertion_fused_32_copies_three_passes_shared():
    graph = generators.barabasi_albert(150, 4, rng=1)
    stream = insertion_stream(graph, rng=2)
    fused = count_subgraphs_insertion_only_fused(
        stream, patterns.triangle(), copies=32, trials=12, rng=3
    )
    assert stream.passes_used == 3
    assert fused.passes == 3
    assert fused.num_copies == 32
    # Every copy individually reports the theorem's 3 rounds.
    assert all(copy.passes == 3 for copy in fused.copies)


def test_insertion_fused_32_copies_three_passes_mirror():
    graph = generators.barabasi_albert(150, 4, rng=1)
    stream = insertion_stream(graph, rng=2)
    fused = count_subgraphs_insertion_only_fused(
        stream, patterns.triangle(), copies=32, trials=6, rng=3, mode=FusionMode.MIRROR
    )
    assert stream.passes_used == 3
    assert fused.passes == 3
    assert all(copy.passes == 3 for copy in fused.copies)


def test_turnstile_fused_copies_three_passes():
    graph = generators.gnp(30, 0.3, rng=1)
    stream = turnstile_churn_stream(graph, churn_edges=15, rng=2)
    fused = count_subgraphs_turnstile_fused(
        stream, patterns.triangle(), copies=8, trials=4, rng=3
    )
    assert stream.passes_used == 3
    assert fused.passes == 3


def test_two_pass_fused_copies_two_passes():
    graph = generators.barabasi_albert(120, 4, rng=1)
    stream = insertion_stream(graph, rng=2)
    fused = count_subgraphs_two_pass_fused(
        stream, patterns.cycle(4), copies=16, trials=8, rng=3
    )
    assert stream.passes_used == 2
    assert fused.passes == 2


def test_ers_fused_copies_at_most_5r_passes():
    r = 3
    graph = generators.planted_cliques(48, 4, 4, noise_edges=30, rng=4)
    stream = insertion_stream(graph, rng=5)

    engine = StreamEngine(stream)
    copies = 4
    for index in range(copies):
        engine.register(
            ers_clique_estimator(
                stream,
                r=r,
                degeneracy_bound=8,
                lower_bound=4.0,
                rng=60 + index,
                name=f"ers-{index}",
            )
        )
    report = engine.run()
    assert stream.passes_used <= 5 * r
    # Fused pass count is the max over the copies, not the sum.
    assert stream.passes_used == max(report[f"ers-{i}"].passes for i in range(copies))
    assert stream.passes_used < sum(report[f"ers-{i}"].passes for i in range(copies))


def test_heterogeneous_fusion_costs_max_not_sum():
    graph = generators.barabasi_albert(150, 4, rng=7)
    stream = insertion_stream(graph, rng=8)
    pattern = patterns.triangle()

    engine = StreamEngine(stream)
    engine.register(fgp_insertion_estimator(stream, pattern, trials=10, rng=9, name="fgp"))
    engine.register(TriestEstimator(capacity=60, rng=10))
    engine.register(ExactStreamEstimator(stream.n, pattern))
    report = engine.run()

    # 3-pass FGP + two 1-pass baselines fused = 3 passes, not 5.
    assert stream.passes_used == 3
    assert report.passes == 3
    assert report["fgp"].passes == 3
    assert report["triest"].passes == 1
    assert report["exact"].passes == 1


def test_engine_reset_controls_pass_counter():
    graph = generators.barabasi_albert(80, 3, rng=11)
    stream = insertion_stream(graph, rng=12)
    for _ in stream.updates():
        pass
    assert stream.passes_used == 1

    engine = StreamEngine(stream, reset_pass_count=False)
    engine.register(TriestEstimator(capacity=30, rng=13))
    engine.run()
    assert stream.passes_used == 2  # previous pass + the fused one


@pytest.mark.parametrize("backend", EngineBackend._ALL)
@pytest.mark.parametrize("driver", ["engine", "sharded"])
def test_max_passes_names_the_estimators_still_wanting_passes(driver, backend):
    """A 3-pass run capped at 2 passes fails naming its estimators —
    the same guard and message whichever driver and backend runs it."""
    graph = generators.gnp(24, 0.3, rng=1)
    stream = turnstile_churn_stream(graph, churn_edges=10, rng=2)
    specs = [
        EstimatorSpec(
            name=f"copy-{index}",
            factory=fgp_turnstile_estimator,
            kwargs=dict(pattern=patterns.triangle(), trials=4, rng=index,
                        name=f"copy-{index}"),
        )
        for index in range(2)
    ]
    if driver == "engine":
        runner = StreamEngine(stream, backend=backend, workers=2, max_passes=2)
        for spec in specs:
            runner.register_spec(spec)
    else:
        runner = ShardedRunner(stream_shard_views(stream, 2), backend=backend,
                               workers=2, max_passes=2)
        runner.register_many(specs)
    with pytest.raises(EngineError) as info:
        runner.run()
    assert str(info.value) == (
        "estimators still want passes after max_passes=2: copy-0, copy-1"
    )
