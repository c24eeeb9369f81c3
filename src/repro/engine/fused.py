"""Fused median-of-K counting — the paper's amplification at O(m) cost.

Chernoff gives each Theorem 1/17 run a constant success probability;
the standard amplification runs K independent copies and takes the
median of their estimates, driving the failure probability to 2^-Θ(K).
Run naively that costs K × 3 stream passes.  These entry points
register all K copies with one :class:`~repro.engine.core.StreamEngine`
so the whole ensemble consumes **exactly 3 passes** (2 for the 2-pass
counter), in one of two fusion modes:

``FusionMode.MIRROR``
    Every copy keeps its own oracle (its own reservoir banks /
    ℓ0-sketch banks), and only the stream iteration is shared.  A
    mirror copy seeded with rng R is **bit-identical** to the one-shot
    counter called with rng R — the mode the golden equivalence tests
    pin down.

``FusionMode.SHARED`` (default)
    All copies' round-ℓ query batches merge into a *single* oracle
    pass-state.  Each f1/f3 query still owns a private reservoir slot
    or ℓ0-sampler — the joint distribution over slots is exactly that
    of independent samplers (see ``repro.sketch.reservoir``) — while
    deterministic aggregates (degree counters, adjacency flags,
    arrival counters) are computed once instead of K times, and the
    skip-ahead bank's amortization spreads over all K·k edge queries.
    Copies remain independent in distribution, but the per-element
    work barely grows with K: this is the ≥2× (in practice ~K×)
    speedup mode benchmarked in ``benchmarks/bench_throughput.py``.

Orthogonally to the fusion mode, every entry point takes a
``backend`` switch (:class:`~repro.engine.core.EngineBackend`):

``backend="serial"`` (default)
    All copies execute in this process.

``backend="thread"`` / ``backend="process"``
    The copies are sharded across a pool of ``workers`` daemon threads
    or processes (:mod:`repro.engine.parallel`); the driver reads the
    stream once per pass and publishes decoded batches — by reference
    to threads, through a shared-memory ring to processes.
    Mirror-mode estimates are bit-identical to the serial backend for
    the same seeds, independent of the worker count *and* of which
    parallel backend ran them; shared-mode runs merge each *shard*
    into one oracle (deterministic given ``(rng, workers)``, identical
    between the two parallel backends for the same pool size).  CLI:
    ``repro count --backend thread|process --workers N``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.core import DEFAULT_BATCH_SIZE, EngineBackend, StreamEngine
from repro.engine.estimators import (
    RoundAdaptiveEstimator,
    fgp_insertion_estimator,
    fgp_turnstile_estimator,
    fgp_two_pass_estimator,
)
from repro.engine.parallel import EstimatorSpec, resolve_workers, shard_indices
from repro.errors import EngineError, EstimationError
from repro.estimate.concentration import ParamMode, relative_error
from repro.estimate.result import EstimateResult
from repro.fgp.rounds import SamplerMode, subgraph_sampler_rounds
from repro.patterns.pattern import Pattern
from repro.streaming.three_pass import fgp_success_estimate, resolve_trials
from repro.streaming.two_pass import require_star_decomposable
from repro.streams.stream import EdgeStream
from repro.transform.insertion import InsertionStreamOracle
from repro.transform.turnstile import TurnstileStreamOracle
from repro.utils.rng import RandomSource, derive_rng, derive_seed, ensure_rng

__all__ = [
    "FusionMode",
    "FusedCountResult",
    "count_subgraphs_insertion_only_fused",
    "count_subgraphs_turnstile_fused",
    "count_subgraphs_two_pass_fused",
]


class FusionMode:
    """How K fused copies share oracle state (see module docstring)."""

    MIRROR = "mirror"
    SHARED = "shared"

    _ALL = (MIRROR, SHARED)


@dataclass
class FusedCountResult:
    """Median-amplified estimate from K fused estimator copies."""

    algorithm: str
    pattern: str
    estimate: float
    copies: List[EstimateResult]
    passes: int
    mode: str
    backend: str = "serial"
    m: int = 0
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def num_copies(self) -> int:
        return len(self.copies)

    @property
    def estimates(self) -> List[float]:
        """The per-copy estimates the median is taken over."""
        return [copy.estimate for copy in self.copies]

    def error_vs(self, truth: float) -> float:
        """Relative error of the median against an exact count."""
        return relative_error(self.estimate, truth)

    def within(self, truth: float, epsilon: float) -> bool:
        """Whether the median is a (1±ε)-approximation of *truth*."""
        return self.error_vs(truth) <= epsilon

    def summary(self, truth: Optional[float] = None) -> str:
        parts = [
            f"{self.algorithm}[{self.pattern}]",
            f"median={self.estimate:.1f}",
            f"copies={self.num_copies}",
            f"passes={self.passes}",
            f"mode={self.mode}",
            f"backend={self.backend}",
        ]
        if truth is not None:
            parts.append(f"err={self.error_vs(truth):.3f}")
        return " ".join(parts)


def _check_fused_args(copies: int, mode: str, copy_rngs, backend: str) -> None:
    if copies < 1:
        raise EstimationError(f"copies must be >= 1, got {copies}")
    if mode not in FusionMode._ALL:
        raise EngineError(f"unknown fusion mode {mode!r}; expected one of {FusionMode._ALL}")
    if backend not in EngineBackend._ALL:
        raise EngineError(
            f"unknown backend {backend!r}; expected one of {EngineBackend._ALL}"
        )
    if copy_rngs is not None and len(copy_rngs) != copies:
        raise EstimationError(
            f"copy_rngs carries {len(copy_rngs)} entries for {copies} copies"
        )


def _run_mirror(
    stream: EdgeStream,
    copies: int,
    batch_size: int,
    copy_rngs: Sequence,
    factory: Callable[[RandomSource, str], RoundAdaptiveEstimator],
    spec_factory: Callable[[RandomSource, str], EstimatorSpec],
    backend: str,
    workers,
    start_method,
    cache,
) -> tuple:
    """Register one fully independent estimator per copy and run fused.

    With the parallel backends, registration goes through picklable
    specs: each worker rebuilds its shard of copies from ``(pattern,
    trials, rng)`` and the copies' full independence makes the result
    identical to the serial backend for the same ``copy_rngs`` —
    whatever the worker count or pool flavour.
    """
    engine = StreamEngine(
        stream,
        batch_size=batch_size,
        backend=backend,
        workers=workers,
        start_method=start_method,
        cache=cache,
    )
    names = [f"copy-{index}" for index in range(copies)]
    for index, name in enumerate(names):
        if backend != EngineBackend.SERIAL:
            engine.register_spec(spec_factory(copy_rngs[index], name))
        else:
            engine.register(factory(copy_rngs[index], name))
    report = engine.run()
    return [report.results[name] for name in names], report


def _run_shared(
    stream: EdgeStream,
    copies: int,
    trials: int,
    batch_size: int,
    oracle,
    make_generator: Callable[[int, int], object],
    finalize_copies: Callable,
    cache,
) -> tuple:
    """Merge all copies' generators into one oracle and run fused."""
    generators = [
        make_generator(copy, trial)
        for copy in range(copies)
        for trial in range(trials)
    ]
    estimator = RoundAdaptiveEstimator("fused", generators, oracle, finalize_copies)
    engine = StreamEngine(stream, batch_size=batch_size, cache=cache)
    engine.register(estimator)
    report = engine.run()
    return report.results["fused"], report


def _shared_fgp_finalize(
    stream,
    pattern: Pattern,
    copy_indices: Sequence[int],
    trials: int,
    oracle,
    algorithm: str,
) -> Callable:
    """Slice a merged run's outputs into per-copy EstimateResults.

    The merged oracle meters its whole ensemble (all copies of a serial
    shared run, or one worker's shard of them); each copy's
    ``space_words`` is its share (ceil(peak/len(copy_indices)) —
    queries are uniform across copies), so summing over copies matches
    the ensemble instead of overcounting K-fold.  ``copy_indices``
    carries the copies' *global* indices so the ``fused_copy``
    diagnostic survives sharding; the ensemble's metered total rides
    along in ``details["shard_space_words"]``.
    """

    def finalize(run) -> List[EstimateResult]:
        m = stream.net_edge_count
        rho = pattern.rho()
        ensemble_space = oracle.space.peak_words
        per_copy_space = -(-ensemble_space // len(copy_indices))
        results = []
        for slot, copy in enumerate(copy_indices):
            outputs = run.outputs[slot * trials : (slot + 1) * trials]
            successes, estimate = fgp_success_estimate(outputs, trials, m, rho)
            results.append(
                EstimateResult(
                    algorithm=algorithm,
                    pattern=pattern.name,
                    estimate=estimate,
                    passes=run.rounds,
                    space_words=per_copy_space,
                    trials=trials,
                    successes=successes,
                    m=m,
                    details={
                        "rho": rho,
                        "success_rate": successes / trials,
                        "fused_copy": float(copy),
                        "shard_space_words": float(ensemble_space),
                    },
                )
            )
        return results

    return finalize


def build_shared_fgp_shard(
    stream,
    kind: str,
    algorithm: str,
    pattern: Pattern,
    trials: int,
    copy_indices: Sequence[int],
    trial_seeds: Sequence[Sequence],
    oracle_seed,
    name: str,
    sampler_mode: str,
    sampler_kwargs: Dict,
    sampler_repetitions: int = 8,
) -> RoundAdaptiveEstimator:
    """Spec factory: one worker's shard of a shared-mode fused run.

    Rebuilds, inside the worker, what :func:`_run_shared` builds in the
    driver for the serial backend — one merged oracle plus
    ``len(copy_indices) × trials`` sampler generators — except the
    oracle spans only this shard's copies.  ``trial_seeds[j][t]`` seeds
    copy ``copy_indices[j]``'s trial *t* (ints from
    :func:`~repro.utils.rng.derive_seed`, or any ``RandomSource``); the
    driver derives them in global copy-major order *before* any
    shard-dependent derivation, so every copy consumes the same sampler
    randomness however the copies are sharded (only the per-shard
    oracle randomness depends on the worker count).
    ``sampler_mode``/``sampler_kwargs`` are forwarded verbatim from the
    fused entry point, so the serial and sharded shared paths cannot
    drift apart; ``kind`` only selects the oracle class
    (``"turnstile"`` vs the insertion oracle).
    """
    if kind == "turnstile":
        oracle = TurnstileStreamOracle(
            stream, oracle_seed, sampler_repetitions=sampler_repetitions
        )
    elif kind in ("insertion", "two_pass"):
        oracle = InsertionStreamOracle(stream, oracle_seed)
    else:
        raise EngineError(f"unknown shared-shard kind {kind!r}")
    generators = [
        subgraph_sampler_rounds(pattern, rng=seed, mode=sampler_mode, **sampler_kwargs)
        for copy_trial_seeds in trial_seeds
        for seed in copy_trial_seeds
    ]
    finalize = _shared_fgp_finalize(
        stream, pattern, list(copy_indices), trials, oracle, algorithm
    )
    return RoundAdaptiveEstimator(name, generators, oracle, finalize)


def _run_shared_sharded(
    stream: EdgeStream,
    copies: int,
    trials: int,
    batch_size: int,
    backend: str,
    workers,
    start_method,
    master,
    kind: str,
    algorithm: str,
    pattern: Pattern,
    sampler_mode: str,
    sampler_kwargs: Dict,
    sampler_repetitions: int,
    cache,
) -> tuple:
    """Shard a shared-mode run across a worker pool (thread or process).

    Each worker owns one merged oracle for its contiguous shard of
    copies, so deterministic aggregates are computed once per *shard*
    instead of once per copy — W oracles total instead of K.  Copies
    stay independent in distribution; the estimates are a deterministic
    function of ``(rng, copies, trials, workers)`` — identical between
    the thread and process backends, since all randomness is derived
    driver-side before sharding — but, unlike mirror mode, not
    bit-identical to the serial shared run, whose single oracle spans
    all K copies.
    """
    pool = resolve_workers(workers, copies)
    shards = shard_indices(copies, pool)
    # Sampler seeds first, in global copy-major order: their derivation
    # consumes master bits worker-count-independently, so only the
    # shard oracles (derived below) vary with the pool size.  Plain
    # ints ship to the workers instead of pickled generator states.
    trial_seeds = [
        [derive_seed(master, f"copy-{copy}-trial-{trial}") for trial in range(trials)]
        for copy in range(copies)
    ]
    oracle_seeds = [
        derive_seed(master, f"oracle-shard-{shard}") for shard in range(len(shards))
    ]
    engine = StreamEngine(
        stream,
        batch_size=batch_size,
        backend=backend,
        workers=pool,
        start_method=start_method,
        cache=cache,
    )
    for shard, indices in enumerate(shards):
        engine.register_spec(
            EstimatorSpec(
                name=f"shard-{shard}",
                factory=build_shared_fgp_shard,
                kwargs=dict(
                    kind=kind,
                    algorithm=algorithm,
                    pattern=pattern,
                    trials=trials,
                    copy_indices=indices,
                    trial_seeds=[trial_seeds[copy] for copy in indices],
                    oracle_seed=oracle_seeds[shard],
                    name=f"shard-{shard}",
                    sampler_mode=sampler_mode,
                    sampler_kwargs=sampler_kwargs,
                    sampler_repetitions=sampler_repetitions,
                ),
            )
        )
    report = engine.run()
    copy_results = [
        result
        for shard in range(len(shards))
        for result in report.results[f"shard-{shard}"]
    ]
    ensemble_space = sum(
        int(report.results[f"shard-{shard}"][0].details["shard_space_words"])
        for shard in range(len(shards))
    )
    return copy_results, report, ensemble_space


def _fused_fgp_count(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int,
    epsilon: float,
    lower_bound,
    trials,
    rng,
    copy_rngs,
    param_mode: str,
    mode: str,
    batch_size: int,
    backend: str,
    workers,
    start_method,
    kind: str,
    algorithm: str,
    mirror_factory: Callable,
    mirror_spec_factory: Callable,
    shared_oracle_factory: Callable,
    sampler_mode: str,
    sampler_kwargs: Dict,
    sampler_repetitions: int = 8,
    cache=None,
) -> FusedCountResult:
    """Common driver behind the three fused entry points."""
    _check_fused_args(copies, mode, copy_rngs, backend)
    master = ensure_rng(rng)
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)

    ensemble_space = None
    if mode == FusionMode.MIRROR:
        if copy_rngs is None:
            # Derive *seeds*, not generators: Random(derive_seed(...))
            # equals derive_rng(...) bit for bit, and an int crosses the
            # process-backend boundary as ~30 bytes instead of a
            # ~2.5 KB pickled Mersenne state.
            copy_rngs = [derive_seed(master, f"copy-{index}") for index in range(copies)]
        # Every copy gets the already-resolved budget k, so the
        # reported trials_per_copy cannot drift from what the copies
        # actually ran (and resolve_trials runs once, not K+1 times).
        copy_results, report = _run_mirror(
            stream,
            copies,
            batch_size,
            copy_rngs,
            lambda copy_rng, name: mirror_factory(copy_rng, name, k),
            lambda copy_rng, name: mirror_spec_factory(copy_rng, name, k),
            backend,
            workers,
            start_method,
            cache,
        )
    elif backend != EngineBackend.SERIAL:
        if copy_rngs is not None:
            raise EngineError("copy_rngs is a mirror-mode parameter; shared mode derives from rng")
        copy_results, report, ensemble_space = _run_shared_sharded(
            stream,
            copies,
            k,
            batch_size,
            backend,
            workers,
            start_method,
            master,
            kind,
            algorithm,
            pattern,
            sampler_mode,
            sampler_kwargs,
            sampler_repetitions,
            cache,
        )
    else:
        if copy_rngs is not None:
            raise EngineError("copy_rngs is a mirror-mode parameter; shared mode derives from rng")
        oracle = shared_oracle_factory(derive_rng(master, "oracle"))

        def make_generator(copy: int, trial: int):
            return subgraph_sampler_rounds(
                pattern,
                rng=derive_rng(master, f"copy-{copy}-trial-{trial}"),
                mode=sampler_mode,
                **sampler_kwargs,
            )

        copy_results, report = _run_shared(
            stream,
            copies,
            k,
            batch_size,
            oracle,
            make_generator,
            _shared_fgp_finalize(stream, pattern, range(copies), k, oracle, algorithm),
            cache,
        )
        ensemble_space = oracle.space.peak_words

    median = statistics.median(result.estimate for result in copy_results)
    details = {
        "trials_per_copy": float(k),
        "elements": float(report.elements),
        "batch_size": float(report.batch_size),
        "workers": float(report.workers),
    }
    if ensemble_space is not None:
        details["ensemble_space_words"] = float(ensemble_space)
    return FusedCountResult(
        algorithm=algorithm,
        pattern=pattern.name,
        estimate=median,
        copies=copy_results,
        passes=report.passes,
        mode=mode,
        backend=backend,
        m=stream.net_edge_count,
        details=details,
    )


def count_subgraphs_insertion_only_fused(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
) -> FusedCountResult:
    """Median of K fused Theorem-17 runs in exactly 3 insertion passes.

    ``trials``/``epsilon``/``lower_bound`` size each copy exactly as in
    :func:`~repro.streaming.three_pass.count_subgraphs_insertion_only`.
    In mirror mode, ``copy_rngs`` (one seed or generator per copy)
    makes copy i bit-identical to the one-shot counter called with the
    same rng.

    ``backend="thread"`` / ``backend="process"`` shard the K copies
    across *workers* threads or processes (CLI: ``repro count
    --backend thread --workers N``).  With ``mode="mirror"`` the
    estimates equal the serial backend's for the same seeds,
    independently of the worker count and pool flavour; with
    ``mode="shared"`` each worker merges its shard of copies into one
    oracle (fast, deterministic given ``(rng, workers)`` and identical
    across the two parallel backends, but a different bit-stream than
    the serial shared run).
    """

    def mirror_factory(copy_rng, name, resolved_trials):
        return fgp_insertion_estimator(
            stream,
            pattern,
            trials=resolved_trials,
            rng=copy_rng,
            name=name,
        )

    def mirror_spec_factory(copy_rng, name, resolved_trials):
        return EstimatorSpec(
            name=name,
            factory=fgp_insertion_estimator,
            kwargs=dict(pattern=pattern, trials=resolved_trials, rng=copy_rng, name=name),
        )

    return _fused_fgp_count(
        stream,
        pattern,
        copies,
        epsilon,
        lower_bound,
        trials,
        rng,
        copy_rngs,
        param_mode,
        mode,
        batch_size,
        backend,
        workers,
        start_method,
        "insertion",
        "fgp-3pass-insertion",
        mirror_factory,
        mirror_spec_factory,
        lambda oracle_rng: InsertionStreamOracle(stream, oracle_rng),
        SamplerMode.AUGMENTED,
        {},
        cache=cache,
    )


def count_subgraphs_turnstile_fused(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
) -> FusedCountResult:
    """Median of K fused Theorem-1 runs in exactly 3 turnstile passes.

    Works on streams with deletions; each copy's ℓ0-sketch bank is
    private in both modes (sketches hang off individual queries), so
    the copies stay independent.  Backend semantics as in
    :func:`count_subgraphs_insertion_only_fused`.
    """

    def mirror_factory(copy_rng, name, resolved_trials):
        return fgp_turnstile_estimator(
            stream,
            pattern,
            trials=resolved_trials,
            rng=copy_rng,
            sampler_repetitions=sampler_repetitions,
            name=name,
        )

    def mirror_spec_factory(copy_rng, name, resolved_trials):
        return EstimatorSpec(
            name=name,
            factory=fgp_turnstile_estimator,
            kwargs=dict(
                pattern=pattern,
                trials=resolved_trials,
                rng=copy_rng,
                sampler_repetitions=sampler_repetitions,
                name=name,
            ),
        )

    return _fused_fgp_count(
        stream,
        pattern,
        copies,
        epsilon,
        lower_bound,
        trials,
        rng,
        copy_rngs,
        param_mode,
        mode,
        batch_size,
        backend,
        workers,
        start_method,
        "turnstile",
        "fgp-3pass-turnstile",
        mirror_factory,
        mirror_spec_factory,
        lambda oracle_rng: TurnstileStreamOracle(
            stream, oracle_rng, sampler_repetitions=sampler_repetitions
        ),
        SamplerMode.RELAXED,
        {},
        sampler_repetitions=sampler_repetitions,
        cache=cache,
    )


def count_subgraphs_two_pass_fused(
    stream: EdgeStream,
    pattern: Pattern,
    copies: int = 8,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    copy_rngs: Optional[Sequence[RandomSource]] = None,
    param_mode: str = ParamMode.PRACTICAL,
    mode: str = FusionMode.SHARED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    backend: str = EngineBackend.SERIAL,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cache=None,
) -> FusedCountResult:
    """Median of K fused 2-pass runs (star-decomposable H) in 2 passes.

    Backend semantics as in :func:`count_subgraphs_insertion_only_fused`.
    """
    require_star_decomposable(pattern)

    def mirror_factory(copy_rng, name, resolved_trials):
        return fgp_two_pass_estimator(
            stream,
            pattern,
            trials=resolved_trials,
            rng=copy_rng,
            name=name,
        )

    def mirror_spec_factory(copy_rng, name, resolved_trials):
        return EstimatorSpec(
            name=name,
            factory=fgp_two_pass_estimator,
            kwargs=dict(pattern=pattern, trials=resolved_trials, rng=copy_rng, name=name),
        )

    return _fused_fgp_count(
        stream,
        pattern,
        copies,
        epsilon,
        lower_bound,
        trials,
        rng,
        copy_rngs,
        param_mode,
        mode,
        batch_size,
        backend,
        workers,
        start_method,
        "two_pass",
        "fgp-2pass-insertion",
        mirror_factory,
        mirror_spec_factory,
        lambda oracle_rng: InsertionStreamOracle(stream, oracle_rng),
        SamplerMode.AUGMENTED,
        {"skip_empty_wedge_round": True},
        cache=cache,
    )
