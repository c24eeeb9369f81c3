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

from repro.engine.core import (
    DEFAULT_BATCH_SIZE,
    EngineBackend,
    StreamEngine,
    check_engine_args,
)
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
    check_engine_args(backend=backend)
    if copy_rngs is not None and len(copy_rngs) != copies:
        raise EstimationError(
            f"copy_rngs carries {len(copy_rngs)} entries for {copies} copies"
        )


#: Per kind of fused entry point: the algorithm name, the one-copy
#: (mirror) estimator factory, and the shared-mode sampler mode/kwargs.
_KINDS = {
    "insertion": ("fgp-3pass-insertion", fgp_insertion_estimator, SamplerMode.AUGMENTED, {}),
    "turnstile": ("fgp-3pass-turnstile", fgp_turnstile_estimator, SamplerMode.RELAXED, {}),
    "two_pass": (
        "fgp-2pass-insertion",
        fgp_two_pass_estimator,
        SamplerMode.AUGMENTED,
        {"skip_empty_wedge_round": True},
    ),
}


def _mirror_specs(kind: str, copy_rngs: Sequence, **factory_kwargs) -> List[EstimatorSpec]:
    """One fully independent estimator spec ``copy-i`` per copy seed.

    Mirror copies share nothing but the stream, so their estimates are
    identical across backends for the same ``copy_rngs``, whatever the
    worker count or pool flavour.
    """
    factory = _KINDS[kind][1]
    return [
        EstimatorSpec(
            name=f"copy-{index}",
            factory=factory,
            kwargs=dict(factory_kwargs, rng=copy_rng, name=f"copy-{index}"),
        )
        for index, copy_rng in enumerate(copy_rngs)
    ]


def _fused_result(
    kind: str, pattern: Pattern, mode: str, backend: str, m: int, trials: int,
    copy_results: List[EstimateResult], report, **details,
) -> FusedCountResult:
    """The median-of-K result over *copy_results* of one engine run."""
    return FusedCountResult(
        algorithm=_KINDS[kind][0],
        pattern=pattern.name,
        estimate=statistics.median(result.estimate for result in copy_results),
        copies=copy_results,
        passes=report.passes,
        mode=mode,
        backend=backend,
        m=m,
        details=dict(
            trials_per_copy=float(trials),
            elements=float(report.elements),
            batch_size=float(report.batch_size),
            workers=float(report.workers),
            **details,
        ),
    )


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
    """Spec factory: one shard of a shared-mode fused run.

    Builds one merged oracle plus ``len(copy_indices) × trials``
    sampler generators: on the serial backend a single shard spans
    every copy, on the pool backends each worker builds the shard of
    copies it hosts.  ``trial_seeds[j][t]`` seeds
    copy ``copy_indices[j]``'s trial *t* (ints from
    :func:`~repro.utils.rng.derive_seed`, or any ``RandomSource``); the
    driver derives them in global copy-major order *before* any
    shard-dependent derivation, so every copy consumes the same sampler
    randomness however the copies are sharded (only the per-shard
    oracle randomness depends on the worker count).
    ``sampler_mode``/``sampler_kwargs`` are forwarded verbatim from the
    fused entry point; ``kind`` only selects the oracle class
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


def _shared_specs(
    copies: int,
    trials: int,
    backend: str,
    workers,
    master,
    kind: str,
    pattern: Pattern,
    sampler_repetitions: int,
) -> List[EstimatorSpec]:
    """Specs merging the copies' generators into shared oracles.

    The serial backend merges all K copies into one oracle.  The pool
    backends give each worker one merged oracle for its contiguous
    shard of copies, so deterministic aggregates are computed once per
    *shard* instead of once per copy — W oracles total instead of K.
    Copies stay independent in distribution; the pooled estimates are a
    deterministic function of ``(rng, copies, trials, workers)`` —
    identical between the thread and process backends, since all
    randomness is derived driver-side before sharding — but, unlike
    mirror mode, not bit-identical to the serial shared run, whose
    single oracle spans all K copies.
    """
    algorithm, _, sampler_mode, sampler_kwargs = _KINDS[kind]
    if backend == EngineBackend.SERIAL:
        # One oracle over every copy; the oracle draws first, which is
        # the serial shared run's bit-stream.
        shards = [list(range(copies))]
        oracle_seeds = [derive_rng(master, "oracle")]
        trial_seeds = [
            [derive_rng(master, f"copy-{copy}-trial-{trial}") for trial in range(trials)]
            for copy in range(copies)
        ]
    else:
        shards = shard_indices(copies, resolve_workers(workers, copies))
        # Sampler seeds first, in global copy-major order: their
        # derivation consumes master bits worker-count-independently,
        # so only the shard oracles vary with the pool size.  Plain
        # ints ship to the workers instead of pickled generator states.
        trial_seeds = [
            [derive_seed(master, f"copy-{copy}-trial-{trial}") for trial in range(trials)]
            for copy in range(copies)
        ]
        oracle_seeds = [
            derive_seed(master, f"oracle-shard-{shard}") for shard in range(len(shards))
        ]
    return [
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
        for shard, indices in enumerate(shards)
    ]


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
    sampler_repetitions: int = 8,
    cache=None,
) -> FusedCountResult:
    """Common driver behind the three fused entry points."""
    _check_fused_args(copies, mode, copy_rngs, backend)
    algorithm = _KINDS[kind][0]
    master = ensure_rng(rng)
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)

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
        factory_kwargs = dict(pattern=pattern, trials=k)
        if kind == "turnstile":
            factory_kwargs["sampler_repetitions"] = sampler_repetitions
        specs = _mirror_specs(kind, copy_rngs, **factory_kwargs)
    elif copy_rngs is not None:
        raise EngineError("copy_rngs is a mirror-mode parameter; shared mode derives from rng")
    else:
        specs = _shared_specs(
            copies, k, backend, workers, master, kind, pattern, sampler_repetitions
        )
    engine = StreamEngine(
        stream,
        batch_size=batch_size,
        backend=backend,
        workers=workers,
        start_method=start_method,
        cache=cache,
    )
    for spec in specs:
        engine.register_spec(spec)
    report = engine.run()
    results = [report.results[spec.name] for spec in specs]
    details = {}
    if mode == FusionMode.SHARED:
        # Each shard reports its copies plus its oracle's metered space.
        details["ensemble_space_words"] = float(
            sum(int(shard[0].details["shard_space_words"]) for shard in results)
        )
        results = [result for shard in results for result in shard]
    return _fused_result(
        kind, pattern, mode, backend, stream.net_edge_count, k, results, report, **details
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
        cache=cache,
    )
