"""Engine adapters for the library's estimators.

:class:`RoundAdaptiveEstimator` spreads the lockstep loop of
:func:`repro.transform.driver.run_round_adaptive` across engine passes:
at ``begin_pass`` it merges the live generators' round-ℓ batches and
opens an oracle pass-state (``oracle.begin_batch``), during the pass it
forwards every decoded update chunk, and at ``end_pass`` it collects
the answers and dispatches them back to the generators.  Merging and
dispatching go through the same
:class:`~repro.transform.driver.LockstepState` the sequential driver
uses, so a fused run consumes randomness identically and returns
**bit-identical** estimates (asserted in
``tests/test_engine_equivalence.py``).

The ``fgp_*_estimator`` / ``ers_clique_estimator`` factories mirror the
corresponding one-shot entry points parameter for parameter — same
trial resolution, same rng derivation tree — differing only in who
iterates the stream.  Baseline estimators (:class:`TriestEstimator`,
:class:`DoulionEstimator`, :class:`ExactStreamEstimator`) are
re-exported from :mod:`repro.baselines` for one-stop registration.

Because the factories are module-level callables taking ``(stream,
**picklable kwargs)``, they double as the ``factory`` of a
process-backend :class:`~repro.engine.parallel.EstimatorSpec`: a
worker rebuilds the estimator from ``(pattern, trials, rng)`` against
a :class:`~repro.engine.parallel.StreamHandle`.  A built
:class:`RoundAdaptiveEstimator` itself holds live generator frames and
is deliberately *not* picklable — reconstruct from seeds, don't ship.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.baselines.doulion import DoulionEstimator
from repro.baselines.exact_stream import ExactStreamEstimator
from repro.baselines.triest import TriestEstimator
from repro.engine.core import DecodedBatch
from repro.errors import (
    CheckpointError,
    EngineError,
    EstimationError,
    MergeError,
    OracleError,
)
from repro.estimate.concentration import ParamMode
from repro.oracle.base import QueryAccounting
from repro.patterns.pattern import Pattern
from repro.streaming.ers.counter import clique_counter_program
from repro.streaming.ers.params import ErsParameters
from repro.streaming.three_pass import insertion_counter_program, resolve_trials
from repro.streaming.turnstile import turnstile_counter_program
from repro.streaming.two_pass import require_star_decomposable, two_pass_counter_program
from repro.streams.stream import EdgeStream
from repro.transform.driver import LockstepState, RoundRunResult
from repro.transform.insertion import InsertionStreamOracle
from repro.utils.checkpoint import state_field
from repro.utils.rng import RandomSource, derive_rng, ensure_rng

__all__ = [
    "RoundAdaptiveEstimator",
    "fgp_insertion_estimator",
    "fgp_turnstile_estimator",
    "fgp_two_pass_estimator",
    "ers_clique_estimator",
    "TriestEstimator",
    "DoulionEstimator",
    "ExactStreamEstimator",
]


class RoundAdaptiveEstimator:
    """A set of round-adaptive generators driven by engine passes.

    Merge order and answer routing come from the same
    :class:`~repro.transform.driver.LockstepState` that powers
    :func:`~repro.transform.driver.run_round_adaptive`, which is what
    makes fused runs bit-identical to sequential ones.

    Parameters
    ----------
    name:
        Registration key in the engine.
    generators:
        Round-adaptive algorithm instances (see
        :mod:`repro.transform.driver`).
    oracle:
        A stream oracle exposing ``begin_batch(batch)`` returning a
        pass-state with ``ingest_batch(decoded)`` / ``finish()``.
    finalize:
        Maps the finished :class:`RoundRunResult` to the estimator's
        result (typically an :class:`~repro.estimate.result.EstimateResult`).
    """

    def __init__(self, name: str, generators: Sequence, oracle, finalize: Callable) -> None:
        self.name = name
        self._oracle = oracle
        self._finalize = finalize
        self._lockstep = LockstepState(generators)
        self._rounds = 0
        self._accounting = QueryAccounting()
        self._state = None
        self._result: Any = None
        # Per-round answer record: what checkpointing replays.  Live
        # generator frames cannot be serialized, but they are a pure
        # function of (construction seeds, dispatched answers), so the
        # answer history IS the portable form of their state.
        self._history: list = []

    @property
    def rounds(self) -> int:
        """Oracle rounds (= stream passes) consumed so far."""
        return self._rounds

    @property
    def passes_consumed(self) -> int:
        """Stream passes this estimator has already been driven through.

        Part of the engine's registration freshness check: an estimator
        that consumed passes elsewhere cannot join a new run without
        silently corrupting its pass accounting.
        """
        return self._rounds

    def wants_pass(self) -> bool:
        return self._lockstep.live

    def begin_pass(self, pass_index: int) -> None:
        if self._state is not None:
            raise EngineError(f"estimator {self.name!r}: begin_pass while a pass is open")
        if not self._lockstep.live:
            raise EngineError(f"estimator {self.name!r}: begin_pass after completion")
        merged = self._lockstep.merge()
        self._accounting.record_batch(merged)
        self._state = self._oracle.begin_batch(merged)

    def ingest_batch(self, batch: DecodedBatch) -> None:
        state = self._state
        if state is None:
            raise EngineError(f"estimator {self.name!r}: ingest_batch outside an open pass")
        state.ingest_batch(batch)

    def end_pass(self) -> list:
        """Close the open pass and dispatch its answers; returns them.

        The return value is what a scatter/merge driver broadcasts to
        the other shard replicas (see :meth:`end_pass_adopting`);
        ordinary engine loops ignore it.
        """
        if self._state is None:
            raise EngineError(f"estimator {self.name!r}: end_pass outside an open pass")
        answers = self._state.finish()
        self._state = None
        self._rounds += 1
        self._history.append(answers)
        self._lockstep.dispatch(answers)
        return answers

    def merge(self, other: "RoundAdaptiveEstimator") -> None:
        """Fold another shard replica's open pass into this one.

        Both estimators must be replicas — built from the same spec
        (same name, seeds and parameters), driven through the same
        rounds (identical answer histories), each currently holding an
        open pass for the same round — with *other* having ingested a
        disjoint shard of the stream.  The oracle-level merge validates
        the replica relation (seeds in lockstep, same pass index); the
        pass-state merge then adds the linear sketch aggregates.  On
        reservoir-backed paths either check raises a typed
        :class:`~repro.errors.MergeError` before any state is touched,
        so a sharded run over a non-mergeable estimator fails loudly
        instead of returning silently wrong estimates.
        """
        if not isinstance(other, RoundAdaptiveEstimator):
            raise MergeError(
                f"cannot merge RoundAdaptiveEstimator with {type(other).__name__}"
            )
        if other.name != self.name:
            raise MergeError(
                f"cannot merge estimator {other.name!r} into {self.name!r}: "
                "shard replicas must be built from the same spec"
            )
        if self._rounds != other._rounds or self._history != other._history:
            raise MergeError(
                f"cannot merge estimator {self.name!r}: the replicas' answer "
                f"histories diverged (self at round {self._rounds}, other at "
                f"round {other._rounds}); shards must adopt the merged answers "
                "each pass (end_pass_adopting) to stay in lockstep"
            )
        if self._state is None or other._state is None:
            raise MergeError(
                f"cannot merge estimator {self.name!r}: both replicas must "
                "hold an open pass (merge happens before end_pass)"
            )
        self._oracle.merge(other._oracle)
        self._state.merge(other._state)

    def end_pass_adopting(self, answers: Sequence) -> None:
        """Close the open pass, adopting the merged replica's *answers*.

        The scatter/merge driver merges all shards' pass states into one
        primary replica and ends that pass normally; every *other*
        replica then calls this — the local (shard-partial) answers are
        discarded, the pass's space is released, and the broadcast
        answers are recorded and dispatched instead, so all replicas
        consume identical randomness next round and stay mergeable.
        """
        if self._state is None:
            raise EngineError(
                f"estimator {self.name!r}: end_pass_adopting outside an open pass"
            )
        self._state.finish()
        self._state = None
        self._rounds += 1
        answers = list(answers)
        self._history.append(answers)
        self._lockstep.dispatch(answers)

    def result(self) -> Any:
        if self._lockstep.live:
            raise EngineError(f"estimator {self.name!r} has not finished its passes")
        if self._result is None:
            self._result = self._finalize(
                RoundRunResult(
                    outputs=self._lockstep.outputs,
                    rounds=self._rounds,
                    accounting=self._accounting,
                )
            )
        return self._result

    def state_dict(self) -> dict:
        """Portable state: answer history + oracle state + open pass.

        Generator frames are not serializable, so the capture records
        the per-round answers instead — :meth:`load_state_dict` replays
        them through a freshly built (same seeds) estimator, which
        reconstructs the exact generator states.  The open pass (if
        any) is captured directly via its own ``state_dict``; oracle
        randomness rides along so the continuation is bit-identical.
        """
        return {
            "kind": "round-adaptive",
            "name": self.name,
            "rounds": self._rounds,
            "history": [list(answers) for answers in self._history],
            "accounting": self._accounting.state_dict(),
            "oracle": self._oracle.state_dict(),
            "pass_state": None if self._state is None else self._state.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Replay a capture into this *freshly built* estimator.

        The estimator must have been rebuilt from the same recipe
        (factory + kwargs + seeds) that produced the captured one —
        stream-dependent parameters (e.g. a trial budget resolved from
        ``stream.net_edge_count``) must be pinned explicitly in the
        recipe, otherwise the rebuilt structure drifts and the replay
        fails with a :class:`~repro.errors.CheckpointError`.
        """
        if self._rounds or self._state is not None or self._history:
            raise CheckpointError(
                f"estimator {self.name!r}: load_state_dict requires a freshly "
                "built estimator (rebuild from the spec, then load)"
            )
        captured_name = state_field("RoundAdaptiveEstimator", state, "name")
        if captured_name != self.name:
            raise CheckpointError(
                f"state of estimator {captured_name!r} cannot be loaded into "
                f"estimator {self.name!r}"
            )
        history = state_field("RoundAdaptiveEstimator", state, "history")
        if int(state_field("RoundAdaptiveEstimator", state, "rounds")) != len(history):
            raise CheckpointError(
                f"estimator {self.name!r}: state records "
                f"{state['rounds']} rounds but carries {len(history)} answer lists"
            )
        try:
            for answers in history:
                if not self._lockstep.live:
                    raise CheckpointError(
                        f"estimator {self.name!r}: generators finished before the "
                        "recorded history was replayed; the rebuilt estimator "
                        "does not match the captured structure"
                    )
                self._lockstep.merge()
                self._lockstep.dispatch(list(answers))
            pass_state = state_field("RoundAdaptiveEstimator", state, "pass_state")
            if pass_state is not None:
                if not self._lockstep.live:
                    raise CheckpointError(
                        f"estimator {self.name!r}: state carries an open pass but "
                        "the replayed generators have finished"
                    )
                # Rebuild the pass structure from the replayed merged
                # batch, then overlay the captured runtime state.  The
                # oracle rng position is restored below, so whatever
                # begin_batch consumed here is irrelevant.
                merged = self._lockstep.merge()
                self._state = self._oracle.begin_batch(merged)
                self._state.load_state_dict(pass_state)
        except OracleError as error:
            raise CheckpointError(
                f"estimator {self.name!r}: replaying the recorded history failed "
                f"({error}); the estimator was rebuilt with a different structure "
                "— pin stream-dependent parameters (e.g. trials) in the recipe"
            ) from error
        self._oracle.load_state_dict(state_field("RoundAdaptiveEstimator", state, "oracle"))
        self._accounting.load_state_dict(
            state_field("RoundAdaptiveEstimator", state, "accounting")
        )
        self._rounds = len(history)
        self._history = [list(answers) for answers in history]


def fgp_insertion_estimator(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    name: str = "fgp-insertion",
) -> RoundAdaptiveEstimator:
    """Theorem 17's counter as an engine estimator.

    Same parameters and randomness tree as
    :func:`~repro.streaming.three_pass.count_subgraphs_insertion_only`;
    a fused run with rng R equals the one-shot call with rng R bit for
    bit.
    """
    random_state = ensure_rng(rng)
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)
    oracle, generators, finalize = insertion_counter_program(
        stream, pattern, k, random_state
    )
    return RoundAdaptiveEstimator(name, generators, oracle, finalize)


def fgp_turnstile_estimator(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    sampler_repetitions: int = 8,
    name: str = "fgp-turnstile",
) -> RoundAdaptiveEstimator:
    """Theorem 1's turnstile counter as an engine estimator
    (mirrors :func:`~repro.streaming.turnstile.count_subgraphs_turnstile`)."""
    random_state = ensure_rng(rng)
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)
    oracle, generators, finalize = turnstile_counter_program(
        stream, pattern, k, random_state, sampler_repetitions=sampler_repetitions
    )
    return RoundAdaptiveEstimator(name, generators, oracle, finalize)


def fgp_two_pass_estimator(
    stream: EdgeStream,
    pattern: Pattern,
    epsilon: float = 0.1,
    lower_bound: Optional[float] = None,
    trials: Optional[int] = None,
    rng: RandomSource = None,
    param_mode: str = ParamMode.PRACTICAL,
    name: str = "fgp-two-pass",
) -> RoundAdaptiveEstimator:
    """The 2-pass star-decomposable counter as an engine estimator
    (mirrors :func:`~repro.streaming.two_pass.count_subgraphs_two_pass`)."""
    require_star_decomposable(pattern)
    random_state = ensure_rng(rng)
    k = resolve_trials(stream, pattern, epsilon, lower_bound, trials, param_mode)
    oracle, generators, finalize = two_pass_counter_program(
        stream, pattern, k, random_state
    )
    return RoundAdaptiveEstimator(name, generators, oracle, finalize)


def ers_clique_estimator(
    stream: EdgeStream,
    r: int,
    degeneracy_bound: int,
    lower_bound: float,
    epsilon: float = 0.2,
    params: Optional[ErsParameters] = None,
    rng: RandomSource = None,
    name: str = "ers-clique",
) -> RoundAdaptiveEstimator:
    """Theorem 2's clique counter (<= 5r passes) as an engine estimator
    (mirrors :func:`~repro.streaming.ers.counter.count_cliques_stream`)."""
    if stream.allows_deletions:
        raise EstimationError("the ERS counter is an insertion-only algorithm")
    random_state = ensure_rng(rng)
    if params is None:
        params = ErsParameters(r=r, degeneracy_bound=degeneracy_bound, epsilon=epsilon)
    oracle = InsertionStreamOracle(stream, derive_rng(random_state, "oracle"))
    runs, finalize_run = clique_counter_program(
        params, lower_bound, stream.n, oracle, random_state
    )

    def finalize(run_result):
        result = finalize_run(run_result)
        result.m = stream.net_edge_count
        return result

    return RoundAdaptiveEstimator(name, runs, oracle, finalize)
