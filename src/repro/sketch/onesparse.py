"""Exact 1-sparse recovery for turnstile streams.

Maintains three aggregates of the signed vector x ∈ Z^universe:

* ``weight``      = Σ_i x_i
* ``weighted_sum``= Σ_i x_i * i
* ``fingerprint`` = Σ_i x_i * z^i  (mod p, random z)

If x is exactly 1-sparse (a single non-zero coordinate i with value
c), then weight = c, weighted_sum = c * i, and the fingerprint equals
c * z^i.  The fingerprint check makes false positives happen with
probability <= universe / p over the choice of z — negligible for
p = 2^61 - 1.  This is the building block of the Cormode–Firmani
ℓ0-sampler (Lemma 7); the ℓ0 bank (:class:`~repro.sketch.l0.L0Bank`)
keeps the same triples, one per (repetition, level), in arrays.

All three aggregates are linear in the updates, so a batch of updates
collapses to one triple of deltas
(:meth:`OneSparseRecovery.apply_aggregates`), bit-identical to
replaying the batch element-wise.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Tuple

from repro.errors import MergeError
from repro.sketch.hashing import MERSENNE_PRIME
# The field kernels are no longer called here; they stay module
# attributes so per-layer profilers that wrap this module's kernels by
# name (perfbench/tracing.py) keep resolving.
from repro.sketch.hashing import mulmod_vec, powmod_vec  # noqa: F401
from repro.utils.checkpoint import check_merge_config, check_state_config, state_field
from repro.utils.rng import RandomSource, ensure_rng


def draw_fingerprint_base(rng: random.Random) -> int:
    """A random fingerprint base ``z`` in ``[2, p)``.

    The single home of the draw, shared with the ℓ0 bank
    (:class:`~repro.sketch.l0.L0Bank`) so both consume *rng* alike.
    """
    return 2 + rng.randrange(MERSENNE_PRIME - 2)


class OneSparseRecovery:
    """Detects and recovers exactly-1-sparse signed vectors."""

    __slots__ = ("_universe", "_z", "_weight", "_weighted_sum", "_fingerprint")

    #: Words of memory this structure accounts for in the space meter.
    WORDS = 4  # weight, weighted sum, fingerprint, z

    def __init__(
        self, universe: int, rng: RandomSource = None, z: Optional[int] = None
    ) -> None:
        if universe <= 0:
            raise ValueError(f"universe must be positive, got {universe}")
        self._universe = universe
        if z is None:
            z = draw_fingerprint_base(ensure_rng(rng))
        self._z = z
        self._weight = 0
        self._weighted_sum = 0
        self._fingerprint = 0

    @property
    def z(self) -> int:
        """The fingerprint base (shareable across sketches)."""
        return self._z

    def update(self, item: int, delta: int) -> None:
        """Apply ``x[item] += delta``."""
        self.update_with_power(item, delta, pow(self._z, item, MERSENNE_PRIME))

    def update_with_power(self, item: int, delta: int, z_power: int) -> None:
        """Like :meth:`update` with ``z^item mod p`` precomputed.

        Callers that fan one update out to many levels sharing the
        same base ``z`` (an ℓ0-sampler's levels) compute the power once.
        """
        if not 0 <= item < self._universe:
            raise ValueError(f"item {item} outside universe [0, {self._universe})")
        self._weight += delta
        self._weighted_sum += delta * item
        self._fingerprint = (self._fingerprint + delta * z_power) % MERSENNE_PRIME

    def update_many(self, updates: Iterable[Tuple[int, int]]) -> None:
        """Apply a batch of ``(item, delta)`` updates.

        The aggregates are sums, so the batched result equals applying
        :meth:`update` per pair; lookups are hoisted out of the loop.
        """
        universe = self._universe
        z = self._z
        weight = self._weight
        weighted_sum = self._weighted_sum
        fingerprint = self._fingerprint
        for item, delta in updates:
            if not 0 <= item < universe:
                raise ValueError(f"item {item} outside universe [0, {universe})")
            weight += delta
            weighted_sum += delta * item
            fingerprint = (fingerprint + delta * pow(z, item, MERSENNE_PRIME)) % MERSENNE_PRIME
        self._weight = weight
        self._weighted_sum = weighted_sum
        self._fingerprint = fingerprint

    def apply_aggregates(
        self, weight_delta: int, weighted_delta: int, fingerprint_delta: int
    ) -> None:
        """Fold pre-aggregated update sums into the sketch.

        By linearity, applying ``(Σ delta, Σ delta·item, Σ delta·z^item
        mod p)`` equals replaying the underlying updates one by one —
        the contract every batched path (here and in the ℓ0 bank's
        grouped scatter-add) relies on.
        """
        self._weight += weight_delta
        self._weighted_sum += weighted_delta
        self._fingerprint = (self._fingerprint + fingerprint_delta) % MERSENNE_PRIME

    def merge(self, other: "OneSparseRecovery") -> None:
        """Fold another sketch of the same identity into this one.

        By linearity the merged aggregates equal those of a single
        sketch that ingested both update sequences, in any order —
        the addition is exact Python-int / modular arithmetic, so the
        result is bit-identical to single-stream ingestion.  Both
        sketches must share the universe *and* the fingerprint base
        ``z`` (a fingerprint only composes against the base it was
        accumulated with); a mismatch raises
        :class:`~repro.errors.MergeError`.
        """
        if not isinstance(other, OneSparseRecovery):
            raise MergeError(
                f"cannot merge OneSparseRecovery with {type(other).__name__}"
            )
        check_merge_config(
            "OneSparseRecovery",
            universe=(self._universe, other._universe),
            z=(self._z, other._z),
        )
        self.apply_aggregates(other._weight, other._weighted_sum, other._fingerprint)

    def state_dict(self) -> dict:
        """The three linear aggregates plus the fingerprint base."""
        return {
            "universe": self._universe,
            "z": self._z,
            "weight": self._weight,
            "weighted_sum": self._weighted_sum,
            "fingerprint": self._fingerprint,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture into a sketch over the same universe.

        The fingerprint base ``z`` is part of the captured identity (a
        fingerprint only verifies against the base it was accumulated
        with), so it is restored rather than validated.
        """
        check_state_config("OneSparseRecovery", state, universe=self._universe)
        self._z = int(state_field("OneSparseRecovery", state, "z"))
        self._weight = int(state_field("OneSparseRecovery", state, "weight"))
        self._weighted_sum = int(
            state_field("OneSparseRecovery", state, "weighted_sum")
        )
        self._fingerprint = int(
            state_field("OneSparseRecovery", state, "fingerprint")
        )

    @property
    def is_empty(self) -> bool:
        """Whether the sketch certifies x == 0 (up to fingerprint error)."""
        return self._weight == 0 and self._weighted_sum == 0 and self._fingerprint == 0

    def recover(self) -> Optional[Tuple[int, int]]:
        """Return ``(item, count)`` if the vector is exactly 1-sparse.

        Returns ``None`` when the vector is empty or verifiably not
        1-sparse.  A false positive requires a fingerprint collision
        (probability <= universe/2^61 per query).
        """
        if self._weight == 0:
            return None
        if self._weighted_sum % self._weight != 0:
            return None
        item = self._weighted_sum // self._weight
        if not 0 <= item < self._universe:
            return None
        expected = (self._weight * pow(self._z, item, MERSENNE_PRIME)) % MERSENNE_PRIME
        if expected != self._fingerprint:
            return None
        return item, self._weight
