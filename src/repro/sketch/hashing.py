"""k-wise independent hashing via random polynomials.

Evaluation of a random degree-(k-1) polynomial over the Mersenne
prime field GF(2^61 - 1) gives a k-wise independent family; the ℓ0-
sampler's level assignment and fingerprint verification both build on
it.  Python integers make the modular arithmetic exact and simple.

:meth:`PolynomialHash.value` is the exact Python-int Horner
evaluation.  The ℓ0 bank (:class:`~repro.sketch.l0.L0Bank`) runs the
same field arithmetic over ``uint64`` arrays with the kernels below:
each modular product is computed exactly via 32-bit limb splitting
(:func:`mulmod_vec`), and ``2^61 ≡ 1 (mod p)`` makes the limb
recombination a few shifts.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro.errors import MergeError
from repro.utils.checkpoint import check_merge_config, check_state_config, state_field
from repro.utils.rng import RandomSource, ensure_rng

#: The Mersenne prime 2^61 - 1.
MERSENNE_PRIME = (1 << 61) - 1

_P = np.uint64(MERSENNE_PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)


def mulmod_vec(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``(a * b) mod (2^61 - 1)`` on ``uint64`` operands < p.

    A 61-bit product does not fit in 64 bits, so each factor is split
    into 32-bit limbs; ``2^64 ≡ 8`` and ``2^61 ≡ 1 (mod p)`` fold the
    partial products back without ever exceeding ``uint64``:

    ``a·b = hh·2^64 + mid·2^32 + ll`` with ``hh = a_hi·b_hi`` (< 2^58),
    ``mid = a_hi·b_lo + a_lo·b_hi`` (< 2^62), ``ll = a_lo·b_lo``.
    ``mid·2^32 = (mid >> 29)·2^61 + (mid mod 2^29)·2^32 ≡
    (mid >> 29) + (mid mod 2^29)·2^32``.
    """
    a_hi = a >> _U32
    a_lo = a & _MASK32
    b_hi = b >> _U32
    b_lo = b & _MASK32
    # The partial products are fresh arrays of the broadcast shape, so
    # the folding below runs in place (fewer temporaries per call).
    out = a_hi * b_hi
    out <<= _U3
    mid = a_hi * b_lo
    mid += a_lo * b_hi
    out += mid >> _U29
    mid &= _MASK29
    mid <<= _U32
    out += mid
    ll = a_lo * b_lo
    out += ll >> _U61
    ll &= _P
    out += ll
    high = out >> _U61
    out &= _P
    out += high
    # out < 2p: when out < p, out - p wraps above 2^63 > out.
    return np.minimum(out, out - _P)


def addmod_vec(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``(a + b) mod (2^61 - 1)`` on ``uint64`` operands < p."""
    out = a + b
    return np.minimum(out, out - _P)


def powmod_vec(base: int, exponents: np.ndarray) -> np.ndarray:
    """``base ** exponents mod (2^61 - 1)`` for a scalar base < p.

    Square-and-multiply with the squarings precomputed as Python ints
    (the base is shared), so the per-bit work is one masked
    :func:`mulmod_vec` over the batch.
    """
    exponents = np.ascontiguousarray(exponents, dtype=np.uint64)
    result = np.ones_like(exponents)
    if not exponents.size:
        return result
    max_exponent = int(exponents.max())
    square = base % MERSENNE_PRIME
    bit = 0
    one = np.uint64(1)
    while (max_exponent >> bit) and square != 1:
        mask = (exponents >> np.uint64(bit)) & one
        if mask.any():
            result = np.where(
                mask.astype(bool), mulmod_vec(result, np.uint64(square)), result
            )
        square = (square * square) % MERSENNE_PRIME
        bit += 1
    return result


def draw_coefficients(independence: int, rng: random.Random) -> Tuple[int, ...]:
    """Draw a random degree-(k-1) polynomial, highest-degree first.

    The single home of the coefficient draw: :class:`PolynomialHash`
    and the ℓ0 bank (:class:`~repro.sketch.l0.L0Bank`) both consume
    *rng* exactly this way, so a bank row and a hash built from the
    same generator hold the same function.
    """
    # Leading coefficient non-zero keeps the polynomial degree exact.
    coefficients: List[int] = [
        rng.randrange(MERSENNE_PRIME) for _ in range(independence - 1)
    ]
    coefficients.append(1 + rng.randrange(MERSENNE_PRIME - 1))
    # Highest-degree first: exactly the order Horner consumes.
    return tuple(reversed(coefficients))


class PolynomialHash:
    """A k-wise independent hash function h: [universe] -> [0, prime).

    Parameters
    ----------
    independence:
        k — the degree of independence (polynomial degree k-1).
    rng:
        Randomness for the coefficients.

    Notes
    -----
    ``value`` returns the raw field element; convenience mappers
    reduce it to a range, a unit float, or a geometric level.
    Coefficients are stored highest-degree first, so Horner evaluation
    walks them in storage order (no per-call ``reversed()``).
    """

    __slots__ = ("_coefficients",)

    def __init__(self, independence: int, rng: RandomSource = None) -> None:
        if independence < 1:
            raise ValueError(f"independence must be >= 1, got {independence}")
        self._coefficients = draw_coefficients(independence, ensure_rng(rng))

    @property
    def independence(self) -> int:
        return len(self._coefficients)

    def merge(self, other: "PolynomialHash") -> None:
        """Merge-compatibility check: hash functions carry no aggregates.

        A hash function is frozen randomness, so "merging" two of them
        is a no-op — but only when they are the *same* function.  Two
        shards hashed with different coefficient vectors placed items
        at different ℓ0 levels, and their level sketches must never be
        added; a coefficient mismatch raises
        :class:`~repro.errors.MergeError` naming the field.
        """
        if not isinstance(other, PolynomialHash):
            raise MergeError(
                f"cannot merge PolynomialHash with {type(other).__name__}"
            )
        check_merge_config(
            "PolynomialHash",
            independence=(self.independence, other.independence),
            coefficients=(self._coefficients, other._coefficients),
        )

    def state_dict(self) -> dict:
        """The drawn coefficients (a hash function is frozen randomness)."""
        return {
            "independence": self.independence,
            "coefficients": tuple(self._coefficients),
        }

    def load_state_dict(self, state: dict) -> None:
        """Adopt a captured coefficient vector of the same independence."""
        check_state_config("PolynomialHash", state, independence=self.independence)
        coefficients = tuple(
            int(c) for c in state_field("PolynomialHash", state, "coefficients")
        )
        self._coefficients = coefficients

    def value(self, item: int) -> int:
        """Raw hash value in ``[0, MERSENNE_PRIME)`` (Horner evaluation)."""
        accumulator = 0
        x = item % MERSENNE_PRIME
        for coefficient in self._coefficients:
            accumulator = (accumulator * x + coefficient) % MERSENNE_PRIME
        return accumulator

    def to_range(self, item: int, size: int) -> int:
        """Hash reduced to ``[0, size)`` (negligible modular bias)."""
        if size <= 0:
            raise ValueError(f"range size must be positive, got {size}")
        return self.value(item) % size

    def to_unit(self, item: int) -> float:
        """Hash as a float in ``[0, 1)``."""
        return self.value(item) / MERSENNE_PRIME

    def level(self, item: int, max_level: int) -> int:
        """Geometric level: ``P(level >= l) = 2^-l``, capped at *max_level*.

        Level l contains the item iff the top l bits of the hash are
        zero — the standard ℓ0-sampler subsampling scheme.
        """
        raw = self.value(item)
        level = 0
        threshold = MERSENNE_PRIME
        while level < max_level:
            threshold //= 2
            if raw >= threshold:
                break
            level += 1
        return level
