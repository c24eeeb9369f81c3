"""ℓ0-sampling for turnstile streams (Lemma 7, Cormode–Firmani).

An :class:`L0Sampler` returns a (near-)uniform non-zero coordinate of
a signed vector maintained under insertions and deletions.  Structure
of one repetition:

* ``levels`` geometric sub-sampling levels; a k-wise independent hash
  assigns every coordinate its maximum level (P(level >= l) = 2^-l);
* one exact 1-sparse recovery triple per level — weight, weighted sum
  and fingerprint, as in :class:`~repro.sketch.onesparse.OneSparseRecovery`;
  all levels of a repetition share one fingerprint base ``z``;
* query: scan levels bottom-up and return the first successful
  recovery.  At the level where the expected number of surviving
  coordinates is Θ(1), recovery succeeds with constant probability;
  ``repetitions`` independent copies drive the failure probability
  down geometrically, matching Lemma 7's 1 - 1/n^c guarantee.

Storage lives in an :class:`L0Bank`: every sampler of one (universe,
levels, repetitions) configuration, one row per sampler × repetition,
as 2-D arrays (hash coefficients, fingerprint bases, fixed-base power
tables and the per-level aggregates).  A batch of updates reaches any
contiguous range of rows through one kernel (:meth:`L0Bank.update`):
coalesce to net per-item deltas, row-chunked Horner for the levels,
windowed powers ``z^item``, scatter-add with suffix sums.  An
:class:`L0Sampler` is a one-sampler view of a bank; a standalone
sampler owns a bank of one.

The paper uses ℓ0-samplers in two places (proof of Theorem 11): a
sampler over the adjacency-matrix vector emulates f1 (uniform edge),
and a sampler over one adjacency-list column emulates f3 (uniform
neighbor).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, MergeError, SketchError
from repro.sketch.hashing import MERSENNE_PRIME as _PRIME
from repro.sketch.hashing import addmod_vec, draw_coefficients, mulmod_vec
# powmod_vec is no longer called here; it stays a module attribute so
# per-layer profilers that wrap this module's field kernels by name
# (perfbench/tracing.py) keep resolving.
from repro.sketch.hashing import powmod_vec  # noqa: F401
from repro.sketch.onesparse import OneSparseRecovery, draw_fingerprint_base
from repro.utils.checkpoint import check_merge_config, check_state_config, state_field
from repro.utils.rng import RandomSource, derive_rng, ensure_rng

_HASH_INDEPENDENCE = 8

_P = np.uint64(_PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_TWO32 = np.uint64(1 << 32)

#: Elements (rows × items) per kernel chunk: mulmod_vec keeps about ten
#: uint64 temporaries of this size alive, ~1.3 MB per chunk.
_CHUNK_ELEMENTS = 1 << 14

#: Widest exponent window of the fixed-base power tables.
_WINDOW_BITS = 4

#: A batch's int64 sums are exact while max|delta| × length <= 2^31
#: (then Σ|delta · item_low32| < 2^63); larger batches are summed as
#: Python ints.
_EXACT_BATCH = 1 << 31


def _coalesce(items: np.ndarray, deltas: np.ndarray, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Net delta per distinct item, zeros dropped (exact by linearity)."""
    unique, inverse = np.unique(items, return_inverse=True)
    net = np.zeros(len(unique), dtype=dtype)
    np.add.at(net, inverse, deltas.astype(dtype))
    keep = net != 0
    return unique[keep], net[keep]


def _level_sums(values: np.ndarray, buckets: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """Per-(row, level) totals of *values*, as suffix sums over the levels.

    *buckets* holds the flat ``row · width + level`` index of every
    (row, item) cell of the chunk; *values* is broadcast to that grid
    (item-only terms are shared by all rows).  An item at level L
    counts at levels 0..L.
    """
    totals = np.zeros(shape[0] * shape[1], dtype=values.dtype)
    cells = np.broadcast_to(values, (shape[0], len(buckets) // shape[0]))
    np.add.at(totals, buckets, cells.ravel())
    per_level = totals.reshape(shape)
    return np.cumsum(per_level[:, ::-1], axis=1)[:, ::-1]


def _accumulate(store: np.ndarray, rows: slice, delta: np.ndarray) -> np.ndarray:
    """``store[rows] += delta`` exactly; returns the (maybe promoted) store.

    Aggregates live in ``int64`` while they fit; a sum that would wrap
    (or an object-dtype batch from the Python-int path) promotes the
    store to Python ints, which is what the aggregates are by
    definition.
    """
    if store.dtype != object and delta.dtype != object:
        current = store[rows]
        total = current + delta
        if not (((current ^ total) & (delta ^ total)) < 0).any():
            store[rows] = total
            return store
    if store.dtype != object:
        store = store.astype(object)
    store[rows] = store[rows] + delta.astype(object)
    return store


def _store(store: np.ndarray, rows: slice, values: list) -> np.ndarray:
    """``store[rows] = values``, promoting to Python ints if they do not fit."""
    try:
        store[rows] = np.array(values, dtype=store.dtype)
    except OverflowError:
        store = store.astype(object)
        store[rows] = np.array(values, dtype=object)
    return store


class L0Bank:
    """Every ℓ0-sampler of one (universe, levels, repetitions) configuration.

    Parameters
    ----------
    universe:
        Coordinates are integers in ``[0, universe)``.
    rngs:
        One randomness source per sampler.  Sampler ``s`` draws from
        ``rngs[s]`` exactly as ``L0Sampler(universe, rngs[s],
        repetitions, levels)`` would, so a bank and a list of
        standalone samplers built from the same sources agree bit for
        bit.
    repetitions:
        Independent copies per sampler; failure probability decays as
        ``2^-repetitions`` at the critical level.
    levels:
        Number of sub-sampling levels; defaults to ``log2(universe)+2``.

    Sampler ``s`` owns rows ``s·R .. (s+1)·R - 1``.  The aggregates
    weight and fingerprint are ``(rows, levels + 1)`` arrays; the
    weighted sum is split into a 32-bit low limb in ``[0, 2^32)`` and
    a signed high limb, so it stays exact far beyond ``2^63``.
    """

    def __init__(
        self,
        universe: int,
        rngs: Sequence[RandomSource],
        repetitions: int = 8,
        levels: Optional[int] = None,
    ) -> None:
        if universe <= 0:
            raise SketchError(f"universe must be positive, got {universe}")
        if repetitions < 1:
            raise SketchError(f"repetitions must be >= 1, got {repetitions}")
        self._universe = universe
        self._levels = levels if levels is not None else max(2, int(math.log2(universe)) + 2)
        self._repetitions = repetitions
        coefficients: List[Tuple[int, ...]] = []
        bases: List[int] = []
        labels = [f"l0-rep-{repetition}" for repetition in range(repetitions)]
        for source in rngs:
            random_state = ensure_rng(source)
            for label in labels:
                child = derive_rng(random_state, label)
                coefficients.append(draw_coefficients(_HASH_INDEPENDENCE, child))
                # All levels of one repetition share a fingerprint base
                # so an update needs a single power z^item.
                bases.append(draw_fingerprint_base(child))
        rows = len(bases)
        self._samplers = rows // repetitions
        self._coefficients = np.array(coefficients, dtype=np.uint64).reshape(
            rows, _HASH_INDEPENDENCE
        )
        self._bases = np.array(bases, dtype=np.uint64)
        width = self._levels + 1
        self._weight = np.zeros((rows, width), dtype=np.int64)
        self._ws_high = np.zeros((rows, width), dtype=np.int64)
        self._ws_low = np.zeros((rows, width), dtype=np.int64)
        self._fingerprint = np.zeros((rows, width), dtype=np.uint64)
        # Level l holds hashes below p >> l; ascending for searchsorted.
        self._thresholds = np.array(
            [_PRIME >> k for k in range(self._levels, 0, -1)], dtype=np.uint64
        )
        # Items are int64, so no exponent has more than 63 bits.
        bits = min(63, max(1, (universe - 1).bit_length()))
        windows = -(-bits // _WINDOW_BITS)
        self._window = -(-bits // windows)
        self._windows = windows
        self._tables: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._samplers

    @property
    def universe(self) -> int:
        return self._universe

    @property
    def levels(self) -> int:
        return self._levels

    @property
    def repetitions(self) -> int:
        return self._repetitions

    @property
    def sampler_space_words(self) -> int:
        """Accounted words of one sampler: recovery triples plus hashes."""
        per_repetition = (self._levels + 1) * OneSparseRecovery.WORDS + _HASH_INDEPENDENCE
        return self._repetitions * per_repetition

    @property
    def space_words(self) -> int:
        return self._samplers * self.sampler_space_words

    def rows(self, index: int) -> slice:
        """The bank rows of sampler *index*."""
        return slice(index * self._repetitions, (index + 1) * self._repetitions)

    def sampler(self, index: int) -> "L0Sampler":
        """A one-sampler view of sampler *index*."""
        if not 0 <= index < self._samplers:
            raise SketchError(f"sampler {index} outside bank of {self._samplers}")
        view = L0Sampler.__new__(L0Sampler)
        view._bank = self
        view._index = index
        return view

    # -- ingestion ---------------------------------------------------------

    def update(self, items: np.ndarray, deltas: np.ndarray, rows: slice = slice(None)) -> None:
        """Apply ``x[items[i]] += deltas[i]`` to every sampler in *rows*.

        *rows* is a contiguous range of bank rows (a whole number of
        samplers).  The batch is first coalesced to net per-item deltas
        — the sketches are linear, so this is exact — and then folded
        in with :meth:`_ingest`, in item chunks of at most
        ``_CHUNK_ELEMENTS``.
        """
        if len(items) != len(deltas):
            raise SketchError(f"{len(items)} items but {len(deltas)} deltas")
        if not len(items):
            return
        items = np.ascontiguousarray(items, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        universe = self._universe
        if items.min() < 0 or items.max() >= universe:
            bad = items[(items < 0) | (items >= universe)][0]
            raise SketchError(f"item {int(bad)} outside universe [0, {universe})")
        # Min/max as Python ints: np.abs(int64 min) would itself wrap.
        largest = max(-int(deltas.min()), int(deltas.max()))
        exact = np.int64 if largest * len(deltas) <= _EXACT_BATCH else object
        items, deltas = _coalesce(items, deltas, exact)
        start, stop, _ = rows.indices(len(self._bases))
        if not len(items) or start >= stop:
            return
        for first in range(0, len(items), _CHUNK_ELEMENTS):
            chunk = slice(first, first + _CHUNK_ELEMENTS)
            self._ingest(items[chunk], deltas[chunk], start, stop)

    def _ingest(self, items: np.ndarray, deltas: np.ndarray, start: int, stop: int) -> None:
        """Fold coalesced ``(items, deltas)`` into rows ``[start, stop)``.

        Per row chunk (at most ``_CHUNK_ELEMENTS`` rows × items): a
        Horner evaluation of every row's hash at every item, levels by
        ``searchsorted`` against the level thresholds, ``z^item`` from
        the window tables, the signed fingerprint term (a select for
        ±1 deltas), then one scatter-add per aggregate into
        ``(row, level)`` buckets and suffix sums over the levels (an
        item at level L updates levels 0..L).  Every modular product is
        exact and the integer sums are exact by the ``_EXACT_BATCH``
        bound, so the result is bit-identical to per-element updates.
        """
        count = len(items)
        width = self._levels + 1
        x = items.astype(np.uint64) % _P
        digit_mask = (1 << self._window) - 1
        digits = [
            ((items >> (window * self._window)) & digit_mask).astype(np.intp)
            for window in range(self._windows)
        ]
        unit = bool(((deltas == 1) | (deltas == -1)).all())
        if unit:
            negative = deltas < 0
        else:
            delta_field = (deltas % _PRIME).astype(np.uint64)
        # Item-only terms of the weighted sum, in 32-bit limbs (shared by
        # all rows; the high limb is all zero for universes below 2^32).
        item_terms = items.astype(deltas.dtype)
        ws_low = deltas * (item_terms & 0xFFFFFFFF)
        ws_high = deltas * (item_terms >> 32)
        if not ws_high.any():
            ws_high = None
        coefficients = self._coefficients
        tables = self._power_tables()
        step = max(1, _CHUNK_ELEMENTS // count)
        for first in range(start, stop, step):
            last = min(first + step, stop)
            chunk = last - first
            row_coefficients = coefficients[first:last]
            hashed = addmod_vec(
                mulmod_vec(row_coefficients[:, :1], x), row_coefficients[:, 1:2]
            )
            for degree in range(2, _HASH_INDEPENDENCE):
                hashed = addmod_vec(
                    mulmod_vec(hashed, x), row_coefficients[:, degree : degree + 1]
                )
            item_levels = self._levels - np.searchsorted(
                self._thresholds, hashed, side="right"
            )
            power = np.take(tables[first:last, 0], digits[0], axis=1)
            for window in range(1, self._windows):
                power = mulmod_vec(
                    power, np.take(tables[first:last, window], digits[window], axis=1)
                )
            if unit:
                signed = np.where(negative, _P - power, power)
            else:
                signed = mulmod_vec(power, delta_field)
            buckets = (np.arange(0, chunk * width, width)[:, None] + item_levels).ravel()
            shape = (chunk, width)
            # The fingerprint terms are < 2^61: summed in 32-bit limbs.
            fp_high = _level_sums((signed >> _U32).astype(np.int64), buckets, shape)
            fp_low = _level_sums((signed & _MASK32).astype(np.int64), buckets, shape)
            fingerprint = addmod_vec(
                mulmod_vec(fp_high.astype(np.uint64) % _P, _TWO32),
                fp_low.astype(np.uint64) % _P,
            )
            rows = slice(first, last)
            self._fingerprint[rows] = addmod_vec(self._fingerprint[rows], fingerprint)
            self._add_integers(
                rows,
                _level_sums(deltas, buckets, shape),
                None if ws_high is None else _level_sums(ws_high, buckets, shape),
                _level_sums(ws_low, buckets, shape),
            )

    def _add_integers(
        self,
        rows: slice,
        weight: np.ndarray,
        ws_high: Optional[np.ndarray],
        ws_low: np.ndarray,
    ) -> None:
        """Add weight and weighted-sum limbs to *rows*, renormalizing the low limb."""
        self._weight = _accumulate(self._weight, rows, weight)
        low = self._ws_low[rows] + (ws_low & 0xFFFFFFFF)
        carry = (ws_low >> 32) + (low >> 32)
        if ws_high is not None:
            carry = carry + ws_high
        self._ws_low[rows] = low & 0xFFFFFFFF
        if carry.any():
            self._ws_high = _accumulate(self._ws_high, rows, carry)

    def _power_tables(self) -> np.ndarray:
        """``tables[row, w, d] = z_row^(d · 2^(w·window))``, built on first use.

        ``z^item`` is then the product of one table entry per window of
        the item's bits.  Each window's table is filled by doubling
        (block ``[2^j, 2^(j+1))`` = block ``[0, 2^j)`` × ``z^(2^j)``), so
        the build costs about two field multiplications per window bit.
        """
        if self._tables is None:
            width = self._window
            tables = np.empty((len(self._bases), self._windows, 1 << width), dtype=np.uint64)
            base = self._bases
            for window in range(self._windows):
                table = tables[:, window]
                table[:, 0] = 1
                square = base
                for bit in range(width):
                    if bit:
                        square = mulmod_vec(square, square)
                    table[:, 1 << bit : 2 << bit] = mulmod_vec(
                        table[:, : 1 << bit], square[:, None]
                    )
                if window + 1 < self._windows:
                    base = mulmod_vec(square, square)
            self._tables = tables
        return self._tables

    # -- queries -----------------------------------------------------------

    def sample(self, index: int) -> Optional[int]:
        """Sampler *index*'s (near-)uniform support member, or ``None``.

        Scans each repetition's levels from the sparsest (highest)
        down and returns the first verified recovery; ``None`` means
        every repetition failed, which for a correctly sized sampler
        happens with probability ≈ 2^-repetitions.
        """
        rows = self.rows(index)
        width = self._levels + 1
        # Row-major over (repetition, level descending): the scan order.
        occupied = np.flatnonzero(self._weight[rows, ::-1])
        for flat in occupied.tolist():
            repetition, back = divmod(flat, width)
            recovered = self._recover(rows.start + repetition, self._levels - back)
            if recovered is not None:
                return recovered
        return None

    def _recover(self, row: int, level: int) -> Optional[int]:
        """The item of a 1-sparse (row, level) triple (cf. OneSparseRecovery.recover)."""
        weight = int(self._weight[row, level])
        if weight == 0:
            return None
        weighted_sum = (int(self._ws_high[row, level]) << 32) + int(self._ws_low[row, level])
        if weighted_sum % weight != 0:
            return None
        item = weighted_sum // weight
        if not 0 <= item < self._universe:
            return None
        expected = (weight * pow(int(self._bases[row]), item, _PRIME)) % _PRIME
        if expected != int(self._fingerprint[row, level]):
            return None
        return item

    def is_empty(self, index: int) -> bool:
        """Whether every repetition of sampler *index* certifies x == 0."""
        rows = self.rows(index)
        return not (
            self._weight[rows, 0].any()
            or self._ws_high[rows, 0].any()
            or self._ws_low[rows, 0].any()
            or self._fingerprint[rows, 0].any()
        )

    # -- merge -------------------------------------------------------------

    def merge(self, other: "L0Bank") -> None:
        """Fold a replica bank's aggregates into this one, exactly.

        Valid only for *replica* banks: same configuration and sampler
        count **and** the same frozen randomness (hash coefficients and
        fingerprint bases), i.e. built from the same sources.  Then
        every (row, level) aggregate adds exactly and the merged bank is
        bit-identical to one that ingested both shards' updates.  Any
        mismatch raises :class:`~repro.errors.MergeError` naming the
        field.
        """
        if not isinstance(other, L0Bank):
            raise MergeError(f"cannot merge L0Bank with {type(other).__name__}")
        check_merge_config(
            "L0Bank",
            universe=(self._universe, other._universe),
            levels=(self._levels, other._levels),
            repetitions=(self._repetitions, other._repetitions),
            samplers=(self._samplers, other._samplers),
        )
        rows = slice(None)
        self._check_frozen("L0Bank", rows, other, rows)
        self._merge_rows(rows, other, rows)

    def _check_frozen(self, kind: str, rows: slice, other: "L0Bank", other_rows: slice) -> None:
        """MergeError naming the first sampler whose frozen randomness differs."""
        for field in ("_bases", "_coefficients"):
            mine = getattr(self, field)[rows]
            theirs = getattr(other, field)[other_rows]
            if np.array_equal(mine, theirs):
                continue
            differing = (mine != theirs).reshape(len(mine), -1).any(axis=1)
            sampler = int(np.flatnonzero(differing)[0]) // self._repetitions
            block = slice(sampler * self._repetitions, (sampler + 1) * self._repetitions)
            check_merge_config(
                kind, **{field[1:]: (mine[block].tolist(), theirs[block].tolist())}
            )

    def _merge_rows(self, rows: slice, other: "L0Bank", other_rows: slice) -> None:
        self._fingerprint[rows] = addmod_vec(
            self._fingerprint[rows], other._fingerprint[other_rows]
        )
        self._add_integers(
            rows,
            other._weight[other_rows],
            other._ws_high[other_rows],
            other._ws_low[other_rows],
        )

    # -- state -------------------------------------------------------------

    def state_dicts(self, indices: Optional[Sequence[int]] = None) -> List[dict]:
        """Per-sampler captures (the :meth:`L0Sampler.state_dict` format).

        One ``tolist`` per array, then plain-data dicts: hash
        coefficients, fingerprint bases and every level's
        ``(weight, weighted_sum, fingerprint)`` as Python ints.
        """
        if indices is None:
            indices = range(self._samplers)
        universe = self._universe
        repetitions = self._repetitions
        coefficients = self._coefficients.tolist()
        bases = self._bases.tolist()
        weights = self._weight.tolist()
        highs = self._ws_high.tolist()
        lows = self._ws_low.tolist()
        fingerprints = self._fingerprint.tolist()
        states = []
        for index in indices:
            rows = range(index * repetitions, (index + 1) * repetitions)
            states.append({
                "universe": universe,
                "levels": self._levels,
                "repetitions": repetitions,
                "bases": [bases[row] for row in rows],
                "hashes": [
                    {"independence": _HASH_INDEPENDENCE, "coefficients": tuple(coefficients[row])}
                    for row in rows
                ],
                "sketches": [
                    [
                        {
                            "universe": universe,
                            "z": bases[row],
                            "weight": weight,
                            "weighted_sum": (high << 32) + low,
                            "fingerprint": fingerprint,
                        }
                        for weight, high, low, fingerprint in zip(
                            weights[row], highs[row], lows[row], fingerprints[row]
                        )
                    ]
                    for row in rows
                ],
            })
        return states

    def load_state_dicts(
        self, states: Sequence[dict], indices: Optional[Sequence[int]] = None
    ) -> None:
        """Restore per-sampler captures (frozen randomness and aggregates).

        ``states[k]`` goes to sampler ``indices[k]`` (default: in bank
        order).  The captures must come from identically configured
        samplers; a malformed capture raises before anything is
        written.
        """
        if indices is None:
            indices = range(self._samplers)
        parsed = [self._parse_state(state) for state in states]
        for index, (coefficients, bases, weight, weighted_sum, fingerprint) in zip(
            indices, parsed
        ):
            rows = self.rows(index)
            self._coefficients[rows] = coefficients
            self._bases[rows] = bases
            self._fingerprint[rows] = fingerprint
            self._ws_low[rows] = [[value & 0xFFFFFFFF for value in row] for row in weighted_sum]
            self._weight = _store(self._weight, rows, weight)
            self._ws_high = _store(
                self._ws_high, rows, [[value >> 32 for value in row] for row in weighted_sum]
            )
        self._tables = None

    def _parse_state(self, state: dict) -> Tuple[list, list, list, list, list]:
        """Validate one sampler capture into per-row plain lists."""
        check_state_config(
            "L0Sampler",
            state,
            universe=self._universe,
            levels=self._levels,
            repetitions=self._repetitions,
        )
        bases = [int(b) for b in state_field("L0Sampler", state, "bases")]
        hash_states = state_field("L0Sampler", state, "hashes")
        sketch_states = state_field("L0Sampler", state, "sketches")
        repetitions = self._repetitions
        if (
            len(bases) != repetitions
            or len(hash_states) != repetitions
            or len(sketch_states) != repetitions
        ):
            raise SketchError(
                f"L0Sampler state carries {len(bases)} bases / {len(hash_states)} hash / "
                f"{len(sketch_states)} sketch repetitions for a sampler with {repetitions}"
            )
        coefficients = []
        for captured in hash_states:
            check_state_config("PolynomialHash", captured, independence=_HASH_INDEPENDENCE)
            row = [int(c) for c in state_field("PolynomialHash", captured, "coefficients")]
            if len(row) != _HASH_INDEPENDENCE:
                raise CheckpointError(
                    f"PolynomialHash state carries {len(row)} coefficients for "
                    f"independence {_HASH_INDEPENDENCE}"
                )
            coefficients.append(row)
        width = self._levels + 1
        weight, weighted_sum, fingerprint = [], [], []
        for base, captured_levels in zip(bases, sketch_states):
            if len(captured_levels) != width:
                raise SketchError(
                    f"L0Sampler state carries {len(captured_levels)} levels for "
                    f"a sampler with {width}"
                )
            level_weight, level_sum, level_fingerprint = [], [], []
            for captured in captured_levels:
                check_state_config("OneSparseRecovery", captured, universe=self._universe)
                if int(state_field("OneSparseRecovery", captured, "z")) != base:
                    raise CheckpointError(
                        "OneSparseRecovery state has a fingerprint base other than "
                        "its repetition's; the capture is corrupt"
                    )
                level_weight.append(int(state_field("OneSparseRecovery", captured, "weight")))
                level_sum.append(
                    int(state_field("OneSparseRecovery", captured, "weighted_sum"))
                )
                level_fingerprint.append(
                    int(state_field("OneSparseRecovery", captured, "fingerprint"))
                )
            weight.append(level_weight)
            weighted_sum.append(level_sum)
            fingerprint.append(level_fingerprint)
        field_values = [value for row in coefficients + [bases] + fingerprint for value in row]
        if any(not 0 <= value < _PRIME for value in field_values):
            raise CheckpointError(
                "L0Sampler state carries a hash coefficient, fingerprint base or "
                "fingerprint outside the field [0, 2^61 - 1)"
            )
        return coefficients, bases, weight, weighted_sum, fingerprint


class L0Sampler:
    """Near-uniform sampler over the support of a turnstile vector.

    A one-sampler view of an :class:`L0Bank`; constructing one directly
    builds a private bank of one sampler.

    Parameters
    ----------
    universe:
        Coordinates are integers in ``[0, universe)``.
    rng:
        Source for hash functions and recovery fingerprints.
    repetitions:
        Independent copies; failure probability decays as
        ``2^-repetitions`` at the critical level.
    levels:
        Number of sub-sampling levels; defaults to ``log2(universe)+2``.
    """

    __slots__ = ("_bank", "_index")

    def __init__(
        self,
        universe: int,
        rng: RandomSource = None,
        repetitions: int = 8,
        levels: Optional[int] = None,
    ) -> None:
        self._bank = L0Bank(universe, [rng], repetitions, levels)
        self._index = 0

    @property
    def universe(self) -> int:
        return self._bank.universe

    @property
    def space_words(self) -> int:
        """Accounted words: recovery sketches plus hash coefficients."""
        return self._bank.sampler_space_words

    def update(self, item: int, delta: int) -> None:
        """Apply ``x[item] += delta`` to every repetition."""
        self.update_many(((item, delta),))

    def update_many(self, updates: Sequence[Tuple[int, int]]) -> None:
        """Apply a batch of ``(item, delta)`` pairs (see :meth:`update_many_arrays`)."""
        universe = self._bank.universe
        for item, _ in updates:
            if not 0 <= item < universe:
                raise SketchError(f"item {item} outside universe [0, {universe})")
        self.update_many_arrays(
            np.array([item for item, _ in updates], dtype=np.int64),
            np.array([delta for _, delta in updates], dtype=np.int64),
        )

    def update_many_arrays(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply parallel ``items``/``deltas`` arrays through the bank kernel."""
        self._bank.update(items, deltas, self._bank.rows(self._index))

    def sample(self) -> Optional[int]:
        """A (near-)uniform member of the support, or ``None`` on failure."""
        return self._bank.sample(self._index)

    def is_empty(self) -> bool:
        """Whether all repetitions certify an all-zero vector."""
        return self._bank.is_empty(self._index)

    def merge(self, other: "L0Sampler") -> None:
        """Fold another sampler's sketch state into this one.

        Valid only for *replica* samplers: same universe, levels and
        repetitions, **and** the same frozen randomness (per-repetition
        hash coefficients and fingerprint bases), i.e. both were built
        from the same construction seed.  Then every level's one-sparse
        aggregates add exactly (the sketches are linear over the same
        level assignment), and the merged sampler is bit-identical to
        one that ingested both shards' updates itself.  Any config or
        frozen-randomness mismatch raises
        :class:`~repro.errors.MergeError` naming the field.
        """
        if not isinstance(other, L0Sampler):
            raise MergeError(f"cannot merge L0Sampler with {type(other).__name__}")
        mine, theirs = self._bank, other._bank
        check_merge_config(
            "L0Sampler",
            universe=(mine.universe, theirs.universe),
            levels=(mine.levels, theirs.levels),
            repetitions=(mine.repetitions, theirs.repetitions),
        )
        rows, other_rows = mine.rows(self._index), theirs.rows(other._index)
        mine._check_frozen("L0Sampler", rows, theirs, other_rows)
        mine._merge_rows(rows, theirs, other_rows)

    def state_dict(self) -> dict:
        """Full sampler state: hash coefficients, bases, recovery sketches."""
        return self._bank.state_dicts([self._index])[0]

    def load_state_dict(self, state: dict) -> None:
        """Restore a capture into an identically configured sampler.

        Restores the *frozen randomness* (hash coefficients, fingerprint
        bases) as well as the linear aggregates, so future updates and
        queries behave exactly as the captured sampler's would.
        """
        self._bank.load_state_dicts([state], [self._index])
