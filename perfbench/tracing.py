"""Span recorder that wraps the program's public layer functions at runtime.

Nothing in ``src/`` is instrumented: :func:`install` replaces the layer
entry points listed in :data:`COUNTING_LAYERS` and :data:`SERVICE_LAYERS`
(module attributes and class methods) with wrappers that record one
span per call, and :meth:`Installation.uninstall` puts the originals
back.  Spans stay in memory (``id, name, start, end, parent``) until
:meth:`SpanRecorder.dump` writes them out at the end of a run;
:func:`self_times` derives the per-layer self times from the dump.

A layer's *self time* is its span time minus the part of that interval
its child spans cover.  The parent of a span is the innermost span open
on the same thread when it started; spans opened on a thread with no
open span (the sharded engine's feeder threads) hang off the root span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: The root span: the entry-point call of a counting run.
ROOT = "engine.loop"


class SpanRecorder:
    """In-memory spans plus per-thread counters."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.root_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_tables: List[Dict[str, float]] = []
        self._lock = threading.Lock()
        #: Elements read per stream object (keyed by ``id``), for skew.
        self.stream_elements: Dict[int, int] = {}
        self.shard_skews: List[float] = []

    # -- hot path ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counters(self) -> Dict[str, float]:
        table = getattr(self._local, "counters", None)
        if table is None:
            table = self._local.counters = {}
            with self._lock:
                self._counter_tables.append(table)
        return table

    def add(self, key: str, value: float = 1) -> None:
        table = self.counters()
        table[key] = table.get(key, 0) + value

    def open(self, name: str) -> Tuple[int, Optional[int], str]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root_id
        stack.append(span_id)
        return span_id, parent, name

    def close(self, token, start: float, end: float) -> None:
        span_id, parent, name = token
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent))

    def call_root(self, fn: Callable, *args, **kwargs):
        """Run a counting entry point as the root span (``engine.loop``)."""
        token = self.open(ROOT)
        self.root_id = token[0]
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(token, start, perf_counter())
            self.root_id = None

    # -- output -----------------------------------------------------------

    def merged_counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        with self._lock:
            tables = list(self._counter_tables)
        for table in tables:
            for key, value in table.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def dump(self, path: str) -> None:
        names: Dict[str, int] = {}
        rows = []
        for span_id, name, start, end, parent in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([span_id, index, start, end, parent])
        counters = self.merged_counters()
        if self.shard_skews:
            counters["engine.sharded.skew"] = max(self.shard_skews)
        doc = {"names": list(names), "spans": rows, "counters": counters}
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp, path)


# -- counters attached to wrapped calls ------------------------------------


def _count_len(key: str, position: int) -> Callable:
    def count(rec: SpanRecorder, args, result) -> None:
        rec.add(key, len(args[position]))

    return count


def _count_calls_and_len(calls: str, items: str, position: int) -> Callable:
    def count(rec: SpanRecorder, args, result) -> None:
        table = rec.counters()
        table[calls] = table.get(calls, 0) + 1
        table[items] = table.get(items, 0) + len(args[position])

    return count


def _count_calls(key: str) -> Callable:
    def count(rec: SpanRecorder, args, result) -> None:
        rec.add(key)

    return count


def _count_sample(rec: SpanRecorder, args, result) -> None:
    table = rec.counters()
    table["sketch.l0.sample_calls"] = table.get("sketch.l0.sample_calls", 0) + 1
    if result is not None:
        table["sketch.l0.sample_ok"] = table.get("sketch.l0.sample_ok", 0) + 1


def _count_snapshot(rec: SpanRecorder, args, result) -> None:
    written = 0
    if isinstance(result, str) and os.path.exists(result):
        written = os.path.getsize(result)
    rec.add("engine.live.snapshot_bytes", written)


def _count_bytes_in(rec: SpanRecorder, args, result) -> None:
    rec.add("service.bytes_in", len(args[0]))


#: ``(module, attribute path, span name or None for count-only, counter)``.
#: Functions imported by name into another module are wrapped in each
#: namespace that calls them.
COUNTING_LAYERS = [
    ("repro.engine.estimators", "RoundAdaptiveEstimator.result", "engine.fused.finalize", None),
    ("repro.engine.estimators", "RoundAdaptiveEstimator.merge", "engine.sharded.merge",
     _count_calls("engine.sharded.merges")),
    ("repro.engine.fused", "subgraph_sampler_rounds", "fgp.build", None),
    ("repro.engine.fused", "derive_rng", "fgp.build", None),
    ("repro.streaming.three_pass", "subgraph_sampler_rounds", "fgp.build", None),
    ("repro.streaming.three_pass", "derive_rng", "fgp.build", None),
    ("repro.streaming.turnstile", "subgraph_sampler_rounds", "fgp.build", None),
    ("repro.streaming.turnstile", "derive_rng", "fgp.build", None),
    ("repro.transform.driver", "LockstepState.__init__", "fgp.build", _count_len("fgp.trials", 1)),
    ("repro.transform.driver", "LockstepState.merge", "fgp.merge", None),
    ("repro.transform.driver", "LockstepState.dispatch", "fgp.dispatch", None),
    ("repro.oracle.base", "QueryAccounting.record_batch", "oracle.account",
     _count_len("oracle.queries", 1)),
    ("repro.transform.insertion", "InsertionStreamOracle.begin_batch", "transform.build", None),
    ("repro.transform.turnstile", "TurnstileStreamOracle.begin_batch", "transform.build", None),
    ("repro.transform.insertion", "InsertionPassState.ingest_batch", "transform.ingest", None),
    ("repro.transform.turnstile", "TurnstilePassState.ingest_batch", "transform.ingest", None),
    ("repro.transform.insertion", "InsertionPassState.finish", "transform.finish", None),
    ("repro.transform.turnstile", "TurnstilePassState.finish", "transform.finish", None),
    ("repro.sketch.reservoir", "SkipAheadReservoirBank.offer_many", "sketch.reservoir.offer",
     _count_calls_and_len("sketch.reservoir.calls", "sketch.reservoir.items", 1)),
    ("repro.sketch.l0", "L0Sampler.update_many_arrays", "sketch.l0.update",
     _count_calls_and_len("sketch.l0.update_calls", "sketch.l0.updates", 1)),
    ("repro.sketch.l0", "L0Sampler.sample", None, _count_sample),
    ("repro.sketch.hashing", "mulmod_vec", "sketch.hashing.mulmod",
     _count_calls("sketch.hashing.mulmod_calls")),
    ("repro.sketch.hashing", "powmod_vec", "sketch.hashing.powmod",
     _count_calls("sketch.hashing.powmod_calls")),
    ("repro.sketch.l0", "mulmod_vec", "sketch.hashing.mulmod",
     _count_calls("sketch.hashing.mulmod_calls")),
    ("repro.sketch.l0", "powmod_vec", "sketch.hashing.powmod",
     _count_calls("sketch.hashing.powmod_calls")),
    ("repro.sketch.onesparse", "mulmod_vec", "sketch.hashing.mulmod",
     _count_calls("sketch.hashing.mulmod_calls")),
    ("repro.sketch.onesparse", "powmod_vec", "sketch.hashing.powmod",
     _count_calls("sketch.hashing.powmod_calls")),
    ("repro.sketch.onesparse", "OneSparseRecovery.apply_aggregates", "sketch.onesparse.apply", None),
]

#: Extra layers of the live engine and the service front end.
SERVICE_LAYERS = [
    ("repro.engine.live", "LiveEngine.feed", "engine.live.feed", None),
    ("repro.engine.live", "UpdateJournal.append", "engine.live.journal", None),
    ("repro.engine.live", "LiveEngine.estimate", "engine.live.estimate", None),
    ("repro.engine.live", "LiveEngine.snapshot", "engine.live.snapshot", _count_snapshot),
    ("repro.service.server", "decode_request", "service.decode", _count_bytes_in),
    ("repro.service.server", "updates_from_wire", "service.decode", None),
    ("repro.service.server", "encode_message", "service.encode", None),
    ("repro.service.registry", "StreamRegistry.feed", "service.feed", None),
    ("repro.service.registry", "StreamRegistry.estimate", "service.estimate", None),
]


#: Every span name; the per-layer time metric of span ``x`` is ``x_s``.
SPAN_NAMES = sorted({name for _, _, name, _ in COUNTING_LAYERS + SERVICE_LAYERS if name}
                    | {"streams.decode", ROOT})


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _span_wrapper(rec: SpanRecorder, original: Callable, name: Optional[str], count) -> Callable:
    if name is None:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            count(rec, args, result)
            return result

        return counted

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = rec.open(name)
        start = perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(token, start, perf_counter())
        if count is not None:
            count(rec, args, result)
        return result

    return wrapper


def _batches_wrapper(rec: SpanRecorder, original: Callable) -> Callable:
    """Time every ``next()`` on a stream's batch iterator (``streams.decode``)."""

    @functools.wraps(original)
    def batches(self, *args, **kwargs):
        iterator = original(self, *args, **kwargs)
        rec.add("streams.passes")
        return _timed_batches(rec, self, iterator)

    return batches


def _timed_batches(rec: SpanRecorder, stream, iterator):
    key = id(stream)
    while True:
        token = rec.open("streams.decode")
        start = perf_counter()
        try:
            batch = next(iterator)
        except StopIteration:
            return
        finally:
            rec.close(token, start, perf_counter())
        size = len(batch)
        rec.add("streams.elements", size)
        rec.stream_elements[key] = rec.stream_elements.get(key, 0) + size
        yield batch


def _sharded_run_wrapper(rec: SpanRecorder, original: Callable) -> Callable:
    """Record max ÷ mean elements over the shards a sharded run read."""

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        shards = list(self._shards)
        before = [rec.stream_elements.get(id(shard), 0) for shard in shards]
        report = original(self, *args, **kwargs)
        read = [rec.stream_elements.get(id(shard), 0) - old for shard, old in zip(shards, before)]
        mean = sum(read) / len(read) if read else 0.0
        if mean > 0:
            rec.shard_skews.append(max(read) / mean)
        return report

    return run


class Installation:
    """The set of wrappers in place; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._originals: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def install(rec: SpanRecorder, service: bool = False) -> Installation:
    """Wrap every layer function (plus the live/service ones if *service*)."""
    installation = Installation()
    layers = COUNTING_LAYERS + (SERVICE_LAYERS if service else [])
    for module_name, path, name, count in layers:
        owner, attribute = _resolve(module_name, path)
        original = getattr(owner, attribute)
        installation.replace(owner, attribute, _span_wrapper(rec, original, name, count))
    owner, attribute = _resolve("repro.streams.stream", "CachedBatchStream.batches")
    installation.replace(owner, attribute, _batches_wrapper(rec, getattr(owner, attribute)))
    owner, attribute = _resolve("repro.engine.sharded", "ShardedRunner.run")
    installation.replace(owner, attribute, _sharded_run_wrapper(rec, getattr(owner, attribute)))
    return installation


# -- deriving per-layer numbers from a dump ------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load_dump(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def root_time(dump: Dict[str, Any]) -> float:
    """Σ duration of the root spans."""
    root = dump["names"].index(ROOT) if ROOT in dump["names"] else None
    return sum(end - start for _, index, start, end, _ in dump["spans"] if index == root)


def self_times(dump: Dict[str, Any], window: Optional[Tuple[float, float]] = None) -> Dict[str, float]:
    """Σ self time per span name (optionally only spans starting in *window*)."""
    names = dump["names"]
    spans = dump["spans"]
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, index, start, end, _ in spans:
        if window is not None and not window[0] <= start <= window[1]:
            continue
        own = (end - start) - _covered(children.get(span_id, []), start, end)
        name = names[index]
        totals[name] = totals.get(name, 0.0) + max(own, 0.0)
    return totals
