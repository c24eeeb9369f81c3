"""The serve-mixed workload: an open-loop load generator against ``repro serve``.

One single-threaded asyncio generator drives the server over two
connections.  The feed connection sends 256-update chunks round-robin
across the streams at a fixed rate; the query connection sends
``estimate`` requests at a fixed rate.  Both send on schedule whatever
the server does, and every request is timed from when it was due, so a
stall shows up in the latency of every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from pace import load_samples, pace_factor, pin_to_one_cpu
from workloads import ServeInput, ServeShape

perf_counter = time.perf_counter
_PORT_LINE = re.compile(rb"serving on ([0-9.]+):([0-9]+)")
_LINE_LIMIT = 16 << 20


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Server:
    """A ``repro serve`` subprocess started through ``serve_launch.py``."""

    def __init__(self, bench_dir: str, src_dir: str, workdir: str, tag: str,
                 checkpoint_every: int, trace_out: Optional[str] = None) -> None:
        self.root = os.path.join(workdir, f"root-{tag}")
        self.pace_out = os.path.join(workdir, f"pace-{tag}.json")
        self._stderr = open(os.path.join(workdir, f"server-{tag}.err"), "wb")
        command = [sys.executable, os.path.join(bench_dir, "serve_launch.py"), self.pace_out]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += ["serve", "--root", self.root, "--checkpoint-every", str(checkpoint_every)]
        env = dict(os.environ, PYTHONPATH=src_dir)
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._stderr, env=env)
        self.host, self.port = self._await_port(deadline=perf_counter() + 60)

    def _await_port(self, deadline: float) -> Tuple[str, int]:
        buffered = b""
        while perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _PORT_LINE.search(buffered)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not announce its port")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (clean shutdown), then kill if it does not exit in time."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._stderr.close()

    def pace_samples(self) -> List[Tuple[float, float]]:
        """The stopped server's pace samples (it must have exited cleanly)."""
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited with code {self.proc.returncode}")
        return load_samples(self.pace_out)


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
        return cls(reader, writer)

    async def request(self, doc: Dict) -> Dict:
        self.writer.write(json.dumps(doc).encode() + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def stream_name(index: int) -> str:
    return f"s{index}"


async def _open_streams(host: str, port: int, inp: ServeInput) -> None:
    conn = await Connection.open(host, port)
    try:
        for index, config in enumerate(inp.configs):
            reply = await conn.request({"cmd": "open", "stream": stream_name(index), "config": config})
            if not reply.get("ok"):
                raise RuntimeError(f"open refused: {reply}")
    finally:
        await conn.close()


def start_and_open(bench_dir, src_dir, workdir, tag, shape: ServeShape, inp: ServeInput,
                   trace_out=None) -> Tuple[Server, Tuple[float, float]]:
    """Spawn the server and open every stream; returns it with the set-up window."""
    start = perf_counter()
    server = Server(bench_dir, src_dir, workdir, tag, shape.checkpoint_every, trace_out)
    try:
        asyncio.run(_open_streams(server.host, server.port, inp))
    except BaseException:
        server.stop()
        raise
    return server, (start, perf_counter())


@dataclass
class LoadResult:
    feed_latency: List[float] = field(default_factory=list)
    query_latency: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    window: Tuple[float, float] = (0.0, 0.0)
    finals: Dict[int, float] = field(default_factory=dict)
    fed: Dict[int, int] = field(default_factory=dict)
    status: Dict = field(default_factory=dict)
    #: Pace factor of the server over the load window (see pace.py).
    pace: float = 1.0


async def _scheduled(conn: Connection, lines: List[bytes], dues: List[float],
                 latencies: List[float], result: LoadResult) -> None:
    """Send *lines* at their due times and time each reply from its due time."""

    async def send() -> None:
        for line, due in zip(lines, dues):
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(perf_counter() - due)
            conn.writer.write(line)
            await conn.writer.drain()

    async def receive() -> None:
        for due in dues:
            reply = await conn.reader.readline()
            latencies.append(perf_counter() - due)
            if not json.loads(reply).get("ok"):
                result.failed += 1

    await asyncio.gather(send(), receive())


async def _drive(host: str, port: int, inp: ServeInput, shape: ServeShape, seconds: float) -> LoadResult:
    streams = len(inp.configs)
    feeds = int(round(shape.feeds_per_s * seconds))
    queries = max(1, int(shape.queries_per_s * seconds))
    result = LoadResult(attempted=feeds + queries)
    feed_lines, feed_targets = [], []
    for index in range(feeds):
        target = index % streams
        u, v = inp.chunks[target][index // streams]
        feed_lines.append(json.dumps({"cmd": "feed", "stream": stream_name(target),
                                      "updates": {"u": u, "v": v}}).encode() + b"\n")
        feed_targets.append(target)
    query_lines = [json.dumps({"cmd": "estimate", "stream": stream_name(index % streams)}).encode() + b"\n"
                   for index in range(queries)]
    feed_conn = await Connection.open(host, port)
    query_conn = await Connection.open(host, port)
    try:
        t0 = perf_counter() + 0.1
        feed_dues = [t0 + index / shape.feeds_per_s for index in range(feeds)]
        query_dues = [t0 + (index + 0.5) / shape.queries_per_s for index in range(queries)]
        await asyncio.wait_for(asyncio.gather(
            _scheduled(feed_conn, feed_lines, feed_dues, result.feed_latency, result),
            _scheduled(query_conn, query_lines, query_dues, result.query_latency, result),
        ), timeout=seconds + 90)
        result.window = (t0, perf_counter())
        for target in feed_targets:
            result.fed[target] = result.fed.get(target, 0) + 1
        for index in range(streams):
            reply = await query_conn.request({"cmd": "estimate", "stream": stream_name(index)})
            if not reply.get("ok"):
                raise RuntimeError(f"final estimate refused: {reply}")
            result.finals[index] = reply["median"]
        result.status = await query_conn.request({"cmd": "status"})
    finally:
        await feed_conn.close()
        await query_conn.close()
    return result


def drive(server: Server, inp: ServeInput, shape: ServeShape, seconds: float) -> LoadResult:
    """Run the load from the highest CPU (the server pinned itself to the lowest)."""
    cpus = pin_to_one_cpu(highest=True)
    try:
        return asyncio.run(_drive(server.host, server.port, inp, shape, seconds))
    finally:
        os.sched_setaffinity(0, cpus)


def standalone_check(inp: ServeInput, load: LoadResult) -> Tuple[List[str], float, float]:
    """Feed each stream's columns to a standalone ``LiveEngine`` and compare.

    Returns the mismatches, the ensemble space words of the final
    estimates and their success ratio.
    """
    import numpy as np
    from repro.engine.live import LiveEngine, median_estimate
    from repro.service.registry import StreamConfig

    problems: List[str] = []
    space = 0.0
    successes = trials = 0
    for index, doc in enumerate(inp.configs):
        config = StreamConfig.from_wire(doc)
        engine = LiveEngine(n=config.n, allow_deletions=config.allow_deletions,
                            batch_size=config.batch_size)
        try:
            for spec in config.specs:
                engine.register_spec(spec)
            for u, v in inp.chunks[index][:load.fed.get(index, 0)]:
                engine.feed((np.asarray(u, np.int64), np.asarray(v, np.int64)))
            results = engine.estimate()
            median = median_estimate(results)
        finally:
            engine.close()
        if median != load.finals.get(index):
            problems.append(f"stream {index}: served median {load.finals.get(index)!r} "
                            f"!= standalone {median!r}")
        space += sum(result.space_words for result in results.values())
        successes += sum(result.successes for result in results.values())
        trials += sum(result.trials for result in results.values())
    return problems, space, successes / trials if trials else 0.0


def checkpoint_stall_s(status: Dict) -> float:
    return sum(stream.get("checkpoint_stall_s", 0.0) for stream in status.get("streams", {}).values())


def phase(bench_dir, src_dir, workdir, tag, shape, inp, seconds, setup_repeats, trace_out=None):
    """Set up (repeatedly), run the load once, stop, and check the answers."""
    setups = []
    for repeat in range(setup_repeats - 1):
        spare, window = start_and_open(bench_dir, src_dir, workdir, f"{tag}-setup{repeat}", shape, inp)
        spare.stop()
        setups.append((window[1] - window[0]) * pace_factor(spare.pace_samples(), *window))
    server, window = start_and_open(bench_dir, src_dir, workdir, tag, shape, inp, trace_out)
    try:
        load = drive(server, inp, shape, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    samples = server.pace_samples()
    setups.append((window[1] - window[0]) * pace_factor(samples, *window))
    load.pace = pace_factor(samples, *load.window)
    problems, space, success_ratio = standalone_check(inp, load)
    return {
        "setup_s": setups,
        "load": load,
        "peak_rss_mb": rss,
        "problems": problems,
        "space_words": space,
        "success_ratio": success_ratio,
    }


def latency_summary(load: LoadResult) -> Dict[str, float]:
    """Latency percentiles at the reference pace; generator lateness as measured."""
    scale = 1000 * load.pace
    return {
        "feed_p50_ms": scale * statistics.median(load.feed_latency),
        "feed_p99_ms": scale * percentile(load.feed_latency, 0.99),
        "query_p50_ms": scale * statistics.median(load.query_latency),
        "late_p99_ms": 1000 * percentile(load.lateness, 0.99),
        "feeds": len(load.feed_latency),
        "queries": len(load.query_latency),
    }
