"""The layer ledger: one op stream through successively taller stacks.

One process, one loop.  Each rung times calls into one layer's public
functions in chunks of 1,000 ops; every chunk is a span.  A rung's cost
is its best-decile chunk (the box only ever slows: see
``serving.undisturbed``), and a layer's **self** time is its rung minus the
rungs beneath it — so the layer lines add up to the tallest rung, and
``ledger.residual_share`` says how far that sum is from the CPU the same
ops cost end to end across real processes.

The rungs replay the head of the ``single_ops`` stream (and of the
``cluster_rw`` stream for the write and replication rungs), cycling over
it for as long as their share of ``--seconds`` lasts.  Files are opened
before a rung is timed.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.cluster.client import ClusterClient
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.acm import ACM
from repro.core.allocation import LRU_SP
from repro.core.buffercache import BufferCache
from repro.harness.load import LoadDriver
from repro.harness.runner import app
from repro.kernel.system import MachineConfig, System
from repro.server.client import CacheClient
from repro.server.daemon import CacheDaemon
from repro.server.protocol import (
    WIRE_BINARY,
    FrameDecoder,
    encode_message,
    ok_response,
    request,
    validated_request,
)
from repro.server.service import CacheService, build_config
from repro.trace.driver import replay
from repro.trace.recorder import TraceRecorder

from bench.serving import CACHE_MB, ClosedPhase, Cluster, Tally, closed_loop, issue, pool, undisturbed
from bench.streams import BLOCKS_PER_FILE, SERVING, Request, ServingSpec, build_stream, make_traffic
from bench.trace import Spans

CHUNK = 1_000
BATCH = 64
WINDOW = 16
MIN_CHUNKS = 3
#: rungs that share ``--seconds`` equally (the fixed-size ones excepted)
TIMED_RUNGS = 15
LEDGER_OPS = 20_000
#: the cluster_rw head must still hold a chunk of writes (a quarter of it)
SMOKE_LEDGER_OPS = 8_000
LOAD_DRIVER_OPS = 4_000

Op = Tuple[str, int, bool]  # path, blockno, write


def _chunks(items: Sequence[Any], size: int = CHUNK) -> List[Sequence[Any]]:
    return [items[i : i + size] for i in range(0, len(items) - size + 1, size)]


def _flat(requests: Sequence[Request]) -> List[Op]:
    ops: List[Op] = []
    for _, reads, writes, _ in requests:
        ops.extend((path, blockno, False) for path, blockno in reads)
        ops.extend((path, blockno, True) for path, blockno in writes)
    return ops


def _head(spec: ServingSpec, seed: int, count: int) -> List[Request]:
    """The first ``count`` ops of the spec's stream as single-op requests
    of one connection."""
    one = replace(spec, connections=1, group=1, stream_ops=count, prefix_ops=0)
    return build_stream(one, seed).requests[0]


class Ledger:
    def __init__(self, spans: Spans, seed: int, seconds: float, smoke: bool) -> None:
        self.spans = spans
        self.seed = seed
        self.smoke = smoke
        self.rung_s = seconds / TIMED_RUNGS
        self.count = SMOKE_LEDGER_OPS if smoke else LEDGER_OPS
        self.single = SERVING["single_ops"].smoke() if smoke else SERVING["single_ops"]
        self.rw = SERVING["cluster_rw"].smoke() if smoke else SERVING["cluster_rw"]
        self.frames = MachineConfig(cache_mb=CACHE_MB).cache_frames
        #: rung totals, us per op, before any subtraction, and how many
        #: chunks each was taken over
        self.totals: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}

    async def rung(
        self,
        name: str,
        chunks: Sequence[Any],
        step: Callable[[Any], Any],
        ops_per_chunk: int = CHUNK,
        record: bool = True,
        share: float = 1.0,
    ) -> float:
        """Best-decile us/op of ``step(chunk)`` over ``chunks``, cycled for
        ``share`` of one rung's part of the run."""
        root = self.spans.begin(name, name) if record else None
        samples: List[float] = []
        deadline = time.perf_counter() + self.rung_s * share
        for chunk in itertools.cycle(chunks):
            if len(samples) >= MIN_CHUNKS and time.perf_counter() >= deadline:
                break
            span = self.spans.begin(f"{name}.chunk", name, root) if record else None
            started = time.perf_counter()
            result = step(chunk)
            if inspect.isawaitable(result):
                await result
            took = time.perf_counter() - started
            if span is not None:
                self.spans.end(span, ops=ops_per_chunk)
            samples.append(took / ops_per_chunk * 1e6)
        if root is not None:
            self.spans.end(root, chunks=len(samples))
        self.totals[name], _ = undisturbed(samples, "low")
        self.samples[name] = len(samples)
        return self.totals[name]

    # -- synchronous layers -------------------------------------------------

    async def gen(self) -> None:
        source = make_traffic(self.single).ops(self.seed, 10**9)
        await self.rung("gen", [None], lambda _: list(itertools.islice(source, CHUNK)))

    async def core(self, ops: List[Op]) -> None:
        acm = ACM()
        cache = BufferCache(self.frames, acm=acm, policy=LRU_SP)
        acm.register(1)
        ids: Dict[str, int] = {}
        resolved = [
            (ids.setdefault(path, len(ids) + 1), blockno, write) for path, blockno, write in ops
        ]

        def step(chunk: Sequence[Tuple[int, int, bool]]) -> None:
            for fid, blockno, write in chunk:
                out = cache.access(
                    1, fid, blockno, fid * BLOCKS_PER_FILE + blockno, "d", write=write, whole=True
                )
                if out.read_needed:
                    cache.loaded(out.block)

        await self.rung("core", _chunks(resolved), step)

    async def kernel(self) -> None:
        """``System.run`` on one LRU-SP mix, then the recorded reference
        string through the bare replay driver."""
        recorder = TraceRecorder()
        system = System(MachineConfig(cache_mb=CACHE_MB, policy=LRU_SP), trace_recorder=recorder)
        for kind in ("cs2", "gli"):
            app(kind, smart=True).build().spawn(system)
        span = self.spans.begin("kernel", "kernel")
        result = system.run()
        accesses = result.cache.accesses
        self.totals["kernel"] = self.spans.end(span, ops=accesses) / accesses * 1e6
        span = self.spans.begin("replay", "replay")
        replayed = replay(recorder.events, self.frames, LRU_SP)
        self.totals["replay"] = self.spans.end(span, ops=replayed.accesses) / accesses * 1e6

    def _service(self, ops: List[Op]) -> Tuple[CacheService, int]:
        service = CacheService(build_config(cache_mb=CACHE_MB))
        pid = service.register_session()
        for path in sorted({path for path, _, _ in ops}):
            service.open(pid, path, BLOCKS_PER_FILE)
        return service, pid

    async def service(self, ops: List[Op]) -> None:
        service, pid = self._service(ops)

        def step(chunk: Sequence[Op]) -> None:
            for path, blockno, write in chunk:
                if write:
                    service.write(pid, path, blockno)
                else:
                    service.read(pid, path, blockno)

        await self.rung("service", _chunks(ops), step)

        service, pid = self._service(ops)
        framed = []
        for chunk in _chunks(ops):
            frames = []
            for part in _chunks(chunk, BATCH) + [chunk[len(chunk) // BATCH * BATCH :]]:
                reads = [{"path": p, "blockno": b} for p, b, w in part if not w]
                writes = [{"path": p, "blockno": b, "whole": True} for p, b, w in part if w]
                frames.append((reads, writes))
            framed.append(frames)

        def batch_step(frames: List[Tuple[list, list]]) -> None:
            for reads, writes in frames:
                if reads:
                    service.read_batch(pid, reads)
                if writes:
                    service.write_batch(pid, writes)

        await self.rung("service_batch", framed, batch_step)

    async def codec(self, ops: List[Op]) -> Dict[str, float]:
        """Encode + decode + validate a request, encode + decode its reply;
        returns the encoded bytes per op of the first chunk (exact)."""
        decoder = FrameDecoder()

        def single(op: Op) -> bytes:
            path, blockno, write = op
            if write:
                msg = request(7, "write", path=path, blockno=blockno, whole=True)
            else:
                msg = request(7, "read", path=path, blockno=blockno)
            return encode_message(msg, WIRE_BINARY)

        def batch(part: Sequence[Op]) -> bytes:
            ops_field = [{"path": p, "blockno": b} for p, b, _ in part]
            return encode_message(request(7, "readv", ops=ops_field), WIRE_BINARY)

        reply = ok_response(7, {"hit": True})
        batch_reply = ok_response(7, {"results": [{"hit": True}] * BATCH})

        def req_step(chunk: Sequence[Op]) -> None:
            for op in chunk:
                (msg,) = decoder.feed(single(op))
                validated_request(msg)

        def reply_step(chunk: Sequence[Op]) -> None:
            for _ in chunk:
                decoder.feed(encode_message(reply, WIRE_BINARY))

        def batch_step(chunk: Sequence[Op]) -> None:
            for part in _chunks(chunk, BATCH):
                (msg,) = decoder.feed(batch(part))
                validated_request(msg)
                decoder.feed(encode_message(batch_reply, WIRE_BINARY))

        chunks = _chunks(ops)
        await self.rung("req_codec", chunks, req_step)
        await self.rung("reply_codec", chunks, reply_step)
        await self.rung("batch_codec", chunks, batch_step, ops_per_chunk=CHUNK // BATCH * BATCH)
        parts = _chunks(chunks[0], BATCH)
        return {
            "single": sum(len(single(op)) for op in chunks[0]) / CHUNK
            + len(encode_message(reply, WIRE_BINARY)),
            "batch": sum(len(batch(p)) + len(encode_message(batch_reply, WIRE_BINARY)) for p in parts)
            / (len(parts) * BATCH),
        }

    # -- the serving stack, in process --------------------------------------

    async def daemon_stack(self, requests: List[Request], ops: List[Op]) -> float:
        """Raw transport, then ``CacheClient`` over it, then over TCP — one
        daemon, so each rung adds exactly one layer.  Returns the tracing
        overhead measured on the top rung."""
        daemon = CacheDaemon(build_config(cache_mb=CACHE_MB))
        clients: List[CacheClient] = []
        try:
            raw = await daemon.connect_inproc()
            await raw.send(request(0, "hello", wire=[WIRE_BINARY]))
            await raw.recv()
            raw.set_wire(WIRE_BINARY)

            async def pipelined(messages: Sequence[Dict[str, Any]]) -> None:
                sent = done = 0
                while done < len(messages):
                    while sent < len(messages) and sent - done < WINDOW:
                        await raw.send(messages[sent])
                        sent += 1
                    reply = await raw.recv()
                    if not reply.get("ok"):
                        raise RuntimeError(f"daemon rung: {reply}")
                    done += 1

            await pipelined(
                [
                    request(i, "open", path=path, size_blocks=BLOCKS_PER_FILE)
                    for i, path in enumerate(sorted({path for path, _, _ in ops}))
                ]
            )
            messages = [
                request(i, "write", path=p, blockno=b, whole=True) if w
                else request(i, "read", path=p, blockno=b)
                for i, (p, b, w) in enumerate(ops)
            ]
            await self.rung("daemon", _chunks(messages), pipelined)
            raw.close()

            chunks = _chunks(requests)
            inproc = await CacheClient.connect_inproc(daemon, window=WINDOW)
            clients.append(inproc)
            await self.rung("client", chunks, lambda c: pool(c, lambda r: issue(inproc, r), WINDOW))

            host, port = await daemon.start_tcp()
            tcp = await CacheClient.connect_tcp(host, port, window=WINDOW)
            clients.append(tcp)
            step = lambda c: pool(c, lambda r: issue(tcp, r), WINDOW)  # noqa: E731
            # the same rung twice: half its share unrecorded, half with spans
            untraced = await self.rung("tcp_untraced", chunks, step, record=False, share=0.5)
            traced = await self.rung("tcp", chunks, step, share=0.5)
            return traced / untraced - 1.0
        finally:
            await asyncio.gather(*(c.aclose() for c in clients), return_exceptions=True)
            await daemon.aclose()

    async def cluster_stack(self, single: List[Request], rw: List[Request]) -> None:
        """``ClusterClient`` over two in-process shards: the single-op
        stream at R=1 prices routing; the read and the write ops of the
        ``cluster_rw`` stream at R=1 and R=2 price replication."""
        reads = _chunks([r for r in rw if r[1]])
        writes = _chunks([r for r in rw if r[2]])
        paths = sorted({p for r in single + rw for p, _ in r[1] + r[2]})
        for replicas in (1, 2):
            supervisor = ClusterSupervisor(
                shards=2, cache_mb=CACHE_MB, spawn="inproc", replicas=replicas
            )
            await supervisor.start()
            client = await ClusterClient.connect(supervisor, window=WINDOW)
            try:
                await pool(paths, lambda p: client.open(p, BLOCKS_PER_FILE), WINDOW)
                step = lambda c: pool(c, lambda r: issue(client, r), WINDOW)  # noqa: E731
                if replicas == 1:
                    await self.rung("cluster", _chunks(single), step)
                await self.rung(f"r{replicas}_read", reads, step)
                await self.rung(f"r{replicas}_write", writes, step)
            finally:
                await client.aclose()
                await supervisor.aclose()

    async def load_driver(self) -> None:
        ops = LOAD_DRIVER_OPS // (4 if self.smoke else 1)
        samples = []
        for _ in range(MIN_CHUNKS):
            driver = LoadDriver(
                make_traffic(self.single, open_loop=False), shards=2, sessions=2, depth=WINDOW,
                ops=ops, seed=self.seed, spawn="inproc", cache_mb=CACHE_MB,
            )
            span = self.spans.begin("load_driver", "load_driver")
            report = await driver.run()
            self.spans.end(span, ops=report["ops"]["completed"])
            if report["ops"]["failed"] or report["ops"]["unissued"]:
                raise RuntimeError(f"load driver rung: {report['ops']}")
            samples.append(report["throughput"]["elapsed_s"] / report["ops"]["completed"] * 1e6)
        self.totals["load_driver"], _ = undisturbed(samples, "low")

    async def subprocess_cpu(self) -> float:
        """CPU us/op of the ``single_ops`` topology over its counted prefix:
        the end-to-end number the in-process rungs should add up to."""
        spec = replace(self.single, stream_ops=self.single.prefix_ops)
        stream = build_stream(spec, self.seed)
        cluster = await Cluster.start(spec, stream)
        try:
            span = self.spans.begin("subprocess", "subprocess")
            phase = ClosedPhase()
            await closed_loop(cluster, [iter(r) for r in stream.prefix], Tally(), phase)
            self.spans.end(span, ops=phase.ops)
        finally:
            await cluster.close()
        return phase.cpu_s / phase.ops * 1e6

    # -- the ledger -----------------------------------------------------------

    async def run(self) -> Dict[str, Tuple[float, str]]:
        single = _head(self.single, self.seed, self.count)
        rw = _head(self.rw, self.seed, self.count)
        ops = _flat(single)
        await self.gen()
        await self.core(ops)
        await self.kernel()
        await self.service(ops)
        sizes = await self.codec(ops)
        overhead = await self.daemon_stack(single, ops)
        await self.cluster_stack(single, rw)
        await self.load_driver()
        end_to_end = await self.subprocess_cpu()

        t = self.totals
        codec = t["req_codec"] + t["reply_codec"]
        us = {
            "workloads.gen_us": t["gen"],
            "core.access_us": t["core"],
            "core.replay_us": t["replay"],
            "kernel.self_us": t["kernel"] - t["replay"],
            "service.self_us": t["service"] - t["core"],
            "service.batch_us": t["service_batch"],
            "protocol.req_codec_us": t["req_codec"],
            "protocol.reply_codec_us": t["reply_codec"],
            "protocol.batch_codec_us": t["batch_codec"],
            "daemon.self_us": t["daemon"] - t["service"] - codec,
            "client.self_us": t["client"] - t["daemon"],
            "transport.tcp_us": t["tcp"] - t["client"],
            "cluster.route_us": t["cluster"] - t["client"],
            "replication.write_us": t["r2_write"] - t["r1_write"],
            "replication.read_us": t["r2_read"] - t["r1_read"],
            "load.driver_us": t["load_driver"],
        }
        out = {name: (value, "us") for name, value in us.items()}
        out["protocol.bytes_per_op"] = (sizes["single"], "bytes")
        out["protocol.batch_bytes_per_op"] = (sizes["batch"], "bytes")
        out["ledger.residual_share"] = (abs(end_to_end - t["tcp"]) / end_to_end, "ratio")
        out["trace.overhead_share"] = (overhead, "ratio")
        return out
