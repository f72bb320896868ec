"""The three serving workloads: one skeleton, three specs.

A run is: set up (several times, so ``setup_s`` is a median), a
fixed-count **counted prefix** that warms the cache and yields counts
that compare across commits, a timed **closed loop**, a timed **open
loop** at a fixed sub-saturation rate, a flush, and the checks.  The
generator is one process, one thread, one asyncio loop and at most two
connections, whatever the host's core count; the servers are subprocess
shards over loopback TCP on the binary wire.

Every number is taken from outside: wall and CPU clocks around calls
into ``CacheClient``/``ClusterClient``, ``/proc`` for the servers, and
the public ``stats`` verb and telemetry snapshot for counts.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import itertools
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.aggregate import merge_stats
from repro.cluster.client import ClusterClient
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.acm import ACM
from repro.core.allocation import LRU_SP
from repro.core.buffercache import BufferCache
from repro.kernel.system import MachineConfig
from repro.server.client import CacheClient, ServerError

from bench.host import proc_cpu_s, proc_hwm_mb
from bench.streams import BLOCKS_PER_FILE, Request, ServingSpec, Stream, build_stream
from bench.trace import Spans

CACHE_MB = 6.4
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: a serial replay cannot reproduce the interleaving of two connections
#: exactly; this is how far the server's hit ratio may sit from it
HIT_RATIO_TOLERANCE = 0.005
LATE_S = 0.001
#: the timed phases alternate, closed loop then open loop, this many times,
#: so that each samples the whole timed stretch of the run
ROUNDS = 4
#: the open loop's latencies are cut into this many equal-count windows,
#: fewer when a window would hold under WINDOW_MIN_SAMPLES
WINDOWS = 20
WINDOW_MIN_SAMPLES = 150

_FAILURES = (ServerError, ConnectionError, asyncio.TimeoutError)


async def pool(items: Iterable[Any], call: Any, workers: int) -> None:
    """Run ``call(item)`` over ``items`` with ``workers`` in flight."""
    source = iter(items)

    async def worker() -> None:
        for item in source:
            await call(item)

    await asyncio.gather(*(worker() for _ in range(workers)))


class Cluster:
    """The shard subprocesses and generator connections of one run."""

    def __init__(self, spec: ServingSpec, supervisor: ClusterSupervisor, conns: List[Any]) -> None:
        self.spec = spec
        self.supervisor = supervisor
        self.conns = conns
        self.server_pids = [h.proc.pid for h in supervisor.shards.values()]

    @classmethod
    async def start(cls, spec: ServingSpec, stream: Stream) -> "Cluster":
        supervisor = ClusterSupervisor(
            shards=spec.shards, cache_mb=CACHE_MB, spawn="subprocess", replicas=spec.replicas
        )
        await supervisor.start_tcp()
        conns: List[Any] = []
        try:
            window = max(spec.inflight, 16)
            if spec.shards > 1:
                conns.append(await ClusterClient.connect(supervisor, "bench", window))
            else:
                for i in range(spec.connections):
                    conns.append(
                        await CacheClient.connect(
                            supervisor.endpoints("shard-0"), f"bench-{i}", window
                        )
                    )
            for conn, paths in zip(conns, stream.opens):
                await pool(paths, lambda p, c=conn: c.open(p, BLOCKS_PER_FILE), 2 * window)
        except BaseException:
            await asyncio.gather(*(c.aclose() for c in conns), return_exceptions=True)
            await supervisor.aclose()
            raise
        return cls(spec, supervisor, conns)

    async def shard_stats(self) -> Dict[str, Dict[str, Any]]:
        if self.spec.shards > 1:
            return (await self.conns[0].stats())["shards"]
        return {"shard-0": await self.conns[0].stats()}

    async def flush(self) -> int:
        return int(await self.conns[0].flush())

    def cpu_s(self) -> Tuple[float, float]:
        """(generator, servers) user+system CPU seconds so far."""
        return time.process_time(), sum(proc_cpu_s(pid) for pid in self.server_pids)

    def peak_rss_mb(self) -> float:
        return proc_hwm_mb(os.getpid()) + sum(proc_hwm_mb(pid) for pid in self.server_pids)

    def client_counts(self) -> Dict[str, int]:
        clients: List[CacheClient] = []
        for conn in self.conns:
            clients.extend(conn.clients.values() if isinstance(conn, ClusterClient) else [conn])
        return {
            "client.retries": sum(c.retries for c in clients),
            "client.reconnects": sum(c.reconnects for c in clients),
        }

    def replication_counts(self) -> Dict[str, int]:
        families = self.supervisor.telemetry.snapshot()["metrics"]

        def total(name: str) -> int:
            return int(sum(s["value"] for s in families.get(name, {}).get("samples", [])))

        return {
            "replication.fanout_writes": total("repro_replication_writes_total"),
            "replication.fallbacks": total("repro_replication_read_fallbacks_total"),
            "replication.failures": total("repro_replication_write_failures_total"),
        }

    async def close(self) -> None:
        await asyncio.gather(*(c.aclose() for c in self.conns), return_exceptions=True)
        await self.supervisor.aclose()


def server_counts(per_shard: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
    """The counts the ledger names, summed over shards, from ``stats``."""
    totals = merge_stats(per_shard)["totals"]
    caches = [reply["cache"] for reply in per_shard.values()]
    servers = [reply["server"] for reply in per_shard.values()]

    def cache(key: str) -> int:
        return sum(int(c[key]) for c in caches)

    return {
        "accesses": totals["accesses"],
        "block_ios": totals["block_ios"],
        "core.hits": totals["hits"],
        "core.misses": totals["misses"],
        "core.evictions": cache("evictions"),
        "core.writebacks": cache("dirty_evictions"),
        "core.placeholders_created": cache("placeholders_created"),
        "core.placeholders_used": cache("placeholders_used"),
        "service.flushed_blocks": cache("flushed_blocks"),
        "daemon.ops_served": sum(int(s["ops_served"]) for s in servers),
        "daemon.busy_rejections": sum(int(s["busy_rejections"]) for s in servers),
    }


# -- the generator ------------------------------------------------------------


async def issue(conn: Any, req: Request) -> None:
    _, reads, writes, _ = req
    if len(reads) == 1:
        await conn.read(*reads[0])
    elif reads:
        CacheClient.unwrap_batch(await conn.readv(reads))
    if len(writes) == 1:
        await conn.write(*writes[0])
    elif writes:
        CacheClient.unwrap_batch(await conn.writev(writes))


@dataclass
class Tally:
    """What the generator issued, for the checks."""

    attempted: int = 0  # logical ops
    failed: int = 0
    read_blocks: int = 0
    write_blocks: int = 0

    def count(self, req: Request, ok: bool) -> None:
        self.attempted += req[3]
        if ok:
            self.read_blocks += len(req[1])
            self.write_blocks += len(req[2])
        else:
            self.failed += req[3]


@dataclass
class ClosedPhase:
    """Totals over every round, and per equal-count segment: ops/s and
    (generator, servers) CPU us/op."""

    ops: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0  # generator and servers
    segment_rates: List[float] = field(default_factory=list)
    segment_cpu_us: List[Tuple[float, float]] = field(default_factory=list)


async def closed_loop(
    cluster: Cluster,
    sources: Sequence[Iterator[Request]],
    tally: Tally,
    phase: ClosedPhase,
    seconds: Optional[float] = None,
) -> None:
    """One round of ``phase``: each connection keeps ``inflight`` requests
    outstanding until its source ends or ``seconds`` pass; in-flight
    requests are awaited."""
    loop = asyncio.get_running_loop()
    segment = cluster.spec.segment_ops
    start = loop.time()
    deadline = start + seconds if seconds is not None else None
    #: (ops done, time, generator CPU, servers CPU) at every segment's end
    marks = [(phase.ops, start, *cluster.cpu_s())]

    async def worker(conn: Any, source: Iterator[Request]) -> None:
        while deadline is None or loop.time() < deadline:
            req = next(source, None)
            if req is None:
                return
            try:
                await issue(conn, req)
            except _FAILURES:
                tally.count(req, ok=False)
                continue
            tally.count(req, ok=True)
            phase.ops += req[3]
            if phase.ops >= marks[-1][0] + segment:
                marks.append((phase.ops, loop.time(), *cluster.cpu_s()))

    await asyncio.gather(
        *(
            worker(conn, source)
            for conn, source in zip(cluster.conns, sources)
            for _ in range(cluster.spec.inflight)
        )
    )
    end = (phase.ops, loop.time(), *cluster.cpu_s())
    phase.elapsed_s += end[1] - start
    phase.cpu_s += sum(end[2:]) - sum(marks[0][2:])
    if len(marks) == 1 and end[0] > marks[0][0]:
        # too short a round for one whole segment: it is the segment
        marks.append(end)
    for (n0, t0, gen0, srv0), (n1, t1, gen1, srv1) in zip(marks, marks[1:]):
        phase.segment_rates.append((n1 - n0) / (t1 - t0))
        phase.segment_cpu_us.append(((gen1 - gen0) / (n1 - n0) * 1e6, (srv1 - srv0) / (n1 - n0) * 1e6))


@dataclass
class OpenPhase:
    """Totals over every round."""

    latencies_s: List[float] = field(default_factory=list)
    offset_s: float = 0.0  # how far into the arrival schedule the rounds are
    issued: int = 0  # requests
    late: int = 0  # issued more than LATE_S after due
    backlog: List[int] = field(default_factory=list)  # outstanding at each issue

    @property
    def backlog_growing(self) -> bool:
        """Whether the last tenth of the requests queued far more than the rest."""
        cut = len(self.backlog) * 9 // 10
        if cut < 10:
            return False
        return statistics.fmean(self.backlog[cut:]) > 2 * statistics.fmean(self.backlog[:cut]) + 8


#: ``(offset into the schedule, connection, request)``
Arrival = Tuple[float, int, Request]


def _laps(index: int, requests: List[Request], span_s: float) -> Iterator[Arrival]:
    for lap in itertools.count():
        for req in requests:
            yield lap * span_s + req[0], index, req


def arrivals(stream: Stream) -> Iterator[Arrival]:
    """Every connection's requests in one endless schedule, by Poisson stamp."""
    return heapq.merge(*(_laps(i, reqs, stream.span_s) for i, reqs in enumerate(stream.requests)))


async def open_loop(
    cluster: Cluster, schedule: Iterator[Arrival], tally: Tally, phase: OpenPhase, seconds: float
) -> None:
    """One round of ``phase``: take up ``schedule`` where the last round
    left it and issue each request at its Poisson stamp, however slow
    replies are, for ``seconds``; latency runs from the stamp, so a stall
    charges the ops queued behind it."""
    loop = asyncio.get_running_loop()
    tasks: set = set()
    outstanding = 0

    async def one(conn: Any, req: Request, due: float) -> None:
        nonlocal outstanding
        try:
            await issue(conn, req)
        except _FAILURES:
            tally.count(req, ok=False)
        else:
            tally.count(req, ok=True)
            phase.latencies_s.append(loop.time() - due)
        finally:
            outstanding -= 1

    origin = loop.time() - phase.offset_s
    deadline = loop.time() + seconds
    while loop.time() < deadline:
        phase.offset_s, index, req = next(schedule)
        due = origin + phase.offset_s
        # the loop's timers are a millisecond coarse: sleep short, then yield
        delay = due - loop.time()
        if delay > 2 * LATE_S:
            await asyncio.sleep(delay - 2 * LATE_S)
        while loop.time() < due:
            await asyncio.sleep(0)
        if loop.time() - due > LATE_S:
            phase.late += 1
        phase.issued += 1
        phase.backlog.append(outstanding)
        outstanding += 1
        task = loop.create_task(one(cluster.conns[index], req, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)


# -- the reference ------------------------------------------------------------


def reference_replay(cluster: Cluster, prefix: List[List[Request]]) -> Tuple[int, int]:
    """(hits, accesses) of the counted prefix replayed serially — the
    connections' requests interleaved one by one — through one bare
    ``BufferCache`` per shard of the servers' frame count."""
    frames = MachineConfig(cache_mb=CACHE_MB).cache_frames
    ring = cluster.supervisor.ring
    caches = {sid: BufferCache(frames, acm=ACM(), policy=LRU_SP) for sid in ring.shards}
    #: path -> (file id, the caches of its replicas, primary first)
    files: Dict[str, Tuple[int, List[BufferCache]]] = {}

    def access(pid: int, path: str, blockno: int, write: bool) -> None:
        if path not in files:
            homes = [caches[sid] for sid in ring.replicas(path, cluster.spec.replicas)]
            files[path] = (len(files) + 1, homes)
        fid, homes = files[path]
        for cache in homes if write else homes[:1]:
            outcome = cache.access(
                pid, fid, blockno, fid * BLOCKS_PER_FILE + blockno, "ref", write=write, whole=True
            )
            if outcome.read_needed:
                cache.loaded(outcome.block)

    for row in itertools.zip_longest(*prefix):
        for pid, req in enumerate(row, 1):
            if req is None:
                continue
            for path, blockno in req[1]:
                access(pid, path, blockno, False)
            for path, blockno in req[2]:
                access(pid, path, blockno, True)
    stats = [cache.stats for cache in caches.values()]
    return sum(s.hits for s in stats), sum(s.accesses for s in stats)


# -- one run ------------------------------------------------------------------


def undisturbed(values: Sequence[float], best: str) -> Tuple[float, List[float]]:
    """The decile of ``values`` on their ``best`` side ("high" or "low"),
    and their quartiles to print beside it.

    The reference box slows in bursts — a pure-CPU loop on it reads up to
    30 % slow for seconds at a time — and never speeds up, so the median
    segment moved 8–11 % between identical runs where the best decile
    moved 4 %: it estimates the speed of the program when left alone."""
    if len(values) < 2:
        return values[0], list(values)
    # "inclusive" interpolates between observed values, never beyond them
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1 if best == "high" else 0], statistics.quantiles(values, n=4)


async def run_serving(
    spec: ServingSpec,
    seed: int,
    closed_s: float,
    open_s: float,
    spans: Optional[Spans],
    import_s: float,
) -> Dict[str, Any]:
    """One run of one serving workload.  ``spans`` is set on a traced run,
    which sets up once (it does not report ``setup_s``)."""
    traced = spans is not None
    problems: List[str] = []
    flags: List[str] = []

    setups: List[float] = []
    cluster: Optional[Cluster] = None
    for _ in range(1 if traced else SETUPS):
        if cluster is not None:
            await cluster.close()
        started = time.perf_counter()
        stream = build_stream(spec, seed)
        cluster = await Cluster.start(spec, stream)
        setups.append(time.perf_counter() - started)
    assert cluster is not None
    try:
        tally = Tally()
        span = spans.begin(f"{spec.name}.prefix", spec.name) if traced else None
        prefix = ClosedPhase()
        await closed_loop(cluster, [iter(reqs) for reqs in stream.prefix], tally, prefix)
        if span is not None:
            spans.end(span, ops=prefix.ops)
        counted = server_counts(await cluster.shard_stats())

        sources = [
            itertools.chain(reqs[len(done) :], itertools.cycle(reqs))
            for reqs, done in zip(stream.requests, stream.prefix)
        ]
        schedule = arrivals(stream)
        closed, opened = ClosedPhase(), OpenPhase()
        # the generator's own heap of prepared requests must not cost the
        # program collector pauses
        gc.collect()
        gc.freeze()
        for _ in range(ROUNDS):
            await closed_loop(cluster, sources, tally, closed, closed_s / ROUNDS)
            gc.collect()
            await open_loop(cluster, schedule, tally, opened, open_s / ROUNDS)
            gc.collect()

        flushed = await cluster.flush()
        final = server_counts(await cluster.shard_stats())
        counts = dict(counted)
        counts.update(cluster.client_counts())
        counts.update(cluster.replication_counts())
        counts["service.flushed_blocks"] = flushed
        peak_rss_mb = cluster.peak_rss_mb()
        ref_hits, ref_accesses = reference_replay(cluster, stream.prefix)
    finally:
        await cluster.close()
    if not closed.ops or not opened.latencies_s:
        raise SystemExit(f"bench: {spec.name}: a timed phase completed no work")

    # -- checks
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} ops failed")
    expected = tally.read_blocks + spec.replicas * tally.write_blocks
    if final["accesses"] != expected:
        problems.append(f"servers saw {final['accesses']} accesses, {expected} blocks were issued")
    counted_ratio = counted["core.hits"] / counted["accesses"]
    ref_ratio = ref_hits / ref_accesses
    if counted["accesses"] != ref_accesses:
        problems.append(f"prefix: servers {counted['accesses']} accesses, reference {ref_accesses}")
    if abs(counted_ratio - ref_ratio) > HIT_RATIO_TOLERANCE:
        problems.append(
            f"prefix hit ratio {counted_ratio:.4f} is not within {HIT_RATIO_TOLERANCE} "
            f"of the serial reference {ref_ratio:.4f}"
        )
    if counts["replication.failures"]:
        problems.append(f"{counts['replication.failures']} replica writes failed")

    # -- run-validity guards: flagged, never failed
    late_share = opened.late / opened.issued
    if late_share > 0.05:
        flags.append(f"load.late_share {late_share:.3f} > 0.05")
    if opened.backlog_growing:
        flags.append("load.max_backlog still growing at the end of the open loop")

    ops_per_s, rate_quartiles = undisturbed(closed.segment_rates, "high")
    cpu_us, cpu_quartiles = undisturbed([g + s for g, s in closed.segment_cpu_us], "low")
    client_cpu, _ = undisturbed([g for g, _ in closed.segment_cpu_us], "low")
    server_cpu, _ = undisturbed([s for _, s in closed.segment_cpu_us], "low")
    # latencies arrive in completion order: equal-count windows of them
    done = opened.latencies_s
    windows = min(WINDOWS, max(1, len(done) // WINDOW_MIN_SAMPLES))
    window_p50s = [
        statistics.median(done[i * len(done) // windows : (i + 1) * len(done) // windows]) * 1e3
        for i in range(windows)
    ]
    p50_ms, p50_quartiles = undisturbed(window_p50s, "low")
    latencies = sorted(done)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "cpu_us_per_op": (cpu_us, "us"),
        "p50_ms": (p50_ms, "ms"),
        "hit_ratio": (final["core.hits"] / final["accesses"], "ratio"),
        "block_ios": (counted["block_ios"], "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layer = {name: (value, "count") for name, value in counts.items() if "." in name}
    layer.update(
        {
            "server.cpu_us_per_op": (server_cpu, "us"),
            "client.cpu_us_per_op": (client_cpu, "us"),
            "load.p99_ms": (latencies[len(latencies) * 99 // 100] * 1e3, "ms"),
            "load.late_share": (late_share, "ratio"),
            "load.max_backlog": (max(opened.backlog), "count"),
        }
    )
    return {
        "metrics": metrics,
        "layer": layer,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": problems,
        "flags": flags,
        "notes": {
            "stream_digest": stream.digest,
            "setups_s": setups,
            "import_s": import_s,
            "prefix_ops": prefix.ops,
            "prefix_hit_ratio": counted_ratio,
            "reference_hit_ratio": ref_ratio,
            "closed_ops": closed.ops,
            "closed_s": closed.elapsed_s,
            "rounds": ROUNDS,
            "segments": len(closed.segment_rates),
            "segment_ops_per_s_quartiles": rate_quartiles,
            "segment_cpu_us_per_op_quartiles": cpu_quartiles,
            "whole_loop_cpu_us_per_op": closed.cpu_s / closed.ops * 1e6,
            "open_requests": opened.issued,
            "open_samples": len(latencies),
            "open_windows": windows,
            "window_p50_ms_quartiles": p50_quartiles,
            "whole_loop_p50_ms": latencies[len(latencies) // 2] * 1e3,
        },
    }
