"""Satellite: interleaved directives under eviction pressure.

Two sessions hammer a 16-frame cache — one protects a hot file with
``set_priority``/``set_policy`` while the other streams a large file and a
scratch write set with ``set_temppri`` free-behind — so evictions,
write-backs and pool swaps all happen while requests interleave.

Correctness argument: the daemon records the *actual arrival order* it
applied (a :class:`repro.trace.TraceRecorder` hangs off the service), and
replaying that trace through :func:`repro.trace.driver.replay` — the
single-driver reference implementation — must reproduce every per-client
counter and the final per-process frame allocation exactly, with the
runtime sanitizer finding nothing.  Whatever order asyncio produced, the
shared cache processed it as one serial reference stream.
"""

import asyncio

from repro.core.revocation import RevocationPolicy
from repro.kernel.system import MachineConfig
from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.service import CacheService, ServiceError
from repro.trace import TraceRecorder
from repro.trace.driver import replay

CACHE_MB = 0.125  # 16 frames: far smaller than the working sets below


async def _hot_reader(client):
    """Protect 12 blocks with the paper's directives, then cycle them."""
    await client.open("hot", size_blocks=12)
    await client.set_priority("hot", 0)
    await client.set_policy(0, "mru")
    for rep in range(4):
        for b in range(12):
            await client.read("hot", b)
        await client.set_temppri("hot", 0, 5, 1)  # demote half, mid-run
        await client.set_temppri("hot", 0, 5, 0)  # and reclaim it


async def _scanner(client):
    """Eviction pressure: a 40-block scan plus rewritten scratch blocks."""
    await client.open("cold", size_blocks=40)
    await client.open("scratch", size_blocks=10)
    await client.set_priority("cold", 1)
    for rep in range(2):
        for b in range(40):
            await client.read("cold", b)
            await client.set_temppri("cold", b, b, -1)  # free-behind
            if b % 4 == 0:
                await client.write("scratch", (b // 4) % 10, whole=True)


async def _run_daemon():
    recorder = TraceRecorder()
    daemon = CacheDaemon(
        build_config(cache_mb=CACHE_MB, sanitize=True), trace_recorder=recorder
    )
    hot = await CacheClient.connect_inproc(daemon, name="hot")
    cold = await CacheClient.connect_inproc(daemon, name="cold")
    await asyncio.gather(_hot_reader(hot), _scanner(cold))
    await hot.aclose()
    await cold.aclose()
    await daemon.aclose()  # final flush: replay counts it too
    daemon.service.cache.sanitizer.check_now("final")
    assert daemon.errors == []
    counters = {
        pid: daemon.service.counters_for(pid).as_dict()
        for pid in sorted(daemon.service.counters)
    }
    occupancy = dict(daemon.service.cache.occupancy())
    stats = daemon.service.cache.stats
    return recorder, counters, occupancy, stats


def test_interleaved_sessions_match_single_driver_replay():
    recorder, counters, occupancy, cache_stats = asyncio.run(_run_daemon())
    assert sorted(counters) == [1, 2]
    assert cache_stats.evictions > 0, "workload was meant to thrash"
    assert counters[2]["disk_writes"] > 0, "scratch write-backs expected"

    nframes = int(CACHE_MB * 1024 * 1024) // 8192
    reference = replay(recorder.events, nframes=nframes, count_final_flush=True)

    for pid in (1, 2):
        entry = counters[pid]
        ref = reference.per_pid[pid]
        assert entry["accesses"] == ref["accesses"], pid
        assert entry["hits"] == ref["hits"], pid
        assert entry["misses"] == ref["misses"], pid
        assert entry["disk_reads"] == ref["reads"], pid
        assert entry["disk_writes"] == ref["writes"], pid
    # The allocation decisions (who holds how many frames) replayed exactly.
    assert occupancy == reference.occupancy


def test_refused_and_revoked_directives_replay_to_the_service_counts():
    """The service answers DIRECTIVE to a bad directive and REVOKED to one
    from a session whose control was revoked, and goes on; both stay in
    its trace, and replay must skip them the same way."""
    revocation = RevocationPolicy(min_decisions=8, mistake_ratio=0.25)
    recorder = TraceRecorder()
    config = MachineConfig(
        cache_mb=CACHE_MB, revocation=revocation, sanitize=True
    )
    service = CacheService(config, trace_recorder=recorder)
    fool, other = service.register_session(), service.register_session()
    service.open(fool, "hot", 12)
    service.open(other, "cold", 40)
    service.open(other, "scratch", 4)
    # MRU over a loop that mostly fits: overrules the kernel regrets.
    service.directive(fool, "set_priority", {"path": "hot", "prio": 0})
    service.directive(fool, "set_policy", {"prio": 0, "policy": "mru"})
    codes = []
    for rep in range(6):
        for b in range(12):
            service.read(fool, "hot", b)
            service.read(other, "cold", (rep * 12 + b) % 40)
            if b % 3 == 0:
                service.write(other, "scratch", b // 3, whole=True)
        for verb, params in (
            ("set_policy", {"prio": 0, "policy": "bogus"}),
            ("set_temppri", {"path": "hot", "start": 0, "end": 3, "prio": 1}),
        ):
            try:
                service.directive(fool, verb, params)
            except ServiceError as exc:
                codes.append(exc.code)
    service.flush_all()
    assert "DIRECTIVE" in codes and "REVOKED" in codes
    assert service.session_snapshot(fool)["revoked"]

    nframes = int(CACHE_MB * 1024 * 1024) // 8192
    reference = replay(recorder.events, nframes=nframes, revocation=revocation)
    for pid in (fool, other):
        entry = service.counters_for(pid).as_dict()
        ref = reference.per_pid[pid]
        assert (entry["accesses"], entry["hits"], entry["misses"]) == (
            ref["accesses"], ref["hits"], ref["misses"]
        ), pid
        assert (entry["disk_reads"], entry["disk_writes"]) == (ref["reads"], ref["writes"]), pid
    assert service.counters_for(other).disk_writes > 0
    assert service.cache.occupancy() == reference.occupancy


def test_replay_is_deterministic_for_a_fixed_trace():
    recorder, _, _, _ = asyncio.run(_run_daemon())
    nframes = int(CACHE_MB * 1024 * 1024) // 8192
    first = replay(recorder.events, nframes=nframes)
    second = replay(recorder.events, nframes=nframes)
    assert first.per_pid == second.per_pid
    assert first.occupancy == second.occupancy
    assert first.block_ios == second.block_ios
