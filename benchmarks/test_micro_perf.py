"""Microbenchmarks of the simulator's hot paths.

These are performance (not reproduction) benchmarks: they keep the core
data structures honest about their O(1)/O(log n) claims and give a
throughput baseline for the simulator itself.  Unlike the table
benchmarks, these run multiple rounds and report real statistics.

Every test files its per-round throughput samples into the ``micro_perf``
perf profile; the two BUF access-loop metrics, the event engine and the
whole simulated machine (``system_accesses_per_sec``) are gated by
``repro-accfc perf check`` (see repro/perf/families.py).
"""

import pytest

from conftest import LOWER, PERF_SMOKE, ops_per_sec

from repro.analysis.stackdist import stack_distances
from repro.core.acm import ACM
from repro.core.buffercache import BufferCache
from repro.core.allocation import GLOBAL_LRU, LRU_SP
from repro.core.lrulist import LRUList
from repro.harness.runner import app
from repro.kernel.system import MachineConfig, System
from repro.sim.engine import Engine
from repro.trace.events import AccessRecord
from repro.trace.driver import replay

N = 10_000
FRAMES = 819


def _throughput(perf_profile, benchmark, name, **params):
    samples = ops_per_sec(benchmark, N)
    perf_profile.metric(
        name, max(samples), "ops/s", samples=samples, params={"n": N, **params}
    )


def test_engine_event_throughput(benchmark, perf_profile):
    """Schedule-and-fire cycles per second on the event heap."""

    def run():
        eng = Engine()
        for i in range(N):
            eng.after((i * 7) % 23 * 0.001, lambda: None)
        eng.run()
        return eng.events_fired

    assert benchmark(run) == N
    _throughput(perf_profile, benchmark, "engine_events_per_sec")


def test_system_access_throughput(benchmark, perf_profile):
    """Block accesses per second through the whole simulated machine:
    ``System.run`` on the Fig. 5 ``cs2+gli`` mix under LRU-SP with smart
    managers (engine, CPU, disks, bus, filesystem, BUF/ACM — the shell every
    figure and table runs through).  Building the machine is not timed."""
    params = {"mix": "cs2+gli", "cache_mb": 6.4, "policy": LRU_SP.name}
    machines = []

    def build():
        system = System(MachineConfig(cache_mb=params["cache_mb"], policy=LRU_SP))
        for kind in params["mix"].split("+"):
            app(kind, smart=True).build().spawn(system)
        machines.append(system)
        return (system,), {}

    benchmark.pedantic(System.run, setup=build, rounds=3 if PERF_SMOKE else 5)
    system = machines[-1]
    accesses = system.cache.stats.accesses
    assert accesses == 21_498 and system.cache.stats.hits == 20_285
    samples = ops_per_sec(benchmark, accesses)
    perf_profile.metric(
        "system_accesses_per_sec", max(samples), "ops/s", samples=samples, params=params
    )
    perf_profile.metric(
        "system_events_per_access",
        system.engine.events_fired / accesses,
        "events/access",
        LOWER,
        params=params,
    )


def test_lrulist_churn(benchmark, perf_profile):
    """push / move_to_mru / remove cycles on the O(1) list."""
    items = list(range(512))

    def run():
        lst = LRUList()
        for item in items:
            lst.push_mru(item)
        for i in range(N):
            lst.move_to_mru(items[(i * 13) % 512])
        for item in items:
            lst.remove(item)
        return len(lst)

    assert benchmark(run) == 0
    _throughput(perf_profile, benchmark, "lrulist_churn_ops_per_sec", items=512)


def test_lrulist_swap(benchmark, perf_profile):
    """The LRU-SP swap primitive."""
    items = list(range(512))

    def run():
        lst = LRUList()
        for item in items:
            lst.push_mru(item)
        for i in range(N):
            lst.swap(items[(i * 7) % 512], items[(i * 11 + 3) % 512])
        return len(lst)

    assert benchmark(run) == 512
    _throughput(perf_profile, benchmark, "lrulist_swap_ops_per_sec", items=512)


def test_cache_access_throughput_global_lru(benchmark, perf_profile):
    """Block accesses per second through BUF (no managers)."""

    def run():
        cache = BufferCache(FRAMES, policy=GLOBAL_LRU)
        for i in range(N):
            out = cache.access(1, 1, (i * 17) % 2000, i, "d")
            if out.read_needed:
                cache.loaded(out.block)
        return cache.stats.accesses

    assert benchmark(run) == N
    _throughput(
        perf_profile, benchmark, "buf_access_global_lru_ops_per_sec", frames=FRAMES
    )


def test_cache_access_throughput_lru_sp_managed(benchmark, perf_profile):
    """Same, with an MRU manager being consulted (the worst-case path:
    overrule + swap + placeholder on most misses)."""

    def run():
        acm = ACM()
        cache = BufferCache(FRAMES, acm=acm, policy=LRU_SP)
        acm.register(1)
        acm.set_policy(1, 0, "mru")
        for i in range(N):
            out = cache.access(1, 1, i % 2000, i, "d")
            if out.read_needed:
                cache.loaded(out.block)
        return cache.stats.accesses

    assert benchmark(run) == N
    _throughput(
        perf_profile, benchmark, "buf_access_lru_sp_ops_per_sec", frames=FRAMES
    )


def test_trace_replay_throughput(benchmark, perf_profile):
    """End-to-end replay speed (events/s through the trace driver)."""
    events = [AccessRecord(1, "f", (i * 17) % 2000) for i in range(N)]

    def run():
        return replay(events, nframes=FRAMES, policy=GLOBAL_LRU).accesses

    assert benchmark(run) == N
    _throughput(perf_profile, benchmark, "trace_replay_ops_per_sec", frames=FRAMES)


def test_stack_distance_throughput(benchmark, perf_profile):
    """Mattson pass speed (O(n log n) Fenwick updates)."""
    trace = [(i * 17) % 2000 for i in range(N)]

    def run():
        return stack_distances(trace).nrefs

    assert benchmark(run) == N
    _throughput(perf_profile, benchmark, "stack_distance_refs_per_sec")
