"""Microbenchmarks of the simulator's hot paths.

These are performance (not reproduction) benchmarks: they keep the core
data structures honest about their O(1)/O(log n) claims and give a
throughput baseline for the simulator itself.  Unlike the table
benchmarks, these run multiple rounds and report real statistics.

Nothing here is a timing gate: on a shared box two identical runs of one
loop differ by tens of percent.  Compare two commits locally with
pytest-benchmark's own ``--benchmark-save`` / ``--benchmark-compare``
(see docs/perf.md).
"""

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


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cycles per second on the event heap."""

    def run():
        eng = Engine()
        for i in range(N):
            eng.after((i * 7) % 23 * 0.001, lambda: None)
        eng.run()
        return eng.events_fired

    assert benchmark(run) == N


def test_system_access_throughput(benchmark):
    """Block accesses per second through the whole simulated machine:
    ``System.run`` on the Fig. 5 ``cs2+gli`` mix under LRU-SP with smart
    managers (engine, CPU, disks, bus, filesystem, BUF/ACM — the shell every
    figure and table runs through).  Building the machine is not timed."""
    machines = []

    def build():
        system = System(MachineConfig(cache_mb=6.4, policy=LRU_SP))
        for kind in ("cs2", "gli"):
            app(kind, smart=True).build().spawn(system)
        machines.append(system)
        return (system,), {}

    benchmark.pedantic(System.run, setup=build, rounds=3)
    system = machines[-1]
    assert system.cache.stats.accesses == 21_498
    assert system.cache.stats.hits == 20_285


def test_lrulist_churn(benchmark):
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


def test_lrulist_swap(benchmark):
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


def test_cache_access_throughput_global_lru(benchmark):
    """Block accesses per second through BUF (no managers)."""

    def run():
        cache = BufferCache(FRAMES, policy=GLOBAL_LRU)
        for i in range(N):
            out = cache.access(1, 1, (i * 17) % 2000, i, "d")
            if out.read_needed:
                cache.loaded(out.block)
        return cache.stats.accesses

    assert benchmark(run) == N


def test_cache_access_throughput_lru_sp_managed(benchmark):
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


def test_trace_replay_throughput(benchmark):
    """End-to-end replay speed (events/s through the trace driver)."""
    events = [AccessRecord(1, "f", (i * 17) % 2000) for i in range(N)]

    def run():
        return replay(events, nframes=FRAMES, policy=GLOBAL_LRU).accesses

    assert benchmark(run) == N


def test_stack_distance_throughput(benchmark):
    """Mattson pass speed (O(n log n) Fenwick updates)."""
    trace = [(i * 17) % 2000 for i in range(N)]

    def run():
        return stack_distances(trace).nrefs

    assert benchmark(run) == N
