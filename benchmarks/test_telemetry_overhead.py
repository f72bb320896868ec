"""Telemetry overhead guard: metrics must not tax the hot path.

Times the BUF access loop from ``test_micro_perf`` with telemetry off,
with metrics on (registry, no tracer) and with full tracing, and fails if
the metrics-on path is more than 10% slower than off — the subsystem's
stated overhead budget.  Timing is min-of-K wall clock rather than
pytest-benchmark statistics so the assertion is a hard gate CI can run
standalone (``pytest benchmarks/test_telemetry_overhead.py``).
"""

import time

from repro.core.acm import ACM
from repro.core.buffercache import BufferCache
from repro.core.allocation import GLOBAL_LRU, LRU_SP
from repro.telemetry import Telemetry, Tracer

N = 10_000
ROUNDS = 9
BUDGET = 1.10  # enabled/disabled ratio ceiling (the ≤10% contract)


def access_loop(telemetry, policy=GLOBAL_LRU, managed=False):
    acm = ACM()
    cache = BufferCache(819, acm=acm, policy=policy)
    if managed:
        acm.register(1)
        acm.set_policy(1, 0, "mru")
        acm.telemetry = telemetry
    cache.telemetry = telemetry
    for i in range(N):
        out = cache.access(1, 1, (i * 17) % 2000, i, "d")
        if out.read_needed:
            cache.loaded(out.block)
    return cache.stats.accesses


def best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        assert fn() == N
        best = min(best, time.perf_counter() - t0)
    return best


def measure(policy, managed):
    off = best_of(lambda: access_loop(None, policy, managed))
    metrics_on = best_of(lambda: access_loop(Telemetry(), policy, managed))
    traced = best_of(
        lambda: access_loop(Telemetry(tracer=Tracer(capacity=256)), policy, managed)
    )
    return {"off_s": off, "metrics_s": metrics_on, "traced_s": traced,
            "metrics_ratio": metrics_on / off, "traced_ratio": traced / off}


def test_metrics_overhead_within_budget(save_table):
    plain = measure(GLOBAL_LRU, managed=False)
    managed = measure(LRU_SP, managed=True)
    lines = [
        "Telemetry overhead on the BUF hot loop (min of %d × %d accesses)" % (ROUNDS, N),
        "",
        f"{'path':<22}{'off':>10}{'metrics':>10}{'ratio':>8}{'traced':>10}{'ratio':>8}",
    ]
    for name, m in (("global-lru", plain), ("lru-sp managed", managed)):
        lines.append(
            f"{name:<22}{m['off_s'] * 1e3:>8.2f}ms{m['metrics_s'] * 1e3:>8.2f}ms"
            f"{m['metrics_ratio']:>8.2f}{m['traced_s'] * 1e3:>8.2f}ms{m['traced_ratio']:>8.2f}"
        )
    save_table(
        "telemetry_overhead", "\n".join(lines),
        data={"global_lru": plain, "lru_sp_managed": managed,
              "budget": BUDGET, "n": N, "rounds": ROUNDS},
    )
    assert plain["metrics_ratio"] <= BUDGET, plain
    assert managed["metrics_ratio"] <= BUDGET, managed
