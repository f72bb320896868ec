"""Production load: sustained ops/sec and hit ratio of a subprocess
cluster under skewed (ETC-like Zipfian) traffic.

Performance benchmark (not reproduction).  The :class:`LoadDriver`
stands up a ``--subprocess`` cluster — real processes, real TCP, the
negotiated binary wire — and drives it closed-loop with pipelined
concurrent sessions over a heavy-tailed keyspace, exactly the shape
``repro-accfc load`` runs by hand.  The test asserts the report schema
and that every op completed; throughput, latency and hit ratio are
printed and saved, not gated (the ``bench`` workloads give the serving
numbers).

The fleet is 4 shards / 64 sessions, the CI shape.  The same run at 16
shards × 1024 sessions is::

    repro-accfc load --shards 16 --sessions 1024 --paths 50000 \
        --blocks-per-file 4 --ops 12000 --seed 17 --cache-mb 2 --closed-loop
"""

import asyncio

from conftest import run_once

from repro.harness.load import LoadDriver, validate_report
from repro.workloads.production import etc_profile

SHARDS = 4
SESSIONS = 64
OPS = 2_000
PATHS = 4_000
BLOCKS_PER_FILE = 4
SKEW = 0.99
SEED = 17
CACHE_MB = 2.0


def _drive():
    profile = etc_profile(
        paths=PATHS, skew=SKEW, rate=None, blocks_per_file=BLOCKS_PER_FILE
    )
    driver = LoadDriver(
        profile,
        shards=SHARDS,
        sessions=SESSIONS,
        ops=OPS,
        seed=SEED,
        spawn="subprocess",
        cache_mb=CACHE_MB,
    )
    return asyncio.run(driver.run())


def test_production_load(benchmark, save_table):
    report = run_once(benchmark, _drive)

    validate_report(report)
    assert report["ops"]["completed"] == OPS
    assert report["ops"]["failed"] == 0
    assert report["ops"]["unissued"] == 0
    assert 0.0 < report["hit_ratio"]["overall"] < 1.0

    params = {
        "shards": SHARDS,
        "sessions": SESSIONS,
        "ops": OPS,
        "paths": PATHS,
        "skew": SKEW,
        "seed": SEED,
        "cache_mb": CACHE_MB,
        "spawn": "subprocess",
    }

    save_table(
        "production_load",
        f"production load ({SHARDS} shards, {SESSIONS} sessions): "
        f"{report['throughput']['ops_per_sec']:,.0f} ops/s, "
        f"p50 {report['latency']['p50_s'] * 1e3:.2f}ms, "
        f"p99 {report['latency']['p99_s'] * 1e3:.2f}ms, "
        f"hit ratio {report['hit_ratio']['overall']:.3f}",
        data={"workload": params, "report": report},
    )
