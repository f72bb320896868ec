"""The registry of benchmark families the CI perf gate enforces.

Every benchmark module under ``benchmarks/`` files a profile named after
itself (``test_micro_perf.py`` → family ``micro_perf``), but only the
fast, stable subset is *gated*: committed under ``.perf/baseline/`` and
checked by the perf-smoke CI job on every push.  The gate set mirrors
ROADMAP item 4 — the three trajectories a hot-path change can silently
regress:

* ``micro_perf`` — the BUF access hot loop (global-LRU and the managed
  LRU-SP worst case), the event engine's schedule-and-fire cycle, and
  block accesses/s through the whole simulated machine (``System.run`` on
  the ``cs2+gli`` LRU-SP mix), in ops/s via pytest-benchmark's
  min-of-rounds;
* ``server_throughput`` — requests/s through the full daemon stack over
  the in-process transport;
* ``cluster_scaling`` — absolute 1-shard throughput plus the 1→2 shard
  speedup of the consistent-hash router (latency-bound by the injected
  slow-loris delay, so it is stable even on a noisy runner);
* ``replication`` — the R=2 write fan-out's latency overhead over one
  copy (concurrent fan-out keeps it near 1x) and read throughput with a
  shard crash-stopped (warm failover; latency-bound like the above).
* ``production_load`` — the traffic engine's end-to-end path: sustained
  ops/s of a subprocess cluster under closed-loop ETC-like Zipf load,
  plus the hit ratio under that skew (an admission or replacement
  regression moves it before any latency chart does).  Tail latency is
  recorded un-gated in the same family.

Un-gated families (the figure/table reproductions, telemetry overhead)
still write profiles every run — ``repro-accfc perf diff`` compares all
of them — they just don't fail CI, because their interesting metrics are
deterministic simulator outputs already asserted by the benchmarks
themselves.

Thresholds: the gate fails on >15% regression (``DEFAULT_FAIL_RATIO``)
and warns on >5%, per metric, best-of-N noise-guarded.
"""

from __future__ import annotations

from typing import Dict

from repro.perf.checkers import FamilyCheck

#: families the perf-smoke CI job runs, baselines committed in-repo
GATED_FAMILIES: Dict[str, FamilyCheck] = {
    "micro_perf": FamilyCheck(
        metrics=(
            "buf_access_global_lru_ops_per_sec",
            "buf_access_lru_sp_ops_per_sec",
            "engine_events_per_sec",
            "system_accesses_per_sec",
        ),
    ),
    "server_throughput": FamilyCheck(
        metrics=("inproc_ops_per_sec",),
    ),
    "cluster_scaling": FamilyCheck(
        metrics=("ops_per_sec_1_shard", "speedup_1_to_2"),
    ),
    "replication": FamilyCheck(
        metrics=("replicated_write_overhead", "post_failover_warm_ops_per_sec"),
    ),
    "production_load": FamilyCheck(
        metrics=("sustained_ops_per_sec", "hit_ratio"),
    ),
}


def check_for(family: str) -> FamilyCheck:
    """The check configuration of ``family`` (defaults when un-gated)."""
    return GATED_FAMILIES.get(family, FamilyCheck())
