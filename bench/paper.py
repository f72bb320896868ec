"""``paper_mix``: the paper's own face — Fig. 5 mixes on the simulated machine.

Each pass runs every mix under the original kernel (global LRU,
oblivious apps) and under LRU-SP with smart managers, through
``repro.harness.runner.run_mix`` (not ``fig5_multi_apps``, which is
``lru_cache``d).  No wire and no asyncio: ``repro.kernel.System``, the
event engine, disks, filesystem, ACM consults, swapping and placeholders
do the work.  The paper's reference strings are fixed, so ``--seed`` does
not change this workload and its counts repeat exactly.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.allocation import GLOBAL_LRU, LRU_SP, AllocationPolicy
from repro.harness.runner import AppSpec, app, run_mix
from repro.kernel.system import MachineConfig, System

from bench.host import proc_hwm_mb
from bench.trace import Spans

CACHE_MB = 6.4
MIXES = ("cs2+gli", "din+sort", "din+cs3+gli+ldk")
SMOKE_MIXES = MIXES[:1]
#: (label, allocation policy, smart apps?)
KERNELS: Tuple[Tuple[str, AllocationPolicy, bool], ...] = (
    ("orig", GLOBAL_LRU, False),
    ("lru-sp", LRU_SP, True),
)
SETUPS = 5
MIN_PASSES = 2


def _specs(mix: str, smart: bool) -> List[AppSpec]:
    return [app(kind, smart=smart) for kind in mix.split("+")]


def _set_up(mixes: Tuple[str, ...]) -> None:
    """The set-up half of every run of a pass: build each machine and
    install each application's files, without running anything."""
    for mix in mixes:
        for _, policy, smart in KERNELS:
            system = System(MachineConfig(cache_mb=CACHE_MB, policy=policy))
            for spec in _specs(mix, smart):
                spec.build().spawn(system)


def run_paper(
    seconds: float, spans: Optional[Spans], import_s: float, smoke: bool
) -> Dict[str, Any]:
    """Whole passes until about ``seconds`` have gone (at least two; a
    traced run makes exactly one)."""
    mixes = SMOKE_MIXES if smoke else MIXES
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        _set_up(mixes)
        setups.append(time.perf_counter() - started)

    passes: List[Dict[Tuple[str, str], Any]] = []
    #: per run of a pass, its (wall, CPU) seconds in every pass
    costs: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    gc.collect()
    started = time.perf_counter()
    while True:
        results = {}
        for mix in mixes:
            for label, policy, smart in KERNELS:
                span = spans.begin(f"run_mix {mix} {label}", "paper_mix") if spans else None
                before = time.perf_counter(), time.process_time()
                results[mix, label] = run_mix(_specs(mix, smart), cache_mb=CACHE_MB, policy=policy)
                costs.setdefault((mix, label), []).append(
                    (time.perf_counter() - before[0], time.process_time() - before[1])
                )
                if span is not None:
                    spans.end(span, accesses=results[mix, label].cache.accesses)
        passes.append(results)
        if spans is not None:
            break
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 > seconds:
            break
    # The box slows in bursts and never speeds up (see serving.undisturbed):
    # each run counts at its best pass.
    best_walls = [min(wall for wall, _ in seen) for seen in costs.values()]
    best_cpu_s = sum(min(cpu for _, cpu in seen) for seen in costs.values())

    first = passes[0]
    sp = [first[mix, "lru-sp"] for mix in mixes]
    pass_accesses = sum(r.cache.accesses for r in first.values())
    problems = []
    for mix in mixes:
        orig_ios, sp_ios = first[mix, "orig"].total_block_ios, first[mix, "lru-sp"].total_block_ios
        if not sp_ios < orig_ios:
            problems.append(f"{mix}: LRU-SP did {sp_ios} block I/Os, the original kernel {orig_ios}")
    for again in passes[1:]:
        for key, result in again.items():
            if (result.total_block_ios, result.makespan) != (
                first[key].total_block_ios,
                first[key].makespan,
            ):
                problems.append(f"{key}: block_ios or sim_elapsed_s differ between passes")

    cpu_us = best_cpu_s / pass_accesses * 1e6
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (pass_accesses / sum(best_walls), "1/s"),
        "cpu_us_per_op": (cpu_us, "us"),
        "p50_ms": (statistics.median(best_walls) * 1e3, "ms"),
        "hit_ratio": (sum(r.cache.hits for r in sp) / sum(r.cache.accesses for r in sp), "ratio"),
        "block_ios": (sum(r.total_block_ios for r in sp), "count"),
        "peak_rss_mb": (proc_hwm_mb(os.getpid()), "MB"),
    }
    layer = {
        "core.hits": (sum(r.cache.hits for r in sp), "count"),
        "core.misses": (sum(r.cache.misses for r in sp), "count"),
        "core.evictions": (sum(r.cache.evictions for r in sp), "count"),
        "core.writebacks": (sum(r.cache.dirty_evictions for r in sp), "count"),
        "core.placeholders_created": (sum(r.placeholders_created for r in sp), "count"),
        "core.placeholders_used": (sum(r.placeholders_used for r in sp), "count"),
        "kernel.sim_elapsed_s": (sum(r.makespan for r in sp), "sim_s"),
        "client.cpu_us_per_op": (cpu_us, "us"),
    }
    return {
        "metrics": metrics,
        "layer": layer,
        "attempted": pass_accesses * len(passes),
        "failed": 0,
        "problems": problems,
        "flags": [],
        "notes": {
            "passes": len(passes),
            "runs_per_pass": len(first),
            "accesses_per_pass": pass_accesses,
            "pass_walls_s": [sum(seen[i][0] for seen in costs.values()) for i in range(len(passes))],
            "setups_s": setups,
            "import_s": import_s,
            "sim_elapsed_s": sum(r.makespan for r in sp),
        },
    }
