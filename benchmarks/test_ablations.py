"""Ablations beyond the paper's figures.

DESIGN.md calls out three design choices worth isolating:

* the full policy family GLOBAL-LRU / ALLOC-LRU / LRU-S / LRU-SP on one
  mix (Figure 6 only compares two points of the four);
* kernel sequential read-ahead (the timing model's biggest lever);
* revocation, the paper's footnoted extension;
* disk scheduling (named by the paper as future work).
"""

import pytest

from conftest import run_once
from repro.core.allocation import LRU_SP
from repro.core.revocation import RevocationPolicy
from repro.core.upcall import MRUHandler, UpcallACM
from repro.kernel.system import MachineConfig, System
from repro.workloads import Dinero
from repro.harness import report
from repro.harness.experiments import ablation_policies, ablation_readahead
from repro.harness.runner import app, run_mix
from repro.workloads.readn import ReadNBehavior


def test_policy_family_benchmark(benchmark, save_table):
    data = run_once(benchmark, ablation_policies, "cs2+gli", 6.4)
    save_table("ablation_policies", report.render_ablation(
        data, "Allocation-policy ablation on cs2+gli @ 6.4MB"), data=data)
    # Two-level replacement beats the original kernel however configured...
    assert data["lru-sp"][1] < data["global-lru"][1]
    # ...and the full LRU-SP beats the strawman without swapping.
    assert data["lru-sp"][1] <= data["alloc-lru"][1]


def test_readahead_benchmark(benchmark, save_table):
    data = run_once(benchmark, ablation_readahead, "din", 6.4)
    save_table("ablation_readahead", report.render_ablation(
        data, "Read-ahead ablation on din @ 6.4MB (original kernel)"), data=data)
    with_ra, without_ra = data["readahead"], data["no-readahead"]
    # Same I/O count (read-ahead only fetches blocks the scan will use)...
    assert with_ra[1] == pytest.approx(without_ra[1], rel=0.02)
    # ...but much less elapsed time: the transfers hide under compute.
    assert with_ra[0] < without_ra[0] * 0.85


def _protection_mix(policy, revocation=None):
    fg = app("readn", name="read490", n=490, file_blocks=1176,
             behavior=ReadNBehavior.OBLIVIOUS, cpu_per_block=0.0015)
    bg = app("readn", name="read300", n=300, file_blocks=1310,
             behavior=ReadNBehavior.FOOLISH, cpu_per_block=0.0015)
    return run_mix([fg, bg], cache_mb=6.4, policy=policy, revocation=revocation)


def test_revocation_benchmark(benchmark, save_table):
    def experiment():
        plain = _protection_mix(LRU_SP)
        revoking = _protection_mix(
            LRU_SP, revocation=RevocationPolicy(min_decisions=64, mistake_ratio=0.5)
        )
        return {
            "placeholders-only": (plain.makespan, plain.total_block_ios),
            "with-revocation": (revoking.makespan, revoking.total_block_ios),
        }, revoking.revocations

    (data, revocations) = run_once(benchmark, experiment)
    save_table("ablation_revocation", report.render_ablation(
        data, "Revocation ablation: foolish read300 vs oblivious read490 @ 6.4MB"), data=data)
    assert revocations == 1
    # Revoking the fool reduces total system I/O.
    assert data["with-revocation"][1] < data["placeholders-only"][1]


def test_disk_scheduler_benchmark(benchmark, save_table):
    """pjn+sort sharing the RZ26 under FCFS vs SSTF vs C-LOOK.

    Two processes plus update-daemon bursts keep the queue deep enough for
    ordering to matter (a lone synchronous reader never gives the scheduler
    a choice)."""

    def experiment():
        out = {}
        for sched in ("fcfs", "sstf", "clook"):
            r = run_mix(
                [app("pjn", smart=True), app("sort", smart=True)],
                cache_mb=6.4,
                policy=LRU_SP,
                disk_scheduler=sched,
            )
            out[sched] = (r.makespan, r.total_block_ios)
        return out

    data = run_once(benchmark, experiment)
    save_table("ablation_disk_scheduler", report.render_ablation(
        data, "Disk-scheduler ablation on pjn+sort @ 6.4MB"), data=data)
    # Scheduling changes service order, not cache behaviour: I/O counts
    # stay within noise (timing shifts interleavings slightly) while the
    # position-aware schedulers win elapsed time.
    base = data["fcfs"]
    for sched in ("sstf", "clook"):
        assert data[sched][1] == pytest.approx(base[1], rel=0.05)
        assert data[sched][0] <= base[0] * 1.02


def test_upcall_interface_benchmark(benchmark, save_table):
    """Directive interface vs upcall interface (Section 3's design choice).

    Same replacement decisions either way; upcalls pay a kernel/user
    crossing per consultation.  The related work the paper cites reported
    ~10 % overhead for upcall/RPC schemes — which is what emerges here.
    """

    def experiment():
        out = {}
        for mode in ("directives", "upcalls"):
            acm = UpcallACM() if mode == "upcalls" else None
            system = System(MachineConfig(cache_mb=6.4, policy=LRU_SP), acm=acm)
            Dinero(smart=(mode == "directives")).spawn(system)
            if mode == "upcalls":
                system.acm.register_handler(1, MRUHandler())
            r = system.run()
            out[mode] = (r.proc("din").elapsed, r.proc("din").block_ios)
        return out

    data = run_once(benchmark, experiment)
    save_table("ablation_upcalls", report.render_ablation(
        data, "Interface ablation on din @ 6.4MB: directives vs upcalls"), data=data)
    directives, upcalls = data["directives"], data["upcalls"]
    assert upcalls[1] == directives[1]                 # identical decisions
    assert 1.03 < upcalls[0] / directives[0] < 1.20    # ~10% dearer calls


def test_writeback_policy_benchmark(benchmark, save_table):
    """Write-back policy interaction (Section 8 future work).

    sort under different update-daemon regimes: eager trickle (5 s), the
    classic 30 s sync, and a lazy 120 s daemon.  Lazier write-back lets
    more of sort's temporary data die in cache (deleted before flushed),
    trading I/O count against burstiness.
    """

    def experiment():
        out = {}
        for label, interval in (("sync-5s", 5.0), ("sync-30s", 30.0), ("sync-120s", 120.0)):
            r = run_mix(
                [app("sort", smart=True)],
                cache_mb=24.0,
                policy=LRU_SP,
                sync_interval_s=interval,
                sync_age_s=0.0,
            )
            out[label] = (r.makespan, r.total_block_ios)
        return out

    data = run_once(benchmark, experiment)
    save_table("ablation_writeback", report.render_ablation(
        data, "Write-back ablation on sort @ 24MB (update daemon period)"), data=data)
    # At 24 MB eviction pressure is low, so the daemon is the main writer:
    # a lazy one lets whole merged-and-deleted run files die in cache (a
    # third fewer block I/Os), while at 16 MB and below evictions dominate
    # and the interval barely matters — caching and write-back policy
    # interact, exactly the coupling Section 8 flags for future work.
    assert data["sync-120s"][1] < data["sync-5s"][1] * 0.75
