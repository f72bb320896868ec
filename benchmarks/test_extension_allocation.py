"""Extension: directly measuring cache *allocation* under each policy.

The paper infers allocations from ReadN's miss counts; the simulator can
simply count frames per process over time.  This benchmark re-runs the
Table 1 configuration (oblivious read490 + foolish read300) under LRU-S
and LRU-SP and reports mid-run average allocations — the clearest picture
of what placeholders buy: the oblivious reader keeps its ~490-frame
working set only when the kernel remembers the fool's mistakes.
"""

import pytest

from conftest import run_once
from repro.core.allocation import LRU_S, LRU_SP
from repro.harness import report
from repro.kernel.system import MachineConfig, System
from repro.workloads import ReadN
from repro.workloads.readn import ReadNBehavior


def _allocations(policy):
    system = System(MachineConfig(cache_mb=6.4, policy=policy, sample_occupancy_s=5.0))
    fg = ReadN(n=490, file_blocks=1176, behavior=ReadNBehavior.OBLIVIOUS,
               cpu_per_block=0.0015).spawn(system)
    bg = ReadN(n=300, file_blocks=1310, behavior=ReadNBehavior.FOOLISH,
               cpu_per_block=0.0015).spawn(system)
    result = system.run()
    mids = [s for t, s in result.occupancy_samples if 10 < t < 40]
    avg = lambda pid: sum(s.get(pid, 0) for s in mids) / max(1, len(mids))
    return avg(fg.pid), avg(bg.pid)


def test_allocation_fairness_benchmark(benchmark, save_table):
    def experiment():
        out = {}
        for name, policy in (("lru-s", LRU_S), ("lru-sp", LRU_SP)):
            reader, fool = _allocations(policy)
            out[f"{name} reader490"] = (0.0, int(round(reader)))
            out[f"{name} fool300"] = (0.0, int(round(fool)))
        return out

    data = run_once(benchmark, experiment)
    save_table("extension_allocation", report.render_ablation(
        data, "Mid-run frame allocation (of 819): oblivious read490 vs foolish read300"), data=data)


    # With placeholders the oblivious reader holds essentially its full
    # 490-frame working set; without, the fool erodes it substantially.
    assert data["lru-sp reader490"][1] > 450
    assert data["lru-s reader490"][1] < data["lru-sp reader490"][1] - 50
    # The fool is *contained*, not starved: it keeps roughly its group.
    assert 250 < data["lru-sp fool300"][1] < 350
