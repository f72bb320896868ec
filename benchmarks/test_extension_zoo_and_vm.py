"""Extension benchmarks: the policy zoo on the paper's traces, and the VM
clock carrying the same two-level machinery.

Neither appears in the paper — the zoo situates LRU-SP against the later
eviction-algorithm literature on exactly the paper's workloads, and the VM
benchmark validates Section 7's claim that swapping/placeholders transfer
to a two-hand clock.
"""

import pytest

from conftest import run_once
from repro.core.allocation import GLOBAL_LRU, LRU_SP
from repro.harness import report
from repro.harness.sweep import policy_zoo_sweep
from repro.vm import VmSystem

PAPER_FRAMES = 819  # 6.4 MB of 8 KB frames
ZOO_APPS = ("din", "cs1", "gli", "pjn")


def test_policy_zoo_benchmark(benchmark, save_table):
    def experiment():
        return {kind: policy_zoo_sweep(kind, PAPER_FRAMES) for kind in ZOO_APPS}

    data = run_once(benchmark, experiment)
    lines = ["Policy zoo, misses at 819 frames (6.4 MB)"]
    policies = sorted(next(iter(data.values())))
    header = f"{'policy':>8}" + "".join(f"{kind:>9}" for kind in ZOO_APPS)
    lines += [header, "-" * len(header)]
    for name in policies:
        lines.append(f"{name:>8}" + "".join(f"{data[k][name]:9d}" for k in ZOO_APPS))
    save_table("extension_policy_zoo", "\n".join(lines), data=data)

    for kind in ZOO_APPS:
        misses = data[kind]
        # OPT bounds everything.
        assert misses["opt"] <= min(v for k, v in misses.items() if k != "opt")
        # Application control with one directive is competitive with (din,
        # cs1: equal to) the best general-purpose online policy.
        best_online = min(v for k, v in misses.items() if k not in ("opt", "lru-sp"))
        assert misses["lru-sp"] <= best_online * 1.25, kind
        # And strictly better than the global LRU the original kernel used.
        assert misses["lru-sp"] < misses["lru"], kind

    # The cyclic apps: LRU-SP (with its MRU directive) ties plain MRU.
    for kind in ("din", "cs1"):
        assert data[kind]["lru-sp"] == data[kind]["mru"]



def _vm_workload(vm, smart: bool) -> int:
    vm.create_region("index", 8)
    vm.create_region("data", 64)
    if smart:
        vm.set_region_priority(1, "index", 1)
    for _ in range(6):
        for p in range(8):
            vm.touch(1, "index", p)
        for p in range(64):
            vm.touch(1, "data", p)
            if smart:
                vm.advise_done_with(1, "data", p, p)
    return vm.faults(1)


def test_vm_two_level_benchmark(benchmark, save_table):
    def experiment():
        plain = _vm_workload(VmSystem(16, policy=GLOBAL_LRU, spread=4), smart=False)
        advised = _vm_workload(VmSystem(16, policy=LRU_SP, spread=4), smart=True)
        return {"two-hand-clock": (0.0, plain), "with-region-advice": (0.0, advised)}

    data = run_once(benchmark, experiment)
    save_table("extension_vm", report.render_ablation(
        data, "VM paging: index probes + data scans @ 16 frames (faults)"), data=data)
    plain = data["two-hand-clock"][1]
    advised = data["with-region-advice"][1]
    # The 64-page scan through 16 frames must fault every time (6*64) and
    # the index must fault once (8): 392 is the floor.  Region advice hits
    # it exactly — every repeat index fault is eliminated — while the
    # oblivious clock refaults the index all six rounds.
    floor = 6 * 64 + 8
    assert advised == floor
    assert plain >= floor + 5 * 8  # ~40 avoidable index refaults paid
