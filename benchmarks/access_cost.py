"""Cost of one simulated block access, by part of the simulated machine.

Runs one ``paper_mix`` pass (the three Fig. 5 mixes of ``bench/paper.py``
under the original kernel and under LRU-SP, 6.4 MB) through
``repro.kernel.System`` and prints:

* engine events and CPU requests per access (exact counts);
* wall µs per access, best of ``--rounds`` unprofiled passes;
* that figure split by part — engine, CPU resource, drive, fs, System
  stepping, BUF/ACM, workload generators — in proportion to cProfile's
  per-file self time over one more pass.  cProfile taxes Python calls and
  not C ones, so the split is a guide to where to look, not a measurement;
  the unprofiled total is the measurement.

This is the script behind the "cost of one simulated access" table in
``docs/perf.md``::

    PYTHONPATH=src python benchmarks/access_cost.py [--rounds 3]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time
from typing import Dict, List, Tuple

from repro.core.allocation import GLOBAL_LRU, LRU_SP
from repro.harness.runner import app
from repro.kernel.system import MachineConfig, System

MIXES = ("cs2+gli", "din+sort", "din+cs3+gli+ldk")
KERNELS = ((GLOBAL_LRU, False), (LRU_SP, True))
#: (part, path fragments whose self time it collects), first match wins
PARTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("repro/sim/engine.py", "_heapq")),
    ("cpu resource", ("repro/sim/resources.py",)),
    ("drive", ("repro/disk/",)),
    ("fs", ("repro/fs/",)),
    ("System stepping", ("repro/kernel/", "repro/sim/process.py")),
    ("BUF/ACM", ("repro/core/", "repro/policies/")),
    ("workload generators", ("repro/workloads/", "repro/sim/ops.py")),
)


def one_pass() -> List[System]:
    """Build and run the six machines of a pass; returns them drained."""
    systems = []
    for mix in MIXES:
        for policy, smart in KERNELS:
            system = System(MachineConfig(cache_mb=6.4, policy=policy))
            for kind in mix.split("+"):
                app(kind, smart=smart).build().spawn(system)
            system.run()
            systems.append(system)
    return systems


def split_by_part(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per part from a cProfile run (unmatched → ``other``)."""
    seconds: Dict[str, float] = {part: 0.0 for part, _ in PARTS}
    seconds["other"] = 0.0
    for (filename, _, funcname), (_, _, tottime, _, _) in stats.stats.items():  # type: ignore[attr-defined]
        where = f"{filename}:{funcname}".replace("\\", "/")
        for part, fragments in PARTS:
            if any(fragment in where for fragment in fragments):
                seconds[part] += tottime
                break
        else:
            seconds["other"] += tottime
    return seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()

    walls = []
    for _ in range(args.rounds):
        started = time.perf_counter()
        systems = one_pass()
        walls.append(time.perf_counter() - started)
    accesses = sum(s.cache.stats.accesses for s in systems)
    events = sum(s.engine.events_fired for s in systems)
    cpu_requests = sum(s.cpu.completed for s in systems)
    us_per_access = min(walls) / accesses * 1e6

    profiler = cProfile.Profile()
    profiler.enable()
    one_pass()
    profiler.disable()
    parts = split_by_part(pstats.Stats(profiler))
    profiled = sum(parts.values())

    print(f"accesses/pass            {accesses}")
    print(f"events/access            {events / accesses:.2f}   ({events} events)")
    print(f"cpu requests/access      {cpu_requests / accesses:.2f}   ({cpu_requests} requests)")
    print(f"wall us/access (best/{args.rounds})  {us_per_access:.1f}   ({accesses / min(walls):.0f} accesses/s)")
    for part, seconds in parts.items():
        share = seconds / profiled
        print(f"  {part:<20} {share * us_per_access:5.1f} us   {share:6.1%}")


if __name__ == "__main__":
    main()
