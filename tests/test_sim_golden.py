"""Golden differential battery for the simulated machine.

``tests/data/sim_golden.json`` was recorded at the commit *before* the
simulator's event heap, callback plumbing and ``lba_of`` were
rewritten for speed.  Every entry must stay identical to the last bit
(floats are stored as ``float.hex()``): every Fig. 4 application and Fig. 5
mix under the original kernel and under LRU-SP at two cache sizes, plus
three mixes re-run (on a 0.5 MB cache with 128 placeholders, which keeps the
per-operation sanitizer sweep affordable) with the invariant sanitizer on, with a
``Tracer`` attached, under a seeded ``FaultPlan`` of disk stalls, errors and
torn writes, and on drives without the shared bus, so no fast path drops a
hook or reorders a tie.

Re-record (only when simulated behaviour is *meant* to change)::

    PYTHONPATH=src python tests/test_sim_golden.py --record
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.check.invariants import sanitize_enabled
from repro.core.allocation import GLOBAL_LRU, LRU_SP
from repro.faults import FaultPlan
from repro.harness import paperdata
from repro.harness.runner import app
from repro.kernel.system import MachineConfig, System
from repro.telemetry import Telemetry, Tracer

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"

#: label → (allocation policy, smart apps?)
KERNELS = {"orig": (GLOBAL_LRU, False), "lru-sp": (LRU_SP, True)}
SIZES_MB = (6.4, 12.0)
#: the three mixes re-run under every hook-bearing variant
VARIANT_MIXES = ("cs1", "cs3+ldk", "din+sort")
VARIANT_MB = 0.5
VARIANT_PLACEHOLDERS = 128
VARIANTS = ("sanitize", "tracer", "faults", "nobus")
FAULTS = FaultPlan(seed=1994, disk_stall_rate=0.02, disk_error_rate=0.01, torn_write_rate=0.01)


def _entries() -> List[Tuple[str, str, float, str]]:
    """(mix, kernel label, cache MB, variant) for every run of the battery."""
    entries = []
    for mix in paperdata.APP_ORDER + paperdata.FIG5_MIXES:
        for label in KERNELS:
            for mb in SIZES_MB:
                entries.append((mix, label, mb, "plain"))
    for mix in VARIANT_MIXES:
        for variant in VARIANTS:
            entries.append((mix, "lru-sp", VARIANT_MB, variant))
    return entries


ENTRIES = _entries()


def _key(entry: Tuple[str, str, float, str]) -> str:
    mix, label, mb, variant = entry
    return f"{mix}|{label}|{mb}|{variant}"


def measure(entry: Tuple[str, str, float, str]) -> Dict[str, Any]:
    """Run one entry and reduce it to the JSON-able record that is pinned."""
    mix, label, mb, variant = entry
    policy, smart = KERNELS[label]
    tracer = Tracer(capacity=1 << 22) if variant == "tracer" else None
    config = MachineConfig(
        cache_mb=mb,
        policy=policy,
        sanitize=variant == "sanitize",
        telemetry=False,
        faults=FAULTS if variant == "faults" else None,
        shared_bus=variant != "nobus",
        **({} if variant == "plain" else {"placeholder_limit": VARIANT_PLACEHOLDERS}),
    )
    system = System(config, telemetry=Telemetry(tracer=tracer) if tracer else None)
    for kind in mix.split("+"):
        app(kind, smart=smart).build().spawn(system)
    result = system.run()
    record: Dict[str, Any] = {
        "makespan": result.makespan.hex(),
        "settle_time": result.settle_time.hex(),
        "placeholders": [result.placeholders_created, result.placeholders_used],
        "preemptions": system.cpu.preemptions,
        "cache": [result.cache.accesses, result.cache.hits, result.cache.evictions],
        "procs": {
            name: {
                "block_ios": p.stats.block_ios,
                "hits": p.stats.hits,
                "disk_reads": p.stats.disk_reads,
                "disk_writes": p.stats.disk_writes,
                "elapsed": p.elapsed.hex(),
                "cpu_time": p.stats.cpu_time.hex(),
                "io_wait_time": p.stats.io_wait_time.hex(),
            }
            for name, p in result.procs.items()
        },
        "disks": {
            name: {
                "reads": d["reads"],
                "writes": d["writes"],
                "busy_time": float(d["busy_time"]).hex(),
                "wait_time": float(d["wait_time"]).hex(),
            }
            for name, d in result.disk_stats.items()
        },
    }
    if variant == "faults":
        faults = dict(result.faults)
        record["faults"] = {k: faults[k] for k in sorted(faults)}
        record["disk_faults"] = {n: d["faults"] for n, d in result.disk_stats.items()}
    if tracer is not None:
        assert tracer.dropped == 0
        spans = Counter(
            f"{r.get('attrs', {}).get('layer', '?')}:{r['name']}" for r in tracer.records()
        )
        record["spans"] = dict(sorted(spans.items()))
        record["spans_unfinished"] = tracer.spans_started - tracer.spans_finished
    return record


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_battery(golden):
    assert sorted(golden) == sorted(_key(e) for e in ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES, ids=_key)
def test_bit_identical_to_recorded_parent(entry, golden):
    if sanitize_enabled() and entry[3] != "sanitize":
        # REPRO_SANITIZE=1 sweeps the whole cache after every operation of
        # every run: the full-size battery would take hours, and the
        # sanitize variants already are this battery under the sanitizer.
        pytest.skip("covered by the sanitize variants under REPRO_SANITIZE")
    assert measure(entry) == golden[_key(entry)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {}
    for e in ENTRIES:
        recorded[_key(e)] = measure(e)
        print(_key(e), file=sys.stderr)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
