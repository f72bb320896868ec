"""Golden battery for the cache service, driven synchronously.

``tests/data/service_golden.json`` pins, op by op, what a seeded
:class:`~repro.server.service.CacheService` answers (the reply, or the
error code of a refused request) and what it holds at the end: the
``cache_snapshot``, every ``session_snapshot``, the ``faults_snapshot``,
the ``repro_session_*`` registry series, the span counts and a digest of
the resident blocks and of the recorded trace.  No daemon and no event
loop take part, so the run is deterministic and any change to the
service's kernel path shows up as a changed entry.

The stream uses three sessions on a 24-frame LRU-SP cache, so LRU-SP's
swaps and placeholders run; whole and partial writes; all five
directives, including refused ones (``DIRECTIVE``) and one from a revoked
session (``REVOKED``); ``readv``/``writev`` with one bad op; bundle fetch
and evict; a migration (probe, begin, pull, ingest into a second service,
end); a ``FaultPlan`` with a retry budget and one persistently bad
sector; and ``flush_all``.

Re-record (only when the service's behaviour is *meant* to change)::

    PYTHONPATH=src python tests/test_service_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.core.allocation import LRU_SP
from repro.faults import FaultPlan
from repro.faults.plan import BlockFault
from repro.kernel.system import MachineConfig
from repro.server.service import CacheService, ServiceError
from repro.telemetry import Telemetry, Tracer
from repro.trace import TraceRecorder

GOLDEN = Path(__file__).parent / "data" / "service_golden.json"

FRAMES_MB = 24 * 8192 / (1024 * 1024)
#: random read errors within a budget of 2 retries, one sector that never
#: reads or writes, and pid 3's manager revoked at its first consultation
FAULTS = FaultPlan(
    seed=39,
    disk_error_rate=0.08,
    max_disk_retries=2,
    block_faults=(BlockFault(disk="RZ56", lba=37, count=-1),),
    revoke_pids=(3,),
)
#: (path, size in blocks); "hot" holds LBAs 0-15, so "warm" holds the bad sector
FILES = (("hot", 16), ("warm", 30), ("cold", 40), ("scratch", 8))


def _service(cache_mb: float, faults: Any) -> CacheService:
    config = MachineConfig(cache_mb=cache_mb, policy=LRU_SP, faults=faults)
    return CacheService(
        config,
        trace_recorder=TraceRecorder(),
        telemetry=Telemetry(tracer=Tracer(capacity=1 << 16)),
    )


def _call(log: List[Any], fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
    try:
        log.append(fn(*args, **kwargs))
    except ServiceError as exc:
        log.append({"code": exc.code})


def _residency(service: CacheService) -> str:
    rows = sorted(
        (service.fs.by_id(b.file_id).path, b.blockno, b.owner_pid, b.dirty, b.pool_prio)
        for f in service.fs.files()
        for b in service.cache.blocks_of_file(f.file_id)
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _final(service: CacheService) -> Dict[str, Any]:
    registry = service.telemetry.registry
    registry.collect()
    session_series = {
        family.name: sorted(
            (labels["pid"], child.value) for labels, child in family.children()
        )
        for family in registry.families()
        if family.name.startswith("repro_session_")
    }
    tracer = service.telemetry.tracer
    assert tracer.dropped == 0
    spans = Counter(
        f"{r.get('attrs', {}).get('layer', '?')}:{r['name']}" for r in tracer.records()
    )
    return {
        "cache": service.cache_snapshot(),
        "sessions": {
            str(pid): service.session_snapshot(pid) for pid in sorted(service.counters)
        },
        "faults": service.faults_snapshot(),
        "session_series": session_series,
        "spans": dict(sorted(spans.items())),
        "spans_unfinished": tracer.spans_started - tracer.spans_finished,
        "residency": _residency(service),
        "trace": hashlib.sha256(repr(service.trace_recorder.events).encode()).hexdigest(),
        "trace_events": len(service.trace_recorder.events),
    }


def measure() -> Dict[str, Any]:
    """Run the whole stream; returns the JSON-able record that is pinned."""
    rng = random.Random(1994)
    svc = _service(FRAMES_MB, FAULTS)
    pids = [svc.register_session() for _ in range(3)]
    log: List[Any] = []
    for path, size in FILES:
        _call(log, svc.open, pids[0], path, size)
    _call(log, svc.open, pids[1], "hot")
    _call(log, svc.open, pids[1], "missing")  # FS: no size, no file
    _call(log, svc.open, pids[1], "")  # BAD_REQUEST

    # Directives: pid 1 protects "hot" with MRU at priority 0, pid 2 frees
    # "cold" behind its scan; then the refused ones.
    _call(log, svc.directive, pids[0], "set_priority", {"path": "hot", "prio": 0})
    _call(log, svc.directive, pids[0], "set_policy", {"prio": 0, "policy": "mru"})
    _call(log, svc.directive, pids[0], "get_policy", {"prio": 0})
    _call(log, svc.directive, pids[0], "get_priority", {"path": "hot"})
    _call(log, svc.directive, pids[1], "set_priority", {"path": "cold", "prio": 1})
    _call(log, svc.directive, pids[2], "set_priority", {"path": "scratch", "prio": 0})
    _call(log, svc.directive, pids[0], "set_policy", {"prio": 0, "policy": "bogus"})
    _call(log, svc.directive, pids[1], "set_priority", {"path": "ghost", "prio": 0})
    _call(log, svc.directive, pids[1], "get_policy", {"prio": "x"})

    for step in range(400):
        pid = pids[step % 3]
        path, size = FILES[rng.randrange(len(FILES))]
        blockno = rng.randrange(size + 2)  # some reads run past EOF
        roll = rng.random()
        if roll < 0.6:
            _call(log, svc.read, pid, path, blockno)
        elif roll < 0.8:
            _call(log, svc.write, pid, path, blockno, whole=True)
        elif roll < 0.95:
            _call(log, svc.write, pid, path, blockno, whole=False)
        elif pid == pids[1]:
            lo = rng.randrange(40)
            _call(log, svc.directive, pid, "set_temppri",
                  {"path": "cold", "start": lo, "end": lo + 3, "prio": -1})
        else:
            _call(log, svc.directive, pid, "set_policy",
                  {"prio": 0, "policy": rng.choice(("lru", "mru"))})
        if step == 200:
            _call(log, svc.read_batch, pids[0], [
                {"path": "hot", "blockno": 1},
                {"path": "nope", "blockno": 0},
                {"path": "warm", "blockno": 2},
            ])
            _call(log, svc.write_batch, pids[1], [
                {"path": "scratch", "blockno": 3, "whole": False},
                {"path": "scratch", "blockno": -1},
                {"path": "scratch", "blockno": 9},
            ])
            _call(log, svc.read, pids[0], "hot", "x")  # BAD_REQUEST
            _call(log, svc.read, 7, "hot", 2)  # a pid with no session
    # pid 3's manager was revoked at its first consultation
    _call(log, svc.directive, pids[2], "set_priority", {"path": "scratch", "prio": 1})

    _call(log, svc.declare_bundle, pids[0], "b1", ["warm", "scratch"], "fetch")
    _call(log, svc.declare_bundle, pids[0], "b2", ["scratch", "nope"], "fetch")
    _call(log, svc.declare_bundle, pids[0], "b3", ["warm"], "bogus")
    for blockno in range(0, 8, 2):
        _call(log, svc.write, pids[2], "scratch", blockno)
    _call(log, svc.declare_bundle, pids[1], "b1", ["warm", "scratch"], "evict")
    _call(log, svc.declare_bundle, pids[1], "b4", ["hot"], "declare")
    _call(log, svc.invalidate, pids[1], "cold", 3)
    _call(log, svc.invalidate, pids[1], "nope")

    # Migration: the dirty "cold"/"scratch" blocks move to a smaller target.
    for blockno in range(6):
        _call(log, svc.write, pids[1], "cold", blockno, whole=True)
    target = _service(8 * 8192 / (1024 * 1024), None)
    tpid = target.register_session()
    _call(log, target.open, tpid, "cold", 40)
    for blockno in range(8):
        _call(log, target.write, tpid, "cold", 30 + blockno)
    _call(log, svc.migrate_begin, pids[0], [])
    early = svc.migrate_begin(pids[0], ["cold"])
    log.append(early)
    _call(log, svc.migrate_end, pids[0], early["token"])  # records not yet pulled
    _call(log, svc.migrate_pull, pids[0], early["token"])
    begin = svc.migrate_begin(pids[0], ["cold", "scratch", "nope"])
    log.append(begin)
    while True:
        chunk = svc.migrate_pull(pids[0], begin["token"], limit=5)
        log.append(chunk)
        _call(log, target.migrate_ingest, tpid, chunk["records"])
        if chunk["done"]:
            break
    _call(log, svc.migrate_end, pids[0], begin["token"])
    _call(log, svc.migrate_end, pids[0], begin["token"])  # already closed

    # A warm tail, and a dirty block on the bad sector that flush_all loses.
    for blockno in range(6):
        _call(log, svc.read, pids[0], "hot", blockno)
    _call(log, svc.write, pids[2], "warm", 21, whole=True)
    _call(log, svc.write, pids[1], "scratch", 1, whole=False)
    _call(log, svc.flush_all)
    _call(log, target.flush_all)
    return {"ops": log, "service": _final(svc), "target": _final(target)}


def _as_json(record: Dict[str, Any]) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def test_service_replies_and_state_match_the_recording():
    assert json.loads(_as_json(measure())) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_as_json(measure()))
