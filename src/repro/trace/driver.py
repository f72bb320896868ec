"""Trace-driven replay: the cache without the clock.

``replay`` feeds a trace to the untimed kernel
(:class:`repro.kernel.untimed.UntimedKernel`, the engine the cache service
also runs on) under any allocation policy and reports hit/miss/I/O counts
— the simulation methodology of the companion paper [3], and a
millisecond-scale way to evaluate policy variants.  ``analyze_trace`` adds
the offline bounds: plain LRU, plain MRU and Belady's OPT on the same
reference string.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.allocation import LRU_SP, AllocationPolicy
from repro.core.interface import FBehaviorError, FBehaviorOp
from repro.core.opt import lru_misses, mru_misses, opt_misses
from repro.core.revocation import RevocationPolicy
from repro.fs.filesystem import File, FsError, SimFilesystem
from repro.kernel.system import MachineConfig
from repro.kernel.untimed import UntimedKernel
from repro.trace.events import AccessRecord, DirectiveRecord, TraceEvent

#: the directives whose first operand is a file
_PATH_OPS = (FBehaviorOp.SET_PRIORITY, FBehaviorOp.GET_PRIORITY, FBehaviorOp.SET_TEMPPRI)


@dataclass
class ReplayResult:
    """Counts from one replay."""

    policy: str
    nframes: int
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    placeholders_used: int = 0
    overrules: int = 0
    per_pid: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: resident frames per pid at end of trace
    occupancy: Dict[int, int] = field(default_factory=dict)

    @property
    def block_ios(self) -> int:
        return self.disk_reads + self.disk_writes

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def replay(
    events: Iterable[TraceEvent],
    nframes: int,
    policy: AllocationPolicy = LRU_SP,
    revocation: Optional[RevocationPolicy] = None,
    count_final_flush: bool = True,
) -> ReplayResult:
    """Run a trace through the cache; no timing, exact replacement logic.

    A file exists from the first event that names it, by an access or as a
    directive's operand, and grows to the blocks accessed; ``delete``
    unlinks it and drops its blocks with no write-back, like the real
    kernel's temp-file behaviour, and a later mention creates it afresh
    under a new file id.  A directive that ``fbehavior`` refuses (bad
    operands, or a revoked caller) changes nothing, as in the service that
    refused it.  Write-backs are counted at eviction and (optionally) for
    blocks still dirty at the end.
    """
    config = MachineConfig(policy=policy, revocation=revocation)
    # A trace names neither disks nor sizes: its files grow on disks that
    # never fill.
    fs = SimFilesystem({p.name: sys.maxsize for p in config.disks})
    kernel = UntimedKernel(config, nframes=nframes, fs=fs)
    access, ensure_block = kernel.access, fs.ensure_block
    for ev in events:
        if isinstance(ev, AccessRecord):
            f = _file(fs, ev.path)
            access(ev.pid, f, ev.blockno, ensure_block(f, ev.blockno), ev.write, ev.whole)
        elif isinstance(ev, DirectiveRecord):
            _directive(kernel, ev)
        else:
            raise TypeError(f"not a trace event: {ev!r}")
    if count_final_flush:
        kernel.flush()

    per_pid = {
        pid: {"accesses": c.accesses, "hits": c.hits, "misses": c.misses,
              "reads": c.disk_reads, "writes": c.disk_writes}
        for pid, c in kernel.counts.items()
    }

    def total(name: str) -> int:
        return sum(row[name] for row in per_pid.values())

    cache = kernel.cache
    return ReplayResult(
        policy=policy.name, nframes=nframes,
        accesses=total("accesses"), hits=total("hits"), misses=total("misses"),
        disk_reads=total("reads"), disk_writes=total("writes"),
        placeholders_used=cache.placeholders.consumed, overrules=cache.stats.overrules,
        per_pid=per_pid, occupancy=cache.occupancy(),
    )


def _file(fs: SimFilesystem, path: str) -> File:
    try:
        return fs.lookup(path)
    except FsError:
        return fs.create(path)


def _directive(kernel: UntimedKernel, ev: DirectiveRecord) -> None:
    fs = kernel.fs
    if ev.op == "create":
        _file(fs, str(ev.args[0]))
        return
    if ev.op == "delete":
        path = str(ev.args[0])
        if fs.exists(path):
            kernel.cache.invalidate_file(fs.unlink(path).file_id)
        return
    op = FBehaviorOp(ev.op)
    args = tuple(ev.args)
    if op in _PATH_OPS and args:
        args = (_file(fs, str(args[0])).path,) + args[1:]
    try:
        kernel.directive(ev.pid, op, args)
    except FBehaviorError:
        pass  # refused: it changed nothing where it was recorded either


def analyze_trace(events: Iterable[TraceEvent], nframes: int) -> Dict[str, int]:
    """Replay under LRU-SP and compute the offline bounds on the same
    reference string.

    Returns ``{"lru_sp": ..., "lru": ..., "mru": ..., "opt": ...}`` miss
    counts.  ``lru`` here is the global-LRU baseline (what the original
    kernel would do); ``opt`` is Belady's unreachable optimum.
    """
    events = list(events)
    refs = [(ev.path, ev.blockno) for ev in events if isinstance(ev, AccessRecord)]
    return {
        "lru_sp": replay(events, nframes).misses,
        "lru": lru_misses(refs, nframes),
        "mru": mru_misses(refs, nframes),
        "opt": opt_misses(refs, nframes),
    }
