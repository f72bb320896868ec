"""The untimed kernel: BUF/ACM and the filesystem with the clock taken out.

One synchronous engine under both the cache service
(:mod:`repro.server.service`) and trace replay (:mod:`repro.trace.driver`).
I/O completes before each call returns, and the counting rule is written
once, here, as the timed kernel has it: a demand read per access that
needs disk, a write-back per dirty eviction charged to the evicted block's
*owner*, and one write per dirty block at the flush.  Callers resolve
paths: the service rejects an unknown one, replay creates it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.acm import ACM
from repro.core.blocks import CacheBlock
from repro.core.buffercache import BufferCache
from repro.core.interface import FBehaviorOp, fbehavior
from repro.disk.model import ServiceTimeModel
from repro.faults import FaultInjector, InjectedIOError
from repro.fs.filesystem import File, SimFilesystem
from repro.kernel.system import MachineConfig


class PidCounts:
    """Block-level work done on behalf of one pid."""

    __slots__ = ("accesses", "hits", "misses", "disk_reads", "disk_writes")

    def __init__(self) -> None:
        self.accesses = self.hits = self.misses = self.disk_reads = self.disk_writes = 0


class UntimedKernel:
    """Filesystem, ACM, cache, fault hook and per-pid counts of one
    :class:`MachineConfig`; ``nframes`` and ``fs`` override its cache size
    and disks, and ``counts()`` builds an object with :class:`PidCounts`'
    attributes."""

    def __init__(
        self,
        config: MachineConfig,
        nframes: Optional[int] = None,
        fs: Optional[SimFilesystem] = None,
        counts: Callable[[], Any] = PidCounts,
    ) -> None:
        self.config = config
        if fs is None:
            fs = SimFilesystem({p.name: p.total_blocks for p in config.disks})
        self.fs = fs
        self.acm = ACM(limits=config.limits, revocation=config.revocation)
        #: fault injector (None = off)
        self.injector = FaultInjector(config.faults) if config.faults is not None else None
        self.acm.injector = self.injector
        self.cache = BufferCache(
            config.cache_frames if nframes is None else nframes,
            acm=self.acm,
            policy=config.policy,
            placeholder_limit=config.placeholder_limit,
        )
        if self.cache.sanitizer is None and config.sanitize_effective:
            from repro.check.invariants import InvariantChecker

            InvariantChecker(self.cache)
        #: writes abandoned after the retry budget (persistent bad sectors)
        self.lost_writes = 0
        self.counts: Dict[int, Any] = {}
        self._new_counts = counts
        #: optional repro.telemetry.Telemetry: a span per load and store
        self.telemetry: Optional[Any] = None
        #: disk -> [service-time model, head position, histogram]
        self._service_times: Dict[str, list] = {}

    def counts_for(self, pid: int) -> Any:
        counts = self.counts.get(pid)
        if counts is None:
            counts = self.counts[pid] = self._new_counts()
        return counts

    def instrument(self, telemetry: Any, hot: bool) -> None:
        """Span every load and store on ``telemetry``; when ``hot``, also
        attach it to the cache, the ACM and the injector, and observe each
        transfer's modeled service time per disk."""
        self.telemetry = telemetry
        if hot:
            self.cache.telemetry = self.acm.telemetry = telemetry
            if self.injector is not None:
                self.injector.telemetry = telemetry
            for p in self.config.disks:
                hist = telemetry.disk_service.labels(disk=p.name)
                self._service_times[p.name] = [ServiceTimeModel(p), 0, hist]

    def access(
        self, pid: int, f: File, blockno: int, lba: int, write: bool = False, whole: bool = False
    ) -> bool:
        """One block reference by ``pid``; returns whether it hit.  A demand
        read that fails past the retry budget frees the frame, leaves the
        access uncounted and raises InjectedIOError."""
        outcome = self.cache.access(pid, f.file_id, blockno, lba, f.disk, write, whole)
        evicted = outcome.evicted
        if evicted is not None and evicted.dirty:
            # Written back even if the read below fails: the victim is gone.
            self.write_back(evicted)
        counts = self.counts.get(pid) or self.counts_for(pid)
        if outcome.read_needed:
            block = outcome.block
            if not self._transfer(block, write=False):
                self.injector.note_aborted_read()
                self.cache.abort_load(block)
                raise InjectedIOError(block.disk, block.lba, write=False)
            self.cache.loaded(block)
        counts.accesses += 1
        if outcome.hit:
            counts.hits += 1
        else:
            counts.misses += 1
            if outcome.read_needed:
                counts.disk_reads += 1
        return outcome.hit

    def prefetch(
        self, pid: int, f: File, blockno: int, lba: int
    ) -> Tuple[Optional[CacheBlock], Optional[CacheBlock]]:
        """Warm one block outside the reference stream (no access is
        counted); returns ``(block, victim)``, ``block`` None if it was
        already resident."""
        block, evicted = self.cache.prefetch(pid, f.file_id, blockno, lba, f.disk)
        if evicted is not None and evicted.dirty:
            self.write_back(evicted)
        if block is not None:
            self.cache.loaded(block)
        return block, evicted

    def directive(self, pid: int, op: FBehaviorOp, args: Tuple[Any, ...]) -> Any:
        """One ``fbehavior`` call; raises FBehaviorError if it is refused
        (FBehaviorRevokedError when the caller's control was revoked)."""
        return fbehavior(self.acm, self.fs, pid, op, args)

    def flush(self) -> int:
        """Write out every dirty block; returns how many."""
        dirty = self.cache.dirty_blocks()
        for block in dirty:
            self.write_back(block, flush=True)
            self.cache.mark_clean(block)
        return len(dirty)

    def write_back(self, block: CacheBlock, flush: bool = False) -> None:
        """Write ``block`` out, charged to its owner; a write the retry
        budget cannot save is abandoned and counted in ``lost_writes``."""
        if not self._transfer(block, write=True, flush=flush):
            self.lost_writes += 1
        self.counts_for(block.owner_pid).disk_writes += 1

    def _transfer(self, block: CacheBlock, write: bool, flush: bool = False) -> bool:
        """One block transfer under the fault plan; False once the retry
        budget is spent.  A stall succeeds: there is no clock to delay."""
        tel, inj = self.telemetry, self.injector
        if tel is None and inj is None:
            return True
        disk, lba = block.disk, block.lba
        if tel is not None:
            extra = {"flush": flush} if write else {}
            span = tel.span(
                "disk.store" if write else "disk.load", layer="disk", disk=disk, lba=lba, **extra
            )
        attempt, ok = 1, True
        while inj is not None:
            fault = inj.disk_fault(disk, lba, write, attempt)
            if fault is None or fault.kind == "stall":
                break
            if attempt > inj.plan.max_disk_retries:
                ok = False
                break
            attempt += 1
            if flush:
                inj.note_flush_retry()
            else:
                inj.note_disk_retry()
        if tel is not None:
            timing = self._service_times.get(disk)
            if ok and timing is not None:
                model, head, hist = timing
                hist.observe(model.service_time(head, lba))
                timing[1] = lba + 1
            tel.end(span, ok=ok, attempts=attempt)
        return ok
