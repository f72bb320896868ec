"""The update daemon.

Ultrix (like every BSD derivative) ran a periodic *update* process that
flushed delayed writes: dirty buffers older than the sync interval are
written to disk in the background.  The daemon is what turns sort's
temporary-file writes into disk traffic in the paper's block-I/O counts —
evictions alone would under-count writes whenever written data lingers in a
large cache.

Flush writes are asynchronous: no process waits on them, but they occupy
the disk and the shared bus, so they delay demand reads — part of the disk
contention the paper's multi-programming experiments observe.

Under fault injection a flush write can fail (error or torn write).  The
daemon then *requeues* the block — it is marked dirty again, so the next
sync interval rewrites it — rather than dropping data that never reached
disk.  During end-of-run settling (daemon stopped) there is no next
interval, so failed writes are resubmitted directly; either way a dirty
block is only forgotten once some write of it has actually completed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.blocks import CacheBlock
from repro.core.buffercache import BufferCache
from repro.disk.drive import DiskDrive, DiskRequest
from repro.sim.engine import Engine


class UpdateDaemon:
    """Flushes aged dirty blocks every ``interval`` seconds."""

    def __init__(
        self,
        engine: Engine,
        cache: BufferCache,
        disks: Dict[str, DiskDrive],
        interval: float = 30.0,
        age_threshold: float = 0.0,
        on_flush: Optional[Callable[[CacheBlock], None]] = None,
        injector: Optional[Any] = None,
    ) -> None:
        """``age_threshold`` 0 reproduces the classic BSD/Ultrix update
        daemon, which called sync() every ``interval`` seconds and flushed
        *every* dirty buffer; a positive value flushes only buffers dirty
        for at least that long (the later "trickle sync" style)."""
        if interval <= 0:
            raise ValueError("sync interval must be positive")
        if age_threshold < 0:
            raise ValueError("age threshold cannot be negative")
        self.engine = engine
        self.cache = cache
        self.disks = disks
        self.interval = interval
        self.age_threshold = age_threshold
        self.on_flush = on_flush
        #: optional repro.faults.FaultInjector (recovery accounting)
        self.injector = injector
        #: optional repro.telemetry.Telemetry; each flush pass gets a span
        #: so its writeback disk requests trace back to the daemon tick
        self.telemetry = None
        self.flushes = 0
        #: writebacks abandoned after exhausting the retry budget
        self.lost_writes = 0
        self._running = False

    def start(self) -> None:
        """Begin periodic operation (idempotent)."""
        if self._running:
            return
        self._running = True
        self.engine.after(self.interval, self._tick)

    def stop(self) -> None:
        """Stop rescheduling after the current tick."""
        self._running = False

    def flush_aged(self) -> int:
        """Write out dirty blocks older than the age threshold."""
        cutoff = self.engine.now - self.age_threshold
        return self._flush(lambda b: b.dirty_since <= cutoff)

    def flush_all(self) -> int:
        """Write out every dirty block (end-of-run settling)."""
        return self._flush(lambda b: True)

    # -- internals ----------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self.flush_aged()
        if self._running:
            self.engine.after(self.interval, self._tick)

    def _flush(self, want: Callable[[CacheBlock], bool]) -> int:
        count = 0
        tel = self.telemetry
        span = None if tel is None else tel.span("syncer.flush", layer="fs")
        try:
            for block in self.cache.dirty_blocks():
                if not want(block):
                    continue
                drive = self.disks.get(block.disk)
                if drive is None:
                    # A file whose disk is not simulated (shouldn't happen in a
                    # wired-up system); just mark it clean.
                    self.cache.mark_clean(block)
                    continue
                # Mark clean at submit time: a re-dirtying write after this
                # point legitimately schedules another flush later.
                self.cache.mark_clean(block)
                drive.write(
                    block.lba,
                    1,
                    pid=block.owner_pid,
                    on_error=self._writeback_failed,
                    args=(block,),
                )
                if self.on_flush is not None:
                    self.on_flush(block)
                count += 1
                self.flushes += 1
        finally:
            if span is not None:
                tel.end(span, flushed=count)
        return count

    def _writeback_failed(self, drive: DiskDrive, req: DiskRequest, fault: object, block: CacheBlock) -> None:
        """Recover from a failed flush write — the data never reached disk.

        While the daemon runs and the block is still resident and clean, the
        cheapest recovery is to re-dirty it: the next sync interval rewrites
        it (and coalesces with any newer modification).  If the block was
        re-dirtied meanwhile a flush is already owed, so nothing to do.  If
        the block has been evicted or the daemon is settling (stopped),
        there is no later interval — resubmit the raw request directly,
        giving up only past the plan's retry budget.
        """
        budget = self.plan_retry_budget()
        resident = self.cache.peek(block.file_id, block.blockno) is block
        if self._running and resident:
            if block.dirty:
                return  # re-dirtied since submit; the owed flush covers us
            self.cache.mark_dirty(block)
            if self.injector is not None:
                self.injector.note_writeback_requeue()
            return
        if req.attempt <= budget:
            drive.retry(req)
            if self.injector is not None:
                self.injector.note_disk_retry()
            return
        self.lost_writes += 1

    def plan_retry_budget(self) -> int:
        """Max resubmissions for one write, from the plan (default 8)."""
        if self.injector is not None:
            return int(self.injector.plan.max_disk_retries)
        return 8
