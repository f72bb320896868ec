"""BUF — the buffer cache module.

BUF owns the cache frames, the block lookup table, the kernel's global LRU
list and the placeholder table, and it implements the replacement procedure
of the paper's Section 4:

    Instead of replacing the LRU block, the procedure first checks if the
    missing block has a placeholder, then takes the LRU block or the block
    pointed to by the placeholder (if there is one) as the candidate.  BUF
    calls ``replace_block`` if the candidate block's caching is
    application-controlled, and finally BUF swaps block positions and
    builds a placeholder.

Which of those steps run is governed by the
:class:`~repro.core.allocation.AllocationPolicy`, so the same code path
realises the original kernel (GLOBAL_LRU) and the ALLOC-LRU / LRU-S /
LRU-SP variants the paper compares.

BUF performs no I/O itself: an access returns an :class:`AccessOutcome`
describing what the caller (the simulated kernel, or the untimed one
under the cache service and trace replay) must do — write back an evicted dirty block and/or read the missed block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.acm import ACM
from repro.core.allocation import LRU_SP, AllocationPolicy
from repro.core.blocks import BlockId, CacheBlock
from repro.core.lrulist import LRUList
from repro.core.placeholders import PlaceholderTable


class CacheFullError(RuntimeError):
    """Every frame is pinned by an in-flight read; no victim exists."""


@dataclass
class CacheStats:
    """Cache-wide counters (per-process counts live in ``per_pid``)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    consultations: int = 0
    overrules: int = 0
    swaps: int = 0
    prefetches: int = 0

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


@dataclass
class PidCounters:
    """Hit/miss accounting for one process."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0


@dataclass
class AccessOutcome:
    """What one block access requires of the caller.

    Attributes:
        hit: the block was resident (possibly still in flight).
        block: the (now-)resident block for this access.
        read_needed: the caller must issue a demand read and then call
            :meth:`BufferCache.loaded`.
        must_wait: the block is in flight from an earlier miss; the caller
            should park the process on ``block.waiters``.
        evicted: the block evicted to make room, if any; if it was dirty
            (``writeback`` True) the caller must write it out first.
    """

    hit: bool
    block: CacheBlock
    read_needed: bool = False
    must_wait: bool = False
    evicted: Optional[CacheBlock] = None

    @property
    def writeback(self) -> bool:
        return self.evicted is not None and self.evicted.dirty


class BufferCache:
    """The cache: ``nframes`` 8 KB buffers under an allocation policy."""

    def __init__(
        self,
        nframes: int,
        acm: Optional[ACM] = None,
        policy: AllocationPolicy = LRU_SP,
        clock: Optional[Callable[[], float]] = None,
        placeholder_limit: int = 4096,
    ) -> None:
        if nframes < 1:
            raise ValueError("cache needs at least one frame")
        self.nframes = nframes
        self.policy = policy
        self.acm = acm if acm is not None else ACM()
        self.acm.attach(self)
        self.clock = clock or (lambda: 0.0)
        self.global_list = LRUList()
        self.placeholders = PlaceholderTable(per_manager_limit=placeholder_limit)
        self.stats = CacheStats()
        self.per_pid: Dict[int, PidCounters] = {}
        self._blocks: Dict[BlockId, CacheBlock] = {}
        self._by_file: Dict[int, Dict[int, CacheBlock]] = {}
        #: optional repro.check.invariants.InvariantChecker; when attached
        #: it observes the semantic events below and sweeps the structures
        #: after every public operation.
        self.sanitizer = None
        #: optional repro.telemetry.Telemetry; same contract as the
        #: sanitizer — None means every hook below costs one attribute
        #: test.  Cache-wide counters are exported by a scrape-time
        #: collector reading ``stats``/``per_pid``; only spans and the
        #: consultation-latency histogram touch the access path.
        self.telemetry = None

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def resident(self) -> int:
        """Number of frames in use."""
        return len(self._blocks)

    def peek(self, file_id: int, blockno: int) -> Optional[CacheBlock]:
        """Look up a block without touching recency state."""
        return self._blocks.get((file_id, blockno))

    def blocks_of_file(self, file_id: int) -> List[CacheBlock]:
        """Resident blocks of one file (stable snapshot)."""
        return list(self._by_file.get(file_id, {}).values())

    def blocks_owned_by(self, pid: int) -> List[CacheBlock]:
        """Resident blocks currently owned by ``pid``."""
        return [b for b in self._blocks.values() if b.owner_pid == pid]

    def dirty_blocks(self) -> List[CacheBlock]:
        """All dirty resident blocks (the update daemon's worklist)."""
        return [b for b in self._blocks.values() if b.dirty and not b.in_flight]

    def occupancy(self) -> Dict[int, int]:
        """Frames currently held per process — the *allocation* LRU-SP
        manages.  (The paper measures this indirectly through ReadN's miss
        counts; the simulator can just look.)"""
        counts: Dict[int, int] = {}
        for block in self._blocks.values():
            counts[block.owner_pid] = counts.get(block.owner_pid, 0) + 1
        return counts

    def counters_for(self, pid: int) -> PidCounters:
        counters = self.per_pid.get(pid)
        if counters is None:
            counters = self.per_pid[pid] = PidCounters()
        return counters

    # -- the access path ------------------------------------------------------

    def access(
        self,
        pid: int,
        file_id: int,
        blockno: int,
        lba: int,
        disk: str,
        write: bool = False,
        whole: bool = False,
    ) -> AccessOutcome:
        """One block reference by process ``pid``.

        ``lba``/``disk`` say where the block lives on stable storage (the
        kernel resolves these through the filesystem before calling in).
        ``write``/``whole`` follow :class:`repro.sim.ops.BlockWrite`.
        """
        self.stats.accesses += 1
        counters = self.counters_for(pid)
        counters.accesses += 1
        bid = (file_id, blockno)
        block = self._blocks.get(bid)
        tel = self.telemetry
        span = None
        if tel is not None and tel.tracer is not None:
            span = tel.tracer.begin(
                "buf.access",
                layer="kernel",
                pid=pid,
                block=f"{file_id}:{blockno}",
                write=write,
            )

        if block is not None:
            self.stats.hits += 1
            counters.hits += 1
            if block.owner_pid != pid:
                self.acm.on_foreign_access(block, pid)
            self.global_list.move_to_mru(block)
            if self.sanitizer is not None:
                self.sanitizer.on_hit(block)
            self.acm.block_accessed(block)
            if write:
                if not block.dirty:
                    block.dirty = True
                    block.dirty_since = self.clock()
            if self.sanitizer is not None:
                self.sanitizer.verify("access", block)
            if span is not None:
                tel.tracer.finish(span, hit=True)
            return AccessOutcome(hit=True, block=block, must_wait=block.in_flight)

        # Miss: claim a frame (possibly evicting), then decide whether the
        # data must come from disk.
        self.stats.misses += 1
        counters.misses += 1
        evicted = None
        if len(self._blocks) >= self.nframes:
            try:
                evicted = self._replace(bid)
            except Exception:
                if span is not None:
                    tel.tracer.finish(span, error=True)
                raise
        home = self.acm.home_pid_for(pid, file_id)
        block = CacheBlock(file_id, blockno, lba=lba, disk=disk, owner_pid=home)
        needs_read = not (write and whole)
        block.in_flight = needs_read
        if write:
            block.dirty = True
            block.dirty_since = self.clock()
        self._install(block)
        if self.sanitizer is not None:
            self.sanitizer.verify("access", block)
        if span is not None:
            tel.tracer.finish(span, hit=False, read_needed=needs_read)
        return AccessOutcome(
            hit=False,
            block=block,
            read_needed=needs_read,
            evicted=evicted,
        )

    def prefetch(
        self,
        pid: int,
        file_id: int,
        blockno: int,
        lba: int,
        disk: str,
    ) -> Tuple[Optional[CacheBlock], Optional[CacheBlock]]:
        """Claim a frame for a read-ahead block.

        Returns ``(block, evicted)``: the in-flight block to load (None if
        already resident — nothing to do) and the victim displaced for it
        (which the caller must write back first if dirty).  Prefetches do
        not count as accesses and do not touch recency state of other
        blocks; they go through the normal replacement procedure to claim
        their frame.
        """
        bid = (file_id, blockno)
        if bid in self._blocks:
            return None, None
        self.stats.prefetches += 1
        evicted = None
        if len(self._blocks) >= self.nframes:
            evicted = self._replace(bid)
        home = self.acm.home_pid_for(pid, file_id)
        block = CacheBlock(file_id, blockno, lba=lba, disk=disk, owner_pid=home)
        block.in_flight = True
        self._install(block, referenced=False)
        if self.sanitizer is not None:
            self.sanitizer.verify("prefetch", block)
        return block, evicted

    def loaded(self, block: CacheBlock) -> List:
        """A demand read completed: clear in-flight, return parked waiters."""
        block.in_flight = False
        waiters = block.waiters
        block.waiters = []
        if self.sanitizer is not None:
            self.sanitizer.verify("loaded", block)
        return waiters

    def mark_clean(self, block: CacheBlock) -> None:
        """The update daemon wrote the block out."""
        block.dirty = False
        if self.sanitizer is not None:
            self.sanitizer.verify("mark_clean", block)

    def mark_dirty(self, block: CacheBlock) -> None:
        """Re-dirty a resident block whose writeback failed.

        The data in the frame is still newer than the (unwritten) disk
        copy, so the block re-enters the update daemon's worklist as if
        freshly modified.
        """
        if not block.dirty:
            block.dirty = True
            block.dirty_since = self.clock()
        if self.sanitizer is not None:
            self.sanitizer.verify("mark_dirty", block)

    def abort_load(self, block: CacheBlock) -> List:
        """A demand read failed for good: release the in-flight frame.

        The frame is freed through the normal eviction path with no
        write-back — the data never arrived, so there is nothing to save.
        Returns the parked waiters so the caller can resume them with the
        error.
        """
        block.in_flight = False
        block.dirty = False  # a write-miss frame holds no loaded data yet
        waiters = block.waiters
        block.waiters = []
        self._evict(block)
        if self.sanitizer is not None:
            self.sanitizer.verify("abort_load")
        return waiters

    def discard(self, block: CacheBlock) -> None:
        """Drop one resident block with *no* write-back.

        The replication layer's invalidation path: the block's data is
        known stale (a newer copy was acknowledged elsewhere) or has
        already travelled in a migration record, so writing it back would
        resurrect old bytes.  Dirty state is cleared first — a discard is
        an intentional forfeit, not a dirty eviction.
        """
        block.in_flight = False
        block.dirty = False
        block.waiters = []
        self._evict(block)
        if self.sanitizer is not None:
            self.sanitizer.verify("discard")

    def invalidate_file(self, file_id: int) -> List[CacheBlock]:
        """Drop a deleted file's blocks with *no* write-back.

        Returns the dropped blocks so the caller can resume any waiters on
        in-flight frames.
        """
        dropped = self.blocks_of_file(file_id)
        for block in dropped:
            self._evict(block)
        if self.sanitizer is not None:
            self.sanitizer.verify("invalidate_file")
        return dropped

    # -- the replacement procedure (the heart of LRU-SP) ------------------------

    def _replace(self, missing_id: BlockId) -> CacheBlock:
        """Free one frame for ``missing_id``; returns the evicted block."""
        candidate = None
        if self.policy.placeholders:
            entry = self.placeholders.consume(missing_id)
            if entry is not None and not entry.kept.in_flight:
                candidate = entry.kept
                self.acm.placeholder_used(entry.manager_pid, missing_id, entry.kept)
        if candidate is None:
            candidate = self._lru_candidate()

        chosen = candidate
        if self.policy.consult:
            self.stats.consultations += 1
            tel = self.telemetry
            if tel is None:
                chosen = self.acm.replace_block(candidate, missing_id)
            else:
                # Time the consultation in *wall* seconds (it is real CPU
                # spent in manager logic) and scope a span so injected
                # manager faults annotate this decision.  Span calls are
                # gated here rather than via tel.span() so the metrics-only
                # mode pays no kwargs construction per consultation.
                tracer = tel.tracer
                cspan = (
                    tracer.begin("acm.consult", layer="acm", pid=candidate.owner_pid)
                    if tracer is not None
                    else None
                )
                wall = tel.wall
                t0 = wall()
                try:
                    chosen = self.acm.replace_block(candidate, missing_id)
                finally:
                    tel.upcall_latency.observe(wall() - t0)
                    if cspan is not None:
                        tracer.finish(cspan, overruled=chosen is not candidate)
            if chosen.in_flight or not chosen.resident:
                # Defensive: a manager must hand back a replaceable block.
                chosen = candidate

        if chosen is not candidate:
            self.stats.overrules += 1
            if self.policy.swapping:
                if self.sanitizer is not None:
                    # The shadow model records the *intended* exchange; a
                    # swap the real list skips shows up in the next sweep.
                    self.sanitizer.on_swap(candidate, chosen)
                self.global_list.swap(candidate, chosen)
                self.stats.swaps += 1
            if self.policy.placeholders:
                self.placeholders.add(chosen.id, candidate, manager_pid=chosen.owner_pid)

        self._evict(chosen)
        return chosen

    def _lru_candidate(self) -> CacheBlock:
        """The global-LRU-end block, skipping frames pinned by reads."""
        node = self.global_list.lru
        while node is not None and node.in_flight:
            node = self.global_list.next_toward_mru(node)
        if node is None:
            raise CacheFullError("all frames are in flight; cannot replace")
        return node

    # -- internals ----------------------------------------------------------

    def _install(self, block: CacheBlock, referenced: bool = True) -> None:
        self._blocks[block.id] = block
        self._by_file.setdefault(block.file_id, {})[block.blockno] = block
        self.global_list.push_mru(block)
        if self.sanitizer is not None:
            self.sanitizer.on_install(block)
        self.acm.new_block(block, referenced=referenced)
        # The block is back in the cache: any placeholder for it is moot.
        self.placeholders.drop_for_missing(block.id)

    def _evict(self, block: CacheBlock) -> None:
        self.stats.evictions += 1
        if block.dirty:
            self.stats.dirty_evictions += 1
        self.global_list.remove(block)
        if self.sanitizer is not None:
            self.sanitizer.on_evict(block)
        self.acm.block_gone(block)
        self.placeholders.drop_for_kept(block)
        del self._blocks[block.id]
        per_file = self._by_file.get(block.file_id)
        if per_file is not None:
            per_file.pop(block.blockno, None)
            if not per_file:
                del self._by_file[block.file_id]
        block.resident = False

    def check_invariants(self) -> None:
        """Internal-consistency assertions (used heavily by tests)."""
        assert len(self._blocks) <= self.nframes, "over-committed frames"
        assert len(self.global_list) == len(self._blocks), "global list out of sync"
        per_file_total = sum(len(d) for d in self._by_file.values())
        assert per_file_total == len(self._blocks), "file index out of sync"
        for block in self._blocks.values():
            assert block.resident
            assert block in self.global_list
            if block.pool_prio is not None:
                m = self.acm.managers.get(block.owner_pid)
                assert m is not None, "pooled block with no manager"
                pool = m.pools.get(block.pool_prio)
                assert pool is not None and block in pool.blocks, "pool membership broken"
