"""ACM — the Application Control Module.

The paper splits the kernel cache code into BUF (buffer management +
allocation) and ACM, which "implements the interface calls and acts as a
proxy for the user-level managers".  This module is that proxy: it keeps a
*manager* structure for every process that controls its own caching, a
header per priority level holding the LRU-ordered list of that level's
blocks, and the per-file long-term priorities.

BUF talks to the ACM through exactly the five procedure calls of the
paper's Section 4: ``new_block``, ``block_gone``, ``block_accessed``,
``replace_block`` and ``placeholder_used``.

Replacement semantics implemented here:

* the kernel "always replaces blocks with the lowest priority first"
  (within a single process);
* pool lists are kept in LRU order; an LRU pool replaces from the head, an
  MRU pool from the tail;
* blocks *moving* into a list (via ``set_priority`` / ``set_temppri``) enter
  at the end that makes them be replaced later (tail under LRU, head under
  MRU); blocks *entering the cache* or being *referenced* take the MRU end,
  which is what "kept in LRU order" requires;
* a temporary priority affects only currently-resident blocks and reverts
  on the block's next reference or replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.blocks import BlockId, CacheBlock
from repro.core.lrulist import LRUList
from repro.core.policies import DEFAULT_POLICY, PoolPolicy
from repro.core.revocation import RevocationPolicy


class AcmError(Exception):
    """An interface call failed (bad arguments or resource limits)."""


class RevokedError(AcmError):
    """The calling process's cache control was revoked.

    After revocation the kernel treats the process as oblivious (global
    LRU).  Further interface calls — gets as much as sets — are *errors*,
    never silent defaults or re-grants: a manager must learn it lost
    control rather than keep steering a cache that stopped listening.
    """


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on kernel memory consumed per manager.

    The paper: "The implementation imposes a limit on kernel resources
    consumed by these data structures and fails the calls if the limit
    would be exceeded."
    """

    max_priority_levels: int = 32
    max_priority_files: int = 1024
    max_placeholders: int = 4096

    def __post_init__(self) -> None:
        if self.max_priority_levels < 1 or self.max_priority_files < 1 or self.max_placeholders < 1:
            raise ValueError("resource limits must be positive")


class Pool:
    """One priority level of one manager: an LRU-ordered block list."""

    __slots__ = ("prio", "blocks")

    def __init__(self, prio: int) -> None:
        self.prio = prio
        self.blocks = LRUList()

    def __len__(self) -> int:
        return len(self.blocks)

    def insert_referenced(self, block: CacheBlock) -> None:
        """A block entering by reference (cache load): MRU end."""
        self.blocks.push_mru(block)

    def insert_moved(self, block: CacheBlock, policy: PoolPolicy) -> None:
        """A block moved between pools: the replaced-later end."""
        if policy is PoolPolicy.LRU:
            self.blocks.push_mru(block)
        else:
            self.blocks.push_lru(block)

    def touched(self, block: CacheBlock) -> None:
        """A reference: keep LRU order."""
        self.blocks.move_to_mru(block)

    def remove(self, block: CacheBlock) -> None:
        self.blocks.remove(block)

    def replacement_choice(self, policy: PoolPolicy) -> Optional[CacheBlock]:
        """The block this pool would give up (skipping in-flight frames)."""
        if policy is PoolPolicy.LRU:
            node = self.blocks.lru
            step = self.blocks.next_toward_mru
        else:
            node = self.blocks.mru
            step = self.blocks.prev_toward_lru
        while node is not None and node.in_flight:
            node = step(node)
        return node


class Manager:
    """The per-process manager structure."""

    def __init__(self, pid: int, limits: ResourceLimits) -> None:
        self.pid = pid
        self.limits = limits
        self.pools: Dict[int, Pool] = {}
        self.policies: Dict[int, PoolPolicy] = {}
        self.file_prios: Dict[int, int] = {}
        self.revoked = False
        # decisions = overrules issued; mistakes = placeholders that fired.
        self.decisions = 0
        self.mistakes = 0
        self._prio_order: List[int] = []
        #: pool observer (the runtime sanitizer); told about every placement.
        self.observer = None

    def _notify_positioned(self, block: CacheBlock) -> None:
        if self.observer is not None:
            self.observer.pool_positioned(self.pid, block)

    # -- configuration ------------------------------------------------------

    def policy_of(self, prio: int) -> PoolPolicy:
        return self.policies.get(prio, DEFAULT_POLICY)

    def set_policy(self, prio: int, policy: PoolPolicy) -> None:
        policy = PoolPolicy.parse(policy)
        if prio not in self.policies and len(self.policies) >= self.limits.max_priority_levels:
            raise AcmError(f"manager {self.pid}: too many priority levels")
        self.policies[prio] = policy

    def long_term_prio(self, file_id: int) -> int:
        return self.file_prios.get(file_id, 0)

    def set_file_prio(self, file_id: int, prio: int) -> None:
        if prio == 0:
            # Only non-zero priorities consume a file record.
            self.file_prios.pop(file_id, None)
            return
        if file_id not in self.file_prios and len(self.file_prios) >= self.limits.max_priority_files:
            raise AcmError(f"manager {self.pid}: too many priority files")
        self.file_prios[file_id] = prio

    def pool(self, prio: int) -> Pool:
        """The pool for ``prio``, created on demand."""
        existing = self.pools.get(prio)
        if existing is not None:
            return existing
        if len(self.pools) >= self.limits.max_priority_levels:
            raise AcmError(f"manager {self.pid}: too many priority levels")
        created = Pool(prio)
        self.pools[prio] = created
        self._prio_order = sorted(self.pools)
        return created

    # -- block membership -----------------------------------------------------

    def add_block(self, block: CacheBlock, referenced: bool = True) -> None:
        """Link a block entering the cache into its long-term pool.

        ``referenced`` is False for read-ahead blocks: nothing has touched
        them yet, and their predicted use is imminent, so they enter at the
        survive-longest end (the same placement rule the paper uses for
        blocks moved between pools) rather than the "just referenced" MRU
        position.  Without this, an MRU pool would evict the block the
        kernel just prefetched, before the application ever reads it.
        """
        prio = self.long_term_prio(block.file_id)
        pool = self.pool(prio)
        if referenced:
            pool.insert_referenced(block)
        else:
            pool.insert_moved(block, self.policy_of(prio))
        block.pool_prio = prio
        self._notify_positioned(block)

    def remove_block(self, block: CacheBlock) -> None:
        """Unlink a departing block and reset its pool state."""
        if block.pool_prio is not None:
            pool = self.pools.get(block.pool_prio)
            if pool is not None and block in pool.blocks:
                pool.remove(block)
        block.pool_prio = None
        block.has_temp = False
        block.temp_prio = None

    def move_block(self, block: CacheBlock, prio: int) -> None:
        """Move a resident block to another pool (priority change)."""
        if block.pool_prio == prio:
            return
        if block.pool_prio is not None:
            pool = self.pools.get(block.pool_prio)
            if pool is not None and block in pool.blocks:
                pool.remove(block)
        dest = self.pool(prio)
        dest.insert_moved(block, self.policy_of(prio))
        block.pool_prio = prio
        self._notify_positioned(block)

    def touch_block(self, block: CacheBlock) -> None:
        """A reference: revert any temporary priority, then record recency."""
        if block.has_temp:
            block.has_temp = False
            block.temp_prio = None
            long_prio = self.long_term_prio(block.file_id)
            if block.pool_prio is not None:
                pool = self.pools.get(block.pool_prio)
                if pool is not None and block in pool.blocks:
                    pool.remove(block)
            # The revert coincides with a reference, so the block re-enters
            # its long-term pool at the MRU end.
            self.pool(long_prio).insert_referenced(block)
            block.pool_prio = long_prio
            self._notify_positioned(block)
            return
        if block.pool_prio is not None:
            pool = self.pools.get(block.pool_prio)
            if pool is not None:
                pool.touched(block)
                self._notify_positioned(block)

    # -- the replacement decision ------------------------------------------------

    def pick_replacement(self) -> Optional[CacheBlock]:
        """This manager's choice: lowest non-empty priority pool, then that
        pool's policy end."""
        for prio in self._prio_order:
            pool = self.pools[prio]
            if len(pool) == 0:
                continue
            choice = pool.replacement_choice(self.policy_of(prio))
            if choice is not None:
                return choice
        return None

    def revoke(self) -> None:
        """Strip manager status: pools are dissolved and the kernel stops
        consulting this process (it becomes oblivious)."""
        self.revoked = True
        for pool in self.pools.values():
            for block in list(pool.blocks):
                pool.remove(block)
                block.pool_prio = None
                block.has_temp = False
                block.temp_prio = None
        self.pools.clear()
        self._prio_order = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Manager pid={self.pid} pools={sorted(self.pools)} revoked={self.revoked}>"


class ACM:
    """The kernel-side proxy for all user-level managers."""

    def __init__(
        self,
        limits: Optional[ResourceLimits] = None,
        revocation: Optional[RevocationPolicy] = None,
    ) -> None:
        self.limits = limits or ResourceLimits()
        self.revocation = revocation
        self.managers: Dict[int, Manager] = {}
        self._cache = None  # attached by BufferCache
        #: pool observer (the runtime sanitizer), propagated to managers.
        self.observer = None
        #: optional repro.faults.FaultInjector simulating manager
        #: misbehaviour at the consultation boundary.
        self.injector: Optional[Any] = None
        #: optional repro.telemetry.Telemetry; revocations and injected
        #: manager misbehaviour annotate the active trace span.
        self.telemetry: Optional[Any] = None
        self.revocations = 0
        #: kernel/user crossings made so far; only upcall-based subclasses
        #: (repro.core.upcall.UpcallACM) ever count any.
        self.upcalls = 0
        # Concurrently shared files (the paper's future-work item): a file
        # may have a *designated* manager; other processes' accesses then
        # do not bounce block ownership around.
        self._shared_files: Dict[int, int] = {}

    # -- wiring ----------------------------------------------------------

    def attach(self, cache) -> None:
        """Connect the BUF module (needed to adopt already-resident blocks
        when a process registers, and to find a file's resident blocks)."""
        self._cache = cache

    def attach_observer(self, observer) -> None:
        """Connect (or, with None, disconnect) a pool observer — an object
        with a ``pool_positioned(pid, block)`` method, called after every
        pool placement any manager performs.  Used by the runtime
        sanitizer (:mod:`repro.check.invariants`)."""
        self.observer = observer
        for manager in self.managers.values():
            manager.observer = observer

    # -- manager lifecycle ---------------------------------------------------

    def manager(self, pid: int) -> Optional[Manager]:
        """The *active* manager for ``pid`` (None if absent or revoked)."""
        m = self.managers.get(pid)
        if m is None or m.revoked:
            return None
        return m

    def register(self, pid: int) -> Manager:
        """Create (or return) the manager for ``pid``.

        Blocks the process already owns are adopted into its pools, so a
        late first directive still leaves the bookkeeping consistent.
        """
        existing = self.managers.get(pid)
        if existing is not None:
            if existing.revoked:
                raise RevokedError(f"pid {pid}: cache control was revoked")
            return existing
        m = Manager(pid, self.limits)
        m.observer = self.observer
        self.managers[pid] = m
        if self._cache is not None:
            for block in self._cache.blocks_owned_by(pid):
                m.add_block(block)
        return m

    # -- the five BUF -> ACM procedure calls --------------------------------

    def new_block(self, block: CacheBlock, referenced: bool = True) -> None:
        """BUF loaded ``block`` into a cache buffer."""
        m = self.manager(block.owner_pid)
        if m is None:
            block.pool_prio = None
            return
        m.add_block(block, referenced=referenced)

    def block_gone(self, block: CacheBlock) -> None:
        """BUF removed ``block`` from the cache."""
        m = self.managers.get(block.owner_pid)
        if m is not None:
            m.remove_block(block)
        else:
            block.pool_prio = None
            block.has_temp = False
            block.temp_prio = None

    def block_accessed(self, block: CacheBlock, offset: int = 0, size: int = 0) -> None:
        """BUF satisfied an access to ``block`` (hit path bookkeeping)."""
        m = self.manager(block.owner_pid)
        if m is not None:
            m.touch_block(block)

    def replace_block(self, candidate: CacheBlock, missing_id: BlockId) -> CacheBlock:
        """BUF asks: which block should go instead of ``candidate``?

        Consults the candidate's owner's manager; an unmanaged (or revoked)
        owner simply loses the candidate.  Under fault injection a
        consultation can misbehave (bad reply, timeout, exception); the
        kernel then ignores the manager for this decision — the candidate
        goes — and, past the plan's tolerance, revokes it outright: the
        paper's fallback of degrading a faulty manager's process to plain
        global LRU.
        """
        m = self.manager(candidate.owner_pid)
        if m is None:
            return candidate
        if self.injector is not None:
            kind = self.injector.manager_fault(m.pid)
            if kind is not None:
                self._manager_misbehaved(m, kind)
                return candidate
        choice = m.pick_replacement()
        if choice is None:
            return candidate
        if choice is not candidate:
            m.decisions += 1
        return choice

    def _manager_misbehaved(self, m: Manager, kind: str) -> None:
        """Tally one injected misbehaviour; revoke past the tolerance."""
        if self.telemetry is not None:
            self.telemetry.annotate("fault.manager", pid=m.pid, kind=kind)
        if kind == "forced":
            self._revoke_for_faults(m)
            return
        total = self.injector.note_manager_fault(m.pid)
        if total >= self.injector.plan.manager_fault_limit:
            self._revoke_for_faults(m)

    def _revoke_for_faults(self, m: Manager) -> None:
        if m.revoked:
            return
        m.revoke()
        self.revocations += 1
        if self.telemetry is not None:
            self.telemetry.annotate("acm.revoked", pid=m.pid, reason="faults")
        if self.injector is not None:
            self.injector.note_manager_revoked()

    def placeholder_used(self, manager_pid: int, missing_id: BlockId, kept: CacheBlock) -> None:
        """BUF reports that a previous overrule by ``manager_pid`` was a
        mistake: the replaced block was missed while its placeholder lived."""
        m = self.managers.get(manager_pid)
        if m is None or m.revoked:
            return
        m.mistakes += 1
        if self.revocation is not None and self.revocation.should_revoke(m.decisions, m.mistakes):
            m.revoke()
            self.revocations += 1
            if self.telemetry is not None:
                self.telemetry.annotate(
                    "acm.revoked", pid=m.pid, reason="mistakes"
                )

    # -- concurrently shared files ---------------------------------------------

    def share_file(self, file_id: int, manager_pid: int) -> None:
        """Designate ``manager_pid`` as the controlling manager for a file
        accessed by several processes.

        Without a designation, block ownership follows the last accessor —
        correct for private files but thrash-prone for shared ones, because
        every cross-process access re-pools the block under a different
        manager.  With one, the designated manager keeps control: its
        priorities and policies govern the file's blocks no matter who
        touches them.  (The paper lists "user-level control over caching of
        concurrently shared files" as work in progress; this is the natural
        realisation within its manager structure.)
        """
        self.register(manager_pid)
        self._shared_files[file_id] = manager_pid
        if self._cache is not None:
            for block in self._cache.blocks_of_file(file_id):
                if block.owner_pid != manager_pid:
                    self.transfer_ownership(block, manager_pid)

    def unshare_file(self, file_id: int) -> None:
        """Remove a designation; ownership follows accessors again."""
        self._shared_files.pop(file_id, None)

    def shared_manager_of(self, file_id: int) -> Optional[int]:
        return self._shared_files.get(file_id)

    def on_foreign_access(self, block: CacheBlock, pid: int) -> None:
        """A process other than the owner touched ``block``.

        Shared files keep their designated manager; private files follow
        the last accessor (the default Ultrix-ish behaviour).
        """
        if block.file_id in self._shared_files:
            return
        self.transfer_ownership(block, pid)

    def home_pid_for(self, pid: int, file_id: int) -> int:
        """Which process a newly loaded block of ``file_id`` belongs to."""
        return self._shared_files.get(file_id, pid)

    # -- ownership migration -----------------------------------------------------

    def transfer_ownership(self, block: CacheBlock, new_pid: int) -> None:
        """Re-home a block whose last accessor changed process."""
        old = self.managers.get(block.owner_pid)
        if old is not None:
            old.remove_block(block)
        else:
            block.pool_prio = None
            block.has_temp = False
            block.temp_prio = None
        block.owner_pid = new_pid
        m = self.manager(new_pid)
        if m is not None:
            m.add_block(block)

    # -- interface-call backends (invoked via repro.core.interface) -------------

    def set_priority(self, pid: int, file_id: int, prio: int) -> None:
        """Set a file's long-term priority and migrate its resident blocks."""
        m = self.register(pid)
        m.set_file_prio(file_id, prio)
        if self._cache is None:
            return
        for block in self._cache.blocks_of_file(file_id):
            if block.owner_pid != pid or block.has_temp:
                # Temporary priorities stay in force until reference or
                # replacement; the new long-term level applies at revert.
                continue
            m.move_block(block, prio)

    def get_priority(self, pid: int, file_id: int) -> int:
        m = self.managers.get(pid)
        if m is None:
            return 0
        if m.revoked:
            raise RevokedError(f"pid {pid}: cache control was revoked")
        return m.long_term_prio(file_id)

    def set_policy(self, pid: int, prio: int, policy: PoolPolicy) -> None:
        m = self.register(pid)
        m.set_policy(prio, policy)

    def get_policy(self, pid: int, prio: int) -> PoolPolicy:
        m = self.managers.get(pid)
        if m is None:
            return DEFAULT_POLICY
        if m.revoked:
            raise RevokedError(f"pid {pid}: cache control was revoked")
        return m.policy_of(prio)

    def set_temppri(self, pid: int, file_id: int, start_block: int, end_block: int, prio: int) -> None:
        """Temporarily re-prioritise the resident blocks of a file range."""
        if end_block < start_block:
            raise AcmError(f"set_temppri: empty range [{start_block}, {end_block}]")
        m = self.register(pid)
        if self._cache is None:
            return
        for block in self._cache.blocks_of_file(file_id):
            if block.owner_pid != pid:
                continue
            if not (start_block <= block.blockno <= end_block):
                continue
            m.move_block(block, prio)
            block.has_temp = True
            block.temp_prio = prio
