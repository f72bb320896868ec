"""Upcall-based managers — the road the paper chose not to take.

Section 3 weighs two user/kernel interaction designs: the directive
interface the paper builds (priorities + pool policies, "sufficient to
compose caching strategies … with low overhead") and a "totally general
mechanism" where the kernel *upcalls* into application code on every
replacement decision.  Section 4 notes their BUF/ACM split supports the
general design too: "user-level handlers could know which blocks are in
cache by keeping track of new_block and block_gone calls".  The related
work reports such upcall/RPC schemes cost up to 10 % of execution time.

This module implements that alternative so the trade-off can be measured:

* :class:`UpcallHandler` — the protocol application code implements: it is
  notified of loads, evictions and accesses, and is asked for replacement
  decisions with full freedom (any of its own resident blocks);
* :class:`UpcallManagerMixin` wiring inside :class:`UpcallACM` — an ACM
  variant that forwards the five BUF calls to registered handlers instead
  of maintaining kernel-side pools;
* handlers cost simulated CPU per upcall (configurable on the kernel),
  which is exactly the overhead the directive interface avoids.

The bundled :class:`MRUHandler` and :class:`PinningHandler` mirror the
strategies expressible with directives, so identical *decisions* can be
compared at different *interface cost*.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Set

from repro.core.acm import ACM, Manager, ResourceLimits, RevokedError
from repro.core.blocks import BlockId, CacheBlock
from repro.core.revocation import RevocationPolicy


class UpcallHandler(abc.ABC):
    """User-level replacement logic; runs "in the application".

    The handler sees every event about its process's blocks and owns the
    replacement decision outright.  It must return one of its process's
    *resident* blocks (the candidate is always a legal answer).
    """

    def new_block(self, block: CacheBlock) -> None:
        """A block of this process entered the cache."""

    def block_gone(self, block: CacheBlock) -> None:
        """A block of this process left the cache."""

    def block_accessed(self, block: CacheBlock) -> None:
        """A block of this process was referenced."""

    @abc.abstractmethod
    def replace_block(self, candidate: CacheBlock, missing_id: BlockId) -> CacheBlock:
        """Choose which of this process's blocks to give up."""


class LRUTrackingHandler(UpcallHandler):
    """Base class that maintains the resident set in reference order —
    "keeping track of new_block and block_gone calls", as the paper puts
    it.  ``self.order`` lists resident blocks, LRU first."""

    def __init__(self) -> None:
        self.order: List[CacheBlock] = []
        self._resident: Set[CacheBlock] = set()

    def new_block(self, block: CacheBlock) -> None:
        self._resident.add(block)
        self.order.append(block)

    def block_gone(self, block: CacheBlock) -> None:
        if block in self._resident:
            self._resident.remove(block)
            self.order.remove(block)

    def block_accessed(self, block: CacheBlock) -> None:
        if block in self._resident:
            self.order.remove(block)
            self.order.append(block)

    def _first_evictable(self, blocks) -> Optional[CacheBlock]:
        for block in blocks:
            if not block.in_flight:
                return block
        return None


class MRUHandler(LRUTrackingHandler):
    """Evict this process's most recently used block (cyclic scans)."""

    def replace_block(self, candidate: CacheBlock, missing_id: BlockId) -> CacheBlock:
        choice = self._first_evictable(reversed(self.order))
        return choice if choice is not None else candidate


class LRUHandler(LRUTrackingHandler):
    """Evict this process's least recently used block."""

    def replace_block(self, candidate: CacheBlock, missing_id: BlockId) -> CacheBlock:
        choice = self._first_evictable(self.order)
        return choice if choice is not None else candidate


class PinningHandler(LRUTrackingHandler):
    """LRU among everything except a pinned file (e.g. a hot index)."""

    def __init__(self, pinned_file_ids: Set[int]) -> None:
        super().__init__()
        self.pinned = set(pinned_file_ids)

    def replace_block(self, candidate: CacheBlock, missing_id: BlockId) -> CacheBlock:
        choice = self._first_evictable(
            b for b in self.order if b.file_id not in self.pinned
        )
        if choice is None:
            choice = self._first_evictable(self.order)
        return choice if choice is not None else candidate


class UpcallACM(ACM):
    """An ACM whose managers are user-level handlers.

    Processes with a registered handler get upcalls; processes using the
    directive interface coexist (the normal ACM paths still work).  The
    kernel can count upcalls to charge their CPU cost.
    """

    def __init__(
        self,
        limits: Optional[ResourceLimits] = None,
        revocation: Optional[RevocationPolicy] = None,
    ) -> None:
        super().__init__(limits=limits, revocation=revocation)
        self._handlers: Dict[int, UpcallHandler] = {}
        self.handler_failures = 0

    def register_handler(self, pid: int, handler: UpcallHandler) -> None:
        """Attach a user-level handler to ``pid`` (adopting its resident
        blocks, like directive registration does).

        A pid whose control was revoked stays revoked: registering a new
        handler is refused, exactly as directive re-registration is —
        otherwise a crashing manager could regain control by reconnecting.
        """
        m = self.managers.get(pid)
        if m is not None and m.revoked:
            raise RevokedError(f"pid {pid}: cache control was revoked")
        self._handlers[pid] = handler
        if self._cache is not None:
            for block in self._cache.blocks_owned_by(pid):
                handler.new_block(block)

    def _handler_failed(self, pid: int) -> None:
        """A handler raised into the kernel: strip it and revoke control.

        The process degrades to plain global LRU (the paper's fallback for
        misbehaving managers); the revoked marker persists so later
        registration attempts get :class:`RevokedError`.
        """
        if self.telemetry is not None:
            self.telemetry.annotate("fault.upcall_handler", pid=pid)
        self._handlers.pop(pid, None)
        self.handler_failures += 1
        m = self.managers.get(pid)
        if m is None:
            m = Manager(pid, self.limits)
            m.observer = self.observer
            self.managers[pid] = m
        if not m.revoked:
            m.revoke()
            self.revocations += 1
            if self.injector is not None:
                self.injector.note_manager_revoked()

    def handler(self, pid: int) -> Optional[UpcallHandler]:
        return self._handlers.get(pid)

    # -- BUF calls: forward to handlers as upcalls ---------------------------

    def new_block(self, block: CacheBlock, referenced: bool = True) -> None:
        handler = self._handlers.get(block.owner_pid)
        if handler is not None:
            self.upcalls += 1
            try:
                handler.new_block(block)
            except Exception:
                self._handler_failed(block.owner_pid)
            return
        super().new_block(block, referenced=referenced)

    def block_gone(self, block: CacheBlock) -> None:
        handler = self._handlers.get(block.owner_pid)
        if handler is not None:
            self.upcalls += 1
            try:
                handler.block_gone(block)
            except Exception:
                self._handler_failed(block.owner_pid)
            return
        super().block_gone(block)

    def block_accessed(self, block: CacheBlock, offset: int = 0, size: int = 0) -> None:
        handler = self._handlers.get(block.owner_pid)
        if handler is not None:
            self.upcalls += 1
            try:
                handler.block_accessed(block)
            except Exception:
                self._handler_failed(block.owner_pid)
            return
        super().block_accessed(block, offset, size)

    def replace_block(self, candidate: CacheBlock, missing_id: BlockId) -> CacheBlock:
        handler = self._handlers.get(candidate.owner_pid)
        if handler is not None:
            self.upcalls += 1
            try:
                chosen = handler.replace_block(candidate, missing_id)
            except Exception:
                # A handler that *raises* into the kernel loses control
                # outright; the candidate is replaced as global LRU would.
                self._handler_failed(candidate.owner_pid)
                return candidate
            if (
                chosen is None
                or not chosen.resident
                or chosen.in_flight
                or chosen.owner_pid != candidate.owner_pid
            ):
                # A broken handler cannot hurt the kernel: fall back.
                return candidate
            return chosen
        return super().replace_block(candidate, missing_id)

    def transfer_ownership(self, block: CacheBlock, new_pid: int) -> None:
        old_handler = self._handlers.get(block.owner_pid)
        if old_handler is not None:
            old_handler.block_gone(block)
            block.pool_prio = None
            block.owner_pid = new_pid
            new_handler = self._handlers.get(new_pid)
            if new_handler is not None:
                new_handler.new_block(block)
            else:
                m = self.manager(new_pid)
                if m is not None:
                    m.add_block(block)
            return
        new_handler = self._handlers.get(new_pid)
        if new_handler is not None:
            m = self.managers.get(block.owner_pid)
            if m is not None:
                m.remove_block(block)
            block.owner_pid = new_pid
            new_handler.new_block(block)
            return
        super().transfer_ownership(block, new_pid)
