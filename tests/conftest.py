"""Shared test fixtures and helpers."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.acm import ACM, ResourceLimits
from repro.core.allocation import GLOBAL_LRU, LRU_S, LRU_SP, ALLOC_LRU
from repro.core.buffercache import BufferCache


@pytest.fixture(scope="session", autouse=True)
def _sanitize_suite():
    """Under ``REPRO_SANITIZE=1`` every BufferCache any test builds gets an
    InvariantChecker attached, so the whole suite doubles as a protocol
    conformance run (see docs/invariants.md)."""
    if os.environ.get("REPRO_SANITIZE", "") in ("", "0"):
        yield
        return
    from repro.check.invariants import install_auto_sanitizer

    uninstall = install_auto_sanitizer()
    yield
    uninstall()


def make_cache(nframes=8, policy=LRU_SP, acm=None, **kwargs):
    """A small BufferCache for unit tests."""
    return BufferCache(nframes, acm=acm, policy=policy, **kwargs)


def touch(cache, pid, file_id, blockno, write=False, whole=False):
    """One access with throwaway disk placement (unit tests don't do I/O)."""
    lba = file_id * 100000 + blockno
    outcome = cache.access(pid, file_id, blockno, lba, "disk0", write=write, whole=whole)
    if outcome.read_needed:
        cache.loaded(outcome.block)
    return outcome


def rendezvous(clients, method):
    """Make ``method`` on each client wait until it has been entered on
    every one of them.  Calls that are not in flight together never
    return, so a caller that awaits them one after another hangs (run it
    under a timeout).  No sleeps: only the calls themselves open the gate."""
    entered = []
    everyone = asyncio.Event()
    for client in clients:
        inner = getattr(client, method)

        async def gated(*args, _inner=inner, **kwargs):
            entered.append(_inner)
            if len(entered) == len(clients):
                everyone.set()
            await everyone.wait()
            return await _inner(*args, **kwargs)

        setattr(client, method, gated)


@pytest.fixture
def cache():
    return make_cache()


@pytest.fixture
def acm():
    return ACM(limits=ResourceLimits())


# Re-exported so tests can `from conftest import ...` policies uniformly.
POLICIES = (GLOBAL_LRU, ALLOC_LRU, LRU_S, LRU_SP)
