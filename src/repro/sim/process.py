"""Simulated processes.

A :class:`SimProcess` wraps a generator of :mod:`repro.sim.ops` primitives
together with per-process accounting.  The kernel drives the generator: it
asks for the next operation, performs it (which may suspend the process on
the CPU queue or a disk), and resumes the generator when the operation
completes.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterator, Optional


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


class ProcessStats:
    """Per-process counters, the quantities the paper reports.

    ``block_ios`` is the paper's headline metric: the number of 8 KB disk
    transfers performed on behalf of the process (demand reads, write-backs
    of its dirty blocks at eviction, and update-daemon flushes of its dirty
    blocks).
    """

    __slots__ = (
        "accesses",
        "hits",
        "misses",
        "disk_reads",
        "disk_writes",
        "cpu_time",
        "io_wait_time",
        "directives",
        "overrules",
    )

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self.cpu_time = 0.0
        self.io_wait_time = 0.0
        self.directives = 0
        self.overrules = 0

    @property
    def block_ios(self) -> int:
        """Total 8 KB disk transfers (reads + writes)."""
        return self.disk_reads + self.disk_writes

    @property
    def hit_ratio(self) -> float:
        """Cache hit ratio over all block accesses."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def as_dict(self) -> dict:
        """Plain-dict snapshot (for reports and JSON dumps)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "block_ios": self.block_ios,
            "cpu_time": self.cpu_time,
            "io_wait_time": self.io_wait_time,
            "directives": self.directives,
            "overrules": self.overrules,
        }


class SimProcess:
    """A process: a pid, a name, a program generator, and statistics."""

    def __init__(self, pid: int, name: str, program: Iterator[Any]) -> None:
        self.pid = pid
        self.name = name
        self.program = program
        self.state = ProcessState.READY
        self.start_time: float = 0.0
        self.finish_time: Optional[float] = None
        self.stats = ProcessStats()
        # Set by the kernel when the process issues its first fbehavior call.
        self.manager: Optional[Any] = None
        # Kernel-private bookkeeping (repro.kernel.System): upcall CPU time
        # owed on the next slice, last block read per file id (read-ahead
        # detection), and when the current I/O wait began (None = not waiting).
        self.upcall_debt_ms = 0.0
        self.last_read: Dict[int, int] = {}
        self.wait_start: Optional[float] = None
        #: ``next_op(value)`` resumes the program — ``value`` becomes the
        #: result of its pending ``yield``, which is how ``get_priority``/
        #: ``get_policy`` directives answer the application — and returns the
        #: next op; StopIteration means the process exited.  Plain iterators
        #: (no directives needing answers) also work.
        send = getattr(program, "send", None)
        self.next_op = send if send is not None else (lambda _value: next(program))

    @property
    def finished(self) -> bool:
        return self.state == ProcessState.FINISHED

    def elapsed(self, now: float) -> float:
        """Wall-clock (virtual) time the process has been alive."""
        end = self.finish_time if self.finish_time is not None else now
        return end - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess pid={self.pid} {self.name} {self.state.value}>"
