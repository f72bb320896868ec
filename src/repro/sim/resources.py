"""Single-server FCFS resources.

The simulated machine has two resources modelled this way:

* the **CPU** — the DEC 5000/240 was a uniprocessor.  Workload generators
  yield small per-block compute chunks, so FCFS at chunk granularity is a
  close approximation of the timeslicing a real scheduler would do.
* the **SCSI bus** — both disks in the paper's testbed hung off one bus, so
  data transfers serialize even when positioning overlaps.  The disk drive
  model acquires the bus for the transfer portion of each request.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import Engine


class FCFSResource:
    """A single server with a FIFO queue.

    A request is ``(service_time, fn, *args)``; ``fn(*args)`` fires when the
    request finishes service.  Utilisation statistics are tracked so
    experiments can report device busy time.
    """

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self._queue: Deque[Tuple[float, Callable[..., Any], tuple]] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.completed = 0

    @property
    def busy(self) -> bool:
        """Whether the server is currently in service."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Requests waiting (not including the one in service)."""
        return len(self._queue)

    def request(self, service_time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue a request for ``service_time`` seconds of service."""
        if service_time < 0:
            raise ValueError(f"negative service time {service_time!r}")
        if self._busy:
            self._queue.append((service_time, fn, args))
        else:
            self._start(service_time, fn, args)

    def _start(self, service_time: float, fn: Callable[..., Any], args: tuple) -> None:
        self._busy = True
        self.busy_time += service_time
        self.engine.after(service_time, self._finish, fn, args)

    def _finish(self, fn: Callable[..., Any], args: tuple) -> None:
        self.completed += 1
        fn(*args)
        # fn may have enqueued more work; serve it if so.
        if self._queue:
            self._start(*self._queue.popleft())
        else:
            self._busy = False

    def utilisation(self) -> float:
        """Fraction of virtual time the server has been busy so far."""
        if self.engine.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FCFSResource {self.name} busy={self._busy} qlen={len(self._queue)}>"


class _CpuJob:
    __slots__ = ("remaining", "fn", "args", "hi", "started_at", "event")

    def __init__(self, remaining: float, fn: Callable[..., Any], args: tuple, hi: bool) -> None:
        self.remaining = remaining
        self.fn = fn
        self.args = args
        self.hi = hi
        self.started_at = 0.0
        self.event = None


class PreemptiveCPU:
    """A uniprocessor with UNIX-style favouring of I/O-bound work.

    The 4.xBSD/Ultrix scheduler decays the priority of processes that
    accumulate CPU time, so a process that wakes from disk I/O needing a
    sliver of CPU preempts a compute-bound one almost immediately.  This
    resource models that with two classes: *short* requests (at or under
    ``hi_threshold`` — kernel hit/miss handling, interrupt work, and the
    thin per-block compute of I/O-bound loops) run ahead of, and preempt,
    *long* compute chunks.  A preempted chunk resumes where it left off, so
    the server stays work-conserving: total busy time is unchanged, only
    the interleaving differs.

    Without this, a cache-hitting reader next to a CPU-heavy simulator
    would wait half a compute chunk per block — and the paper's Table 4
    (Read300 beside dinero on separate disks, elapsed 20 s) would be
    unreproducible.
    """

    def __init__(self, engine: Engine, name: str, hi_threshold: float = 0.004) -> None:
        self.engine = engine
        self.name = name
        self.hi_threshold = hi_threshold
        self._hi: Deque[_CpuJob] = deque()
        self._lo: Deque[_CpuJob] = deque()
        self._current: Optional[_CpuJob] = None
        self.busy_time = 0.0
        self.completed = 0
        self.preemptions = 0

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def queue_length(self) -> int:
        return len(self._hi) + len(self._lo)

    def request(self, service_time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue ``service_time`` seconds of CPU work; ``fn(*args)`` fires
        when it has all been served."""
        if service_time < 0:
            raise ValueError(f"negative service time {service_time!r}")
        job = _CpuJob(service_time, fn, args, service_time <= self.hi_threshold)
        if job.hi:
            self._hi.append(job)
            if self._current is not None and not self._current.hi:
                self._preempt()
        else:
            self._lo.append(job)
        if self._current is None:
            self._dispatch()

    def _preempt(self) -> None:
        job = self._current
        served = self.engine.now - job.started_at
        self.busy_time += served
        job.remaining = max(0.0, job.remaining - served)
        if job.event is not None:
            job.event.cancel()
        # Back to the head of its queue: it resumes before later arrivals.
        self._lo.appendleft(job)
        self._current = None
        self.preemptions += 1

    def _dispatch(self) -> None:
        if self._hi:
            job = self._hi.popleft()
        elif self._lo:
            job = self._lo.popleft()
        else:
            return
        self._current = job
        job.started_at = self.engine.now
        job.event = self.engine.after(job.remaining, self._finish, job)

    def _finish(self, job: _CpuJob) -> None:
        self.busy_time += job.remaining
        self._current = None
        self.completed += 1
        job.fn(*job.args)
        if self._current is None:
            self._dispatch()

    def utilisation(self) -> float:
        """Fraction of virtual time the CPU has been busy so far."""
        if self.engine.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PreemptiveCPU {self.name} busy={self.busy} qlen={self.queue_length}>"
