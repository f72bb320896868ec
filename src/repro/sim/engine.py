"""Discrete-event engine: a virtual clock and an event heap.

The engine is deliberately minimal.  Everything in the simulated machine
(CPU scheduling, disk service, the update daemon) is expressed as callbacks
scheduled at absolute virtual times.  Service times are expected values, not
random draws, so a simulation is deterministic: the only randomness in the
whole system lives in seeded workload generators.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.  Returned by :meth:`Engine.at` / :meth:`Engine.after`.

    Cancellation is lazy: :meth:`cancel` marks the event dead and the engine
    skips it when it reaches the top of the heap.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} fn={getattr(self.fn, '__name__', self.fn)}{state}>"


class Engine:
    """Virtual clock plus event heap.

    Typical use::

        eng = Engine()
        eng.after(1.5, callback, arg)
        eng.run()           # drains every event
        print(eng.now)      # 1.5

    Heap entries are ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ``heapq`` orders them by ``(time, seq)`` entirely in C and never
    compares two :class:`Event` objects.
    """

    def __init__(self) -> None:
        #: current virtual time in seconds; a plain attribute because every
        #: layer reads it several times per block access — only the engine
        #: may assign it
        self.now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._events_fired = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Scheduling in the past is an error: the clock never runs backwards.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time!r}; clock is already at {self.now!r}")
        self._seq = seq = self._seq + 1
        ev = Event(time, fn, args)
        _heappush(self._heap, (time, seq, ev))
        return ev

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = Event(time, fn, args)
        _heappush(self._heap, (time, seq, ev))
        return ev

    def step(self) -> bool:
        """Fire the earliest pending event.  Returns False if none remain."""
        before = self._events_fired
        self.run(max_events=1)
        return self._events_fired != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the heap drains, the clock passes ``until``, or
        ``max_events`` events have fired.  Returns the final clock value.

        ``max_events`` exists as a runaway guard for tests; production runs
        normally drain the heap.
        """
        heap = self._heap
        if until is None and max_events is None:
            while heap:
                time, _, ev = _heappop(heap)
                if ev.cancelled:
                    continue
                self.now = time
                self._events_fired += 1
                ev.fn(*ev.args)
            return self.now
        fired = 0
        while heap:
            time, _, ev = heap[0]
            if ev.cancelled:
                # Discard dead heads first, so neither bound below is
                # judged against an event that will never fire.
                _heappop(heap)
                continue
            if until is not None and time > until:
                self.now = until
                break
            if max_events is not None and fired >= max_events:
                break
            _heappop(heap)
            self.now = time
            self._events_fired += 1
            fired += 1
            ev.fn(*ev.args)
        return self.now
