"""Reference traces: record, store, replay, analyse.

The companion paper [3] evaluated LRU-SP by trace-driven simulation; this
package provides the same methodology as a library:

* :mod:`repro.trace.events`   — the trace record types (accesses and
  fbehavior directives);
* :mod:`repro.trace.recorder` — capture the reference stream of any
  :class:`repro.kernel.System` run;
* :mod:`repro.trace.format`   — a line-oriented text format with reader
  and writer (diff-friendly, stable across versions);
* :mod:`repro.trace.driver`   — replay a trace on the untimed kernel
  (:class:`repro.kernel.untimed.UntimedKernel`) under any allocation
  policy, with no timing model, and compare against offline OPT/LRU/MRU
  bounds.

This is also the fastest way to experiment with new replacement policies:
record once, replay in milliseconds.
"""

from repro.trace.driver import ReplayResult, analyze_trace, replay
from repro.trace.events import AccessRecord, DirectiveRecord, TraceEvent
from repro.trace.format import read_trace, write_trace
from repro.trace.recorder import TraceRecorder

__all__ = [
    "TraceEvent",
    "AccessRecord",
    "DirectiveRecord",
    "TraceRecorder",
    "read_trace",
    "write_trace",
    "replay",
    "analyze_trace",
    "ReplayResult",
]
