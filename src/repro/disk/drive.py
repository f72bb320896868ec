"""The disk drive: queue, head position, two-phase service.

Service of one request is split into a positioning phase (seek + rotation,
spent on the drive alone) and a transfer phase.  When the drive is attached
to a shared SCSI bus (:class:`repro.sim.resources.FCFSResource`), the
transfer phase queues on the bus, so two drives can overlap seeks but their
data transfers serialize — the effect the paper's Table 3/Table 4 contrast
(one-disk anomaly disappearing on two disks) depends on.

A drive may carry a :class:`~repro.faults.injector.FaultInjector`; each
request then gets a fate decided at service start — ``stall`` lengthens the
positioning phase, ``error``/``torn`` complete the service *without* the
data arriving (or surviving), reported to the submitter through the
request's ``on_error`` hook instead of ``on_done``.  Both hooks are plain
callables plus the request's ``args`` tuple — no closure per request.  The
drive itself never retries: recovery policy (requeue a dirty block, resubmit
a demand read, give up) belongs to the layer that submitted the request.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.disk.model import ServiceTimeModel
from repro.disk.params import DiskParams
from repro.disk.scheduler import DiskScheduler, FCFSScheduler
from repro.sim.engine import Engine
from repro.sim.resources import FCFSResource


class DiskRequest:
    """One block-granularity transfer request."""

    __slots__ = (
        "lba",
        "nblocks",
        "write",
        "on_done",
        "args",
        "submit_time",
        "pid",
        "on_error",
        "attempt",
        "fault",
        "trace_ctx",
        "span",
        "service",
    )

    def __init__(
        self,
        lba: int,
        nblocks: int,
        write: bool,
        on_done: Optional[Callable[..., Any]],
        pid: int = -1,
        on_error: Optional[Callable[..., Any]] = None,
        attempt: int = 1,
        args: tuple = (),
    ) -> None:
        if lba < 0:
            raise ValueError(f"negative LBA {lba!r}")
        if nblocks < 1:
            raise ValueError(f"request must cover at least one block, got {nblocks!r}")
        if attempt < 1:
            raise ValueError(f"attempt numbers start at 1, got {attempt!r}")
        self.lba = lba
        self.nblocks = nblocks
        self.write = write
        #: called as ``on_done(*args)`` when the transfer completes
        self.on_done = on_done
        #: one tuple for both hooks: ``on_error`` must accept whatever
        #: ``on_done`` takes, after its own three leading arguments
        self.args = args
        self.submit_time = 0.0
        self.pid = pid
        #: called as ``on_error(drive, request, fault, *args)`` when an
        #: injected fault consumes this service attempt (None = the error
        #: is only counted)
        self.on_error = on_error
        #: 1 for the first submission; resubmissions bump it so rate-based
        #: faults stop firing past the plan's retry budget
        self.attempt = attempt
        #: the injected fate of the current attempt (set at service start)
        self.fault = None
        #: the span that was active when the request was submitted; disk
        #: service completes asynchronously, so the parent link is carried
        #: on the request instead of the tracer's context stack
        self.trace_ctx = None
        #: the request's own service span (set at service start)
        self.span = None
        #: simulated service time accumulated so far (positioning phase)
        self.service = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.write else "R"
        return f"<DiskRequest {kind} lba={self.lba} n={self.nblocks}>"


class DiskStats:
    """Aggregate counters for one drive."""

    __slots__ = ("reads", "writes", "blocks_read", "blocks_written", "busy_time", "wait_time", "faults")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.busy_time = 0.0
        self.wait_time = 0.0
        #: service attempts consumed by injected errors/torn writes
        self.faults = 0

    @property
    def requests(self) -> int:
        return self.reads + self.writes


class DiskDrive:
    """A drive with a request queue and a moving head."""

    def __init__(
        self,
        engine: Engine,
        params: DiskParams,
        bus: Optional[FCFSResource] = None,
        scheduler: Optional[DiskScheduler] = None,
        injector: Optional[Any] = None,
    ) -> None:
        self.engine = engine
        self.params = params
        self.name = params.name
        self.model = ServiceTimeModel(params)
        self.bus = bus
        self.scheduler = scheduler or FCFSScheduler()
        #: optional repro.faults.FaultInjector deciding request fates
        self.injector = injector
        #: optional repro.telemetry.Telemetry (spans + service histogram);
        #: ``service_hist`` is the pre-bound per-drive histogram child
        self.telemetry = None
        self.service_hist = None
        self.stats = DiskStats()
        self._queue: List[DiskRequest] = []
        self._busy = False
        self._head_lba = 0  # one past the last block transferred

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def submit(self, request: DiskRequest) -> None:
        """Queue a request; ``request.on_done`` fires at completion."""
        request.submit_time = self.engine.now
        tel = self.telemetry
        if tel is not None and tel.tracer is not None and request.trace_ctx is None:
            request.trace_ctx = tel.tracer.current
        self._queue.append(request)
        if not self._busy:
            self._start_next()

    def read(
        self,
        lba: int,
        nblocks: int,
        on_done: Callable[..., Any],
        pid: int = -1,
        on_error: Optional[Callable[..., Any]] = None,
        args: tuple = (),
    ) -> None:
        """Convenience wrapper for a read request."""
        self.submit(DiskRequest(lba, nblocks, False, on_done, pid, on_error, args=args))

    def write(
        self,
        lba: int,
        nblocks: int,
        on_done: Optional[Callable[..., Any]] = None,
        pid: int = -1,
        on_error: Optional[Callable[..., Any]] = None,
        args: tuple = (),
    ) -> None:
        """Convenience wrapper for a write request (``on_done`` optional:
        write-backs from the update daemon have no waiting process)."""
        self.submit(DiskRequest(lba, nblocks, True, on_done, pid, on_error, args=args))

    def retry(self, req: DiskRequest) -> None:
        """Resubmit a faulted request as its next attempt.

        The attempt number climbs so rate-based faults respect the plan's
        ``max_disk_retries`` budget; scheduled bad sectors keep failing.
        """
        again = DiskRequest(
            req.lba,
            req.nblocks,
            write=req.write,
            on_done=req.on_done,
            pid=req.pid,
            on_error=req.on_error,
            attempt=req.attempt + 1,
            args=req.args,
        )
        again.trace_ctx = req.trace_ctx
        self.submit(again)

    # -- internal service machinery -------------------------------------

    def _start_next(self) -> None:
        self._busy = True
        req = self.scheduler.pick(self._queue, self._head_lba)
        self.stats.wait_time += self.engine.now - req.submit_time
        positioning = self.model.positioning_time(self._head_lba, req.lba)
        tel = self.telemetry
        if tel is not None and tel.tracer is not None and req.trace_ctx is not None:
            req.span = tel.tracer.start_span(
                "disk.write" if req.write else "disk.read",
                parent=req.trace_ctx,
                layer="disk",
                disk=self.name,
                lba=req.lba,
                nblocks=req.nblocks,
                attempt=req.attempt,
                sched=self.scheduler.name,
            )
        if self.injector is not None:
            # Scope the request's span so the injector's fault decision
            # annotates *this* service attempt.
            if req.span is not None:
                tel.tracer.push(req.span)
                try:
                    req.fault = self.injector.disk_fault(
                        self.name, req.lba, req.write, req.attempt
                    )
                finally:
                    tel.tracer.pop(req.span)
            else:
                req.fault = self.injector.disk_fault(
                    self.name, req.lba, req.write, req.attempt
                )
        if req.fault is not None and req.fault.kind == "stall":
            # A stall is pure extra latency on the drive-private phase.
            positioning += req.fault.delay_s
        self.stats.busy_time += positioning
        req.service = positioning
        self.engine.after(positioning, self._begin_transfer, req)

    def _begin_transfer(self, req: DiskRequest) -> None:
        xfer = self.model.transfer_time(req.nblocks)
        if self.bus is not None:
            # The drive stays busy while waiting for and using the bus.
            self.bus.request(xfer, self._complete, req, xfer)
        else:
            self.engine.after(xfer, self._complete, req, xfer)

    def _complete(self, req: DiskRequest, xfer: float) -> None:
        stats = self.stats
        stats.busy_time += xfer
        self._head_lba = req.lba + req.nblocks
        fault = req.fault
        req.service += xfer
        if self.service_hist is not None:
            self.service_hist.observe(req.service)
        if req.span is not None:
            req.span.end(
                ok=not (fault is not None and fault.kind in ("error", "torn")),
                service=req.service,
            )
        if fault is not None and fault.kind in ("error", "torn"):
            # The attempt consumed drive time but the data did not make it;
            # recovery (retry, requeue, give up) is the submitter's call.
            stats.faults += 1
            if req.on_error is not None:
                req.on_error(self, req, fault, *req.args)
        else:
            if req.write:
                stats.writes += 1
                stats.blocks_written += req.nblocks
            else:
                stats.reads += 1
                stats.blocks_read += req.nblocks
            if req.on_done is not None:
                req.on_done(*req.args)
        if self._queue:
            self._start_next()
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskDrive {self.name} busy={self._busy} qlen={len(self._queue)}>"
