"""The simulated machine and its kernel.

:class:`System` is the top of the stack: it owns the event engine, the CPU,
the disks and bus, the filesystem, the buffer cache (BUF + ACM) and the
update daemon, and it executes simulated processes — generators yielding
:mod:`repro.sim.ops` primitives — to completion.

The execution model mirrors the paper's testbed:

* one CPU (the DEC 5000/240 was a uniprocessor): compute chunks and
  per-access kernel costs queue FCFS;
* a cache **hit** costs a small kernel copy; a **miss** blocks the process
  for the disk round trip (plus a synchronous write-back first if the
  reclaimed buffer was dirty, as in the real buffer cache);
* **writes** are delayed: they dirty the buffer and return; the data reaches
  disk via eviction write-back or the 30-second update daemon;
* elapsed time of a run is the makespan over its processes; trailing
  flushes after the last exit are counted in block I/Os but not in time,
  matching how the paper's measurements would see a final sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.acm import ACM, ResourceLimits
from repro.core.allocation import LRU_SP, AllocationPolicy
from repro.core.buffercache import AccessOutcome, BufferCache, CacheStats
from repro.core.interface import fbehavior
from repro.core.revocation import RevocationPolicy
from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.params import BLOCK_SIZE, RZ26, RZ56, DiskParams
from repro.disk.scheduler import make_scheduler
from repro.faults import FaultInjector, FaultPlan, InjectedIOError
from repro.fs.filesystem import File, FsError, SimFilesystem
from repro.fs.syncer import UpdateDaemon
from repro.sim.engine import Engine
from repro.sim.ops import (
    BlockRead,
    BlockWrite,
    Compute,
    Control,
    CreateFile,
    DeleteFile,
    Fork,
)
from repro.sim.process import ProcessState, ProcessStats, SimProcess
from repro.sim.resources import FCFSResource, PreemptiveCPU


@dataclass(frozen=True)
class MachineConfig:
    """Everything configurable about the simulated machine.

    The defaults are the paper's testbed: a 6.4 MB cache (10 % of the
    machine's 64 MB, the Ultrix default), LRU-SP, an RZ56 and an RZ26 on one
    SCSI bus, FCFS disk scheduling, and a 30 s update daemon.
    """

    cache_mb: float = 6.4
    policy: AllocationPolicy = LRU_SP
    disks: Tuple[DiskParams, ...] = (RZ56, RZ26)
    shared_bus: bool = True
    disk_scheduler: str = "fcfs"
    readahead: bool = True
    hit_cpu_ms: float = 0.2
    miss_cpu_ms: float = 1.5
    syscall_cpu_ms: float = 0.05
    upcall_cpu_ms: float = 1.0
    sync_interval_s: float = 5.0
    sync_age_s: float = 25.0
    placeholder_limit: int = 4096
    #: sample per-process frame occupancy every N seconds (None = off)
    sample_occupancy_s: Optional[float] = None
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    revocation: Optional[RevocationPolicy] = None
    #: fault-injection schedule (repro.faults.FaultPlan); None = no faults
    faults: Optional[FaultPlan] = None
    #: run the BUF↔ACM invariant sanitizer (repro.check.invariants) on this
    #: machine's cache.  None follows the REPRO_SANITIZE environment flag;
    #: True/False override it either way.
    sanitize: Optional[bool] = None
    #: attach a repro.telemetry.Telemetry bundle to this machine's layers
    #: (metrics registry + scrape collectors; spans only when the caller
    #: passes a Telemetry with a Tracer to :class:`System`).  None follows
    #: the REPRO_TELEMETRY environment flag; True/False override it.
    telemetry: Optional[bool] = None

    @property
    def sanitize_effective(self) -> bool:
        """Whether this configuration enables the invariant checker."""
        if self.sanitize is not None:
            return self.sanitize
        from repro.check.invariants import sanitize_enabled

        return sanitize_enabled()

    @property
    def telemetry_effective(self) -> bool:
        """Whether this configuration enables the telemetry subsystem."""
        if self.telemetry is not None:
            return self.telemetry
        from repro.telemetry import telemetry_enabled

        return telemetry_enabled()

    @property
    def cache_frames(self) -> int:
        """Cache size in 8 KB frames (6.4 MB → 819, as in the paper)."""
        return max(1, int(self.cache_mb * 1024 * 1024) // BLOCK_SIZE)


@dataclass
class ProcResult:
    """Outcome of one process."""

    name: str
    pid: int
    elapsed: float
    finish_time: float
    stats: ProcessStats

    @property
    def block_ios(self) -> int:
        return self.stats.block_ios


@dataclass
class SystemResult:
    """Outcome of one full run."""

    makespan: float
    settle_time: float
    procs: Dict[str, ProcResult]
    cache: CacheStats
    policy: str
    cache_mb: float
    placeholders_created: int
    placeholders_used: int
    disk_stats: Dict[str, Dict[str, float]]
    revocations: int = 0
    occupancy_samples: List = field(default_factory=list)
    #: fault-injection accounting (None when the run had no fault plan)
    faults: Optional[Dict[str, object]] = None
    #: final metrics snapshot (None when the run had no telemetry)
    telemetry: Optional[Dict[str, object]] = None

    @property
    def total_block_ios(self) -> int:
        return sum(p.stats.block_ios for p in self.procs.values())

    @property
    def total_elapsed(self) -> float:
        return self.makespan

    def proc(self, name: str) -> ProcResult:
        return self.procs[name]


def _noop() -> None:
    """Completion for kernel work no process waits on."""


class System:
    """One simulated machine; create, populate, spawn, run."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        acm: Optional[ACM] = None,
        trace_recorder: Optional[Any] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.config = config or MachineConfig()
        # Per-access constants, read off the (frozen) config once.
        self._hit_ms = self.config.hit_cpu_ms
        self._miss_ms = self.config.miss_cpu_ms
        self._syscall_ms = self.config.syscall_cpu_ms
        self._upcall_ms = self.config.upcall_cpu_ms
        self._prefetch_cpu_s = self.config.miss_cpu_ms / 1e3
        self._readahead = self.config.readahead
        self.engine = Engine()
        self.cpu = PreemptiveCPU(self.engine, "cpu")
        self.bus = FCFSResource(self.engine, "scsi-bus") if self.config.shared_bus else None
        #: fault injector shared by every layer of this machine (None = off)
        self.injector: Optional[FaultInjector] = (
            FaultInjector(self.config.faults) if self.config.faults is not None else None
        )
        #: asynchronous writes abandoned after the retry budget ran out
        self.lost_writes = 0
        self.drives: Dict[str, DiskDrive] = {}
        for params in self.config.disks:
            scheduler = make_scheduler(self.config.disk_scheduler, params)
            self.drives[params.name] = DiskDrive(
                self.engine, params, bus=self.bus, scheduler=scheduler, injector=self.injector
            )
        self.fs = SimFilesystem({p.name: p.total_blocks for p in self.config.disks})
        # An alternative ACM (e.g. repro.core.upcall.UpcallACM) may be
        # injected; upcall-counting ACMs get their CPU cost charged below.
        self.acm = acm if acm is not None else ACM(
            limits=self.config.limits, revocation=self.config.revocation
        )
        if self.injector is not None:
            self.acm.injector = self.injector
        self.cache = BufferCache(
            self.config.cache_frames,
            acm=self.acm,
            policy=self.config.policy,
            clock=lambda: self.engine.now,
            placeholder_limit=self.config.placeholder_limit,
        )
        if self.cache.sanitizer is None and self.config.sanitize_effective:
            from repro.check.invariants import InvariantChecker

            InvariantChecker(self.cache)
        self.syncer = UpdateDaemon(
            self.engine,
            self.cache,
            self.drives,
            interval=self.config.sync_interval_s,
            age_threshold=self.config.sync_age_s,
            on_flush=self._on_daemon_flush,
            injector=self.injector,
        )
        #: optional repro.trace.TraceRecorder capturing the global-order
        #: reference stream (accesses + directives) of this run
        self.trace_recorder = trace_recorder
        #: optional repro.telemetry.Telemetry observing every layer; an
        #: explicit bundle wins (it may carry a Tracer), otherwise the
        #: config/environment flag builds a metrics-only one.
        self.telemetry: Optional[Any] = telemetry
        if self.telemetry is None and self.config.telemetry_effective:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry()
        if self.telemetry is not None:
            self._wire_telemetry()
        self.occupancy_samples: List[Tuple[float, Dict[int, int]]] = []
        self._procs: List[SimProcess] = []
        self._by_pid: Dict[int, SimProcess] = {}
        self._next_pid = 1
        self._active = 0
        self._makespan: Optional[float] = None
        self._ran = False

    def _wire_telemetry(self) -> None:
        """Attach the bundle to every layer and register the collectors."""
        from repro.telemetry import attach_standard_collectors

        tel = self.telemetry
        tracer = tel.tracer
        if tracer is not None and tracer.default_clock:
            # Spans of a simulated machine carry simulated timestamps.
            tracer.clock = lambda: self.engine.now
        self.cache.telemetry = tel
        self.acm.telemetry = tel
        self.syncer.telemetry = tel
        for drive in self.drives.values():
            drive.telemetry = tel
            drive.service_hist = tel.disk_service.labels(disk=drive.name)
        if self.injector is not None:
            self.injector.telemetry = tel
        attach_standard_collectors(
            tel,
            cache=self.cache,
            acm=self.acm,
            drives=self.drives,
            injector=self.injector,
        )

    # -- setup ----------------------------------------------------------

    def add_file(
        self,
        path: str,
        nblocks: Optional[int] = None,
        mb: Optional[float] = None,
        disk: Optional[str] = None,
    ) -> File:
        """Create a pre-existing input file (sized in blocks or MB)."""
        if nblocks is None:
            if mb is None:
                raise ValueError("give nblocks or mb")
            nblocks = max(1, int(mb * 1024 * 1024) // BLOCK_SIZE)
        return self.fs.create(path, size_blocks=nblocks, disk=disk)

    def spawn(self, name: str, program) -> SimProcess:
        """Register a process; it starts when :meth:`run` is called (or
        immediately, for forks during a run)."""
        pid = self._next_pid
        self._next_pid += 1
        proc = SimProcess(pid, name, program)
        self._procs.append(proc)
        self._by_pid[pid] = proc
        self._active += 1
        if self._ran:
            proc.start_time = self.engine.now
            proc.state = ProcessState.RUNNING
            self.engine.after(0.0, self._step, proc, None)
        return proc

    # -- the run ----------------------------------------------------------

    def run(self, settle: bool = True) -> SystemResult:
        """Execute every spawned process to completion.

        ``settle`` also flushes all remaining dirty blocks at the end (the
        trailing sync); those writes count as block I/Os but happen after
        the recorded makespan.
        """
        if self._ran:
            raise RuntimeError("System.run() may only be called once")
        self._ran = True
        self._settle = settle
        for proc in self._procs:
            proc.start_time = 0.0
            proc.state = ProcessState.RUNNING
            self.engine.after(0.0, self._step, proc, None)
        if self._procs:
            self.syncer.start()
            if self.config.sample_occupancy_s:
                self.engine.after(self.config.sample_occupancy_s, self._sample_occupancy)
        self.engine.run()
        stuck = [p.name for p in self._procs if not p.finished]
        if stuck:
            raise RuntimeError(f"simulation drained with unfinished processes: {stuck}")
        return self._result()

    # -- process stepping ---------------------------------------------------

    def _step(self, proc: SimProcess, send_value: Any = None) -> None:
        try:
            op = proc.next_op(send_value)
        except StopIteration:
            self._finish(proc)
            return
        handler = self._HANDLERS.get(type(op))
        if handler is None:
            raise TypeError(f"process {proc.name} yielded unknown op {op!r}")
        handler(self, proc, op)

    def _do_compute(self, proc: SimProcess, op: Compute) -> None:
        proc.stats.cpu_time += op.seconds
        self.cpu.request(op.seconds, self._step, proc)

    def _do_create(self, proc: SimProcess, op: CreateFile) -> None:
        self.fs.create(op.path, size_blocks=max(0, op.size_hint), disk=op.disk)
        self._kernel_cpu(proc, self._syscall_ms)

    def _do_fork(self, proc: SimProcess, op: Fork) -> None:
        self.spawn(op.name, op.program)
        self._kernel_cpu(proc, self._syscall_ms)

    def _kernel_cpu(self, proc: SimProcess, ms: float, send_value: Any = None) -> None:
        # Outstanding upcall time (kernel/user crossings waiting on a
        # user-level manager's answer) rides on the process's next slice.
        if proc.upcall_debt_ms:
            ms += proc.upcall_debt_ms
            proc.upcall_debt_ms = 0.0
        self.cpu.request(ms / 1e3, self._step, proc, send_value)

    def _sample_occupancy(self) -> None:
        self.occupancy_samples.append((self.engine.now, self.cache.occupancy()))
        if self._active > 0:
            self.engine.after(self.config.sample_occupancy_s, self._sample_occupancy)

    def _finish(self, proc: SimProcess) -> None:
        proc.state = ProcessState.FINISHED
        proc.finish_time = self.engine.now
        self._active -= 1
        if self._active == 0:
            self._makespan = self.engine.now
            self.syncer.stop()
            if self._settle:
                self.syncer.flush_all()

    # -- reads and writes ------------------------------------------------------

    def _do_read(self, proc: SimProcess, op: BlockRead) -> None:
        f = self.fs.lookup(op.path)
        blockno = op.blockno
        if blockno >= f.nblocks:
            raise FsError(f"{proc.name}: read past EOF: {op.path} block {blockno} of {f.nblocks}")
        lba = f.lba_of(blockno)
        if self.trace_recorder is not None:
            self.trace_recorder.record_access(proc.pid, op.path, blockno, False, False)
        tel = self.telemetry
        span = None
        if tel is not None and tel.tracer is not None:
            span = tel.tracer.begin(
                "kernel.read",
                layer="kernel",
                pid=proc.pid,
                path=op.path,
                blockno=blockno,
            )
        try:
            before = self.acm.upcalls
            outcome = self.cache.access(proc.pid, f.file_id, blockno, lba, f.disk, write=False)
            self._account_access(proc, outcome, before)
            self._maybe_readahead(proc, f, blockno)
            self._continue_access(proc, outcome, f.disk)
        finally:
            if span is not None:
                tel.tracer.finish(span)

    def _maybe_readahead(self, proc: SimProcess, f: File, blockno: int) -> None:
        """One-block sequential read-ahead, like the Ultrix buffer cache.

        When a process reads block ``b`` right after reading ``b-1`` of the
        same file, the kernel starts fetching ``b+1`` in the background.
        For sequential scans whose per-block compute exceeds the transfer
        time this hides nearly the whole disk latency — which is why the
        paper's dinero run is CPU-bound despite streaming 73 MB.
        """
        last = proc.last_read
        sequential = last.get(f.file_id) == blockno - 1
        last[f.file_id] = blockno
        if not (sequential and self._readahead):
            return
        nxt = blockno + 1
        if nxt >= f.nblocks:
            return
        block, evicted = self.cache.prefetch(proc.pid, f.file_id, nxt, f.lba_of(nxt), f.disk)
        if block is None:
            return
        proc.stats.disk_reads += 1
        self.drives[f.disk].read(
            block.lba,
            1,
            self._prefetch_done,
            pid=proc.pid,
            on_error=self._prefetch_failed,
            args=(block,),
        )
        if evicted is not None and evicted.dirty:
            self._charge_write(evicted.owner_pid)
            self._async_write(evicted)

    def _prefetch_done(self, block) -> None:
        # The driver/interrupt/buffer work of the I/O still costs CPU even
        # though no process waits for it; it competes with app compute.
        self.cpu.request(self._prefetch_cpu_s, _noop)
        for waiter in self.cache.loaded(block):
            self._resume_from_io(waiter, self._hit_ms)

    def _do_write(self, proc: SimProcess, op: BlockWrite) -> None:
        f = self.fs.lookup(op.path)
        lba = self.fs.ensure_block(f, op.blockno)
        if self.trace_recorder is not None:
            self.trace_recorder.record_access(proc.pid, op.path, op.blockno, True, op.whole)
        tel = self.telemetry
        span = None
        if tel is not None and tel.tracer is not None:
            span = tel.tracer.begin(
                "kernel.write",
                layer="kernel",
                pid=proc.pid,
                path=op.path,
                blockno=op.blockno,
            )
        try:
            before = self.acm.upcalls
            outcome = self.cache.access(
                proc.pid, f.file_id, op.blockno, lba, f.disk, write=True, whole=op.whole
            )
            self._account_access(proc, outcome, before)
            self._continue_access(proc, outcome, f.disk)
        finally:
            if span is not None:
                tel.tracer.finish(span)

    def _account_access(self, proc: SimProcess, outcome: AccessOutcome, upcalls_before: int) -> None:
        """Per-process hit/miss counts, and what the access cost in upcalls."""
        stats = proc.stats
        stats.accesses += 1
        if outcome.hit:
            stats.hits += 1
        else:
            stats.misses += 1
        # Upcall-based managers pay per kernel/user crossing — the cost the
        # paper's directive interface was designed to avoid.  The time lands
        # on the faulting process's critical path: the kernel cannot
        # complete the access until the user-level manager has answered.
        delta = self.acm.upcalls - upcalls_before
        if delta > 0 and self._upcall_ms > 0:
            cost_ms = delta * self._upcall_ms
            stats.cpu_time += cost_ms / 1e3
            proc.upcall_debt_ms += cost_ms

    def _continue_access(self, proc: SimProcess, outcome: AccessOutcome, disk: str) -> None:
        if outcome.must_wait:
            # Another process's demand read is in flight; park until loaded.
            proc.state = ProcessState.BLOCKED
            proc.wait_start = self.engine.now
            outcome.block.waiters.append(proc)
            return
        if outcome.hit:
            self._kernel_cpu(proc, self._hit_ms)
            return
        # Miss.  The demand read goes out first; a dirty victim is pushed
        # out *asynchronously* behind it (as getnewbuf does — a reader never
        # waits for someone else's delayed write to complete).
        proc.state = ProcessState.BLOCKED
        proc.wait_start = self.engine.now
        if outcome.read_needed:
            block = outcome.block
            proc.stats.disk_reads += 1
            self.drives[disk].read(
                block.lba,
                1,
                self._read_done,
                pid=proc.pid,
                on_error=self._demand_read_failed,
                args=(proc, block),
            )
        else:
            # Whole-block overwrite: the frame is usable immediately.
            self._resume_from_io(proc, self._hit_ms)
        if outcome.writeback:
            victim = outcome.evicted
            self._charge_write(victim.owner_pid)
            self._async_write(victim)

    def _read_done(self, proc: SimProcess, block) -> None:
        waiters = self.cache.loaded(block)
        self._resume_from_io(proc, self._miss_ms + self._hit_ms)
        for waiter in waiters:
            self._resume_from_io(waiter, self._hit_ms)

    # -- injected-fault recovery ---------------------------------------------

    def _retry_budget(self) -> int:
        return self.injector.plan.max_disk_retries if self.injector is not None else 8

    def _retry_io(self, drive: DiskDrive, req: DiskRequest) -> bool:
        """Resubmit a faulted request if the budget allows; True if retried."""
        if req.attempt > self._retry_budget():
            return False
        drive.retry(req)
        if self.injector is not None:
            self.injector.note_disk_retry()
        return True

    def _async_write(self, victim) -> None:
        """A writeback no process waits on (eviction push-out)."""
        self.drives[victim.disk].write(
            victim.lba, 1, pid=victim.owner_pid, on_error=self._async_write_failed
        )

    def _async_write_failed(self, drive: DiskDrive, req: DiskRequest, fault: Any) -> None:
        if not self._retry_io(drive, req):
            # Persistent bad sector: the block is already gone from the
            # cache, so after the budget its data is genuinely lost.
            self.lost_writes += 1

    def _demand_read_failed(self, drive: DiskDrive, req: DiskRequest, fault: Any, proc: SimProcess, block) -> None:
        if not self._retry_io(drive, req):
            # A process is blocked on this data and a scheduled fault makes
            # the sector permanently unreadable: fail the run in a defined
            # way rather than strand the process forever.
            raise InjectedIOError(drive.name, req.lba, write=False, kind=fault.kind)

    def _prefetch_failed(self, drive: DiskDrive, req: DiskRequest, fault: Any, block) -> None:
        if self._retry_io(drive, req):
            return
        # Nobody demanded this block; release the frame.  Any process that
        # piggy-backed on the prefetch resumes and will fault it in again
        # if it still cares.
        if self.injector is not None:
            self.injector.note_aborted_read()
        for waiter in self.cache.abort_load(block):
            self._resume_from_io(waiter, self._hit_ms)

    def _resume_from_io(self, proc: SimProcess, cpu_ms: float) -> None:
        if proc.wait_start is not None:
            proc.stats.io_wait_time += self.engine.now - proc.wait_start
            proc.wait_start = None
        proc.state = ProcessState.RUNNING
        self._kernel_cpu(proc, cpu_ms)

    def _charge_write(self, pid: int) -> None:
        owner = self._by_pid.get(pid)
        if owner is not None:
            owner.stats.disk_writes += 1

    def _on_daemon_flush(self, block) -> None:
        self._charge_write(block.owner_pid)

    # -- control ops ----------------------------------------------------------

    def _do_control(self, proc: SimProcess, op: Control) -> None:
        proc.stats.directives += 1
        if self.trace_recorder is not None:
            op_name = op.op.value if hasattr(op.op, "value") else str(op.op)
            self.trace_recorder.record_directive(proc.pid, op_name, op.args)
        result = fbehavior(self.acm, self.fs, proc.pid, op.op, tuple(op.args))
        proc.manager = self.acm.managers.get(proc.pid)
        self._kernel_cpu(proc, self._syscall_ms, send_value=result)

    def _do_delete(self, proc: SimProcess, op: DeleteFile) -> None:
        if self.trace_recorder is not None:
            self.trace_recorder.record_directive(proc.pid, "delete", (op.path,))
        f = self.fs.lookup(op.path)
        dropped = self.cache.invalidate_file(f.file_id)
        for block in dropped:
            # An in-flight read of a dying block still completes; wake any
            # waiters so no process is stranded.
            for waiter in block.waiters:
                self._resume_from_io(waiter, self._hit_ms)
            block.waiters = []
        self.fs.unlink(op.path)
        self._kernel_cpu(proc, self._syscall_ms)

    #: what :meth:`_step` does with each primitive a program can yield
    _HANDLERS = {
        Compute: _do_compute,
        BlockRead: _do_read,
        BlockWrite: _do_write,
        Control: _do_control,
        CreateFile: _do_create,
        DeleteFile: _do_delete,
        Fork: _do_fork,
    }

    # -- results ----------------------------------------------------------

    def _result(self) -> SystemResult:
        procs = {}
        for p in self._procs:
            procs[p.name] = ProcResult(
                name=p.name,
                pid=p.pid,
                elapsed=p.elapsed(self.engine.now),
                finish_time=p.finish_time if p.finish_time is not None else self.engine.now,
                stats=p.stats,
            )
        disk_stats = {
            name: {
                "reads": d.stats.reads,
                "writes": d.stats.writes,
                "busy_time": d.stats.busy_time,
                "wait_time": d.stats.wait_time,
                "faults": d.stats.faults,
            }
            for name, d in self.drives.items()
        }
        fault_snapshot = None
        if self.injector is not None:
            fault_snapshot = self.injector.snapshot()
            fault_snapshot["lost_writes"] = self.lost_writes + self.syncer.lost_writes
        telemetry_snapshot = (
            self.telemetry.snapshot() if self.telemetry is not None else None
        )
        return SystemResult(
            occupancy_samples=self.occupancy_samples,
            makespan=self._makespan if self._makespan is not None else self.engine.now,
            settle_time=self.engine.now,
            procs=procs,
            cache=self.cache.stats,
            policy=self.config.policy.name,
            cache_mb=self.config.cache_mb,
            placeholders_created=self.cache.placeholders.created,
            placeholders_used=self.cache.placeholders.consumed,
            disk_stats=disk_stats,
            revocations=self.acm.revocations,
            faults=fault_snapshot,
            telemetry=telemetry_snapshot,
        )
