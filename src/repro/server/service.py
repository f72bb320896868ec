"""The service layer: the only bridge between the wire and the kernel.

:class:`CacheService` owns one :class:`~repro.kernel.untimed.UntimedKernel`
— the filesystem, BUF/ACM and fault hook configured by the same
:class:`~repro.kernel.system.MachineConfig` the simulator uses — and applies
requests to it **one at a time, in arrival order**.  The daemon's single
kernel task is the only caller, so the cache sees a serial reference
stream exactly as the paper's uniprocessor kernel does; concurrency lives
entirely in the transport and queueing layers.

Trace replay (:func:`repro.trace.driver.replay`) runs on the same engine,
so the service's per-client block I/O is counted by the one rule the
engine holds: a demand read per miss that needs disk, a write-back per
dirty eviction charged to the evicted block's *owner*, and one write per
dirty block at the shutdown flush.  What stays here is specific to the
wire: path and block validation, read-past-EOF, open/create, sessions,
spans, bundles, migration and ``stats``.

Lint rule R006 enforces the layering: within ``repro/server`` only this
module may import ``repro.kernel``/``repro.core``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.allocation import policy_by_name
from repro.core.interface import FBehaviorError, FBehaviorOp, FBehaviorRevokedError
from repro.core.policies import PoolPolicy
from repro.disk.params import BLOCK_SIZE
from repro.faults import FaultPlan, InjectedIOError
from repro.fs.filesystem import FsError
from repro.kernel.system import MachineConfig
from repro.kernel.untimed import UntimedKernel
from repro.server.protocol import VERBS
from repro.server.stats import SessionCounters, session_collector
from repro.telemetry import Telemetry, attach_standard_collectors


class ServiceError(Exception):
    """A request failed; ``code`` selects the wire error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


#: wire params of each directive verb, in fbehavior operand order
DIRECTIVE_PARAMS: Dict[str, Tuple[str, ...]] = {
    op.value: VERBS[op.value].params for op in FBehaviorOp
}


class CacheService:
    """The shared cache behind the daemon: one kernel, many sessions."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        trace_recorder: Optional[Any] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or MachineConfig()
        #: optional repro.trace.TraceRecorder capturing the global-order
        #: reference stream (accesses + directives) the service applied
        self.trace_recorder = trace_recorder
        # Telemetry: the registry always exists (scrape-time collectors copy
        # kernel totals and per-session counters in at export time — zero
        # hot-path cost).  Hot-path instrumentation on the
        # cache/ACM attaches only when asked for, via an explicit Telemetry
        # or MachineConfig(telemetry=True)/REPRO_TELEMETRY=1.
        if telemetry is not None:
            self.telemetry = telemetry
            self.telemetry_hot = True
        else:
            self.telemetry = Telemetry()
            self.telemetry_hot = self.config.telemetry_effective
        self.kernel = UntimedKernel(self.config, counts=SessionCounters)
        self.kernel.instrument(self.telemetry, self.telemetry_hot)
        self.fs = self.kernel.fs
        self.acm = self.kernel.acm
        self.cache = self.kernel.cache
        #: fault injector shared with the daemon's transports (None = off)
        self.injector = self.kernel.injector
        attach_standard_collectors(
            self.telemetry, cache=self.cache, acm=self.acm, injector=self.injector
        )
        #: per-session counters, by pid: the engine's per-pid counts
        self.counters: Dict[int, SessionCounters] = self.kernel.counts
        registry = self.telemetry.registry
        registry.register_collector(session_collector(self.counters))
        self._next_pid = 1
        self.flushed_blocks = 0
        #: declared bundles: name -> member paths (replication directives)
        self.bundles: Dict[str, List[str]] = {}
        #: in-progress outbound migrations: token -> export state
        self._migrations: Dict[str, Dict[str, Any]] = {}
        self._next_migration = 1
        self._invalidated = registry.counter(
            "repro_replication_invalidations_total",
            "Cache blocks dropped by the invalidate verb (stale-replica repair).",
        ).unlabelled
        self._migration_blocks = registry.counter(
            "repro_migration_blocks_total",
            "Cache blocks moved by shard migration, by direction.",
            labels=("direction",),
        )
        self._migration_bytes = registry.counter(
            "repro_migration_bytes_total",
            "Bytes of cache payload moved by shard migration, by direction.",
            labels=("direction",),
        )
        self._bundle_blocks = registry.counter(
            "repro_bundle_blocks_total",
            "Blocks fetched or evicted by bundle directives, by action.",
            labels=("action",),
        )

    # -- session lifecycle -------------------------------------------------

    def register_session(self) -> int:
        """Allocate the kernel pid for a new connection."""
        pid = self._next_pid
        self._next_pid += 1
        self.counters_for(pid)
        return pid

    def release_session(self, pid: int) -> None:
        """A connection ended.  Like a real process exit, the blocks it
        owns stay resident (dirty data still reaches disk through eviction
        or the shutdown flush); counters persist for ``stats``."""

    def counters_for(self, pid: int) -> SessionCounters:
        return self.kernel.counts_for(pid)

    @property
    def lost_writes(self) -> int:
        """Writes abandoned after the retry budget (persistent bad sectors)."""
        return self.kernel.lost_writes

    # -- the file API ------------------------------------------------------

    def open(
        self,
        pid: int,
        path: str,
        size_blocks: Optional[int] = None,
        disk: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Open ``path``, creating it when ``size_blocks`` is given."""
        if not isinstance(path, str) or not path:
            raise ServiceError("BAD_REQUEST", f"open: bad path {path!r}")
        if not self.fs.exists(path):
            if size_blocks is None:
                raise ServiceError("FS", f"open: no such file {path!r}")
            try:
                self.fs.create(path, size_blocks=int(size_blocks), disk=disk)
            except (FsError, TypeError, ValueError) as exc:
                raise ServiceError("FS", f"open: cannot create {path!r}: {exc}") from exc
            if self.trace_recorder is not None:
                self.trace_recorder.record_directive(pid, "create", (path, int(size_blocks)))
        f = self.fs.lookup(path)
        self.counters_for(pid).inc("opens")
        return {"path": path, "nblocks": f.nblocks, "disk": f.disk}

    def read(self, pid: int, path: str, blockno: int) -> Dict[str, Any]:
        """One block read on behalf of session ``pid``."""
        f, blockno = self._resolve(path, blockno)
        if blockno >= f.nblocks:
            raise ServiceError("FS", f"read past EOF: {path} block {blockno} of {f.nblocks}")
        return self._access(pid, path, f, blockno, f.lba_of(blockno), write=False, whole=False)

    def write(self, pid: int, path: str, blockno: int, whole: bool = True) -> Dict[str, Any]:
        """One delayed block write; ``whole`` skips the read-modify-write."""
        f, blockno = self._resolve(path, blockno)
        try:
            lba = self.fs.ensure_block(f, blockno)
        except FsError as exc:
            raise ServiceError("FS", f"write: {exc}") from exc
        return self._access(pid, path, f, blockno, lba, write=True, whole=bool(whole))

    def read_batch(self, pid: int, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Apply one ``readv`` batch op by op, same serial order a client
        issuing singles would produce.  A failing op yields its per-op
        ``{"code", "error"}`` record without aborting the batch — the
        other ops are still applied."""
        return _per_op(ops, lambda op: self.read(pid, op["path"], op["blockno"]))

    def write_batch(self, pid: int, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Apply one ``writev`` batch; per-op errors, partial application."""
        return _per_op(
            ops, lambda op: self.write(pid, op["path"], op["blockno"], op.get("whole", True))
        )

    def _resolve(self, path: str, blockno: Any):
        if not isinstance(path, str):
            raise ServiceError("BAD_REQUEST", f"bad path {path!r}")
        try:
            f = self.fs.lookup(path)
        except FsError as exc:
            raise ServiceError("FS", str(exc)) from exc
        try:
            blockno = int(blockno)
        except (TypeError, ValueError) as exc:
            raise ServiceError("BAD_REQUEST", f"bad block number {blockno!r}") from exc
        if blockno < 0:
            raise ServiceError("BAD_REQUEST", f"negative block number {blockno}")
        return f, blockno

    def _access(
        self, pid: int, path: str, f, blockno: int, lba: int, write: bool, whole: bool
    ) -> Dict[str, Any]:
        if self.trace_recorder is not None:
            self.trace_recorder.record_access(pid, path, blockno, write, whole)
        tel = self.telemetry
        verb = "service.write" if write else "service.read"
        span = tel.span(verb, layer="service", pid=pid, path=path, blockno=blockno)
        try:
            hit = self.kernel.access(pid, f, blockno, lba, write, whole)
        except BaseException as exc:
            tel.end(span, ok=False)
            if isinstance(exc, InjectedIOError):  # the load was aborted and its frame freed
                attempts = self.injector.plan.max_disk_retries + 1
                raise ServiceError(
                    "IO_ERROR", f"read {exc.disk}:{exc.lba} failed after {attempts} attempts"
                ) from exc
            raise
        tel.end(span, ok=True, hit=hit)
        return {"hit": hit}

    # -- directives --------------------------------------------------------

    def directive(self, pid: int, verb: str, params: Dict[str, Any]) -> Any:
        """Apply one fbehavior directive; returns the get-call value.

        ``params`` passed :func:`~repro.server.protocol.validated_request`,
        which requires every operand the verb's table row names.
        """
        args = tuple(params[name] for name in DIRECTIVE_PARAMS[verb])
        if self.trace_recorder is not None:
            self.trace_recorder.record_directive(pid, verb, args)
        try:
            result = self.kernel.directive(pid, FBehaviorOp(verb), args)
        except FBehaviorRevokedError as exc:
            # The session lost cache control (revocation).  A defined,
            # distinguishable error — never a silent re-registration.
            raise ServiceError("REVOKED", str(exc)) from exc
        except FBehaviorError as exc:
            raise ServiceError("DIRECTIVE", str(exc)) from exc
        self.counters_for(pid).inc("directives")
        if isinstance(result, PoolPolicy):
            return result.value
        return result

    # -- shutdown ----------------------------------------------------------

    def flush_all(self) -> int:
        """Write out every dirty block (graceful-shutdown sync).

        Each flush is charged to the block's owner, the same attribution
        the simulated update daemon uses; a block on a persistently bad
        sector is abandoned (counted in ``lost_writes``) rather than wedge
        the shutdown.  Returns the number flushed.
        """
        flushed = self.kernel.flush()
        self.flushed_blocks += flushed
        return flushed

    # -- replication: invalidation, bundles, migration ---------------------

    def invalidate(self, pid: int, path: str, blockno: Optional[int] = None) -> Dict[str, Any]:
        """Drop stale replica block(s) with no write-back.

        The replication layer's repair verb: a newer copy of the data was
        acknowledged on another replica, so this shard's cached copy must
        not survive (and must never be written back over it).  Idempotent
        by design — invalidating an unknown file or a non-resident block
        drops nothing and still succeeds, because repair retries must
        converge, not error.
        """
        if not self.fs.exists(path):
            return {"dropped": 0}
        f = self.fs.lookup(path)
        if blockno is None:
            dropped = len(self.cache.invalidate_file(f.file_id))
        else:
            block = self.cache.peek(f.file_id, int(blockno))
            if block is not None:
                self.cache.discard(block)
            dropped = int(block is not None)
        if dropped:
            self._invalidated.inc(dropped)
        return {"dropped": dropped}

    def declare_bundle(
        self, pid: int, bundle: str, paths: List[str], action: str = "fetch"
    ) -> Dict[str, Any]:
        """Register a file bundle and fetch or evict it atomically.

        A bundle is a group of files the application accesses together
        (the grouped-object generalisation of the paper's per-file
        directives).  Registration is all-or-nothing: every member path
        must resolve before anything mutates, so no action ever applies
        to half a bundle.  ``fetch`` pre-loads every member block through
        the prefetch path (no access/hit/miss accounting — warming is not
        a reference); ``evict`` writes back dirty members and drops them;
        ``declare`` just registers.
        """
        if action not in ("declare", "fetch", "evict"):
            raise ServiceError("BAD_REQUEST", f"declare_bundle: unknown action {action!r}")
        files = []
        for path in paths:
            try:
                files.append(self.fs.lookup(path))
            except FsError as exc:
                raise ServiceError("FS", f"declare_bundle: {exc}") from exc
        self.bundles[bundle] = list(paths)
        moved = 0
        if action == "fetch":
            moved = self._bundle_fetch(pid, files)
        elif action == "evict":
            moved = self._bundle_evict(files)
        if moved:
            self._bundle_blocks.labels(action=action).inc(moved)
        return {"bundle": bundle, "files": len(files), "blocks": moved, "action": action}

    def _bundle_fetch(self, pid: int, files: List[Any]) -> int:
        """Warm every member block via prefetch; returns blocks loaded.

        Stops early if the bundle outgrows the cache (a prefetch that
        would evict another bundle member means the working set no longer
        fits — continuing would just thrash the bundle against itself).
        """
        member_ids = {f.file_id for f in files}
        loaded = 0
        for f in files:
            for blockno in range(f.nblocks):
                if loaded >= self.cache.nframes:
                    return loaded
                block, evicted = self.kernel.prefetch(pid, f, blockno, f.lba_of(blockno))
                loaded += block is not None
                if evicted is not None and evicted.file_id in member_ids:
                    return loaded
        return loaded

    def _bundle_evict(self, files: List[Any]) -> int:
        """Write back and drop every resident member block; returns count."""
        dropped = 0
        for f in files:
            for block in self.cache.blocks_of_file(f.file_id):
                if block.dirty:
                    self.kernel.write_back(block, flush=True)
                self.cache.discard(block)
                dropped += 1
        return dropped

    def migrate_begin(self, pid: int, paths: List[str]) -> Dict[str, Any]:
        """Open an outbound migration for ``paths``; returns its manifest.

        With an empty ``paths`` list this is a pure probe: it lists every
        file this shard holds (the supervisor computes which of them move
        from the ring) and opens nothing.  Otherwise the resident cache
        blocks of each named file are queued as export records — dirty
        state travels with the record, so the source never writes a
        migrated block back.
        """
        if not paths:
            return {"token": None, "files": _manifest(self.fs.files()), "blocks": 0}
        files = [self.fs.lookup(path) for path in paths if self.fs.exists(path)]
        queue: List[Dict[str, Any]] = []
        for f in files:
            for block in sorted(self.cache.blocks_of_file(f.file_id), key=lambda b: b.blockno):
                queue.append(
                    {
                        "path": f.path,
                        "blockno": block.blockno,
                        "dirty": block.dirty,
                        "size_blocks": f.nblocks,
                        "disk": f.disk,
                    }
                )
        token = f"mig-{self._next_migration}"
        self._next_migration += 1
        self._migrations[token] = {"paths": [f.path for f in files], "queue": queue}
        return {"token": token, "files": _manifest(files), "blocks": len(queue)}

    def migrate_pull(self, pid: int, token: str, limit: int = 256) -> Dict[str, Any]:
        """Hand out the next chunk of export records for ``token``."""
        state = self._migrations.get(token)
        if state is None:
            raise ServiceError("BAD_REQUEST", f"migrate_chunk: unknown token {token!r}")
        queue = state["queue"]
        chunk, state["queue"] = queue[:limit], queue[limit:]
        if chunk:
            self._migration_blocks.labels(direction="out").inc(len(chunk))
            self._migration_bytes.labels(direction="out").inc(len(chunk) * BLOCK_SIZE)
        return {"records": chunk, "done": not state["queue"]}

    def migrate_ingest(self, pid: int, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Install migrated blocks into this shard, warm.

        Files are created on demand from the record's metadata.  Blocks
        enter through the prefetch path — a migration is not a reference
        stream, so hit/miss accounting stays untouched and the
        post-failover hit ratio measures real reads only.  Dirty records
        re-dirty the installed block: the write obligation moved here
        with the data.
        """
        ingested = 0
        for record in records:
            path = record["path"]
            if not self.fs.exists(path):
                try:
                    self.fs.create(
                        path,
                        size_blocks=int(record.get("size_blocks", 0)),
                        disk=record.get("disk"),
                    )
                except FsError:
                    # Unknown disk name on this shard: place on the default.
                    self.fs.create(path, size_blocks=int(record.get("size_blocks", 0)))
            f = self.fs.lookup(path)
            blockno = int(record["blockno"])
            try:
                lba = self.fs.ensure_block(f, blockno)
            except FsError as exc:
                raise ServiceError("FS", f"migrate_chunk: {exc}") from exc
            block, _ = self.kernel.prefetch(pid, f, blockno, lba)
            if block is not None:
                if record.get("dirty"):
                    self.cache.mark_dirty(block)
                ingested += 1
            else:
                # Already resident here (e.g. this shard was a replica):
                # merge the dirty obligation, never lose it.
                resident = self.cache.peek(f.file_id, blockno)
                if resident is not None and record.get("dirty"):
                    self.cache.mark_dirty(resident)
        if ingested:
            self._migration_blocks.labels(direction="in").inc(ingested)
            self._migration_bytes.labels(direction="in").inc(ingested * BLOCK_SIZE)
        return {"ingested": ingested}

    def migrate_end(self, pid: int, token: str, drop: bool = True) -> Dict[str, Any]:
        """Close a migration; for a *move* drop the source's blocks.

        The drop happens with no write-back — dirty state travelled with
        the records, and the target now owns the write obligation — and
        only after the last chunk was pulled, so a migration aborted
        mid-stream loses nothing.  ``drop=False`` is the *copy* close:
        this shard stays in the paths' replica set and keeps its blocks.
        """
        state = self._migrations.pop(token, None)
        if state is None:
            raise ServiceError("BAD_REQUEST", f"migrate_end: unknown token {token!r}")
        if state["queue"]:
            raise ServiceError(
                "BAD_REQUEST",
                f"migrate_end: {len(state['queue'])} records not yet pulled for {token!r}",
            )
        dropped = 0
        if drop:
            for path in state["paths"]:
                if self.fs.exists(path):
                    f = self.fs.lookup(path)
                    dropped += len(self.cache.invalidate_file(f.file_id))
        return {"dropped": dropped}

    # -- stats -------------------------------------------------------------

    def cache_snapshot(self) -> Dict[str, Any]:
        """Kernel-side portion of the ``stats`` reply."""
        stats = self.cache.stats
        return {
            "policy": self.config.policy.name,
            "frames": self.cache.nframes,
            "resident": self.cache.resident,
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_ratio": stats.hit_ratio,
            "evictions": stats.evictions,
            "dirty_evictions": stats.dirty_evictions,
            "consultations": stats.consultations,
            "overrules": stats.overrules,
            "swaps": stats.swaps,
            "placeholders_created": self.cache.placeholders.created,
            "placeholders_used": self.cache.placeholders.consumed,
            "dirty_blocks": len(self.cache.dirty_blocks()),
            "flushed_blocks": self.flushed_blocks,
        }

    def session_snapshot(self, pid: int) -> Dict[str, Any]:
        """Kernel-side per-session fields (counters + frame allocation)."""
        entry = self.counters_for(pid).as_dict()
        entry["frames"] = self.cache.occupancy().get(pid, 0)
        m = self.acm.managers.get(pid)
        entry["revoked"] = bool(m is not None and m.revoked)
        return entry

    def faults_snapshot(self) -> Dict[str, Any]:
        """The ``faults`` section of the ``stats`` reply."""
        if self.injector is None:
            return {"enabled": False}
        out = self.injector.snapshot()
        out["lost_writes"] = self.lost_writes
        out["revocations"] = self.acm.revocations
        return out


def _manifest(files: List[Any]) -> List[Dict[str, Any]]:
    return [{"path": f.path, "size_blocks": f.nblocks, "disk": f.disk} for f in files]


def _per_op(ops: List[Dict[str, Any]], apply: Any) -> List[Dict[str, Any]]:
    results: List[Dict[str, Any]] = []
    for op in ops:
        try:
            results.append(apply(op))
        except ServiceError as exc:
            results.append({"code": exc.code, "error": str(exc)})
    return results


def build_config(
    cache_mb: float = 6.4,
    policy: str = "lru-sp",
    sanitize: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
    telemetry: Optional[bool] = None,
) -> MachineConfig:
    """A MachineConfig from CLI-friendly arguments (used by ``serve``)."""
    return MachineConfig(
        cache_mb=cache_mb,
        policy=policy_by_name(policy),
        sanitize=sanitize,
        faults=faults,
        telemetry=telemetry,
    )
