"""repro.replication — R-way replicas, warm failover, shard rebalancing.

Every block op a :class:`~repro.cluster.client.ClusterClient` issues
goes through this module, whatever the replica count: R=1 is the
one-replica case of the same path (a path's replica set is then its
owning shard), not a separate code path.  The ring's ``replicas()``
lookup, the replication verbs and every multi-shard copy decision live
here.

Three cooperating pieces:

* :class:`ReplicationManager` — per-:class:`~repro.cluster.client.ClusterClient`
  write-through fan-out and read fallback.  A write goes to every
  replica of its path concurrently and acks once ``write_quorum``
  replicas confirmed; replicas that failed the fan-out are **fenced**
  for that ``(path, blockno)`` under a lease and queued for repair.  A
  read tries the path's replicas primary-first, skipping fenced copies,
  and falls over to the next replica on availability errors
  (connection loss, timeout, BUSY) — a DOWN shard's blocks are served
  warm by a surviving replica instead of stalling until restart.
  Semantic errors (``FS``, ``DIRECTIVE``…) re-raise immediately: a
  read past EOF is not a failover.

* **Leased invalidation** — a fence is the client's memory that a
  replica holds a stale copy.  Repair sends the ``invalidate`` verb to
  the fenced shard; only a confirmed invalidation lifts the fence.
  The lease deadline rate-limits repair attempts (one per lease period
  per entry), it never *lifts* the fence by itself — an expired lease
  with no confirmed repair keeps the replica fenced, because serving a
  possibly-stale block is strictly worse than a slow one.

* :func:`plan_and_migrate` — the online rebalancing protocol the
  supervisor drives.  Consistent hashing
  bounds movement to the joining/leaving shard's span; the block
  transfer itself is the ``migrate_begin`` → ``migrate_chunk`` (pull,
  then push) → ``migrate_end`` handshake over the ordinary wire path,
  chunked so one migration never monopolises a shard's kernel loop.

See ``docs/cluster.md`` for the failover timeline.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.ring import HashRing
from repro.server.client import CacheClient, ServerBusy, ServerError

#: errors worth a replica fallback: the shard is unreachable, slow or
#: overloaded.  Semantic ``ServerError`` replies are excluded — every
#: replica would answer a bad request the same way — except BUSY, which
#: is load, not meaning.  ``except`` clauses list ``ServerBusy`` *before*
#: ``ServerError`` so the subclass wins.
_AVAILABILITY_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError, ServerBusy)


async def _fan_out(aws: Sequence[Awaitable[Any]]) -> List[Any]:
    """Each awaitable's result or exception, in order, like
    ``asyncio.gather(*aws, return_exceptions=True)`` — but the first runs
    in the calling task.  The others are started before it, so they
    still overlap it; a one-replica fan-out costs no task."""
    if not aws:
        return []
    others = [asyncio.ensure_future(aw) for aw in aws[1:]]
    try:
        first = await aws[0]
    except asyncio.CancelledError:
        for task in others:
            task.cancel()
        raise
    except Exception as exc:
        first = exc
    return [first, *await asyncio.gather(*others, return_exceptions=True)]

#: one fence entry: the replica shard and the block it must not serve
FenceKey = Tuple[str, str, Optional[int]]

#: how long a fence waits between repair attempts (seconds)
DEFAULT_LEASE_S = 5.0

#: records per migrate_chunk frame (bounded like the batch carriers)
MIGRATE_CHUNK_RECORDS = 256


def default_replicas() -> int:
    """The replica count a new cluster client uses: ``REPRO_REPLICAS`` or 1."""
    raw = os.environ.get("REPRO_REPLICAS", "").strip()
    if raw.isdigit() and int(raw) >= 1:
        return int(raw)
    return 1


class ReplicationError(ConnectionError):
    """A replicated write could not reach its quorum."""


class ReplicationManager:
    """Replica routing for one cluster client.

    With ``replicas == 1`` every replica set holds just the path's owner:
    a write is acked by that shard or fails with its error, and a read
    has no replica to fall over to, so a DOWN shard's requests retry (in
    the per-shard client) until the health loop restores it.
    """

    def __init__(
        self,
        cluster: Any,
        replicas: Optional[int] = None,
        write_quorum: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cluster = cluster
        self.replicas = replicas if replicas is not None else default_replicas()
        if self.replicas < 1:
            raise ValueError("replica count must be >= 1")
        if not 1 <= write_quorum <= self.replicas:
            raise ValueError("write quorum must be within [1, replicas]")
        self.write_quorum = write_quorum
        self.lease_s = lease_s
        self.clock = clock
        #: fenced stale copies: (shard, path, blockno|None) -> next repair time
        self.fences: Dict[FenceKey, float] = {}
        registry = cluster.telemetry.registry
        self._writes = registry.counter(
            "repro_replication_writes_total",
            "Replica write attempts by the write-through fan-out.",
            labels=("shard",),
        )
        self._write_failures = registry.counter(
            "repro_replication_write_failures_total",
            "Replica writes that failed the fan-out (the copy was fenced).",
            labels=("shard",),
        )
        self._fallbacks = registry.counter(
            "repro_replication_read_fallbacks_total",
            "Reads served by a non-primary replica.",
            labels=("shard",),
        )
        self._repairs = registry.counter(
            "repro_replication_repairs_total",
            "Fence repair attempts (confirmed invalidations lift the fence).",
            labels=("outcome",),
        )
        self._fence_gauge = registry.gauge(
            "repro_replication_fences",
            "Fenced stale replica copies awaiting repair.",
        ).unlabelled
        self._lag = registry.histogram(
            "repro_replication_lag_seconds",
            "Spread between the first and last replica ack of one write.",
            buckets=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )

    # -- replica sets ------------------------------------------------------

    def replica_sids(self, path: str) -> List[str]:
        """The shards replicating ``path``, primary first."""
        return self.cluster.ring.replicas(path, self.replicas)

    # -- fencing -----------------------------------------------------------

    def _fence(self, sid: str, path: str, blockno: Optional[int]) -> None:
        key = (sid, path, blockno)
        if key not in self.fences:
            self.fences[key] = self.clock() + self.lease_s
            self._fence_gauge.set(len(self.fences))

    def _fenced(self, sid: str, path: str, blockno: Optional[int]) -> bool:
        return (sid, path, blockno) in self.fences or (sid, path, None) in self.fences

    def _rearm(self, key: FenceKey) -> None:
        """Push a still-standing fence's next repair attempt one lease out.

        Synchronous on purpose: the membership check and the deadline
        write must share one event-loop step, so a concurrent repair that
        just lifted the fence cannot be resurrected.
        """
        if key in self.fences:
            self.fences[key] = self.clock() + self.lease_s

    async def repair(self, force: bool = False) -> int:
        """Try to lift fences by invalidating the stale copies; lifted count.

        Runs opportunistically before replicated operations — entries are
        attempted once per lease period unless ``force`` — and may be
        called directly (tests, the health loop) to drain the queue.
        """
        now = self.clock()
        due = [
            key for key, deadline in self.fences.items() if force or now >= deadline
        ]
        lifted = 0
        for key in due:
            sid, path, blockno = key
            span = self._span("replication.repair", shard=sid, path=path)
            try:
                client = await self.cluster.client_for(sid)
                params: Dict[str, Any] = {"path": path}
                if blockno is not None:
                    params["blockno"] = blockno
                await client.call("invalidate", **params)
            except (ConnectionError, OSError, ServerError):
                # Still unreachable (or still broken): keep the fence and
                # wait out another lease period before the next attempt —
                # unless a concurrent repair already lifted it meanwhile.
                self._rearm(key)
                self._repairs.labels(outcome="failed").inc()
                self._end(span, ok=False)
                continue
            # a concurrent repair may have lifted the fence during the await
            if self.fences.pop(key, None) is not None:
                lifted += 1
                self._repairs.labels(outcome="ok").inc()
            self._end(span, ok=True)
        if lifted:
            self._fence_gauge.set(len(self.fences))
        return lifted

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, **attrs: Any) -> Any:
        tracer = self.cluster.telemetry.tracer
        if tracer is None:
            return None
        return tracer.start_span(name, layer="replication", **attrs)

    @staticmethod
    def _end(span: Any, **attrs: Any) -> None:
        if span is not None:
            span.end(**attrs)

    # -- ordering ----------------------------------------------------------

    def _read_order(self, sids: List[str], path: str, blockno: Optional[int]) -> List[str]:
        """Replicas ``sids`` of ``path`` in the order a read tries them:
        primary first, fenced copies and known-DOWN shards demoted to last
        resort (a fenced copy is stale and a DOWN shard would burn the
        whole retry budget first)."""
        ready: List[str] = []
        demoted: List[str] = []
        for sid in sids:
            if self._fenced(sid, path, blockno) or not self.cluster.shard_up(sid):
                demoted.append(sid)
            else:
                ready.append(sid)
        return ready + demoted

    # -- the replicated file API -------------------------------------------

    async def open(
        self, path: str, size_blocks: Optional[int] = None, disk: Optional[str] = None
    ) -> Dict[str, Any]:
        """Open/create ``path`` on every replica; first success wins.

        A replica that is DOWN at open time simply misses the create —
        the write path self-heals it later (a replica write that hits an
        unknown file re-creates it before retrying).
        """
        sids = self.replica_sids(path)
        span = self._span("replication.open", path=path, replicas=len(sids))

        async def one(sid: str) -> Dict[str, Any]:
            client = await self.cluster.client_for(sid)
            self.cluster.count_request(sid)
            return await client.open(path, size_blocks, disk)

        results = await _fan_out([one(sid) for sid in sids])
        self._end(span, ok=True)
        for result in results:
            if not isinstance(result, BaseException):
                return result
        raise results[0]  # every replica failed: surface the primary's error

    async def read(self, path: str, blockno: int) -> bool:
        """Read primary-first, falling over to surviving replicas."""
        await self.repair()
        sids = self.replica_sids(path)
        primary = sids[0]
        order = self._read_order(sids, path, blockno)
        last: Optional[BaseException] = None
        for sid in order:
            client = await self.cluster.client_for(sid)
            self.cluster.count_request(sid)
            span = self._span(
                "replication.read", path=path, blockno=blockno, shard=sid
            )
            try:
                hit = await client.read(path, blockno)
            except _AVAILABILITY_ERRORS as exc:
                self._end(span, ok=False)
                last = exc
                continue
            except ServerError:
                self._end(span, ok=False)
                raise  # semantic error: replicas would all agree
            self._end(span, ok=True, hit=hit)
            if sid != primary:
                self._fallbacks.labels(shard=sid).inc()
            return hit
        assert last is not None
        raise last

    async def write(self, path: str, blockno: int, whole: bool = True) -> bool:
        """Write-through fan-out: every replica, ack at ``write_quorum``."""
        await self.repair()
        sids = self.replica_sids(path)
        span = self._span(
            "replication.write", path=path, blockno=blockno, replicas=len(sids)
        )
        started = self.clock()
        finished: List[float] = []

        async def one(sid: str) -> bool:
            self._writes.labels(shard=sid).inc()
            self.cluster.count_request(sid)
            client = await self.cluster.client_for(sid)
            result = await client.write(path, blockno, whole)
            finished.append(self.clock() - started)
            return result

        async def heal(sid: str) -> bool:
            # The replica missed the open (it was DOWN then): re-create
            # the file empty and retry once — ensure_block grows it.
            client = await self.cluster.client_for(sid)
            await client.open(path, 0, None)
            result = await client.write(path, blockno, whole)
            finished.append(self.clock() - started)
            return result

        results = await _fan_out([one(sid) for sid in sids])
        acked = [
            (sid, bool(r))
            for sid, r in zip(sids, results)
            if not isinstance(r, BaseException)
        ]
        if acked:
            # Some replica applied the write, so a replica refusing with
            # FS "no such file" is simply behind on metadata: self-heal.
            for i, (sid, result) in enumerate(zip(sids, results)):
                if (
                    isinstance(result, ServerError)
                    and not isinstance(result, ServerBusy)
                    and result.code == "FS"
                ):
                    try:
                        results[i] = await heal(sid)
                        acked.append((sid, bool(results[i])))
                    except (ServerError,) + _AVAILABILITY_ERRORS:
                        pass
        if len(finished) >= 2:
            self._lag.observe(max(finished) - min(finished))
        if not acked:
            # A consistent refusal (every replica answered the same
            # semantic error) surfaces as the primary's own error, so the
            # replicated API matches the single-copy one.  Nothing is
            # fenced: the replicas agree.
            self._end(span, ok=False, acked=0)
            raise results[0]
        if len(acked) < self.write_quorum:
            self._end(span, ok=False, acked=len(acked))
            first_error = next(r for r in results if isinstance(r, BaseException))
            raise ReplicationError(
                f"write {path}:{blockno} acked by {len(acked)} of {len(sids)} "
                f"replicas (quorum {self.write_quorum}): {first_error}"
            )
        acked_sids = {sid for sid, _ in acked}
        for sid in sids:
            if sid not in acked_sids:
                self._write_failures.labels(shard=sid).inc()
                self._fence(sid, path, blockno)
        self._end(span, ok=True, acked=len(acked))
        # Report the primary's hit when it acked, else the first ack.
        for sid, hit in acked:
            if sid == sids[0]:
                return hit
        return acked[0][1]

    # -- replicated batches ------------------------------------------------

    async def readv(self, ops: List[Tuple[Any, ...]]) -> List[Dict[str, Any]]:
        """Batched reads split by replica set, falling over per sub-batch.

        Round k routes each still-unserved op to its k-th replica choice;
        a sub-batch that fails an availability error moves its ops whole
        to the next round.  Results re-merge in caller order, so batched
        reads keep working mid-failover.
        """
        await self.repair()
        merged: List[Optional[Dict[str, Any]]] = [None] * len(ops)
        pending = list(range(len(ops)))
        orders = {
            i: self._read_order(self.replica_sids(ops[i][0]), ops[i][0], ops[i][1])
            for i in pending
        }
        last: Optional[BaseException] = None
        for round_no in range(self.replicas):
            if not pending:
                break
            groups: Dict[str, List[int]] = {}
            for i in pending:
                order = orders[i]
                sid = order[round_no] if round_no < len(order) else order[-1]
                groups.setdefault(sid, []).append(i)
            span = self._span(
                "replication.readv", ops=len(pending), shards=len(groups), round=round_no
            )
            sids = list(groups)
            for sid in sids:
                self.cluster.count_request(sid)
            clients = [await self.cluster.client_for(sid) for sid in sids]
            replies = await _fan_out(
                [
                    client.readv([ops[i] for i in groups[sid]])
                    for sid, client in zip(sids, clients)
                ]
            )
            still: List[int] = []
            for sid, reply in zip(sids, replies):
                if isinstance(reply, BaseException):
                    if not isinstance(reply, _AVAILABILITY_ERRORS):
                        raise reply
                    last = reply
                    still.extend(groups[sid])
                    continue
                if round_no > 0:
                    self._fallbacks.labels(shard=sid).inc(len(groups[sid]))
                for i, result in zip(groups[sid], reply):
                    merged[i] = result
            self._end(span, ok=not still, remaining=len(still))
            pending = still
        if pending:
            assert last is not None
            raise last
        return [r for r in merged if r is not None]

    async def writev(self, ops: List[Tuple[Any, ...]]) -> List[Dict[str, Any]]:
        """Batched write-through: each op fans out to its replica set.

        Every replica shard receives one sub-batch holding all the ops it
        replicates; per-op quorum is judged from the merged outcomes, so
        a shard-wide failure degrades to per-op error records instead of
        aborting the batch.  When every sub-batch raised, nothing was
        written anywhere: the first op's primary's error is raised, as
        :meth:`write` does.  An op below quorum whose primary's sub-batch
        raised carries that error's code and message.
        """
        await self.repair()
        groups: Dict[str, List[int]] = {}
        replica_sets = [self.replica_sids(op[0]) for op in ops]
        for i, sids in enumerate(replica_sets):
            for sid in sids:
                groups.setdefault(sid, []).append(i)
        span = self._span("replication.writev", ops=len(ops), shards=len(groups))
        sids = list(groups)
        for sid in sids:
            self._writes.labels(shard=sid).inc(len(groups[sid]))
            self.cluster.count_request(sid)
        clients = [await self.cluster.client_for(sid) for sid in sids]
        replies = await _fan_out(
            [
                client.writev([ops[i] for i in groups[sid]])
                for sid, client in zip(sids, clients)
            ]
        )
        if replies and all(isinstance(reply, BaseException) for reply in replies):
            self._end(span, ok=False)
            raise replies[sids.index(replica_sets[0][0])]
        # outcome[i][sid] = per-op result dict, or the shard's exception
        outcomes: List[Dict[str, Any]] = [{} for _ in ops]
        for sid, reply in zip(sids, replies):
            if isinstance(reply, BaseException):
                self._write_failures.labels(shard=sid).inc(len(groups[sid]))
                for i in groups[sid]:
                    outcomes[i][sid] = reply
                continue
            for i, result in zip(groups[sid], reply):
                outcomes[i][sid] = result
        merged: List[Dict[str, Any]] = []
        for i, sids_of_op in enumerate(replica_sets):
            acked = []
            failed_sids = []
            for sid in sids_of_op:
                result = outcomes[i][sid]
                if isinstance(result, dict) and "code" not in result:
                    acked.append((sid, result))
                else:
                    failed_sids.append(sid)
            if len(acked) >= self.write_quorum:
                # Partial failure: the copies that missed the write are
                # stale now — fence them.  (A consistent refusal fences
                # nothing; the replicas agree.)
                for sid in failed_sids:
                    self._fence(sid, ops[i][0], ops[i][1])
                primary_hit = dict(acked).get(sids_of_op[0])
                merged.append(primary_hit if primary_hit is not None else acked[0][1])
            else:
                failed = outcomes[i][sids_of_op[0]]
                if isinstance(failed, BaseException):
                    # the primary's sub-batch raised: its error, per op
                    merged.append(
                        {
                            "code": getattr(failed, "code", "IO_ERROR"),
                            "error": getattr(failed, "message", str(failed)),
                        }
                    )
                elif "code" in failed:
                    merged.append(failed)  # the primary's own error record
                else:
                    merged.append(
                        {
                            "code": "IO_ERROR",
                            "error": (
                                f"write {ops[i][0]}:{ops[i][1]} acked by "
                                f"{len(acked)} of {len(sids_of_op)} replicas"
                            ),
                        }
                    )
        self._end(span, ok=True)
        return merged

    # -- invalidation & bundles --------------------------------------------

    async def invalidate(self, path: str, blockno: Optional[int] = None) -> int:
        """Explicitly drop ``path``'s cached block(s) on every replica."""
        sids = self.replica_sids(path)
        span = self._span("replication.invalidate", path=path, replicas=len(sids))

        async def one(sid: str) -> int:
            client = await self.cluster.client_for(sid)
            self.cluster.count_request(sid)
            params: Dict[str, Any] = {"path": path}
            if blockno is not None:
                params["blockno"] = blockno
            reply = await client.call("invalidate", **params)
            return int(reply.get("dropped", 0))

        counts = await asyncio.gather(*(one(sid) for sid in sids))
        self._end(span, ok=True)
        return sum(counts)

    async def declare_bundle(
        self, bundle: str, paths: Sequence[str], action: str = "fetch"
    ) -> Dict[str, Any]:
        """Declare (and fetch/evict) a bundle on every shard replicating it.

        Each replica shard receives the member paths it replicates, so a
        bundle spanning several owners is declared everywhere it lives;
        the per-shard service applies its members atomically.  Raises if
        any shard failed — bundle state must not silently diverge.
        """
        per_shard: Dict[str, List[str]] = {}
        for path in paths:
            for sid in self.replica_sids(path):
                per_shard.setdefault(sid, []).append(path)
        span = self._span(
            "replication.bundle", bundle=bundle, action=action, shards=len(per_shard)
        )

        async def one(sid: str, members: List[str]) -> Dict[str, Any]:
            client = await self.cluster.client_for(sid)
            self.cluster.count_request(sid)
            return await client.call(
                "declare_bundle", bundle=bundle, paths=members, action=action
            )

        replies = await asyncio.gather(
            *(one(sid, members) for sid, members in per_shard.items())
        )
        self._end(span, ok=True)
        return {
            "bundle": bundle,
            "action": action,
            "shards": len(per_shard),
            "blocks": sum(int(reply.get("blocks", 0)) for reply in replies),
        }


def replica_sets(ring: HashRing, paths: Sequence[str], replicas: int) -> Dict[str, List[str]]:
    """Each path's replica set (primary first) on ``ring``.

    The lookup other layers (CLI, tools) use instead of calling
    ``ring.replicas`` themselves.
    """
    return {path: ring.replicas(path, replicas) for path in paths}


# -- rebalancing (driven by the supervisor) --------------------------------


async def migrate_paths(
    source: CacheClient, target: CacheClient, paths: List[str], drop: bool = True
) -> Dict[str, int]:
    """Move (or with ``drop=False`` copy) ``paths``' blocks to ``target``.

    The wire handshake: ``migrate_begin`` snapshots the source's resident
    blocks as export records, ``migrate_chunk`` pulls them in bounded
    chunks and pushes each chunk into the target, ``migrate_end`` closes
    the token — and, for a *move*, drops the migrated blocks at the
    source with no write-back (dirty state, and the write obligation,
    travelled with the records).  A *copy* keeps the source's blocks: the
    source stays in the path's replica set after rebalancing.
    """
    if not paths:
        return {"files": 0, "blocks": 0}
    begin = await source.call("migrate_begin", paths=paths)
    token = begin["token"]
    moved = 0
    done = begin["blocks"] == 0
    while not done:
        chunk = await source.call(
            "migrate_chunk", token=token, max=MIGRATE_CHUNK_RECORDS
        )
        records = chunk["records"]
        done = chunk["done"]
        if records:
            await target.call("migrate_chunk", records=records)
            moved += len(records)
    await source.call("migrate_end", token=token, drop=drop)
    return {"files": len(begin["files"]), "blocks": moved}


async def _shard_manifest(client: CacheClient) -> List[Dict[str, Any]]:
    """The files a shard holds (``migrate_begin`` with no paths probes)."""
    reply = await client.call("migrate_begin", paths=[])
    return list(reply["files"])


async def drop_paths(client: CacheClient, paths: List[str]) -> int:
    """Invalidate ``paths`` wholesale on one shard (it left the replica
    set); returns blocks dropped."""
    dropped = 0
    for path in paths:
        reply = await client.call("invalidate", path=path)
        dropped += int(reply.get("dropped", 0))
    return dropped


async def plan_and_migrate(
    supervisor: Any,
    old_ring: HashRing,
    new_ring: HashRing,
    replicas: int,
    dial: Callable[[str], Awaitable[CacheClient]],
) -> Dict[str, Any]:
    """Execute the ring transition ``old_ring`` → ``new_ring``.

    For every file on every old shard, compare its old and new replica
    sets: shards that *gain* the file receive its blocks via the
    migration handshake as a **copy** from the old primary (so each path
    moves exactly once and the source keeps serving until the ring
    flips); shards that *lose* it drop their copy afterwards.  Consistent
    hashing guarantees the gain/loss sets are confined to the joining or
    leaving shard's span, which is what bounds migration volume to the
    ~1/N ideal share.  Every shard on the old ring must be up.
    """
    moved_blocks = 0
    moved_files = 0
    dropped_blocks = 0
    clients: Dict[str, CacheClient] = {}

    async def client_of(sid: str) -> CacheClient:
        if sid not in clients:
            clients[sid] = await dial(sid)
        return clients[sid]

    try:
        # path -> (old replica set, new replica set); manifests are probed
        # per old shard, and the old primary is the single migration source.
        transfers: Dict[str, Dict[str, List[str]]] = {}  # source -> target -> paths
        drops: Dict[str, List[str]] = {}  # shard -> paths it no longer replicates
        seen: set = set()
        for sid in old_ring.shards:
            manifest = await _shard_manifest(await client_of(sid))
            for entry in manifest:
                path = entry["path"]
                if path in seen:
                    continue
                seen.add(path)
                old_set = old_ring.replicas(path, replicas)
                new_set = new_ring.replicas(path, replicas)
                source = old_set[0]
                for target in new_set:
                    if target not in old_set:
                        transfers.setdefault(source, {}).setdefault(target, []).append(path)
                for loser in old_set:
                    if loser not in new_set:
                        drops.setdefault(loser, []).append(path)
        for source, targets in transfers.items():
            source_client = await client_of(source)
            for target, paths in targets.items():
                summary = await migrate_paths(
                    source_client, await client_of(target), paths, drop=False
                )
                moved_blocks += summary["blocks"]
                moved_files += summary["files"]
                supervisor.record_migration(source, target, summary["blocks"])
        for loser, paths in drops.items():
            dropped_blocks += await drop_paths(await client_of(loser), paths)
    finally:
        await asyncio.gather(
            *(client.aclose() for client in clients.values()), return_exceptions=True
        )
    return {
        "moved_files": moved_files,
        "moved_blocks": moved_blocks,
        "dropped_blocks": dropped_blocks,
    }
