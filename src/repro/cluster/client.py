"""The shard-aware client: route by path, fan out the service verbs.

A :class:`ClusterClient` holds one :class:`~repro.server.client.CacheClient`
per shard and the same :class:`~repro.cluster.ring.HashRing` the
supervisor built.  Block ops (``open``/``read``/``write`` and the
``readv``/``writev`` batches), ``invalidate`` and ``declare_bundle`` go
through the :class:`~repro.cluster.replication.ReplicationManager` to
the path's replica set, primary first — at R=1 that set is the path's
owning shard.
The path-keyed fbehavior directives go to the owning shard only; service
verbs (``stats``/``metrics``/``flush``/``ping``) fan out to every shard
concurrently and the replies are merged.  ``set_policy`` also fans out,
because the priority→policy table is global configuration that every
shard must agree on.  The protocol's verb table says which verb routes
which way, for the typed methods and the generic :meth:`ClusterClient.call`
alike.

Routing is **stable**: a shard being DOWN does not remap its span.  A
request to a dead shard retries (the per-shard ``CacheClient`` redials
through the supervisor's endpoint list) until the health loop restarts
the daemon — acknowledged writes are never served stale by a neighbour
that never saw them.  The ring's ``exclude`` lookup exists for an
explicitly-degraded availability mode; this client does not use it.  See
``docs/cluster.md``.

Block ops are traced in ``replication.*`` spans; every other routed call
is wrapped in a ``cluster.route`` span.  Both count in
``repro_cluster_requests_total{shard=...}``; fan-outs get a
``cluster.fanout`` span and ``repro_cluster_fanouts_total{verb=...}``.
Spans use ``start_span``/``end`` directly (no context-stack push): routed
calls to different shards overlap, and the tracer stack is only correct
for strictly nested work.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.aggregate import merge_prometheus, merge_snapshots, merge_stats, merge_traces
from repro.cluster.replication import ReplicationManager
from repro.cluster.ring import HashRing
from repro.server.client import DEFAULT_CLIENT_WINDOW, CacheClient, RetryPolicy
from repro.server.protocol import (
    ROUTE_FANOUT,
    ROUTE_PATH,
    ROUTE_REPLICA,
    VERBS,
    RequestValidationError,
    validated_request,
)
from repro.telemetry import Telemetry

#: verbs run through the replication manager to each path's replica set
REPLICA_VERBS = frozenset(name for name, verb in VERBS.items() if verb.route == ROUTE_REPLICA)

#: verbs routed to a single shard by their ``path`` parameter
PATH_VERBS = frozenset(name for name, verb in VERBS.items() if verb.route == ROUTE_PATH)

#: verbs fanned out to every shard
FANOUT_VERBS = frozenset(name for name, verb in VERBS.items() if verb.route == ROUTE_FANOUT)


async def _reply(key: str, value: Awaitable[Any]) -> Dict[str, Any]:
    return {key: await value}


#: a generic call of a replica-routed verb: the replication manager's
#: method for it, answering in the shard's reply shape
_REPLICATED_CALLS: Dict[str, Callable[[ReplicationManager, Dict[str, Any]], Awaitable[Any]]] = {
    "open": lambda r, f: r.open(f["path"], f.get("size_blocks"), f.get("disk")),
    "read": lambda r, f: _reply("hit", r.read(f["path"], f["blockno"])),
    "write": lambda r, f: _reply("hit", r.write(f["path"], f["blockno"], f.get("whole", True))),
    "readv": lambda r, f: _reply(
        "results", r.readv([(op["path"], op["blockno"]) for op in f["ops"]])
    ),
    "writev": lambda r, f: _reply(
        "results", r.writev([(op["path"], op["blockno"], op["whole"]) for op in f["ops"]])
    ),
    "invalidate": lambda r, f: _reply("dropped", r.invalidate(f["path"], f.get("blockno"))),
    "declare_bundle": lambda r, f: r.declare_bundle(
        f["bundle"], f["paths"], f.get("action", "fetch")
    ),
}


class ClusterClient:
    """One logical client over N shards."""

    def __init__(
        self,
        ring: HashRing,
        clients: Dict[str, CacheClient],
        telemetry: Optional[Telemetry] = None,
        replicas: Optional[int] = None,
        supervisor: Any = None,
    ) -> None:
        if set(ring.shards) != set(clients):
            raise ValueError("ring shards and client map disagree")
        self.ring = ring
        self.clients = clients
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        registry = self.telemetry.registry
        self._requests = registry.counter(
            "repro_cluster_requests_total",
            "Requests routed to each shard by the cluster client.",
            labels=("shard",),
        )
        self._fanouts = registry.counter(
            "repro_cluster_fanouts_total",
            "Fan-out operations (all-shard verbs) by verb.",
            labels=("verb",),
        )
        #: the supervisor this client was connected through (None for
        #: address-list clients) — used to dial shards the ring gains
        #: after an online rebalance and to skip known-DOWN shards.
        self._supervisor = supervisor
        self._dial_args: Tuple[Any, ...] = (None, DEFAULT_CLIENT_WINDOW, None, None)
        self._dial_lock = asyncio.Lock()
        #: every block op goes through the replication manager; R=1 is
        #: its one-replica case
        self.replication = ReplicationManager(self, replicas=replicas)

    # -- constructors ------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        supervisor: Any,
        name: Optional[str] = None,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[str] = None,
        replicas: Optional[int] = None,
    ) -> "ClusterClient":
        """Dial every shard of a :class:`ClusterSupervisor`.

        Shares the supervisor's cluster telemetry, so routing counters
        and failover counters land in one registry.  ``replicas`` sets
        the R-way replication degree; by default the client inherits the
        supervisor's degree, so routing and rebalancing agree on every
        path's replica set.
        """
        if replicas is None:
            replicas = getattr(supervisor, "replicas", None)
        clients: Dict[str, CacheClient] = {}
        try:
            for sid in supervisor.ring.shards:
                shard_name = f"{name}@{sid}" if name else None
                clients[sid] = await CacheClient.connect(
                    supervisor.endpoints(sid), shard_name, window, retry, wire
                )
        except BaseException:
            await asyncio.gather(
                *(c.aclose() for c in clients.values()), return_exceptions=True
            )
            raise
        self = cls(
            supervisor.ring,
            clients,
            telemetry=supervisor.telemetry,
            replicas=replicas,
            supervisor=supervisor,
        )
        self._dial_args = (name, window, retry, wire)
        return self

    @classmethod
    async def connect_tcp(
        cls,
        addresses: Sequence[Tuple[str, int]],
        vnodes: int = 64,
        name: Optional[str] = None,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        wire: Optional[str] = None,
        replicas: Optional[int] = None,
    ) -> "ClusterClient":
        """Dial a cluster by address list (shard i = ``addresses[i]``)."""
        ring = HashRing([f"shard-{i}" for i in range(len(addresses))], vnodes=vnodes)
        clients: Dict[str, CacheClient] = {}
        try:
            for sid, (host, port) in zip(ring.shards, addresses):
                shard_name = f"{name}@{sid}" if name else None
                clients[sid] = await CacheClient.connect(
                    [("tcp", host, port)], shard_name, window, retry, wire
                )
        except BaseException:
            await asyncio.gather(
                *(c.aclose() for c in clients.values()), return_exceptions=True
            )
            raise
        return cls(ring, clients, telemetry=telemetry, replicas=replicas)

    # -- routing -----------------------------------------------------------

    def shard_of(self, path: str) -> str:
        """The shard id owning ``path`` (stable routing; no exclusions)."""
        return self.ring.shard_for(path)

    def shard_up(self, sid: str) -> bool:
        """Whether the supervisor reports ``sid`` serving (True if unknown)."""
        if self._supervisor is None:
            return True
        handle = self._supervisor.shards.get(sid)
        return handle is None or handle.up

    def count_request(self, sid: str) -> None:
        """Bump the per-shard routing counter (replication layer hook)."""
        self._requests.labels(shard=sid).inc()

    async def client_for(self, sid: str) -> CacheClient:
        """The per-shard client, dialing lazily after an online rebalance.

        A shard the ring gained (``add_shard``) has no client yet; when
        this cluster client was connected through a supervisor, one is
        dialed on first use with the same name/window/retry/wire the
        original shards got.
        """
        client = self.clients.get(sid)
        if client is not None:
            return client
        if self._supervisor is None or sid not in self.ring.shards:
            raise LookupError(f"no client for shard {sid}")
        async with self._dial_lock:
            client = self.clients.get(sid)
            if client is None:
                name, window, retry, wire = self._dial_args
                shard_name = f"{name}@{sid}" if name else None
                client = await CacheClient.connect(
                    self._supervisor.endpoints(sid), shard_name, window, retry, wire
                )
                self.clients[sid] = client
        return client

    async def sync(self) -> None:
        """Reconcile the per-shard clients with the (possibly rebalanced)
        ring: dial shards it gained, close and drop clients for shards it
        lost.  A no-op when nothing changed."""
        ring_sids = set(self.ring.shards)
        if ring_sids == set(self.clients):
            return
        for sid in ring_sids - set(self.clients):
            await self.client_for(sid)
        for sid in set(self.clients) - ring_sids:
            stale = self.clients.pop(sid)
            await stale.aclose()

    async def _routed(self, verb: str, path: str, params: Dict[str, Any]) -> Any:
        sid = self.shard_of(path)
        self._requests.labels(shard=sid).inc()
        tracer = self.telemetry.tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "cluster.route", layer="cluster", verb=verb, path=path, shard=sid
            )
        try:
            client = await self.client_for(sid)
            return await client.call(verb, **params)
        finally:
            if span is not None:
                span.end()

    async def call(self, verb: str, **params: Any) -> Any:
        """Generic wire call, routed as the verb's protocol table row says.

        Replica-routed verbs take the replication path the typed methods
        take, once the request passes the protocol's validation.  Path
        verbs need a string ``path`` to route on.  Fan-out verbs go to
        every shard and answer with the first shard's reply (the typed
        methods merge instead).  Anything else — including malformed
        requests a fuzzer may produce — goes to the first shard, which
        answers with the protocol's own error reply.
        """
        if verb in REPLICA_VERBS:
            try:
                _, fields = validated_request({**params, "verb": verb})
            except RequestValidationError:
                pass
            else:
                return await _REPLICATED_CALLS[verb](self.replication, fields)
        path = params.get("path")
        if verb in PATH_VERBS and isinstance(path, str):
            return await self._routed(verb, path, params)
        if verb in FANOUT_VERBS:
            replies = await self._fanout(verb, lambda client: client.call(verb, **params))
            return replies[self.ring.shards[0]]
        sid = self.ring.shards[0]
        self._requests.labels(shard=sid).inc()
        return await self.clients[sid].call(verb, **params)

    # -- fan-out -----------------------------------------------------------

    async def _fanout(
        self, verb: str, call: Callable[[CacheClient], Awaitable[Any]]
    ) -> Dict[str, Any]:
        if self._supervisor is not None:
            await self.sync()  # pick up ring changes before an all-shard verb
        self._fanouts.labels(verb=verb).inc()
        tracer = self.telemetry.tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "cluster.fanout", layer="cluster", verb=verb, shards=len(self.clients)
            )
        try:
            sids = list(self.clients)
            replies = await asyncio.gather(*(call(self.clients[sid]) for sid in sids))
            return dict(zip(sids, replies))
        finally:
            if span is not None:
                span.end()

    # -- the file API (routed) ---------------------------------------------

    async def open(
        self, path: str, size_blocks: Optional[int] = None, disk: Optional[str] = None
    ) -> Dict[str, Any]:
        return await self.replication.open(path, size_blocks, disk)

    async def read(self, path: str, blockno: int) -> bool:
        return await self.replication.read(path, blockno)

    async def write(self, path: str, blockno: int, whole: bool = True) -> bool:
        return await self.replication.write(path, blockno, whole)

    # -- batched block I/O (split per replica set, re-merged) ---------------

    async def readv(self, ops: Any) -> List[Dict[str, Any]]:
        """Batched reads split by replica set; per-op results in op order.

        Each sub-batch routes to the op's best live replica and fails over
        whole sub-batches mid-flight, so a DOWN shard never stalls a batch
        while another replica holds its paths.
        """
        return await self.replication.readv(list(ops))

    async def writev(self, ops: Any) -> List[Dict[str, Any]]:
        """Batched writes across shards; per-op results in op order."""
        return await self.replication.writev(list(ops))

    async def read_many(self, path: str, blocknos: Any) -> List[bool]:
        """One file's blocks via readv; per-block hit flags."""
        return CacheClient.unwrap_batch(await self.readv([(path, b) for b in blocknos]))

    async def write_many(
        self, path: str, blocknos: Any, whole: bool = True
    ) -> List[bool]:
        """One file's blocks via writev; per-block hit flags."""
        return CacheClient.unwrap_batch(
            await self.writev([(path, b, whole) for b in blocknos])
        )

    # -- replication directives --------------------------------------------

    async def invalidate(self, path: str, blockno: Optional[int] = None) -> int:
        """Drop ``path``'s cached block(s) on every replica; dropped count."""
        return await self.replication.invalidate(path, blockno)

    async def declare_bundle(
        self, bundle: str, paths: Sequence[str], action: str = "fetch"
    ) -> Dict[str, Any]:
        """Declare (and fetch/evict) a file bundle across its replicas."""
        return await self.replication.declare_bundle(bundle, paths, action)

    # -- fbehavior directives ----------------------------------------------

    async def set_priority(self, path: str, prio: int) -> None:
        await self.call("set_priority", path=path, prio=prio)

    async def get_priority(self, path: str) -> int:
        return int(await self.call("get_priority", path=path))

    async def set_temppri(self, path: str, start: int, end: int, prio: int) -> None:
        await self.call("set_temppri", path=path, start=start, end=end, prio=prio)

    async def set_policy(self, prio: int, policy: str) -> None:
        """Global configuration: applied on every shard."""
        await self.call("set_policy", prio=prio, policy=policy)

    async def get_policy(self, prio: int) -> str:
        """Read from the first shard (set_policy keeps them in agreement)."""
        return str(await self.call("get_policy", prio=prio))

    # -- service verbs (fanned out) ----------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self._fanout("ping", lambda c: c.ping())

    async def stats(self) -> Dict[str, Any]:
        """Merged cluster statistics (raw per-shard under ``"shards"``)."""
        return merge_stats(await self._fanout("stats", lambda c: c.stats()))

    async def flush(self) -> int:
        """Flush every shard; returns the total blocks written."""
        replies = await self._fanout("flush", lambda c: c.flush())
        return sum(int(n) for n in replies.values())

    async def metrics(self, format: str = "json") -> Dict[str, Any]:
        """Aggregated telemetry with a ``shard`` label on every sample.

        The cluster's own families (routing counters, failover counters,
        shard-up gauges) are appended under the shard label ``cluster``.
        """
        replies = await self._fanout(
            "metrics", lambda c: c.metrics(format=format)
        )
        if format == "prometheus":
            texts = {sid: reply.get("text", "") for sid, reply in replies.items()}
            texts["cluster"] = self.telemetry.prometheus()
            return {"format": "prometheus", "text": merge_prometheus(texts)}
        if format == "trace":
            spans = {sid: reply.get("spans", []) for sid, reply in replies.items()}
            tracer = self.telemetry.tracer
            spans["cluster"] = tracer.records() if tracer is not None else []
            return {"format": "trace", "spans": merge_traces(spans)}
        if format in ("json", "both"):
            snaps = {
                sid: reply.get("telemetry", {}).get("metrics", {})
                for sid, reply in replies.items()
            }
            snaps["cluster"] = self.telemetry.snapshot()["metrics"]
            merged: Dict[str, Any] = {
                "format": format,
                "telemetry": {"metrics": merge_snapshots(snaps)},
            }
            if format == "both":
                texts = {sid: reply.get("text", "") for sid, reply in replies.items()}
                texts["cluster"] = self.telemetry.prometheus()
                merged["text"] = merge_prometheus(texts)
            return merged
        # Unknown format: let a shard produce the protocol error reply.
        return replies  # pragma: no cover - daemon raises BAD_REQUEST first

    # -- teardown ----------------------------------------------------------

    async def aclose(self) -> None:
        await asyncio.gather(
            *(client.aclose() for client in self.clients.values()),
            return_exceptions=True,
        )
