"""``CacheClient`` — the convenience API for talking to the daemon.

One client is one session (one kernel pid, one per-process ACM manager).
Requests are pipelined: a background reader task matches replies to
request ids, and a client-side semaphore keeps at most ``window`` requests
outstanding — sized at or below the server's per-session window, so normal
use never trips the daemon's flow control.

    client = await CacheClient.connect_tcp("127.0.0.1", port, name="cs1")
    await client.open("cscope.out", size_blocks=1141)
    await client.set_priority("cscope.out", 0)
    await client.set_policy(0, "mru")
    hit = await client.read("cscope.out", 17)
    print(await client.stats())
    await client.aclose()

Failure replies raise :class:`ServerError` (or :class:`ServerBusy` for the
429-style backpressure code, so callers can back off and retry).

Resilience (for lossy transports and fault-injection runs) is governed by
a :class:`RetryPolicy`: every request carries a timeout; ``BUSY`` replies
and — for **idempotent** verbs only — timeouts and connection losses are
retried with bounded exponential backoff.  Non-idempotent verbs (``write``,
``writev`` and the ``set_*`` directives) are never auto-retried after a
timeout, because a dropped *reply* means the kernel may already have
applied the request.  A lost connection is re-dialed and the session
resumed with the token from the hello handshake, so the same kernel pid
(and its manager state and counters) carries on.

The client offers the binary framing in its hello by default (opt out
with ``wire="json"`` or ``REPRO_WIRE=json``); an old daemon simply
ignores the offer and the session stays on JSON.  Batch helpers
(:meth:`CacheClient.readv`/:meth:`~CacheClient.writev` and the chunking
:meth:`~CacheClient.read_many`/:meth:`~CacheClient.write_many`) put many
block ops in one frame — ``readv``/``writev`` send more than
``MAX_BATCH_OPS`` as sequential frames; :meth:`~CacheClient.pipeline`
drives arbitrary verbs at a chosen depth with in-order results.

Protocol only — the kernel lives on the other side of the wire (lint rule
R006).
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.server.protocol import (
    MAX_BATCH_OPS,
    VERBS,
    WIRE_BINARY,
    WIRE_JSON,
    ProtocolError,
    Transport,
    request,
)

#: one dialable address: ``("tcp", host, port)``, ``("unix", path)`` or
#: ``("inproc", daemon_or_factory)`` — the in-process form accepts either a
#: daemon instance or a zero-argument callable returning the *current*
#: daemon, so a redial after a cluster failover reaches the restarted one.
EndpointSpec = Tuple[Any, ...]


class ServerError(Exception):
    """The daemon replied with an error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServerBusy(ServerError):
    """The daemon is over its global pending limit; retry later."""


class RequestTimeout(ConnectionError):
    """No reply arrived within the policy's timeout (request or reply may
    have been lost in flight — the kernel may or may not have applied it)."""


#: default number of outstanding requests a client keeps in flight
DEFAULT_CLIENT_WINDOW = 16

#: default ops per readv/writev frame for the chunking helpers
DEFAULT_BATCH_OPS = 64

#: verbs safe to re-send after a timeout (see ``Verb.idempotent``)
IDEMPOTENT_VERBS = frozenset(name for name, verb in VERBS.items() if verb.idempotent)


def default_wire() -> str:
    """The framing a new client offers: ``REPRO_WIRE`` or binary."""
    wire = os.environ.get("REPRO_WIRE", "").strip().lower()
    return wire if wire in (WIRE_JSON, WIRE_BINARY) else WIRE_BINARY


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout and bounded-exponential-backoff retry budget."""

    timeout_s: Optional[float] = 30.0
    max_retries: int = 3
    backoff_base_s: float = 0.02
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive (or None for no timeout)")
        if self.max_retries < 0:
            raise ValueError("retry budget cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < self.backoff_base_s:
            raise ValueError("bad backoff range")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        return min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_max_s)


#: policy used when none is given: a generous timeout but *no* automatic
#: retries — callers see BUSY and timeouts directly, as they always did.
#: Fault-tolerant callers opt in with an explicit RetryPolicy.
DEFAULT_RETRY_POLICY = RetryPolicy(timeout_s=30.0, max_retries=0)

#: no-timeout, no-retry policy (what pre-resilience callers effectively had)
NO_RETRY = RetryPolicy(timeout_s=None, max_retries=0)


class CacheClient:
    """One session against a cache daemon, over any transport."""

    def __init__(
        self,
        transport: Transport,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[str] = None,
    ) -> None:
        if window < 1:
            raise ValueError("client window must be at least 1")
        offer = wire if wire is not None else default_wire()
        if offer not in (WIRE_JSON, WIRE_BINARY):
            raise ValueError(f"unknown wire framing {offer!r}")
        self._transport = transport
        self.window_size = window
        self._window = asyncio.Semaphore(window)
        #: reply correlation is per connection: each transport gets its own
        #: pending map, so a stale reply surviving a reconnect can only
        #: land in its own (already failed) map, never a newer call's.
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_id = 0
        #: the framing this client offers at hello
        self.wire_offer = offer
        #: the framing actually negotiated on the current connection
        self.wire = WIRE_JSON
        self._closing = False
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        #: async factory for a replacement transport (None = cannot redial)
        self._connector: Optional[Callable[[], Awaitable[Transport]]] = None
        #: single-flight reconnect: pipelined calls that all lose the same
        #: connection must share one redial, not orphan each other's
        #: half-established transports (created lazily — the constructor
        #: may run outside a loop)
        self._reconnect_lock: Optional[asyncio.Lock] = None
        #: the kernel pid of this session (set by the hello handshake)
        self.pid: Optional[int] = None
        #: resume token from the hello handshake
        self.token: Optional[str] = None
        self.name: Optional[str] = None
        # resilience accounting
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    async def _dial_endpoint(endpoint: EndpointSpec) -> Transport:
        """Open one transport to a single :data:`EndpointSpec` address."""
        from repro.server.protocol import StreamTransport

        kind = endpoint[0]
        if kind == "tcp":
            reader, writer = await asyncio.open_connection(endpoint[1], endpoint[2])
            return StreamTransport(reader, writer)
        if kind == "unix":
            reader, writer = await asyncio.open_unix_connection(endpoint[1])
            return StreamTransport(reader, writer)
        if kind == "inproc":
            target = endpoint[1]
            daemon = target() if callable(target) else target
            return await daemon.connect_inproc()
        raise ValueError(f"unknown endpoint kind {kind!r}")

    @classmethod
    def _list_dialer(
        cls, endpoints: Sequence[EndpointSpec]
    ) -> Callable[[], Awaitable[Transport]]:
        """A dial function over an *ordered* address list.

        Every dial attempt — the initial connect and every redial after a
        lost connection — walks the list in order and uses the first
        address that answers, so a client survives any one address dying
        as long as a later one (a replica, a restarted daemon) is up.
        """
        endpoints = list(endpoints)
        if not endpoints:
            raise ValueError("endpoint list cannot be empty")

        async def dial() -> Transport:
            last: Optional[BaseException] = None
            for endpoint in endpoints:
                try:
                    return await cls._dial_endpoint(endpoint)
                except (ConnectionError, OSError) as exc:
                    last = exc
            raise ConnectionError(f"no endpoint answered (last error: {last})")

        return dial

    @classmethod
    async def connect(
        cls,
        endpoints: Sequence[EndpointSpec],
        name: Optional[str] = None,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[str] = None,
    ) -> "CacheClient":
        """Connect via an ordered address list with per-address redial."""
        dial = cls._list_dialer(endpoints)
        return await cls._started(await dial(), name, window, retry, dial, wire)

    @classmethod
    async def connect_tcp(
        cls,
        host: str,
        port: int,
        name: Optional[str] = None,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[str] = None,
    ) -> "CacheClient":
        return await cls.connect([("tcp", host, port)], name, window, retry, wire)

    @classmethod
    async def connect_unix(
        cls,
        path: str,
        name: Optional[str] = None,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[str] = None,
    ) -> "CacheClient":
        return await cls.connect([("unix", path)], name, window, retry, wire)

    @classmethod
    async def connect_inproc(
        cls,
        daemon,
        name: Optional[str] = None,
        window: int = DEFAULT_CLIENT_WINDOW,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[str] = None,
    ) -> "CacheClient":
        """Connect to a :class:`~repro.server.daemon.CacheDaemon` in this
        process (tests, benchmarks, demos)."""
        return await cls.connect([("inproc", daemon)], name, window, retry, wire)

    @classmethod
    async def _started(
        cls,
        transport: Transport,
        name: Optional[str],
        window: int,
        retry: Optional[RetryPolicy] = None,
        connector: Optional[Callable[[], Awaitable[Transport]]] = None,
        wire: Optional[str] = None,
    ) -> "CacheClient":
        client = cls(transport, window=window, retry=retry, wire=wire)
        client.name = name
        client._connector = connector
        client._start_reader()
        hello = await client.call("hello", **client._hello_params())
        client._absorb_hello(hello)
        return client

    def _hello_params(self) -> Dict[str, Any]:
        """The hello parameters for a fresh connection (name + wire offer)."""
        params: Dict[str, Any] = {}
        if self.name:
            params["name"] = self.name
        if self.wire_offer != WIRE_JSON:
            params["wire"] = [self.wire_offer]
        return params

    def _absorb_hello(self, hello: Any) -> None:
        if isinstance(hello, dict):
            self.pid = hello.get("pid", self.pid)
            self.token = hello.get("token", self.token)
            negotiated = hello.get("wire")
            # Only switch to a framing we offered; an old daemon's hello
            # has no "wire" key, which means JSON.
            if negotiated == self.wire_offer and negotiated != WIRE_JSON:
                self._transport.set_wire(negotiated)
                self.wire = negotiated
            else:
                self.wire = WIRE_JSON

    # -- plumbing ----------------------------------------------------------

    def _start_reader(self) -> None:
        """Start the reply reader of the current transport.

        Correlation state is rebuilt per connection: the reader, the
        transport and the pending map are bound together here, so a reply
        arriving on an old connection after a reconnect can only touch the
        old map (whose futures have already failed), never a newer call.
        """
        pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._pending = pending
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_replies(self._transport, pending)
        )

    async def _read_replies(
        self,
        transport: Transport,
        pending: Dict[int, "asyncio.Future[Dict[str, Any]]"],
    ) -> None:
        while True:
            try:
                msg = await transport.recv()
            except ProtocolError:
                # Undecodable reply: framing is gone; treat as a lost
                # connection (a retryable condition, never a crash).
                msg = None
            if msg is None:
                break
            future = pending.pop(msg.get("id"), None)
            if future is not None and not future.done():
                future.set_result(msg)
        # A transport whose reply stream ended can never answer again;
        # mark it closed so the next call() knows to re-dial rather than
        # write into a dead peer and wait out the full timeout.
        transport.close()
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server connection closed"))
        pending.clear()

    async def call(self, verb: str, **params: Any) -> Any:
        """One request/response round trip; returns the reply value.

        ``BUSY`` replies are always retried within the policy's budget
        (the request was *not* applied).  Timeouts and connection losses
        are retried only for idempotent verbs; a lost connection is
        re-dialed and the session resumed first.
        """
        if self._closing:
            raise ConnectionError("client is closed")
        policy = self.retry
        attempt = 0
        while True:
            try:
                if (
                    self._transport.closed
                    and self._connector is not None
                    and policy.max_retries > 0
                ):
                    # Nothing has been sent for this attempt yet, so
                    # re-dialing and resuming the session is safe for any
                    # verb — the duplicate hazard only exists for requests
                    # already in flight.
                    await self._reconnect()
                elif (
                    self._reconnect_lock is not None
                    and self._reconnect_lock.locked()
                ):
                    # A reconnect is mid-handshake: sending now would put
                    # this request on the wire *before* the resume hello,
                    # so the server would apply it under the wrong pid.
                    async with self._reconnect_lock:
                        pass
                return await self._call_once(verb, params, policy.timeout_s)
            except ServerBusy:
                if attempt >= policy.max_retries:
                    raise
            except (ConnectionError, asyncio.TimeoutError) as exc:
                retryable = (
                    verb in IDEMPOTENT_VERBS
                    and attempt < policy.max_retries
                    and not self._closing
                )
                if not retryable:
                    if isinstance(exc, asyncio.TimeoutError):
                        raise RequestTimeout(
                            f"{verb}: no reply within {policy.timeout_s}s"
                        ) from exc
                    raise
                if self._transport.closed or isinstance(exc, ConnectionError):
                    try:
                        await self._reconnect()
                    except (ConnectionError, OSError, asyncio.TimeoutError, ServerError):
                        if attempt + 1 >= policy.max_retries:
                            raise
            attempt += 1
            self.retries += 1
            await asyncio.sleep(policy.delay(attempt))

    async def _call_once(
        self, verb: str, params: Dict[str, Any], timeout: Optional[float]
    ) -> Any:
        async with self._window:
            self._next_id += 1
            req_id = self._next_id
            future: "asyncio.Future[Dict[str, Any]]" = asyncio.get_running_loop().create_future()
            # Bind to this connection's map: if a reconnect swaps
            # self._pending mid-flight, the timeout cleanup below must
            # still target the map this request was registered in.
            pending = self._pending
            pending[req_id] = future
            try:
                await self._transport.send(request(req_id, verb, **params))
                if timeout is not None:
                    reply = await asyncio.wait_for(future, timeout)
                else:
                    reply = await future
            except asyncio.TimeoutError:
                self.timeouts += 1
                raise
            finally:
                # Every exit path must unregister: a send() that raises with
                # the transport still open, or a cancelled waiter, would
                # otherwise strand the entry forever — with thousands of
                # sessions that is unbounded pending-map growth.  On the
                # success path the reader already popped it (no-op here).
                pending.pop(req_id, None)
        if reply.get("ok"):
            return reply.get("value")
        code = reply.get("code", "INTERNAL")
        error = ServerBusy if code == "BUSY" else ServerError
        raise error(code, str(reply.get("error", "")))

    async def _reconnect(self) -> None:
        """Re-dial the server and resume the previous kernel session.

        Single-flight: with a pipeline in flight, every stalled call races
        here at once.  They must share one redial — a second concurrent
        attempt would reassign ``self._transport`` out from under the
        first, orphaning a connection that may have just resumed our pid
        on the server (wedging it against all future resumes).
        """
        if self._connector is None:
            raise ConnectionError("transport lost and no reconnect path")
        if self._reconnect_lock is None:
            self._reconnect_lock = asyncio.Lock()
        async with self._reconnect_lock:
            if not self._transport.closed:
                return  # another caller already re-established the session
            await self._reconnect_once()

    async def _reconnect_once(self) -> None:
        self.reconnects += 1
        old_reader = self._reader_task
        self._transport.close()
        if old_reader is not None:
            try:
                await old_reader
            except asyncio.CancelledError:  # pragma: no cover - teardown race
                pass
        self._transport = await self._connector()
        self.wire = WIRE_JSON  # fresh connection: renegotiate from JSON
        self._start_reader()
        params = self._hello_params()
        if self.pid is not None and self.token is not None:
            params["resume"] = self.pid
            params["token"] = self.token
        try:
            hello = await self._call_once("hello", params, self.retry.timeout_s)
        except BaseException:
            # A connection whose resume hello failed (dropped frame,
            # timeout) must never be used half-established: the server
            # would serve us under a fresh pid while we believe we kept
            # the old one.  Close it so the caller's retry re-dials and
            # offers the token again.
            self._transport.close()
            raise
        self._absorb_hello(hello)

    # -- the file API ------------------------------------------------------

    async def open(
        self, path: str, size_blocks: Optional[int] = None, disk: Optional[str] = None
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {"path": path}
        if size_blocks is not None:
            params["size_blocks"] = size_blocks
        if disk is not None:
            params["disk"] = disk
        return await self.call("open", **params)

    async def read(self, path: str, blockno: int) -> bool:
        """Read one block; returns whether it was a cache hit."""
        value = await self.call("read", path=path, blockno=blockno)
        return bool(value.get("hit"))

    async def write(self, path: str, blockno: int, whole: bool = True) -> bool:
        """Write one block (delayed write); returns whether it hit."""
        value = await self.call("write", path=path, blockno=blockno, whole=whole)
        return bool(value.get("hit"))

    # -- batched block I/O -------------------------------------------------

    async def _batch(self, verb: str, wire_ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send ``wire_ops`` in sequential frames of at most
        ``MAX_BATCH_OPS`` ops; the per-op results concatenated in op order.

        Frames go one after another, so a caller-sized batch never holds
        more than one frame's worth of ops in flight on this connection.
        """
        results: List[Dict[str, Any]] = []
        for start in range(0, len(wire_ops) or 1, MAX_BATCH_OPS):
            chunk = wire_ops[start:start + MAX_BATCH_OPS]
            value = await self.call(verb, ops=chunk)
            reply = value.get("results") if isinstance(value, dict) else None
            if not isinstance(reply, list) or len(reply) != len(chunk):
                raise ProtocolError(
                    f"{verb}: malformed batch reply for {len(chunk)} ops: {value!r}"
                )
            results.extend(reply)
        return results

    async def readv(
        self, ops: Iterable[Tuple[str, int]]
    ) -> List[Dict[str, Any]]:
        """Batched reads; ``ops`` is ``(path, blockno)`` pairs.

        Returns the raw per-op result list — ``{"hit": bool}`` for an
        applied op, ``{"code", "error"}`` for a failed one.  A partial
        failure never discards the batch: good ops are applied and their
        results returned alongside the errors.  More than
        ``MAX_BATCH_OPS`` ops go as several frames, in order.
        """
        return await self._batch(
            "readv", [{"path": path, "blockno": blockno} for path, blockno in ops]
        )

    async def writev(
        self, ops: Iterable[Tuple[Any, ...]]
    ) -> List[Dict[str, Any]]:
        """Batched writes; ``ops`` is ``(path, blockno[, whole])``.

        Like :meth:`readv`, results are per-op.  ``writev`` is *not*
        auto-retried after a timeout (the batch may already be applied).
        """
        wire_ops = []
        for op in ops:
            whole = op[2] if len(op) > 2 else True
            wire_ops.append({"path": op[0], "blockno": op[1], "whole": bool(whole)})
        return await self._batch("writev", wire_ops)

    @staticmethod
    def unwrap_batch(results: List[Dict[str, Any]]) -> List[bool]:
        """Per-op hit flags, raising on the first per-op error record."""
        hits: List[bool] = []
        for result in results:
            if "code" in result:
                code = result.get("code", "INTERNAL")
                error = ServerBusy if code == "BUSY" else ServerError
                raise error(str(code), str(result.get("error", "")))
            hits.append(bool(result.get("hit")))
        return hits

    async def read_many(
        self, path: str, blocknos: Iterable[int], batch: int = DEFAULT_BATCH_OPS
    ) -> List[bool]:
        """Read many blocks of one file in readv chunks; per-block hits."""
        blocks = list(blocknos)
        hits: List[bool] = []
        for start in range(0, len(blocks), max(1, batch)):
            chunk = blocks[start:start + max(1, batch)]
            hits.extend(
                self.unwrap_batch(await self.readv((path, b) for b in chunk))
            )
        return hits

    async def write_many(
        self,
        path: str,
        blocknos: Iterable[int],
        whole: bool = True,
        batch: int = DEFAULT_BATCH_OPS,
    ) -> List[bool]:
        """Write many blocks of one file in writev chunks; per-block hits."""
        blocks = list(blocknos)
        hits: List[bool] = []
        for start in range(0, len(blocks), max(1, batch)):
            chunk = blocks[start:start + max(1, batch)]
            hits.extend(
                self.unwrap_batch(
                    await self.writev((path, b, whole) for b in chunk)
                )
            )
        return hits

    async def pipeline(
        self,
        calls: Sequence[Tuple[str, Dict[str, Any]]],
        depth: Optional[int] = None,
    ) -> List[Any]:
        """Issue ``(verb, params)`` calls with up to ``depth`` in flight.

        Results come back in call order (reply matching is id-based, so
        the wire order underneath may interleave).  A failed call yields
        its exception object in place of a value rather than cancelling
        the rest of the pipeline.
        """
        if depth is None:
            depth = self.window_size
        gate = asyncio.Semaphore(max(1, depth))

        async def one(verb: str, params: Dict[str, Any]) -> Any:
            async with gate:
                return await self.call(verb, **params)

        return await asyncio.gather(
            *(one(verb, dict(params)) for verb, params in calls),
            return_exceptions=True,
        )

    # -- the five paper directives ----------------------------------------

    async def set_priority(self, path: str, prio: int) -> None:
        await self.call("set_priority", path=path, prio=prio)

    async def get_priority(self, path: str) -> int:
        return int(await self.call("get_priority", path=path))

    async def set_policy(self, prio: int, policy: str) -> None:
        await self.call("set_policy", prio=prio, policy=policy)

    async def get_policy(self, prio: int) -> str:
        return str(await self.call("get_policy", prio=prio))

    async def set_temppri(self, path: str, start: int, end: int, prio: int) -> None:
        await self.call("set_temppri", path=path, start=start, end=end, prio=prio)

    # -- service verbs -----------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self.call("ping")

    async def stats(self) -> Dict[str, Any]:
        """The live server/cache/per-session statistics snapshot."""
        return await self.call("stats")

    async def metrics(self, format: str = "json") -> Dict[str, Any]:
        """Exported telemetry: ``json``, ``prometheus``, ``trace`` or ``both``."""
        return await self.call("metrics", format=format)

    async def flush(self) -> int:
        """Write out every dirty block now; returns the number flushed."""
        value = await self.call("flush")
        return int(value.get("flushed", 0))

    async def aclose(self) -> None:
        """Polite shutdown: ``close`` the session, then drop the transport.

        The closing flag flips *before* the first await, so a concurrent
        ``aclose()`` (or ``call()``) arriving mid-shutdown sees the client
        as closed instead of racing the polite ``close`` round trip.
        """
        if self._closing:
            return
        self._closing = True
        if not self._transport.closed:
            try:
                await self._call_once("close", {}, self.retry.timeout_s)
            except (ConnectionError, ServerError, asyncio.TimeoutError):
                pass
        self._transport.close()
        if self._reader_task is not None:
            try:
                await self._reader_task
            except asyncio.CancelledError:  # pragma: no cover - teardown race
                pass
