"""The asyncio cache daemon: many clients, one kernel task.

:class:`CacheDaemon` accepts connections over TCP, Unix sockets and the
in-process queue transport, and funnels every kernel-bound request through
**one logical kernel task**.  Each session owns a FIFO request queue; the
kernel task round-robins across ready sessions, applying one request at a
time to the :class:`~repro.server.service.CacheService` — so the shared
cache always sees a serial, deterministic reference stream no matter how
many clients are connected.

Backpressure is two-layered, per the paper's spirit of making costs land
on their causer:

* **per-session inflight window** — once a session has ``window`` queued
  requests, the daemon stops reading its transport until the kernel drains
  below the window (TCP flow control / a blocked queue put does the rest);
* **global pending limit** — when the total queued across all sessions
  reaches ``global_limit``, further requests get an immediate 429-style
  ``BUSY`` error reply instead of queueing.

Graceful shutdown stops accepting connections, drains every queue, flushes
all dirty blocks (charged to their owners) and closes the transports.

``repro-accfc serve`` (:func:`serve_main`) wraps all of this in a CLI.
This module is protocol-only (lint rule R006): kernel access goes through
the service layer.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.faults.transport import FaultyTransport
from repro.server import protocol
from repro.server.protocol import (
    KERNEL_VERBS,
    ProtocolError,
    StreamTransport,
    Transport,
    error_response,
    ok_response,
    queue_pair,
)
from repro.server.service import DIRECTIVE_PARAMS, CacheService, ServiceError, build_config
from repro.server.session import DEFAULT_GLOBAL_LIMIT, DEFAULT_WINDOW, Session


class CacheDaemon:
    """The server: transports in front, one serialized kernel behind."""

    def __init__(
        self,
        config: Optional[Any] = None,
        *,
        service: Optional[CacheService] = None,
        window: int = DEFAULT_WINDOW,
        global_limit: int = DEFAULT_GLOBAL_LIMIT,
        trace_recorder: Optional[Any] = None,
        telemetry: Optional[Any] = None,
        resume_tokens: Optional[Dict[int, str]] = None,
    ) -> None:
        if global_limit < 1:
            raise ValueError("global limit must be at least 1")
        self.service = service if service is not None else CacheService(
            config, trace_recorder=trace_recorder, telemetry=telemetry
        )
        self.window = window
        self.global_limit = global_limit
        #: the service's fault injector, shared with session transports
        self.injector = self.service.injector
        self.sessions: Dict[int, Session] = {}
        self.pending_total = 0
        self.busy_rejections = 0
        self.requests_served = 0
        #: block operations applied — a readv/writev frame counts each of
        #: its batch entries, so this tracks kernel work not frame count
        self.ops_served = 0
        self.protocol_errors = 0
        #: resume tokens handed out at hello, per kernel pid.  A restarted
        #: daemon (cluster failover) is seeded with its predecessor's
        #: tokens so disconnected clients can resume their kernel pids.
        self._resume_tokens: Dict[int, str] = dict(resume_tokens or {})
        self._token_seq = len(self._resume_tokens)
        self._aborted = False
        #: unexpected exceptions raised while applying requests (each also
        #: produced an INTERNAL error reply); tests assert this stays empty
        self.errors: List[BaseException] = []
        self._ready: Deque[Session] = deque()
        self._work = asyncio.Event()
        self._gate = asyncio.Event()
        self._gate.set()
        self._closing = False
        self._stopping = False
        self._closed_result: Optional[Dict[str, Any]] = None
        #: single-flight shutdown: the first aclose()/abort() call creates
        #: this task *before its first await*, so concurrent callers all
        #: join the same shutdown instead of racing past a stale guard.
        self._shutdown_task: Optional["asyncio.Task[Dict[str, Any]]"] = None
        self._kernel_task: Optional["asyncio.Task[None]"] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._session_tasks: set = set()
        self._handlers = self._kernel_handlers()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the kernel task (idempotent; listeners call it too)."""
        if self._kernel_task is None:
            self._kernel_task = asyncio.get_running_loop().create_task(self._kernel_loop())

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen on TCP; returns the bound (host, port)."""
        await self.start()
        server = await asyncio.start_server(self._on_stream, host=host, port=port)
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_unix(self, path: str) -> str:
        """Listen on a Unix-domain socket at ``path``."""
        await self.start()
        server = await asyncio.start_unix_server(self._on_stream, path=path)
        self._servers.append(server)
        return path

    async def connect_inproc(self) -> Transport:
        """A new in-process connection; returns the client-side transport."""
        if self._aborted or self._closing:
            raise ConnectionError("daemon is not accepting connections")
        await self.start()
        server_side, client_side = queue_pair()
        self._spawn_session(server_side)
        return client_side

    def pause(self) -> None:
        """Hold the kernel task (requests queue but are not applied)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    async def aclose(self) -> Dict[str, Any]:
        """Graceful shutdown: drain queues, flush dirty blocks, close.

        Safe to call concurrently and repeatedly: every caller awaits the
        same shutdown task and gets the same summary object back.
        """
        if self._shutdown_task is None:
            self._closing = True
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self._aclose_impl()
            )
        return await self._shutdown_task

    async def _aclose_impl(self) -> Dict[str, Any]:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self.resume()
        while self.pending_total > 0:
            self._work.set()
            await asyncio.sleep(0)
        self._stopping = True
        self._work.set()
        if self._kernel_task is not None:
            await self._kernel_task
        flushed = self.service.flush_all()
        for session in list(self.sessions.values()):
            session.closed = True
            session.release()
            session.transport.close()
        for task in list(self._session_tasks):
            task.cancel()
        if self._session_tasks:
            await asyncio.gather(*self._session_tasks, return_exceptions=True)
        self._closed_result = {
            "flushed_blocks": flushed,
            "requests_served": self.requests_served,
        }
        return self._closed_result

    async def abort(self) -> Dict[str, Any]:
        """Crash stop: no drain, no flush — the shard just dies.

        Models a cache server falling over mid-flight (the cluster
        supervisor's ``kill``): listeners close, session tasks are
        cancelled, queued requests are dropped on the floor and dirty
        blocks stay wherever they were.  The :class:`CacheService` object
        is deliberately left intact — it plays the role of the machine's
        disk and kernel state surviving a daemon crash — so a replacement
        daemon built around the same service (plus :meth:`resume_state`)
        carries every acknowledged write and session pid forward.

        Joins an in-flight shutdown if one has already started, so
        ``abort()`` after (or during) ``aclose()`` returns that shutdown's
        summary rather than tearing down twice.
        """
        if self._shutdown_task is None:
            self._aborted = True
            self._closing = True
            self._stopping = True
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self._abort_impl()
            )
        return await self._shutdown_task

    async def _abort_impl(self) -> Dict[str, Any]:
        for server in self._servers:
            server.close()
        self.resume()
        self._work.set()
        if self._kernel_task is not None:
            self._kernel_task.cancel()
            try:
                await self._kernel_task
            except asyncio.CancelledError:
                pass
        for session in list(self.sessions.values()):
            session.closed = True
            session.release()
            session.transport.close()
        for task in list(self._session_tasks):
            task.cancel()
        if self._session_tasks:
            await asyncio.gather(*self._session_tasks, return_exceptions=True)
        self._closed_result = {
            "flushed_blocks": 0,
            "requests_served": self.requests_served,
            "aborted": True,
        }
        return self._closed_result

    def resume_state(self) -> Dict[int, str]:
        """The hello tokens minted so far, for seeding a replacement
        daemon after a crash (cluster failover)."""
        return dict(self._resume_tokens)

    # -- connection handling ----------------------------------------------

    def _on_stream(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._spawn_session(StreamTransport(reader, writer))

    def _spawn_session(self, transport: Transport) -> None:
        if self.injector is not None and self.injector.plan.wants_transport_faults:
            transport = FaultyTransport(transport, self.injector)
        task = asyncio.get_running_loop().create_task(self._run_session(transport))
        self._session_tasks.add(task)
        task.add_done_callback(self._session_tasks.discard)

    def _token_for(self, pid: int) -> str:
        """The resume token of ``pid``, minted at its first hello."""
        token = self._resume_tokens.get(pid)
        if token is None:
            self._token_seq += 1
            token = self._resume_tokens[pid] = f"tok-{pid}-{self._token_seq}"
        return token

    def _try_resume(self, session: Session, resume_pid: Any, token: Any) -> bool:
        """Rebind a reconnecting client to its previous kernel pid.

        Requires the token minted at the original hello.  A live session
        still holding the pid is superseded — the token is the authority,
        so the old binding is a connection its owner abandoned.  On
        success the freshly allocated pid is discarded and the old pid's
        counters/manager state carry on.
        """
        if not isinstance(resume_pid, int) or resume_pid == session.pid:
            return False
        if self._resume_tokens.get(resume_pid) != token or token is None:
            return False
        old = self.sessions.get(resume_pid)
        if old is not None and not old.closed:
            # The token is the proof of ownership, and a client is only
            # ever in one place — so a live binding here is a *stale*
            # connection the client abandoned (its hello reply was lost
            # in flight, say).  Supersede it rather than wedging the pid
            # against every future resume: mark it closed and wake its
            # reader so its session task unwinds.
            old.closed = True
            old.release()
            old.transport.close()
        self.sessions.pop(session.pid, None)
        self.service.release_session(session.pid)
        session.pid = resume_pid
        self.sessions[resume_pid] = session
        return True

    async def _run_session(self, transport: Transport) -> None:
        pid = self.service.register_session()
        session = Session(pid, transport, window=self.window)
        self.sessions[pid] = session
        try:
            while True:
                try:
                    msg = await transport.recv()
                except ProtocolError as exc:
                    # A garbled or oversized frame: the stream framing can
                    # no longer be trusted.  Tell the client why, then
                    # disconnect cleanly — never let the exception escape
                    # into the session task.
                    self.protocol_errors += 1
                    await transport.send(
                        error_response(None, "BAD_REQUEST", f"protocol error: {exc}")
                    )
                    break
                if msg is None:
                    break
                req_id = protocol.request_id_of(msg)
                verb = msg.get("verb")
                if verb == "ping":
                    await transport.send(
                        ok_response(req_id, {"pong": True, "pid": session.pid})
                    )
                    continue
                if verb == "hello":
                    name = msg.get("name")
                    if isinstance(name, str) and name:
                        session.name = name[:64]
                    resumed = False
                    if "resume" in msg:
                        resumed = self._try_resume(session, msg.get("resume"), msg.get("token"))
                        if not resumed:
                            await transport.send(
                                error_response(
                                    req_id,
                                    "BAD_REQUEST",
                                    f"cannot resume session {msg.get('resume')!r}",
                                )
                            )
                            continue
                        pid = session.pid
                    # Wire negotiation: answer on the current framing, then
                    # switch our outbound side.  The client switches after
                    # reading the reply; inbound auto-detects both, so no
                    # frame can be lost to the transition in either order.
                    wire = protocol.negotiate_wire(msg.get("wire"))
                    await transport.send(
                        ok_response(
                            req_id,
                            {
                                "pid": session.pid,
                                "name": session.name,
                                "token": self._token_for(session.pid),
                                "resumed": resumed,
                                "wire": wire or protocol.WIRE_JSON,
                            },
                        )
                    )
                    if wire is not None:
                        transport.set_wire(wire)
                    continue
                if not isinstance(verb, str) or verb not in KERNEL_VERBS:
                    await transport.send(
                        error_response(req_id, "BAD_REQUEST", f"unknown verb {verb!r}")
                    )
                    continue
                if self._closing:
                    await transport.send(
                        error_response(req_id, "SHUTTING_DOWN", "daemon is draining")
                    )
                    continue
                if self.pending_total >= self.global_limit and verb != "close":
                    self.service.counters_for(session.pid).inc("busy_rejections")
                    self.busy_rejections += 1
                    await transport.send(
                        error_response(
                            req_id,
                            "BUSY",
                            f"server over capacity ({self.pending_total} pending)",
                        )
                    )
                    continue
                self._enqueue(session, msg)
                if verb == "close":
                    break
                # Inflight window: stop reading while this session has a
                # full queue — backpressure reaches the client through the
                # transport.
                await session.wait_for_slot()
        finally:
            await self._drain(session)
            session.closed = True
            session.release()
            self.service.release_session(session.pid)
            transport.close()

    @staticmethod
    def _request_cost(msg: Dict[str, Any]) -> int:
        """Queue weight of one request: batch frames count per op.

        The BUSY check still happens per frame, so one batch may overshoot
        the global limit — by at most ``MAX_BATCH_OPS``, which the
        validator enforces before the ops ever reach the kernel.
        """
        if msg.get("verb") in protocol.BATCH_VERBS:
            ops = msg.get("ops")
            if isinstance(ops, list) and ops:
                return min(len(ops), protocol.MAX_BATCH_OPS)
        return 1

    def _enqueue(self, session: Session, msg: Dict[str, Any]) -> None:
        cost = self._request_cost(msg)
        session.push(msg, cost)
        self.pending_total += cost
        if not session.in_ready:
            session.in_ready = True
            self._ready.append(session)
        self._work.set()

    async def _drain(self, session: Session) -> None:
        """Let the kernel finish a departing session's queued requests."""
        while session.queue and not self._stopping:
            self._work.set()
            await asyncio.sleep(0)

    # -- the kernel task ---------------------------------------------------

    async def _kernel_loop(self) -> None:
        while True:
            await self._work.wait()
            self._work.clear()
            while self._ready:
                await self._gate.wait()
                session = self._ready.popleft()
                item = session.pop()
                if item is None:
                    session.in_ready = False
                    continue
                msg, cost = item
                self.pending_total -= cost
                resp = self._safe_apply(session, msg)
                if session.queue:
                    self._ready.append(session)
                else:
                    session.in_ready = False
                await session.transport.send(resp)
                self.requests_served += 1
                self.ops_served += cost
            if self._stopping:
                break

    def _safe_apply(self, session: Session, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = protocol.request_id_of(msg)
        # Root span of this request's trace.  The trace id is derived from
        # the wire identity — "<pid>:<req_id>" — so every nested span the
        # service/kernel/disk layers emit can be matched back to the exact
        # client request that caused it.
        tel = self.service.telemetry
        tracer = tel.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "server.request",
                trace_id=f"{session.pid}:{req_id}" if req_id is not None else None,
                layer="server",
                pid=session.pid,
                verb=msg.get("verb"),
                req_id=req_id,
            )
        error_code = None
        try:
            return ok_response(req_id, self._apply(session, msg))
        except ServiceError as exc:
            error_code = exc.code
            return error_response(req_id, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - a reply must always go out
            error_code = "INTERNAL"
            self.errors.append(exc)
            return error_response(req_id, "INTERNAL", f"{type(exc).__name__}: {exc}")
        finally:
            if span is not None:
                attrs: Dict[str, Any] = {"ok": error_code is None}
                if error_code is not None:
                    attrs["code"] = error_code
                tracer.finish(span, **attrs)

    def _apply(self, session: Session, msg: Dict[str, Any]) -> Any:
        # The wire boundary: nothing from ``msg`` reaches the service
        # without passing through the protocol validator first.
        try:
            verb, fields = protocol.validated_request(msg)
        except protocol.RequestValidationError as exc:
            raise ServiceError("BAD_REQUEST", str(exc)) from exc
        return self._handlers[verb](session, fields)

    def _kernel_handlers(self) -> Dict[str, Callable[[Session, Dict[str, Any]], Any]]:
        """Kernel verb -> handler: one per kernel verb of the protocol
        table, each called with the session ``s`` and validated fields ``f``."""
        service = self.service

        def close(s: Session, f: Dict[str, Any]) -> Dict[str, bool]:
            s.closed = True
            return {"closed": True}

        def migrate_chunk(s: Session, f: Dict[str, Any]) -> Any:
            if "records" in f:
                return service.migrate_ingest(s.pid, f["records"])
            return service.migrate_pull(s.pid, f["token"], f.get("max", 256))

        handlers: Dict[str, Callable[[Session, Dict[str, Any]], Any]] = {
            "open": lambda s, f: service.open(s.pid, f["path"], f.get("size_blocks"), f.get("disk")),
            "read": lambda s, f: service.read(s.pid, f["path"], f["blockno"]),
            "write": lambda s, f: service.write(s.pid, f["path"], f["blockno"], f.get("whole", True)),
            "readv": lambda s, f: {"results": service.read_batch(s.pid, f["ops"])},
            "writev": lambda s, f: {"results": service.write_batch(s.pid, f["ops"])},
            "stats": lambda s, f: self.snapshot(),
            "metrics": lambda s, f: self.metrics_reply(f.get("format")),
            "flush": lambda s, f: {"flushed": service.flush_all()},
            "close": close,
            "invalidate": lambda s, f: service.invalidate(s.pid, f["path"], f.get("blockno")),
            "declare_bundle": lambda s, f: service.declare_bundle(
                s.pid, f["bundle"], f["paths"], f.get("action", "fetch")
            ),
            "migrate_begin": lambda s, f: service.migrate_begin(s.pid, f["paths"]),
            "migrate_chunk": migrate_chunk,
            "migrate_end": lambda s, f: service.migrate_end(s.pid, f["token"], bool(f.get("drop", True))),
        }
        for verb in DIRECTIVE_PARAMS:
            handlers[verb] = lambda s, f, verb=verb: service.directive(s.pid, verb, f)
        return handlers

    # -- stats -------------------------------------------------------------

    def metrics_reply(self, fmt: Any = None) -> Dict[str, Any]:
        """The ``metrics`` verb: exported telemetry, by requested format.

        ``json`` (default) is the structured snapshot, ``prometheus`` the
        text exposition, ``trace`` the retained span records (newest last),
        and ``both`` bundles snapshot + exposition in one reply.
        """
        tel = self.service.telemetry
        if fmt in (None, "json"):
            return {"format": "json", "telemetry": tel.snapshot()}
        if fmt == "prometheus":
            return {"format": "prometheus", "text": tel.prometheus()}
        if fmt == "trace":
            tracer = tel.tracer
            return {
                "format": "trace",
                "tracing": tracer.stats() if tracer is not None else None,
                "spans": tracer.records() if tracer is not None else [],
            }
        if fmt == "both":
            return {
                "format": "both",
                "telemetry": tel.snapshot(),
                "text": tel.prometheus(),
            }
        raise ServiceError(
            "BAD_REQUEST",
            f"metrics: unknown format {fmt!r} (expected json, prometheus, trace or both)",
        )

    def snapshot(self) -> Dict[str, Any]:
        """The ``stats`` reply: server + cache + per-session numbers."""
        sessions = []
        for pid in sorted(self.sessions):
            session = self.sessions[pid]
            entry = self.service.session_snapshot(pid)
            entry.update(session.snapshot())
            sessions.append(entry)
        return {
            "server": {
                "sessions": len(self.sessions),
                "pending_total": self.pending_total,
                "busy_rejections": self.busy_rejections,
                "requests_served": self.requests_served,
                "ops_served": self.ops_served,
                "protocol_errors": self.protocol_errors,
                "window": self.window,
                "global_limit": self.global_limit,
                "closing": self._closing,
            },
            "cache": self.service.cache_snapshot(),
            "faults": self.service.faults_snapshot(),
            "telemetry": {
                "hot": self.service.telemetry_hot,
                "tracing": (
                    self.service.telemetry.tracer.stats()
                    if self.service.telemetry.tracer is not None
                    else None
                ),
            },
            "sessions": sessions,
        }


# -- the ``repro-accfc serve`` CLI ----------------------------------------


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-accfc serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-accfc serve",
        description="Serve the application-controlled buffer cache to many clients.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument("--unix", metavar="PATH", help="listen on a Unix socket instead of TCP")
    parser.add_argument("--cache-mb", type=float, default=6.4, help="cache size in MB")
    parser.add_argument(
        "--policy",
        default="lru-sp",
        help="allocation policy (global-lru, alloc-lru, lru-s, lru-sp)",
    )
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="per-session inflight window")
    parser.add_argument(
        "--global-limit",
        type=int,
        default=DEFAULT_GLOBAL_LIMIT,
        help="total pending requests before BUSY replies",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime invariant sanitizer to the cache",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault-injection plan: inline JSON ('{...}') or a JSON file path",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="attach hot-path telemetry (per-access metrics; same as REPRO_TELEMETRY=1)",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help="enable tracing and append finished spans to PATH as JSON lines",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the listening/shutdown status lines on stderr",
    )
    args = parser.parse_args(argv)
    try:
        faults = FaultPlan.from_spec(args.faults) if args.faults else None
    except (ValueError, OSError) as exc:
        parser.error(f"--faults: {exc}")
    config = build_config(
        cache_mb=args.cache_mb,
        policy=args.policy,
        sanitize=True if args.sanitize else None,
        faults=faults,
        telemetry=True if args.telemetry else None,
    )
    # The trace sink is opened here, before the event loop starts:
    # open() blocks, and inside _serve it would stall every session.
    telemetry = None
    sink = None
    if args.trace_jsonl:
        from repro.telemetry import Telemetry, Tracer

        sink = open(args.trace_jsonl, "a", encoding="utf-8")
        telemetry = Telemetry(tracer=Tracer(sink=sink))
    try:
        return asyncio.run(_serve(args, config, telemetry, sink))
    finally:
        if sink is not None:
            sink.close()


async def _serve(
    args: argparse.Namespace,
    config: Any,
    telemetry: Any = None,
    sink: Any = None,
) -> int:
    daemon = CacheDaemon(
        config, window=args.window, global_limit=args.global_limit, telemetry=telemetry
    )
    from repro.harness.cli import status_line

    await daemon.start()
    if args.unix:
        await daemon.start_unix(args.unix)
        status_line(f"repro-accfc serve: listening on unix:{args.unix}", quiet=args.quiet)
    else:
        host, port = await daemon.start_tcp(args.host, args.port)
        status_line(f"repro-accfc serve: listening on {host}:{port}", quiet=args.quiet)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
            pass
    await stop.wait()
    summary = await daemon.aclose()
    if sink is not None:
        tracer = daemon.service.telemetry.tracer
        if tracer is not None:
            tracer.flush()
    status_line(
        "repro-accfc serve: shut down cleanly; served "
        f"{summary['requests_served']} requests, flushed "
        f"{summary['flushed_blocks']} dirty blocks",
        quiet=args.quiet,
    )
    return 0
