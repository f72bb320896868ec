"""The cache daemon: wire protocol, transports, backpressure, shutdown.

Everything here drives a real :class:`~repro.server.daemon.CacheDaemon` —
mostly over the in-process queue transport (same frame codec as sockets),
plus loopback TCP, a Unix socket, and the ``repro-accfc serve`` CLI as a
subprocess.
"""

import asyncio
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.client import _REPLICATED_CALLS
from repro.server import CacheClient, CacheDaemon, ProtocolError, ServerBusy, ServerError, build_config
from repro.server import protocol
from repro.server.protocol import (
    FrameDecoder,
    decode_payload,
    encode_frame,
    error_response,
    ok_response,
    queue_pair,
    request,
    request_id_of,
)
from repro.server.session import Session

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def run(coro):
    return asyncio.run(coro)


async def settle(n=80):
    """Let pending callbacks and queue hops run."""
    for _ in range(n):
        await asyncio.sleep(0)


class TestFrameCodec:
    def test_roundtrip(self):
        msg = request(7, "read", path="a", blockno=3)
        assert decode_payload(encode_frame(msg)[4:]) == msg

    def test_incremental_decode_byte_by_byte(self):
        decoder = FrameDecoder()
        wire = encode_frame(request(1, "ping")) + encode_frame(ok_response(1, {"pong": True}))
        messages = []
        for i in range(len(wire)):
            messages.extend(decoder.feed(wire[i : i + 1]))
        assert [m.get("id") for m in messages] == [1, 1]
        assert decoder.pending_bytes == 0

    def test_oversize_encode_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1, "blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_oversize_header_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_unencodable_message_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1, "value": object()})

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2]")

    def test_undecodable_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe not json")

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ProtocolError):
            error_response(1, "TEAPOT", "short and stout")

    def test_request_id_of_malformed(self):
        assert request_id_of(None) is None
        assert request_id_of({"id": "seven"}) is None
        assert request_id_of({"id": 7}) == 7

    def test_session_rejects_degenerate_window(self):
        server_side, _ = queue_pair()
        with pytest.raises(ValueError):
            Session(1, server_side, window=0)


#: a valid value for every parameter a verb table row may require
_SAMPLE_PARAMS = {
    "path": "/t.bin",
    "blockno": 3,
    "prio": 1,
    "policy": "mru",
    "start": 0,
    "end": 2,
    "bundle": "b",
    "paths": ["/t.bin"],
    "token": "tok-1",
}


@pytest.fixture(scope="module")
def kernel_handlers():
    return CacheDaemon(build_config(cache_mb=0.25))._handlers


class TestVerbTable:
    """The protocol's verb table is the whole registry of wire verbs."""

    @pytest.mark.parametrize("name", sorted(protocol.VERBS))
    def test_row(self, name, kernel_handlers):
        row = protocol.VERBS[name]
        ids = [verb.wire_id for verb in protocol.VERBS.values()]
        assert 0 < row.wire_id <= 0xFF and ids.count(row.wire_id) == 1
        assert row.route in (
            protocol.ROUTE_REPLICA, protocol.ROUTE_PATH, protocol.ROUTE_FANOUT, protocol.ROUTE_FIRST
        )
        # the cluster client runs every replica-routed verb through replication
        assert (name in _REPLICATED_CALLS) == (row.route == protocol.ROUTE_REPLICA)
        # the daemon answers exactly the kernel verbs, one handler each
        assert (name in kernel_handlers) == row.kernel
        assert set(kernel_handlers) <= set(protocol.VERBS)
        params = {key: _SAMPLE_PARAMS[key] for key in row.params if key != "ops"}
        if name == "migrate_chunk":  # a pull: token instead of records
            params["token"] = _SAMPLE_PARAMS["token"]
        if "ops" in row.params:
            op = {"path": "/t.bin", "blockno": 1}
            params["ops"] = [dict(op, whole=True) if name == "writev" else op]
        msg = request(7, name, **params)
        encoded = protocol.encode_message(msg, protocol.WIRE_BINARY)
        assert encoded[:2] == protocol.MAGIC and encoded[4] == row.wire_id
        assert FrameDecoder().feed(encoded) == [msg]
        verb, fields = protocol.validated_request(msg)
        assert verb == name and {key: fields[key] for key in params} == params
        for missing in row.params:
            with pytest.raises(protocol.RequestValidationError):
                protocol.validated_request({k: v for k, v in msg.items() if k != missing})


class TestInproc:
    def test_open_read_write_hit_miss(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True))
            client = await CacheClient.connect_inproc(daemon, name="reader")
            assert client.pid == 1
            info = await client.open("data", size_blocks=8)
            assert info == {"path": "data", "nblocks": 8, "disk": info["disk"]}
            assert await client.read("data", 0) is False  # cold miss
            assert await client.read("data", 0) is True  # now resident
            assert await client.write("data", 3, whole=True) is False
            assert await client.read("data", 3) is True  # delayed write kept it
            await client.aclose()
            summary = await daemon.aclose()
            assert summary["flushed_blocks"] == 1  # the one dirty block
            checker = daemon.service.cache.sanitizer
            assert checker is not None
            checker.check_now("final")

        run(go())

    def test_directives_roundtrip(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon, name="smart")
            await client.open("f", size_blocks=4)
            await client.set_priority("f", 0)
            assert await client.get_priority("f") == 0
            await client.set_policy(0, "mru")
            assert await client.get_policy(0) == "mru"
            await client.set_temppri("f", 1, 2, -1)
            stats = await client.stats()
            entry = next(s for s in stats["sessions"] if s["pid"] == client.pid)
            assert entry["directives"] == 5
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_stats_snapshot_shape(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            a = await CacheClient.connect_inproc(daemon, name="alice")
            b = await CacheClient.connect_inproc(daemon)
            await a.open("fa", size_blocks=6)
            for blockno in range(6):
                await a.read("fa", blockno)
            for blockno in range(6):
                await a.read("fa", blockno)
            stats = await b.stats()
            assert stats["server"]["sessions"] == 2
            assert stats["cache"]["policy"] == "lru-sp"
            entry = next(s for s in stats["sessions"] if s["name"] == "alice")
            assert entry["accesses"] == 12
            assert entry["hits"] == 6
            assert entry["misses"] == 6
            assert entry["disk_reads"] == 6
            assert entry["frames"] == 6
            assert entry["hit_ratio"] == pytest.approx(0.5)
            await a.aclose()
            await b.aclose()
            await daemon.aclose()

        run(go())

    def test_errors_map_to_codes(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon)
            with pytest.raises(ServerError) as err:
                await client.read("ghost", 0)
            assert err.value.code == "FS"
            await client.open("f", size_blocks=2)
            with pytest.raises(ServerError) as err:
                await client.read("f", 99)  # past EOF
            assert err.value.code == "FS"
            with pytest.raises(ServerError) as err:
                await client.call("read", path="f", blockno="many")
            assert err.value.code == "BAD_REQUEST"
            with pytest.raises(ServerError) as err:
                await client.call("set_priority", path="f")  # missing prio
            assert err.value.code == "BAD_REQUEST"
            with pytest.raises(ServerError) as err:
                await client.call("set_policy", prio=0, policy="belady")
            assert err.value.code == "DIRECTIVE"
            with pytest.raises(ServerError) as err:
                await client.call("chmod", path="f")
            assert err.value.code == "BAD_REQUEST"
            assert daemon.errors == []  # all expected failures, no INTERNAL
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_ping_and_hello_bypass_kernel(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            daemon.pause()  # kernel held; protocol verbs must still answer
            client = await CacheClient.connect_inproc(daemon, name="probe")
            pong = await client.ping()
            assert pong["pong"] is True and pong["pid"] == client.pid
            daemon.resume()
            await client.aclose()
            await daemon.aclose()

        run(go())


class TestBackpressure:
    def test_global_limit_returns_busy(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5), window=8, global_limit=2)
            client = await CacheClient.connect_inproc(daemon, name="flood")
            await client.open("f", size_blocks=8)
            daemon.pause()  # queue up without applying
            tasks = [
                asyncio.ensure_future(client.call("read", path="f", blockno=i))
                for i in range(5)
            ]
            await settle()
            assert daemon.pending_total == 2  # at the global limit
            daemon.resume()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            busy = [r for r in results if isinstance(r, ServerBusy)]
            served = [r for r in results if isinstance(r, dict)]
            assert len(busy) == 3 and len(served) == 2
            stats = await client.stats()
            assert stats["server"]["busy_rejections"] == 3
            entry = next(s for s in stats["sessions"] if s["pid"] == client.pid)
            assert entry["busy_rejections"] == 3
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_session_window_stops_reading(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5), window=4, global_limit=1024)
            client = await CacheClient.connect_inproc(daemon, name="pushy", window=64)
            await client.open("f", size_blocks=16)
            daemon.pause()
            tasks = [
                asyncio.ensure_future(client.call("read", path="f", blockno=i))
                for i in range(12)
            ]
            await settle()
            # The daemon read exactly `window` requests and stopped; the
            # rest wait in the transport, unqueued and un-BUSYed.
            assert daemon.pending_total == 4
            assert daemon.busy_rejections == 0
            daemon.resume()
            results = await asyncio.gather(*tasks)
            assert all(isinstance(r, dict) for r in results)
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_close_is_exempt_from_global_limit(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5), window=8, global_limit=1)
            client = await CacheClient.connect_inproc(daemon)
            await client.open("f", size_blocks=4)
            daemon.pause()
            pending = asyncio.ensure_future(client.call("read", path="f", blockno=0))
            await settle()
            assert daemon.pending_total == 1
            daemon.resume()
            await pending
            await client.aclose()  # close must not bounce with BUSY
            await daemon.aclose()

        run(go())


class TestShutdown:
    def test_graceful_close_flushes_dirty_blocks(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True))
            client = await CacheClient.connect_inproc(daemon, name="writer")
            await client.open("out", size_blocks=8)
            for blockno in range(8):
                await client.write("out", blockno)
            await client.aclose()
            summary = await daemon.aclose()
            assert summary["flushed_blocks"] == 8
            # hello + open + 8 writes + close, but not ping/hello replies
            assert summary["requests_served"] == 10
            assert daemon.service.counters_for(1).disk_writes == 8
            assert len(daemon.service.cache.dirty_blocks()) == 0
            assert await daemon.aclose() is summary  # idempotent

        run(go())

    def test_requests_during_drain_get_shutting_down(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon)
            await client.open("f", size_blocks=2)
            daemon._closing = True  # as aclose() flips it mid-drain
            with pytest.raises(ServerError) as err:
                await client.read("f", 0)
            assert err.value.code == "SHUTTING_DOWN"
            daemon._closing = False
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_kernel_serializes_interleaved_sessions(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True))
            clients = [
                await CacheClient.connect_inproc(daemon, name=f"c{i}") for i in range(4)
            ]
            for i, c in enumerate(clients):
                await c.open(f"file-{i}", size_blocks=6)

            async def chatter(i, c):
                for rep in range(3):
                    for blockno in range(6):
                        await c.read(f"file-{i}", blockno)

            await asyncio.gather(*(chatter(i, c) for i, c in enumerate(clients)))
            stats = await clients[0].stats()
            for entry in stats["sessions"]:
                assert entry["accesses"] == 18
                assert entry["misses"] == 6  # each file fits; one cold pass
            for c in clients:
                await c.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())


class TestSocketTransports:
    def test_tcp_loopback(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True))
            host, port = await daemon.start_tcp("127.0.0.1", 0)
            client = await CacheClient.connect_tcp(host, port, name="tcp")
            await client.open("f", size_blocks=4)
            assert await client.read("f", 2) is False
            assert await client.read("f", 2) is True
            stats = await client.stats()
            assert stats["server"]["sessions"] == 1
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())

    def test_unix_socket(self, tmp_path):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            path = str(tmp_path / "cache.sock")
            await daemon.start_unix(path)
            client = await CacheClient.connect_unix(path, name="unix")
            await client.open("f", size_blocks=4)
            await client.write("f", 1)
            await client.aclose()
            summary = await daemon.aclose()
            assert summary["flushed_blocks"] == 1

        run(go())

    def test_two_transports_share_one_cache(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            host, port = await daemon.start_tcp("127.0.0.1", 0)
            tcp = await CacheClient.connect_tcp(host, port)
            inproc = await CacheClient.connect_inproc(daemon)
            await tcp.open("shared", size_blocks=4)
            await tcp.read("shared", 0)  # miss, loads the block
            assert await inproc.read("shared", 0) is True  # other client hits
            await tcp.aclose()
            await inproc.aclose()
            await daemon.aclose()

        run(go())


class TestServeCli:
    def test_serve_starts_answers_and_shuts_down(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), str(SRC_ROOT)) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.harness.cli",
                "serve",
                "--port",
                "0",
                "--cache-mb",
                "0.25",
                "--sanitize",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            assert "listening on" in ready
            port = int(ready.rsplit(":", 1)[1])

            async def drive():
                client = await CacheClient.connect_tcp("127.0.0.1", port, name="cli")
                await client.open("f", size_blocks=4)
                await client.write("f", 0)
                await client.read("f", 0)
                stats = await client.stats()
                assert stats["server"]["sessions"] == 1
                await client.aclose()

            run(drive())
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "shut down cleanly" in out
        assert "flushed 1 dirty blocks" in out
