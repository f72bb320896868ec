"""Protocol fuzz: hostile bytes and hostile messages against the daemon.

Satellite of the fault-injection PR, extended to the binary framing in
the batched-wire PR.  Two layers of attack, both seeded and
deterministic:

* **byte-level** — truncated frames, oversized length prefixes, garbage
  payloads and plain random byte blobs written straight into a TCP
  connection.  The daemon must answer with a ``BAD_REQUEST`` error reply
  (when the framing still allows one) or disconnect cleanly — never let an
  exception escape the session task and never wedge the kernel task;
* **message-level** — well-formed frames carrying randomly typed junk in
  every parameter slot.  Every request must draw exactly one reply whose
  error code is a *defined* code other than ``INTERNAL`` (``INTERNAL``
  would mean an unhandled exception crossed the service boundary; the
  daemon's ``errors`` list must stay empty).

After each battery a well-behaved client connects and completes a real
open/read/write/stats round trip, proving the shared kernel survived.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct

import pytest

from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.protocol import (
    ERROR_CODES,
    MAGIC,
    MAX_FRAME_BYTES,
    VERB_WIRE,
    WIRE_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_message,
)

_HEADER = struct.Struct(">I")

# Local copies of the binary header layout, so a test regression in the
# real structs cannot silently fuzz the wrong shape.
_BIN_PREFIX = struct.Struct(">2sBB")  # magic, version, flags
_BIN_REST = struct.Struct(">BqI")  # kind/verb id, request id, payload length


def run(coro):
    return asyncio.run(coro)


def frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload)) + payload


def jframe(obj) -> bytes:
    return frame(json.dumps(obj).encode("utf-8"))


async def start_daemon(**kwargs):
    daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True), **kwargs)
    host, port = await daemon.start_tcp()
    return daemon, host, port


async def read_replies(reader, n, timeout=5.0):
    """Read exactly ``n`` frames (the replies to ``n`` requests)."""
    out = []
    for _ in range(n):
        header = await asyncio.wait_for(reader.readexactly(_HEADER.size), timeout)
        (length,) = _HEADER.unpack(header)
        payload = await asyncio.wait_for(reader.readexactly(length), timeout)
        out.append(json.loads(payload))
    return out


async def read_until_eof(reader, timeout=5.0):
    """All frames until the server closes the connection."""
    out = []
    while True:
        header = await asyncio.wait_for(reader.read(_HEADER.size), timeout)
        if not header:
            return out
        while len(header) < _HEADER.size:
            more = await asyncio.wait_for(reader.read(_HEADER.size - len(header)), timeout)
            if not more:
                return out
            header += more
        (length,) = _HEADER.unpack(header)
        payload = await asyncio.wait_for(reader.readexactly(length), timeout)
        out.append(json.loads(payload))


async def assert_daemon_healthy(daemon):
    """The kernel task is alive and a polite client gets real service."""
    assert daemon.errors == []
    client = await CacheClient.connect_inproc(daemon, name="survivor")
    await client.open("health", size_blocks=4)
    assert await client.read("health", 0) is False
    assert await client.read("health", 0) is True
    stats = await client.stats()
    assert stats["server"]["sessions"] >= 1
    await client.aclose()


class TestByteLevelAttacks:
    def test_truncated_frame_is_a_clean_disconnect(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            # Claim 64 payload bytes, deliver 8, hang up mid-frame.
            writer.write(_HEADER.pack(64) + b"not much")
            await writer.drain()
            writer.close()
            assert await read_until_eof(reader) == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_oversized_length_prefix_gets_error_then_disconnect(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_HEADER.pack(MAX_FRAME_BYTES + 1) + b"irrelevant")
            await writer.drain()
            replies = await read_until_eof(reader)
            assert len(replies) == 1
            assert replies[0]["ok"] is False
            assert replies[0]["code"] == "BAD_REQUEST"
            assert daemon.protocol_errors == 1
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_garbage_payload_gets_error_then_disconnect(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(frame(b"\xff\xfe definitely not json"))
            await writer.drain()
            replies = await read_until_eof(reader)
            assert [r["code"] for r in replies] == ["BAD_REQUEST"]
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_non_object_json_gets_error_then_disconnect(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(frame(b"[1, 2, 3]"))
            await writer.drain()
            replies = await read_until_eof(reader)
            assert [r["code"] for r in replies] == ["BAD_REQUEST"]
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_random_byte_blob_battery(self):
        """Sixty connections of pure noise; the daemon shrugs them all off."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xF417)
            for _ in range(60):
                reader, writer = await asyncio.open_connection(host, port)
                blob = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))
                writer.write(blob)
                await writer.drain()
                writer.close()
                for reply in await read_until_eof(reader):
                    # If the noise happened to frame-align, any reply must
                    # still be a well-formed protocol message.
                    assert reply.get("ok") is False
                    assert reply.get("code") in ERROR_CODES
            assert not daemon._kernel_task.done()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


def junk_value(rng, depth=0):
    """A randomly typed JSON-encodable value."""
    choices = ["int", "bigint", "negint", "str", "none", "bool", "float", "list", "dict"]
    kind = rng.choice(choices if depth < 2 else choices[:7])
    if kind == "int":
        return rng.randint(0, 100)
    if kind == "bigint":
        return rng.randint(10**12, 10**18)
    if kind == "negint":
        return rng.randint(-10**6, -1)
    if kind == "str":
        return rng.choice(["", "f", "lru", "mru", "../..", "x" * 300, "\x00\x01", "7"])
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice([0.5, -1.5, 1e308, float(rng.randint(0, 9))])
    if kind == "list":
        return [junk_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {str(i): junk_value(rng, depth + 1) for i in range(rng.randint(0, 3))}


PARAM_NAMES = (
    "path", "blockno", "size_blocks", "disk", "whole",
    "prio", "policy", "start", "end", "name", "resume", "token",
    "ops", "wire",
)

#: every verb except ``close`` (which intentionally ends the session)
FUZZ_VERBS = (
    "open", "read", "write", "readv", "writev", "stats",
    "set_priority", "get_priority",
    "set_policy", "get_policy", "set_temppri", "ping", "hello",
    "frobnicate", "", "OPEN", "read ", None, 7,
)


class TestMessageLevelFuzz:
    def test_junk_params_battery(self):
        """Well-framed junk: every request draws one non-INTERNAL reply."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xACDC)
            for _ in range(20):
                reader, writer = await asyncio.open_connection(host, port)
                nreq = rng.randint(5, 15)
                for req_id in range(1, nreq + 1):
                    msg = {"id": req_id, "verb": rng.choice(FUZZ_VERBS)}
                    for name in rng.sample(PARAM_NAMES, rng.randint(0, 5)):
                        msg[name] = junk_value(rng)
                    writer.write(jframe(msg))
                await writer.drain()
                replies = await read_replies(reader, nreq)
                # Session-level verbs are answered inline, kernel verbs via
                # the queue, so order interleaves — but every id must answer.
                assert sorted(r["id"] for r in replies) == list(range(1, nreq + 1))
                for reply in replies:
                    if reply["ok"]:
                        continue
                    assert reply["code"] in ERROR_CODES
                    assert reply["code"] != "INTERNAL", reply
                writer.close()
            assert daemon.errors == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_missing_id_and_missing_verb(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(jframe({"verb": "read", "path": "f"}))  # no id
            writer.write(jframe({"id": 2}))  # no verb
            writer.write(jframe({"id": 3, "verb": "ping"}))  # still alive?
            await writer.drain()
            replies = await read_replies(reader, 3)
            by_id = {r["id"]: r for r in replies}
            assert by_id[None]["ok"] is False  # the id-less read still errors
            assert by_id[2]["code"] == "BAD_REQUEST"
            assert by_id[3]["ok"] is True and by_id[3]["value"]["pong"] is True
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_bogus_resume_is_refused_not_fatal(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            for req_id, (resume, token) in enumerate(
                [("x", 3), (99, None), (99, "tok-99-1"), (None, [1]), (2**40, {})], start=1
            ):
                writer.write(
                    jframe({"id": req_id, "verb": "hello", "resume": resume, "token": token})
                )
            writer.write(jframe({"id": 9, "verb": "ping"}))
            await writer.drain()
            replies = await read_replies(reader, 6)
            for reply in replies[:5]:
                assert reply["ok"] is False
                assert reply["code"] == "BAD_REQUEST"
            assert replies[5]["ok"] is True
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

# -- binary framing attacks ------------------------------------------------


def bframe(payload=b"", *, version=WIRE_VERSION, flags=0, kind=None, req_id=1, length=None):
    """A raw binary frame with every header field overridable."""
    if kind is None:
        kind = VERB_WIRE["read"]
    if length is None:
        length = len(payload)
    return (
        _BIN_PREFIX.pack(MAGIC, version, flags)
        + _BIN_REST.pack(kind, req_id, length)
        + payload
    )


def packed_read(path=b"f", blockno=0):
    """The packed payload of a ``read`` request."""
    return struct.pack(">H", len(path)) + path + struct.pack(">Q", blockno)


async def read_frames_any(reader, n, timeout=5.0):
    """Read ``n`` frames of either framing via the real decoder."""
    decoder = FrameDecoder()
    out = []
    while len(out) < n:
        chunk = await asyncio.wait_for(reader.read(4096), timeout)
        if not chunk:
            raise AssertionError(f"eof after {len(out)}/{n} frames")
        out.extend(decoder.feed(chunk))
    return out[:n]


class TestBinaryByteLevelAttacks:
    async def _expect_rejection(self, hostile: bytes, replies: int = 1):
        """One hostile binary frame → typed error reply, clean disconnect,
        healthy daemon afterwards."""
        daemon, host, port = await start_daemon()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(hostile)
        await writer.drain()
        got = await read_until_eof(reader)
        assert len(got) == replies, got
        for reply in got:
            assert reply["ok"] is False
            assert reply["code"] == "BAD_REQUEST"
        if replies:
            assert daemon.protocol_errors >= 1
        writer.close()
        await assert_daemon_healthy(daemon)
        await daemon.aclose()

    def test_unknown_version_rejected(self):
        run(self._expect_rejection(bframe(packed_read(), version=9)))

    def test_unknown_flag_bits_rejected(self):
        run(self._expect_rejection(bframe(packed_read(), flags=0x80)))

    def test_unknown_verb_id_rejected(self):
        run(self._expect_rejection(bframe(packed_read(), kind=213)))

    def test_oversized_binary_length_rejected(self):
        run(self._expect_rejection(bframe(length=MAX_FRAME_BYTES + 1)))

    def test_trailing_payload_bytes_rejected(self):
        run(self._expect_rejection(bframe(packed_read() + b"stowaway")))

    def test_truncated_binary_frame_is_a_clean_disconnect(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            # Claim 64 payload bytes, deliver 8, hang up mid-frame.
            writer.write(bframe(b"not much", length=64))
            await writer.drain()
            writer.close()
            assert await read_until_eof(reader) == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_mid_batch_garbage_rejected(self):
        # A readv frame whose op records dissolve into noise after op #1.
        payload = (
            struct.pack(">I", 3)  # three ops promised
            + packed_read(b"f", 1)  # op 1 is fine
            + b"\xde\xad\xbe\xef\xff"  # then the wheels come off
        )
        run(
            self._expect_rejection(
                bframe(payload, kind=VERB_WIRE["readv"])
            )
        )

    def test_zero_and_oversized_batch_counts_rejected(self):
        for count in (0, 2**31):
            run(
                self._expect_rejection(
                    bframe(struct.pack(">I", count), kind=VERB_WIRE["readv"])
                )
            )

    def test_binary_request_served_without_negotiation(self):
        """Inbound framing is auto-detected per frame: a binary request on
        a fresh connection is answered (on the still-JSON outbound)."""

        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_message({"id": 1, "verb": "ping"}, "binary"))
            await writer.drain()
            (reply,) = await read_replies(reader, 1)  # reply is JSON-framed
            assert reply["ok"] is True and reply["value"]["pong"] is True
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_magic_prefixed_blob_battery(self):
        """Sixty connections opening with MAGIC then noise: every reply is
        a typed error, never INTERNAL, and the daemon survives them all."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xB14A)
            for _ in range(60):
                reader, writer = await asyncio.open_connection(host, port)
                blob = MAGIC + bytes(
                    rng.getrandbits(8) for _ in range(rng.randint(0, 200))
                )
                writer.write(blob)
                await writer.drain()
                writer.close()
                for reply in await read_until_eof(reader):
                    assert reply.get("ok") is False
                    assert reply.get("code") in ERROR_CODES
                    assert reply.get("code") != "INTERNAL"
            assert not daemon._kernel_task.done()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


class TestBinaryDecoderFuzz:
    """The codec in isolation: hostile frames raise ProtocolError, never
    anything else, and never hang."""

    HOSTILE = [
        bframe(packed_read(), version=0),
        bframe(packed_read(), flags=0x40),
        bframe(packed_read(), kind=0),  # verb id 0 is unassigned
        bframe(b"", kind=9, flags=0x01),  # reply kind 9 does not exist
        bframe(b"\x07", kind=1, flags=0x01),  # hit byte must be 0 or 1
        bframe(b"\xff" + struct.pack(">I", 1) + b"x", flags=0x01 | 0x02),  # error code index 255
        bframe(packed_read()[:-3]),  # payload shorter than the packed form
        bframe(struct.pack(">H", 500) + b"short", kind=VERB_WIRE["read"]),  # string overruns payload
        bframe(b"{not json", flags=0x04),  # FLAG_JSON payload that isn't
        bframe(b'"a list no"', flags=0x04),  # FLAG_JSON payload, wrong type
    ]

    def test_hostile_corpus_raises_protocol_error(self):
        for hostile in self.HOSTILE:
            with pytest.raises(ProtocolError):
                FrameDecoder().feed(hostile)

    def test_seeded_random_payload_battery_is_bounded(self):
        """Random payloads under a valid header: decode, reject or wait
        for more bytes — but always return, and never raise anything but
        ProtocolError."""
        rng = random.Random(0xFACE)
        outcomes = {"decoded": 0, "rejected": 0, "partial": 0}
        for case in range(400):
            if case % 40 == 0:  # salt the noise with well-formed frames
                hostile = encode_message(
                    {"id": case, "verb": "read", "path": "f", "blockno": case},
                    "binary",
                )
            else:
                payload = bytes(
                    rng.getrandbits(8) for _ in range(rng.randint(0, 60))
                )
                hostile = bframe(
                    payload,
                    flags=rng.choice([0, 0x01, 0x02, 0x03, 0x04, 0x05, 0x08]),
                    kind=rng.randint(0, 20),
                    req_id=rng.randint(0, 2**40),
                    length=rng.randint(0, 80),
                )
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(hostile)
            except ProtocolError:
                outcomes["rejected"] += 1
                continue
            if frames:
                outcomes["decoded"] += 1
            else:
                outcomes["partial"] += 1
                assert decoder.pending_bytes > 0
        # The battery genuinely exercised all three outcomes.
        assert all(outcomes.values()), outcomes


class TestNegotiationFuzz:
    JUNK_OFFERS = [
        0,
        1.5,
        True,
        "binary",  # a bare string is not an offer list
        {"wire": "binary"},
        ["BINARY"],
        ["json"],  # json is the floor, not an upgrade
        [None, 42, [], {}],
        [["binary"]],
        "x" * 10_000,
    ]

    def test_junk_wire_offers_never_negotiate_or_kill_the_session(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            for req_id, junk in enumerate(self.JUNK_OFFERS, start=1):
                writer.write(jframe({"id": req_id, "verb": "hello", "wire": junk}))
            await writer.drain()
            replies = await read_replies(reader, len(self.JUNK_OFFERS))
            for reply in replies:
                assert reply["ok"] is True
                assert reply["value"]["wire"] == "json"  # never upgraded
            # The session is intact and still on the JSON framing.
            writer.write(jframe({"id": 99, "verb": "ping"}))
            await writer.drain()
            (pong,) = await read_replies(reader, 1)
            assert pong["value"]["pong"] is True
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_offer_with_junk_alongside_binary_still_negotiates(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            offer = [42, "BINARY", None, "binary", "json"]
            writer.write(jframe({"id": 1, "verb": "hello", "wire": offer}))
            await writer.drain()
            (hello,) = await read_frames_any(reader, 1)
            assert hello["value"]["wire"] == "binary"
            # Replies now arrive binary-framed; requests of either framing
            # are still accepted (inbound always auto-detects).
            writer.write(jframe({"id": 2, "verb": "ping"}))
            writer.write(encode_message({"id": 3, "verb": "ping"}, "binary"))
            await writer.drain()
            pongs = await read_frames_any(reader, 2)
            assert [p["value"]["pong"] for p in pongs] == [True, True]
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_handshake_fuzz_battery(self):
        """Seeded random hellos — junk names, junk offers, junk resumes —
        answered one for one, never INTERNAL, kernel always survives."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0x4E60)
            for _ in range(25):
                reader, writer = await asyncio.open_connection(host, port)
                nreq = rng.randint(2, 8)
                for req_id in range(1, nreq + 1):
                    msg = {"id": req_id, "verb": "hello"}
                    for field in ("name", "wire", "resume", "token"):
                        if rng.random() < 0.6:
                            msg[field] = junk_value(rng)
                    writer.write(jframe(msg))
                await writer.drain()
                replies = await read_frames_any(reader, nreq)
                assert sorted(r["id"] for r in replies) == list(range(1, nreq + 1))
                for reply in replies:
                    if not reply["ok"]:
                        assert reply["code"] in ERROR_CODES
                        assert reply["code"] != "INTERNAL", reply
                writer.close()
            assert daemon.errors == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


class TestMixedHostility:
    @pytest.mark.slow
    def test_long_mixed_hostility_battery(self):
        """Interleave byte noise, junk messages and honest traffic at scale."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xBEEF)
            for round_no in range(40):
                reader, writer = await asyncio.open_connection(host, port)
                if rng.random() < 0.4:
                    writer.write(bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 80))))
                    await writer.drain()
                    writer.close()
                    await read_until_eof(reader)
                else:
                    nreq = rng.randint(3, 10)
                    for req_id in range(1, nreq + 1):
                        msg = {"id": req_id, "verb": rng.choice(FUZZ_VERBS)}
                        for name in rng.sample(PARAM_NAMES, rng.randint(0, 4)):
                            msg[name] = junk_value(rng)
                        writer.write(jframe(msg))
                    await writer.drain()
                    replies = await read_replies(reader, nreq)
                    for reply in replies:
                        assert reply["ok"] or reply["code"] != "INTERNAL", reply
                    writer.close()
                if round_no % 10 == 9:
                    # Honest traffic keeps working mid-battery.
                    client = await CacheClient.connect_inproc(daemon, name="honest")
                    await client.open("steady", size_blocks=2)
                    await client.write("steady", 0, whole=True)
                    await client.aclose()
            assert daemon.errors == []
            await assert_daemon_healthy(daemon)
            summary = await daemon.aclose()
            assert summary["flushed_blocks"] >= 1

        run(go())
