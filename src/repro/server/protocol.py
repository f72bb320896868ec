"""The wire protocol: JSON and binary frames over a transport.

Two framings share every connection; frames are self-describing, so a
single decoder handles both and a peer may switch framings mid-stream
(that is what makes ``hello`` negotiation race-free):

* **JSON** — a 4-byte big-endian payload length followed by a UTF-8 JSON
  object.  ``MAX_FRAME_BYTES`` is 1 MiB, so the first byte of a JSON
  frame is always ``0x00``.
* **binary** — a 17-byte struct-packed header (2-byte magic
  ``b"\\xac\\xfc"`` whose first byte is never ``0x00``, 1-byte version,
  1-byte flags, 1-byte verb/reply-kind, 8-byte signed request id, 4-byte
  payload length) followed by a packed payload.  Hot verbs
  (``read``/``write``/``readv``/``writev``) and their replies use fixed
  binary payloads parsed through ``memoryview`` slices; everything else
  rides as a JSON params payload inside a binary frame
  (``FLAG_JSON``).  Messages with no binary representation fall back to
  whole JSON frames, which is always legal.

Requests and responses are plain dicts in either framing:

* request — ``{"id": <int>, "verb": <str>, ...params}``;
* success — ``{"id": <int>, "ok": true, "value": <any>}``;
* failure — ``{"id": <int>, "ok": false, "code": <str>, "error": <str>}``.

The verbs cover the file API (``open``/``read``/``write``/``close``, plus
the batched ``readv``/``writev`` carriers), the five paper directives
(``set_priority``, ``get_priority``, ``set_policy``, ``get_policy``,
``set_temppri``) and the service verbs (``ping``, ``hello``, ``stats``,
``metrics``, ``flush``).  Error codes are listed in :data:`ERROR_CODES`;
``BUSY`` is the 429-style backpressure reply.

Every wire verb is declared once, as one row of :data:`VERBS`: its
binary verb id, whether the kernel task or the session handler answers
it, whether it is idempotent, how the cluster routes it and which
parameters it requires.  Everything else — the verb sets, the binary id
maps, request validation, the client's retry set, the cluster's routing
sets and the service's directive operands — is derived from that table,
so the router, the daemon and the clients cannot drift apart.

This module is transport- and kernel-agnostic: it knows bytes and dicts,
nothing else (lint rule R006 keeps it that way).  The same
:class:`Transport` interface backs real sockets (:class:`StreamTransport`)
and the in-process queue pair used by tests and benchmarks
(:class:`QueueTransport`), so every path through the daemon exercises the
same frame codec.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

_HEADER = struct.Struct(">I")

#: refuse frames larger than this (a corrupt length prefix would otherwise
#: make the reader wait for gigabytes)
MAX_FRAME_BYTES = 1 << 20

#: refuse batches larger than this (bounds per-frame kernel work and the
#: weighted-queue overshoot past the global pending limit)
MAX_BATCH_OPS = 1024

#: error codes a failure reply may carry
ERROR_CODES = (
    "BAD_REQUEST",  # malformed frame, unknown verb, bad params
    "BUSY",  # global pending limit reached; retry later (429-style)
    "SHUTTING_DOWN",  # daemon is draining; no new work accepted
    "FS",  # filesystem error (unknown file, read past EOF, ...)
    "DIRECTIVE",  # an fbehavior call failed (bad operands, limits)
    "REVOKED",  # the session's cache control was revoked (fbehavior denied)
    "IO_ERROR",  # a (simulated) disk I/O failed for good after retries
    "INTERNAL",  # unexpected server-side failure
)


class ProtocolError(Exception):
    """A frame could not be encoded or decoded."""


class RequestValidationError(ProtocolError):
    """A decoded request failed wire-boundary validation."""


def _checked_string(what: str) -> Callable[[str, Any], str]:
    """A validator for a parameter that must be a non-empty string."""

    def check(verb: str, raw: Any) -> str:
        if not isinstance(raw, str) or not raw:
            raise RequestValidationError(f"{verb}: bad {what} {raw!r}")
        return raw

    return check


def _coerce_blockno(verb: str, raw: Any) -> int:
    if isinstance(raw, bool):
        raise RequestValidationError(f"{verb}: bad block number {raw!r}")
    try:
        blockno = int(raw)
    except (TypeError, ValueError) as exc:
        raise RequestValidationError(f"{verb}: bad block number {raw!r}") from exc
    if blockno < 0:
        raise RequestValidationError(f"{verb}: negative block number {blockno}")
    return blockno


class _TrustedOps(list):
    """A batch ops list decoded from the *packed* binary form.

    The packed decoder can only produce already-normalised records
    (non-empty ``str`` path, in-range ``int`` blockno, ``bool`` whole),
    so revalidating each op would just re-prove what the byte layout
    enforced.  The type is the provenance proof: ``json.loads`` can never
    produce it, so nothing a JSON frame or a FLAG_JSON payload carries
    can claim the fast path.
    """

    __slots__ = ()


def _validated_batch_ops(verb: str, ops: Any) -> List[Dict[str, Any]]:
    """Normalise a readv/writev ``ops`` list or raise on any bad op."""
    if type(ops) is _TrustedOps:
        return ops  # packed-decoded: the wire layout already validated it
    if not isinstance(ops, list) or not ops:
        raise RequestValidationError(f"{verb}: ops must be a non-empty list")
    if len(ops) > MAX_BATCH_OPS:
        raise RequestValidationError(
            f"{verb}: batch of {len(ops)} ops exceeds {MAX_BATCH_OPS}"
        )
    with_whole = verb == "writev"
    normalized: List[Dict[str, Any]] = []
    for index, op in enumerate(ops):
        if not isinstance(op, dict):
            raise RequestValidationError(f"{verb}: op {index} is not an object")
        path = op.get("path")
        if not isinstance(path, str) or not path:
            raise RequestValidationError(f"{verb}: op {index}: bad path {path!r}")
        entry: Dict[str, Any] = {
            "path": path,
            "blockno": _coerce_blockno(verb, op.get("blockno")),
        }
        if with_whole:
            entry["whole"] = bool(op.get("whole", True))
        normalized.append(entry)
    return normalized


def _validated_path_list(verb: str, raw: Any, allow_empty: bool) -> List[str]:
    if not isinstance(raw, list) or (not raw and not allow_empty):
        raise RequestValidationError(f"{verb}: paths must be a non-empty list")
    if len(raw) > MAX_BATCH_OPS:
        raise RequestValidationError(
            f"{verb}: list of {len(raw)} paths exceeds {MAX_BATCH_OPS}"
        )
    paths: List[str] = []
    for index, path in enumerate(raw):
        if not isinstance(path, str) or not path:
            raise RequestValidationError(f"{verb}: path {index}: bad path {path!r}")
        paths.append(path)
    return paths


def _validated_migration_records(verb: str, raw: Any) -> List[Dict[str, Any]]:
    """Normalise a migrate_chunk ``records`` list or raise on any bad record."""
    if not isinstance(raw, list):
        raise RequestValidationError(f"{verb}: records must be a list")
    if len(raw) > MAX_BATCH_OPS:
        raise RequestValidationError(
            f"{verb}: chunk of {len(raw)} records exceeds {MAX_BATCH_OPS}"
        )
    records: List[Dict[str, Any]] = []
    for index, record in enumerate(raw):
        if not isinstance(record, dict):
            raise RequestValidationError(f"{verb}: record {index} is not an object")
        path = record.get("path")
        if not isinstance(path, str) or not path:
            raise RequestValidationError(f"{verb}: record {index}: bad path {path!r}")
        entry: Dict[str, Any] = {
            "path": path,
            "blockno": _coerce_blockno(verb, record.get("blockno")),
            "dirty": bool(record.get("dirty", False)),
        }
        size_blocks = record.get("size_blocks")
        if size_blocks is not None:
            entry["size_blocks"] = _coerce_blockno(verb, size_blocks)
        disk = record.get("disk")
        if disk is not None:
            if not isinstance(disk, str) or not disk:
                raise RequestValidationError(
                    f"{verb}: record {index}: bad disk {disk!r}"
                )
            entry["disk"] = disk
        records.append(entry)
    return records


def _check_invalidate(verb: str, fields: Dict[str, Any]) -> None:
    blockno = fields.get("blockno")
    if blockno is not None:
        fields["blockno"] = _coerce_blockno(verb, blockno)


def _check_migrate_begin(verb: str, fields: Dict[str, Any]) -> None:
    # An empty list is a pure manifest probe (list the shard's files).
    fields["paths"] = _validated_path_list(verb, fields.get("paths", []), True)


def _check_migrate_chunk(verb: str, fields: Dict[str, Any]) -> None:
    # Either a push of export records or a pull against a migration token.
    if "records" in fields:
        fields["records"] = _validated_migration_records(verb, fields["records"])
        return
    _PARAM_CHECKS["token"](verb, fields.get("token"))
    if "max" in fields:
        limit = fields["max"]
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise RequestValidationError(f"{verb}: bad chunk limit {limit!r}")


#: validators of the parameters a verb may require, by parameter name;
#: each returns the normalised value or raises RequestValidationError
_PARAM_CHECKS: Dict[str, Callable[[str, Any], Any]] = {
    "path": _checked_string("path"),
    "blockno": _coerce_blockno,
    "ops": _validated_batch_ops,
    "bundle": _checked_string("bundle name"),
    "paths": lambda verb, raw: _validated_path_list(verb, raw, False),
    "token": _checked_string("migration token"),
}

#: how the cluster client routes a verb
ROUTE_REPLICA = "replica"  # through the replication path to every replica of each op's path
ROUTE_PATH = "path"  # to the shard owning the request's ``path``
ROUTE_FANOUT = "fanout"  # to every shard (service verbs, global configuration)
ROUTE_FIRST = "first"  # to the ring's first shard


class Verb(NamedTuple):
    """One wire verb: everything the tree needs to know about it."""

    name: str
    #: binary verb id: the kind byte of a binary request frame
    wire_id: int
    #: answered by the kernel task (False: by the session handler)
    kernel: bool
    #: safe to re-send after a timeout: applying it twice leaves the
    #: kernel as applying it once does (writes and ``set_*`` do not)
    idempotent: bool
    #: one of ROUTE_REPLICA, ROUTE_PATH, ROUTE_FANOUT, ROUTE_FIRST
    route: str
    #: required parameters: checked by ``_PARAM_CHECKS`` where it names
    #: them, otherwise required present.  A directive's are its fbehavior
    #: operands, in order.
    params: Tuple[str, ...] = ()
    #: shape check of the optional or alternative parameters, if any
    check: Optional[Callable[[str, Dict[str, Any]], None]] = None


#: the wire protocol's verbs, the single place one is declared
VERBS: Dict[str, Verb] = {
    verb.name: verb
    for verb in (
        # name, wire id, kernel, idempotent, route, required params, check
        #
        # session handler (never queued for the kernel)
        Verb("hello", 1, False, True, ROUTE_FIRST),
        Verb("ping", 2, False, True, ROUTE_FANOUT),
        # the file API
        Verb("open", 3, True, True, ROUTE_REPLICA, ("path",)),
        Verb("read", 4, True, True, ROUTE_REPLICA, ("path", "blockno")),
        Verb("write", 5, True, False, ROUTE_REPLICA, ("path", "blockno")),
        Verb("close", 6, True, False, ROUTE_FIRST),
        # the five fbehavior directives
        Verb("set_priority", 7, True, False, ROUTE_PATH, ("path", "prio")),
        Verb("get_priority", 8, True, True, ROUTE_PATH, ("path",)),
        Verb("set_policy", 9, True, False, ROUTE_FANOUT, ("prio", "policy")),
        Verb("get_policy", 10, True, True, ROUTE_FIRST, ("prio",)),
        Verb("set_temppri", 11, True, False, ROUTE_PATH, ("path", "start", "end", "prio")),
        # service verbs
        Verb("stats", 12, True, True, ROUTE_FANOUT),
        Verb("metrics", 13, True, True, ROUTE_FANOUT),
        Verb("flush", 14, True, True, ROUTE_FANOUT),
        # batch carriers: one frame holds N block ops, one reply N results
        Verb("readv", 15, True, True, ROUTE_REPLICA, ("ops",)),
        Verb("writev", 16, True, False, ROUTE_REPLICA, ("ops",)),
        # replication and migration (repair converges: dropping a dropped
        # block or re-fetching a declared bundle is a no-op)
        Verb("invalidate", 17, True, True, ROUTE_REPLICA, ("path",), _check_invalidate),
        Verb("declare_bundle", 18, True, True, ROUTE_REPLICA, ("bundle", "paths")),
        Verb("migrate_begin", 19, True, False, ROUTE_FIRST, (), _check_migrate_begin),
        Verb("migrate_chunk", 20, True, False, ROUTE_FIRST, (), _check_migrate_chunk),
        Verb("migrate_end", 21, True, False, ROUTE_FIRST, ("token",)),
    )
}

#: verbs that reach the kernel task
KERNEL_VERBS = frozenset(name for name, verb in VERBS.items() if verb.kernel)
#: batch carrier verbs
BATCH_VERBS = frozenset(name for name, verb in VERBS.items() if "ops" in verb.params)
#: binary verb id of every wire verb, and the reverse map
VERB_WIRE: Dict[str, int] = {name: verb.wire_id for name, verb in VERBS.items()}
_VERB_BY_ID = {verb.wire_id: name for name, verb in VERBS.items()}


def validated_request(msg: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Validate a decoded request at the wire boundary; ``(verb, fields)``.

    The protocol layer is the trust boundary: values in ``msg`` came off
    the wire and may have any shape JSON allows.  This re-checks everything
    the kernel-facing layers consume — the verb must be in :data:`VERBS`,
    its required parameters present, ``path`` a non-empty string,
    ``blockno`` coerced to a non-negative ``int``, batch ``ops`` lists
    re-normalised element by element — and returns only the parameter
    fields (never ``verb`` or the request id).  Raises
    :class:`RequestValidationError` on any violation; the daemon maps that
    onto a ``BAD_REQUEST`` reply.
    """
    verb = msg.get("verb")
    row = VERBS.get(verb) if isinstance(verb, str) else None
    if row is None:
        raise RequestValidationError(f"unknown verb {verb!r}")
    fields: Dict[str, Any] = {
        key: value for key, value in msg.items() if key not in ("verb", "id")
    }
    missing = []
    for name in row.params:
        check = _PARAM_CHECKS.get(name)
        if check is not None:
            fields[name] = check(verb, fields.get(name))
        elif name not in fields:
            missing.append(name)
    if missing:
        raise RequestValidationError(
            f"{verb}: missing parameter(s) {', '.join(missing)}"
        )
    if row.check is not None:
        row.check(verb, fields)
    return verb, fields


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire form."""
    try:
        payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message {obj!r}: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame payload back into a message dict."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame is not an object: {obj!r}")
    return obj


# -- binary framing -------------------------------------------------------

#: wire framing names, as negotiated in ``hello``
WIRE_JSON = "json"
WIRE_BINARY = "binary"

#: framings this build can emit (it always decodes both)
SUPPORTED_WIRES = (WIRE_BINARY,)

#: first byte is never 0x00, so a binary frame can't be mistaken for the
#: length prefix of a <=1MiB JSON frame (and vice versa)
MAGIC = b"\xac\xfc"
WIRE_VERSION = 1

# Header layout: magic(2) version(1) flags(1) | kind(1) request-id(8) len(4).
# The prefix is exactly as long as the JSON length prefix, so both stream
# and queue decoders read 4 bytes, then branch on the first two.
_BIN_PREFIX = struct.Struct(">2sBB")
_BIN_REST = struct.Struct(">BqI")
BIN_HEADER_BYTES = _BIN_PREFIX.size + _BIN_REST.size

FLAG_REPLY = 0x01  # frame is a response, kind byte is a reply kind
FLAG_ERROR = 0x02  # response carries (code, message), not a value
FLAG_JSON = 0x04  # payload is JSON (params dict / {"value": ...})
FLAG_NO_ID = 0x08  # message id is null (the id field is ignored)
_KNOWN_FLAGS = FLAG_REPLY | FLAG_ERROR | FLAG_JSON | FLAG_NO_ID

#: reply kinds (the kind byte of a non-error, non-JSON reply frame)
_RT_JSON = 0
_RT_HIT = 1  # payload: hit(1) — the read/write fast path
_RT_BATCH = 2  # payload: count(4) then per-op ok/hit or error records

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def negotiate_wire(offers: Any) -> Optional[str]:
    """The framing to switch a session to, given a hello ``wire`` offer.

    ``offers`` came off the wire: junk shapes or unknown names are never
    fatal, they just mean the session stays on JSON (``None``).
    """
    if isinstance(offers, (list, tuple)):
        for name in offers:
            if isinstance(name, str) and name in SUPPORTED_WIRES:
                return name
    return None


def _bin_id(msg: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    """(flags, id) for the header, or None if the id is unrepresentable."""
    req_id = msg.get("id")
    if req_id is None:
        return FLAG_NO_ID, 0
    if isinstance(req_id, bool) or not isinstance(req_id, int):
        return None
    if not -(1 << 63) <= req_id < (1 << 63):
        return None
    return 0, req_id


def _pack_op(op: Any, with_whole: bool) -> Optional[bytes]:
    """Pack one read/write op record, or None if it doesn't fit the shape."""
    if not isinstance(op, dict):
        return None
    expected = {"path", "blockno", "whole"} if with_whole else {"path", "blockno"}
    if set(op) != expected:
        return None
    path, blockno = op["path"], op["blockno"]
    if not isinstance(path, str):
        return None
    raw = path.encode("utf-8")
    if len(raw) > 0xFFFF:
        return None
    if isinstance(blockno, bool) or not isinstance(blockno, int):
        return None
    if not 0 <= blockno < (1 << 64):
        return None
    record = _U16.pack(len(raw)) + raw + _U64.pack(blockno)
    if with_whole:
        if not isinstance(op["whole"], bool):
            return None
        record += b"\x01" if op["whole"] else b"\x00"
    return record


def _pack_batch(ops: Any, with_whole: bool) -> Optional[bytes]:
    # The encode hot loop: _pack_op's checks inlined over hoisted locals,
    # since a big batch pays this path per op.
    if not isinstance(ops, list) or not ops or len(ops) > MAX_BATCH_OPS:
        return None
    parts = [_U32.pack(len(ops))]
    append = parts.append
    pack_u16, pack_u64 = _U16.pack, _U64.pack
    expected_len = 3 if with_whole else 2
    for op in ops:
        if not isinstance(op, dict) or len(op) != expected_len:
            return None
        try:
            path, blockno = op["path"], op["blockno"]
        except KeyError:
            return None
        if not isinstance(path, str):
            return None
        raw = path.encode("utf-8")
        if len(raw) > 0xFFFF:
            return None
        if isinstance(blockno, bool) or not isinstance(blockno, int):
            return None
        if not 0 <= blockno < (1 << 64):
            return None
        append(pack_u16(len(raw)))
        append(raw)
        append(pack_u64(blockno))
        if with_whole:
            try:
                whole = op["whole"]
            except KeyError:
                return None
            if not isinstance(whole, bool):
                return None
            append(b"\x01" if whole else b"\x00")
    return b"".join(parts)


def _frame(flags: int, kind: int, req_id: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return (
        _BIN_PREFIX.pack(MAGIC, WIRE_VERSION, flags)
        + _BIN_REST.pack(kind, req_id, len(payload))
        + payload
    )


def _json_params_payload(msg: Dict[str, Any]) -> Optional[bytes]:
    try:
        return json.dumps(
            {key: value for key, value in msg.items() if key not in ("id", "verb")},
            separators=(",", ":"),
        ).encode("utf-8")
    except (TypeError, ValueError):
        return None


def _encode_binary_request(msg: Dict[str, Any]) -> Optional[bytes]:
    verb = msg.get("verb")
    wire_id = VERB_WIRE.get(verb) if isinstance(verb, str) else None
    if wire_id is None:
        return None
    ids = _bin_id(msg)
    if ids is None:
        return None
    flags, req_id = ids
    params = {key for key in msg if key not in ("id", "verb")}
    payload: Optional[bytes] = None
    if verb == "read" and params == {"path", "blockno"}:
        payload = _pack_op({"path": msg["path"], "blockno": msg["blockno"]}, False)
    elif verb == "write" and params == {"path", "blockno", "whole"}:
        payload = _pack_op(
            {"path": msg["path"], "blockno": msg["blockno"], "whole": msg["whole"]},
            True,
        )
    elif verb in BATCH_VERBS and params == {"ops"}:
        payload = _pack_batch(msg["ops"], verb == "writev")
    if payload is None:
        payload = _json_params_payload(msg)
        if payload is None:
            return None
        flags |= FLAG_JSON
    return _frame(flags, wire_id, req_id, payload)


def _pack_reply_value(value: Any) -> Optional[Tuple[int, bytes]]:
    """(reply kind, payload) for a recognised value shape, else None."""
    if not isinstance(value, dict):
        return None
    if set(value) == {"hit"} and isinstance(value["hit"], bool):
        return _RT_HIT, (b"\x01" if value["hit"] else b"\x00")
    if set(value) == {"results"} and isinstance(value["results"], list):
        results = value["results"]
        if not results or len(results) > MAX_BATCH_OPS:
            return None
        parts = [_U32.pack(len(results))]
        append = parts.append
        for result in results:
            if not isinstance(result, dict):
                return None
            if len(result) == 1:
                hit = result.get("hit")
                if not isinstance(hit, bool):
                    return None
                append(b"\x00\x01" if hit else b"\x00\x00")
            elif (
                len(result) == 2
                and result.get("code") in ERROR_CODES
                and isinstance(result.get("error"), str)
            ):
                raw = result["error"].encode("utf-8")
                append(
                    b"\x01"
                    + bytes([ERROR_CODES.index(result["code"])])
                    + _U32.pack(len(raw))
                    + raw
                )
            else:
                return None
        return _RT_BATCH, b"".join(parts)
    return None


def _encode_binary_reply(msg: Dict[str, Any]) -> Optional[bytes]:
    ids = _bin_id(msg)
    if ids is None:
        return None
    flags, req_id = ids
    flags |= FLAG_REPLY
    if msg.get("ok") is True:
        if set(msg) != {"id", "ok", "value"}:
            return None
        packed = _pack_reply_value(msg["value"])
        if packed is not None:
            kind, payload = packed
            return _frame(flags, kind, req_id, payload)
        try:
            payload = json.dumps(
                {"value": msg["value"]}, separators=(",", ":")
            ).encode("utf-8")
        except (TypeError, ValueError):
            return None
        return _frame(flags | FLAG_JSON, _RT_JSON, req_id, payload)
    if msg.get("ok") is not False or set(msg) != {"id", "ok", "code", "error"}:
        return None
    code, error = msg["code"], msg["error"]
    if code not in ERROR_CODES or not isinstance(error, str):
        return None
    raw = error.encode("utf-8")
    payload = bytes([ERROR_CODES.index(code)]) + _U32.pack(len(raw)) + raw
    return _frame(flags | FLAG_ERROR, _RT_JSON, req_id, payload)


def encode_message(msg: Dict[str, Any], wire: str = WIRE_JSON) -> bytes:
    """Serialise one message in the given framing.

    Binary framing falls back to a whole JSON frame for any message it
    has no packed form for (unknown verbs, exotic ids, unencodable
    values) — legal because frames are self-describing: a peer that
    negotiated binary still decodes both framings on the same stream.
    """
    if wire == WIRE_BINARY and isinstance(msg, dict):
        packed = (
            _encode_binary_reply(msg) if "ok" in msg else _encode_binary_request(msg)
        )
        if packed is not None:
            return packed
    return encode_frame(msg)


class _PayloadReader:
    """Bounds-checked cursor over a binary payload ``memoryview``."""

    __slots__ = ("_view", "_pos")

    def __init__(self, view: memoryview) -> None:
        self._view = view
        self._pos = 0

    def take(self, count: int) -> memoryview:
        end = self._pos + count
        if end > len(self._view):
            raise ProtocolError(
                f"truncated binary payload: wanted {count} bytes at {self._pos}, "
                f"have {len(self._view)}"
            )
        chunk = self._view[self._pos:end]
        self._pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise ProtocolError(f"bad boolean byte {value:#x} in binary payload")
        return bool(value)

    def string(self, length: int) -> str:
        try:
            return str(self.take(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary payload: {exc}") from exc

    def done(self) -> None:
        if self._pos != len(self._view):
            raise ProtocolError(
                f"{len(self._view) - self._pos} trailing bytes after binary payload"
            )


def _decode_batch_ops(verb: str, payload: memoryview) -> List[Dict[str, Any]]:
    """Decode a packed readv/writev ops payload.

    This is the wire hot loop — a 1000-op batch runs it 1000 times — so
    it works straight off the memoryview with ``unpack_from`` instead of
    the bounds-checked :class:`_PayloadReader` cursor.  Every structural
    violation still raises :class:`ProtocolError`; the one *semantic*
    check the layout cannot express (a non-empty path) demotes the list
    to untrusted so ``_validated_batch_ops`` rejects it with the same
    per-request error a JSON frame would get.
    """
    size = len(payload)
    if size < 4:
        raise ProtocolError(f"truncated {verb} frame: no batch count")
    (count,) = _U32.unpack_from(payload, 0)
    if not 1 <= count <= MAX_BATCH_OPS:
        raise ProtocolError(f"bad batch count {count} in {verb} frame")
    with_whole = verb == "writev"
    tail = 9 if with_whole else 8  # blockno u64 (+ whole byte)
    ops: List[Dict[str, Any]] = []
    append = ops.append
    u16_at, u64_at = _U16.unpack_from, _U64.unpack_from
    pos = 4
    trusted = True
    for _ in range(count):
        if pos + 2 > size:
            raise ProtocolError(f"truncated op record in {verb} frame")
        (path_len,) = u16_at(payload, pos)
        pos += 2
        end = pos + path_len
        if end + tail > size:
            raise ProtocolError(f"truncated op record in {verb} frame")
        if path_len == 0:
            trusted = False  # empty path: a request error, not a frame error
        try:
            path = str(payload[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary payload: {exc}") from exc
        (blockno,) = u64_at(payload, end)
        pos = end + 8
        if with_whole:
            whole = payload[pos]
            pos += 1
            if whole > 1:
                raise ProtocolError(
                    f"bad boolean byte {whole:#x} in binary payload"
                )
            append({"path": path, "blockno": blockno, "whole": whole == 1})
        else:
            append({"path": path, "blockno": blockno})
    if pos != size:
        raise ProtocolError(
            f"{size - pos} trailing bytes after binary payload"
        )
    return _TrustedOps(ops) if trusted else ops


def _decode_binary_request(
    flags: int, verb_id: int, req_id: Optional[int], payload: memoryview
) -> Dict[str, Any]:
    verb = _VERB_BY_ID.get(verb_id)
    if verb is None:
        raise ProtocolError(f"unknown binary verb id {verb_id}")
    msg: Dict[str, Any] = {"id": req_id, "verb": verb}
    if flags & FLAG_JSON:
        params = decode_payload(bytes(payload))
        for key, value in params.items():
            if key not in ("id", "verb"):  # never let params forge the envelope
                msg[key] = value
        return msg
    reader = _PayloadReader(payload)
    if verb == "read":
        msg["path"] = reader.string(reader.u16())
        msg["blockno"] = reader.u64()
    elif verb == "write":
        msg["path"] = reader.string(reader.u16())
        msg["blockno"] = reader.u64()
        msg["whole"] = reader.flag()
    elif verb in BATCH_VERBS:
        msg["ops"] = _decode_batch_ops(verb, payload)
        return msg
    else:
        raise ProtocolError(f"verb {verb!r} has no packed payload form")
    reader.done()
    return msg


def _decode_binary_reply(
    flags: int, kind: int, req_id: Optional[int], payload: memoryview
) -> Dict[str, Any]:
    if flags & FLAG_ERROR:
        reader = _PayloadReader(payload)
        code_index = reader.u8()
        if code_index >= len(ERROR_CODES):
            raise ProtocolError(f"unknown binary error code index {code_index}")
        error = reader.string(reader.u32())
        reader.done()
        return error_response(req_id, ERROR_CODES[code_index], error)
    if flags & FLAG_JSON:
        obj = decode_payload(bytes(payload))
        return ok_response(req_id, obj.get("value"))
    if kind == _RT_HIT:
        reader = _PayloadReader(payload)
        hit = reader.flag()
        reader.done()
        return ok_response(req_id, {"hit": hit})
    if kind == _RT_BATCH:
        # Reply hot loop: cursor arithmetic straight off the memoryview,
        # mirroring _decode_batch_ops on the request side.
        size = len(payload)
        if size < 4:
            raise ProtocolError("truncated batch reply: no result count")
        (count,) = _U32.unpack_from(payload, 0)
        if not 1 <= count <= MAX_BATCH_OPS:
            raise ProtocolError(f"bad batch count {count} in reply frame")
        results: List[Dict[str, Any]] = []
        append = results.append
        pos = 4
        for _ in range(count):
            if pos >= size:
                raise ProtocolError("truncated record in batch reply")
            errflag = payload[pos]
            pos += 1
            if errflag == 0:
                if pos >= size:
                    raise ProtocolError("truncated record in batch reply")
                hit = payload[pos]
                pos += 1
                if hit > 1:
                    raise ProtocolError(
                        f"bad boolean byte {hit:#x} in binary payload"
                    )
                append({"hit": hit == 1})
            elif errflag == 1:
                if pos + 5 > size:
                    raise ProtocolError("truncated record in batch reply")
                code_index = payload[pos]
                if code_index >= len(ERROR_CODES):
                    raise ProtocolError(
                        f"unknown binary error code index {code_index}"
                    )
                (msg_len,) = _U32.unpack_from(payload, pos + 1)
                pos += 5
                end = pos + msg_len
                if end > size:
                    raise ProtocolError("truncated record in batch reply")
                try:
                    error = str(payload[pos:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"bad UTF-8 in binary payload: {exc}"
                    ) from exc
                pos = end
                append({"code": ERROR_CODES[code_index], "error": error})
            else:
                raise ProtocolError(
                    f"bad boolean byte {errflag:#x} in binary payload"
                )
        if pos != size:
            raise ProtocolError(
                f"{size - pos} trailing bytes after binary payload"
            )
        return ok_response(req_id, {"results": results})
    raise ProtocolError(f"unknown binary reply kind {kind}")


def decode_binary_frame(
    version: int, flags: int, kind: int, req_id: int, payload: memoryview
) -> Dict[str, Any]:
    """Decode a binary frame body given its already-unpacked header."""
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported binary wire version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown binary flags {flags:#04x}")
    rid = None if flags & FLAG_NO_ID else req_id
    if flags & FLAG_REPLY:
        return _decode_binary_reply(flags, kind, rid, payload)
    return _decode_binary_request(flags, kind, rid, payload)


class FrameDecoder:
    """Incremental frame decoder (transport-agnostic, synchronous).

    Feed it byte chunks as they arrive; it yields complete messages in
    either framing — each frame declares itself through its first two
    bytes.  Used directly by :class:`QueueTransport` and by protocol unit
    tests; the stream transport reads exact lengths instead.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message completed by it."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _BIN_PREFIX.size:
                return messages
            if self._buffer[:2] == MAGIC:
                if len(self._buffer) < BIN_HEADER_BYTES:
                    return messages
                _, version, flags = _BIN_PREFIX.unpack_from(self._buffer)
                kind, req_id, length = _BIN_REST.unpack_from(
                    self._buffer, _BIN_PREFIX.size
                )
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
                    )
                end = BIN_HEADER_BYTES + length
                if len(self._buffer) < end:
                    return messages
                payload = bytes(self._buffer[BIN_HEADER_BYTES:end])
                del self._buffer[:end]
                messages.append(
                    decode_binary_frame(version, flags, kind, req_id, memoryview(payload))
                )
                continue
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            messages.append(decode_payload(payload))

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- message constructors -------------------------------------------------


def request(req_id: int, verb: str, **params: Any) -> Dict[str, Any]:
    msg = {"id": req_id, "verb": verb}
    msg.update(params)
    return msg


def ok_response(req_id: Optional[int], value: Any = None) -> Dict[str, Any]:
    return {"id": req_id, "ok": True, "value": value}


def error_response(req_id: Optional[int], code: str, message: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return {"id": req_id, "ok": False, "code": code, "error": message}


def request_id_of(msg: Any) -> Optional[int]:
    """The request id of a (possibly malformed) message, if it has one."""
    if isinstance(msg, dict):
        req_id = msg.get("id")
        if isinstance(req_id, int):
            return req_id
    return None


# -- transports -----------------------------------------------------------


class Transport:
    """One bidirectional message channel (either end of a connection).

    ``wire`` governs only *outbound* framing; inbound frames are always
    auto-detected, so the two directions may switch at different moments
    during negotiation without losing a frame.
    """

    wire: str = WIRE_JSON

    def set_wire(self, wire: str) -> None:
        """Switch outbound framing (after a successful negotiation)."""
        if wire != WIRE_JSON and wire not in SUPPORTED_WIRES:
            raise ProtocolError(f"unknown wire framing {wire!r}")
        self.wire = wire

    async def recv(self) -> Optional[Dict[str, Any]]:
        """The next message, or None once the peer is gone."""
        raise NotImplementedError

    async def send(self, msg: Dict[str, Any]) -> None:
        """Deliver one message (no-op after close)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the channel down; pending ``recv`` calls return None."""
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class StreamTransport(Transport):
    """A transport over an asyncio stream pair (TCP or Unix socket)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False

    async def recv(self) -> Optional[Dict[str, Any]]:
        try:
            prefix = await self._reader.readexactly(_BIN_PREFIX.size)
            if prefix[:2] == MAGIC:
                rest = await self._reader.readexactly(_BIN_REST.size)
                _, version, flags = _BIN_PREFIX.unpack(prefix)
                kind, req_id, length = _BIN_REST.unpack(rest)
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
                    )
                payload = await self._reader.readexactly(length)
                return decode_binary_frame(
                    version, flags, kind, req_id, memoryview(payload)
                )
            (length,) = _HEADER.unpack(prefix)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
            payload = await self._reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        return decode_payload(payload)

    async def send(self, msg: Dict[str, Any]) -> None:
        if self._closed:
            return
        try:
            self._writer.write(encode_message(msg, self.wire))
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._closed = True

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass

    @property
    def closed(self) -> bool:
        return self._closed


class QueueTransport(Transport):
    """An in-process transport: encoded frames through two asyncio queues.

    Frames travel as bytes, so the loopback path exercises exactly the
    same codec as a socket; only the kernel-bypassing copy differs.
    """

    _EOF = b""

    def __init__(self, inbox: "asyncio.Queue[bytes]", outbox: "asyncio.Queue[bytes]") -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._decoder = FrameDecoder()
        self._ready: List[Dict[str, Any]] = []
        self._closed = False
        self._eof = False

    async def recv(self) -> Optional[Dict[str, Any]]:
        while not self._ready:
            if self._eof or self._closed:
                return None
            chunk = await self._inbox.get()
            if chunk == self._EOF:
                self._eof = True
                return None
            self._ready.extend(self._decoder.feed(chunk))
        return self._ready.pop(0)

    async def send(self, msg: Dict[str, Any]) -> None:
        if self._closed:
            return
        await self._outbox.put(encode_message(msg, self.wire))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Wake both ends: our reader and the peer's.
        self._inbox.put_nowait(self._EOF)
        self._outbox.put_nowait(self._EOF)

    @property
    def closed(self) -> bool:
        return self._closed


def queue_pair() -> Tuple[QueueTransport, QueueTransport]:
    """A connected (server_side, client_side) in-process transport pair."""
    a: "asyncio.Queue[bytes]" = asyncio.Queue()
    b: "asyncio.Queue[bytes]" = asyncio.Queue()
    return QueueTransport(inbox=a, outbox=b), QueueTransport(inbox=b, outbox=a)
