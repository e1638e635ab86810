"""Wire framing shared by all three channels.

Layout, bit-exact: bytes 0-3 ASCII "NDE4"; byte 4 version = 0x01; byte 5
channel; bytes 6-9 payload length, little-endian u32; then the payload.

The ORDERS channel refuses payloads over 16 MiB (16,777,216 bytes,
boundary inclusive) at encode time AND decode time: bulk data belongs on
the archive channel, and silently chunking would defeat that routing.

ARCHIVE and SOVEREIGN payloads share one request/response convention,
implemented once here: 1-byte opcode + body, canonical JSON, and failures
answered as ERROR + {"code", "detail"}. Every JSON document read from
outside goes through one reader here, json_object, and then through key
tables that share one JSON type rule; tests/test_mutation.py holds every
decoder and both request wires to both rules on seeded mutations.
"""

from __future__ import annotations

import inspect
import json
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Mapping

from .errors import Nde4Error

MAGIC = b"NDE4"
VERSION = 0x01
HEADER_SIZE = 10
ORDERS_PAYLOAD_LIMIT = 16 * 2**20  # inclusive

# error opcode shared by the ARCHIVE and SOVEREIGN channels
OP_ERROR = 0x7F

Handler = Callable[[bytes], bytes]  # request payload -> response payload


class Channel(IntEnum):
    ORDERS = 1
    ARCHIVE = 2
    SOVEREIGN = 3


# channel byte -> member, looked up per frame instead of calling Channel()
_CHANNELS = {int(channel): channel for channel in Channel}
_HEADER = struct.Struct("<BBI")  # version, channel, payload length


class BadMagic(Nde4Error):
    """Frame does not start with the magic bytes."""


class BadVersion(Nde4Error):
    """Frame version byte is not the supported version."""


class UnknownChannel(Nde4Error):
    """Channel byte names no known channel."""


class LengthMismatch(Nde4Error):
    """Length field disagrees with the actual payload size."""


class OversizedPayload(Nde4Error):
    """ORDERS payload exceeds the channel cap; route via the archive channel."""


@dataclass(frozen=True, slots=True)
class Frame:
    channel: Channel
    payload: bytes


def encode_frame(channel: Channel, payload: bytes) -> bytes:
    if type(channel) is not Channel:  # Channel() raises what it always has
        channel = Channel(channel)
    if channel is Channel.ORDERS and len(payload) > ORDERS_PAYLOAD_LIMIT:
        raise OversizedPayload(
            f"ORDERS payload {len(payload)} bytes exceeds cap "
            f"{ORDERS_PAYLOAD_LIMIT}"
        )
    if len(payload) > 0xFFFFFFFF:
        raise OversizedPayload(f"payload {len(payload)} bytes exceeds u32 length")
    return MAGIC + _HEADER.pack(VERSION, channel, len(payload)) + payload


def decode_frame(data: bytes) -> Frame:
    if len(data) < HEADER_SIZE:
        raise LengthMismatch(f"frame shorter than header: {len(data)} bytes")
    if data[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {data[:4]!r}")
    version, channel_byte, length = _HEADER.unpack_from(data, 4)
    if version != VERSION:
        raise BadVersion(f"expected version {VERSION}, got {version}")
    channel = _CHANNELS.get(channel_byte)
    if channel is None:
        raise UnknownChannel(f"channel byte {channel_byte:#x}")
    if len(data) - HEADER_SIZE != length:
        raise LengthMismatch(
            f"length field {length}, actual payload {len(data) - HEADER_SIZE}"
        )
    if channel is Channel.ORDERS and length > ORDERS_PAYLOAD_LIMIT:
        raise OversizedPayload(
            f"ORDERS payload {length} bytes exceeds cap {ORDERS_PAYLOAD_LIMIT}"
        )
    return Frame(channel, data[HEADER_SIZE:])


# --- canonical JSON and the ARCHIVE/SOVEREIGN request/response convention ---

class _CanonicalEncoder(json.JSONEncoder):
    """json.JSONEncoder.encode without its Python layers: the C encoder that
    iterencode would build, called at once. Each call makes its own
    circular-reference markers, so one encoder is shared by every thread."""

    def encode(self, document) -> str:
        return "".join(c_make_encoder(
            {}, self.default, encode_basestring_ascii, self.indent,
            self.key_separator, self.item_separator, self.sort_keys,
            self.skipkeys, self.allow_nan,
        )(document, 0))


# json.dumps builds a new encoder per call; this one is built once
_CANONICAL_ENCODER = _CanonicalEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document) -> bytes:
    """The one byte form of a JSON document: sorted keys, no whitespace."""
    return _CANONICAL_ENCODER.encode(document).encode("utf-8")


def _finite(text: str) -> float:
    """A float literal, or NaN, Infinity or -Infinity; refused unless finite,
    so also a literal past the float range, such as 1e400."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


# json.loads with a hook builds a new decoder per call; this one is built once
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def json_object(document: bytes | str) -> dict:
    """The one reader of outside JSON: one JSON object, as strict UTF-8 bytes
    or as text, with finite numbers only; JsonTypeError for anything else.
    A parse failure keeps its cause (a json.JSONDecodeError has the offset)."""
    try:
        text = document.decode("utf-8") if type(document) is bytes else document
        value = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep,
        # an int past the digit limit, or a number that is not finite
        raise JsonTypeError(f"not a UTF-8 JSON document: {exc}") from exc
    if type(value) is not dict:
        raise _expected(dict, value)
    return value


def json_body(make: Callable, rows: tuple) -> Callable[[bytes], object]:
    """Reader of a request or answer body through the key table `rows`."""
    build = json_table(make, rows)
    return lambda body: build(json_object(body))


def error_payload(code: str, detail: str, opcode: int = OP_ERROR) -> bytes:
    return bytes([opcode]) + canonical_json({"code": code, "detail": detail})


def dispatch(handlers: Mapping[int, Handler], payload: bytes) -> bytes:
    """Answer one request payload through the handler for its opcode.

    A handler takes the body and returns the response payload. An Nde4Error
    it raises answers ERROR with the error's class name as code; an empty
    payload, an unknown opcode, or a body that fails json_object or its key
    table (JsonTypeError) answers ERROR "MalformedRequest". Any other
    exception is a server fault and propagates.
    """
    if not payload:
        return error_payload("MalformedRequest", "empty payload")
    handler = handlers.get(payload[0])
    if handler is None:
        return error_payload("MalformedRequest", f"unknown opcode {payload[0]:#x}")
    try:
        return handler(payload[1:])
    except Nde4Error as exc:
        return error_payload(type(exc).__name__, str(exc))
    except JsonTypeError as exc:
        return error_payload("MalformedRequest", str(exc))


def serve_frame(channel: Channel, request: Handler, frame_bytes: bytes) -> bytes:
    """Answer a request frame through `request` (payload -> payload), on
    `channel`. A frame that does not decode raises."""
    frame = decode_frame(frame_bytes)
    if frame.channel == channel:
        return encode_frame(channel, request(frame.payload))
    detail = f"not a {channel.name.lower()} request"
    return encode_frame(channel, error_payload("MalformedRequest", detail))


# --- typed JSON documents: one key table per JSON object ---------------------

NULL = type(None)  # the kind of a JSON null
_JSON_NAMES = {bool: "bool", int: "int", float: "float", str: "str",
               list: "list", dict: "object", NULL: "null"}


class JsonTypeError(ValueError):
    """A JSON value of the wrong type, or a missing or unknown key. `path`
    holds the keys and list indices that lead to it, innermost first."""

    def __init__(self, problem: str, *path: str | int):
        super().__init__(problem)
        self.path = list(path)

    def __str__(self) -> str:
        steps = (f"[{s}]" if type(s) is int else f".{s}" for s in reversed(self.path))
        where = "".join(steps).lstrip(".")
        return f"{where}: {self.args[0]}" if where else self.args[0]


def _expected(kind, value) -> JsonTypeError:
    names = " or ".join(_JSON_NAMES[t] for t in (kind if type(kind) is dict else [kind]))
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return JsonTypeError(f"expected {names}, got {got}")


def _json_value(value, kind):
    """`value` checked against `kind`: bool, int, float, str or NULL for that
    JSON type exactly (a bool is no int, but a float kind takes an int); a
    dict from JSON type to kind for a value of any one of those types; or
    else a builder called with the value, whose ValueError is a mismatch."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # the reader takes finite numbers only
            raise JsonTypeError("int past the float range") from None
    if type(kind) is dict:
        if type(value) not in kind:
            raise _expected(kind, value)
        return _json_value(value, kind[type(value)])
    if kind in _JSON_NAMES:
        raise _expected(kind, value)
    try:
        return kind(value)
    except JsonTypeError:
        raise
    except ValueError as exc:
        raise JsonTypeError(str(exc)) from exc


def json_table(make: Callable, rows: tuple) -> Callable:
    """Builder of `make(**arguments)` from a JSON object, by `rows` of
    (parameter of `make`, document key, kind as in _json_value). A key is
    required exactly when its parameter has no default; a key not in `rows`
    is refused. The builder keeps its `rows`."""
    by_key = {key: (name, kind) for name, key, kind in rows}
    parameters = inspect.signature(make).parameters
    required = frozenset(key for name, key, _ in rows
                         if parameters[name].default is inspect.Parameter.empty)

    def build(document):
        if type(document) is not dict:
            raise _expected(dict, document)
        arguments = {}
        for key, value in document.items():
            if key not in by_key:
                raise JsonTypeError("unknown key", key)
            name, kind = by_key[key]
            try:
                arguments[name] = value if type(value) is kind else _json_value(value, kind)
            except JsonTypeError as exc:
                exc.path.append(key)
                raise
        if not required <= document.keys():
            raise JsonTypeError("required key missing", min(required - document.keys()))
        return make(**arguments)

    build.rows = rows
    return build


def json_list(kind, collect: Callable = tuple) -> Callable:
    """Builder of `collect(entries)` from a JSON list of values of `kind`,
    which the builder keeps as `item`."""

    def build(value):
        if type(value) is not list:
            raise _expected(list, value)
        entries = []
        for index, entry in enumerate(value):
            try:
                entries.append(entry if type(entry) is kind else _json_value(entry, kind))
            except JsonTypeError as exc:
                exc.path.append(index)
                raise
        return collect(entries)

    build.item = kind
    return build
