from __future__ import annotations

import ast
import json
import random
import struct
import sys
import threading
from pathlib import Path

import pytest

import nde4
from nde4.framing import (
    BadMagic,
    BadVersion,
    Channel,
    Frame,
    HEADER_SIZE,
    LengthMismatch,
    MAGIC,
    ORDERS_PAYLOAD_LIMIT,
    OversizedPayload,
    UnknownChannel,
    VERSION,
    JsonTypeError,
    canonical_json,
    decode_frame,
    encode_frame,
    json_object,
    json_table,
)


def test_header_layout_is_bit_exact():
    raw = encode_frame(Channel.ORDERS, b"hello")
    assert raw[:4] == b"NDE4"
    assert raw[4] == 0x01
    assert raw[5] == 0x01  # ORDERS
    assert struct.unpack("<I", raw[6:10])[0] == 5
    assert raw[10:] == b"hello"
    assert len(raw) == HEADER_SIZE + 5


def test_channel_bytes():
    assert Channel.ORDERS.value == 1
    assert Channel.ARCHIVE.value == 2
    assert Channel.SOVEREIGN.value == 3
    # encode_frame takes what Channel() takes and refuses what it refuses
    for given, member in ((2, Channel.ARCHIVE), (Channel.SOVEREIGN, Channel.SOVEREIGN),
                          (True, Channel.ORDERS)):
        assert encode_frame(given, b"x") == encode_frame(member, b"x")
        assert decode_frame(encode_frame(given, b"x")).channel is member
    for invalid in (0, 4, 256, -1, "1", None, [1]):
        with pytest.raises(ValueError) as expected:
            Channel(invalid)
        with pytest.raises(ValueError) as got:
            encode_frame(invalid, b"x")
        assert str(got.value) == str(expected.value)


def test_round_trip_all_channels():
    for channel in Channel:
        frame = decode_frame(encode_frame(channel, b"\x00\xffpayload"))
        assert frame == Frame(channel, b"\x00\xffpayload")


def test_empty_payload_round_trip():
    frame = decode_frame(encode_frame(Channel.ARCHIVE, b""))
    assert frame.payload == b""


def test_orders_cap_boundary():
    assert ORDERS_PAYLOAD_LIMIT == 16 * 2**20 == 16_777_216
    at_cap = bytes(ORDERS_PAYLOAD_LIMIT)
    raw = encode_frame(Channel.ORDERS, at_cap)
    assert decode_frame(raw).payload == at_cap
    with pytest.raises(OversizedPayload):
        encode_frame(Channel.ORDERS, bytes(ORDERS_PAYLOAD_LIMIT + 1))


def test_orders_cap_enforced_at_decode_too():
    # craft an over-cap ORDERS frame by hand; decode must refuse it
    payload = bytes(ORDERS_PAYLOAD_LIMIT + 1)
    raw = MAGIC + bytes([VERSION, Channel.ORDERS.value])
    raw += struct.pack("<I", len(payload)) + payload
    with pytest.raises(OversizedPayload):
        decode_frame(raw)


def test_bulk_channels_exceed_orders_cap():
    big = bytes(ORDERS_PAYLOAD_LIMIT + 1)
    for channel in (Channel.ARCHIVE, Channel.SOVEREIGN):
        assert decode_frame(encode_frame(channel, big)).payload == big


def test_bad_magic():
    raw = bytearray(encode_frame(Channel.ORDERS, b"x"))
    raw[0] = ord("X")
    with pytest.raises(BadMagic):
        decode_frame(bytes(raw))


def test_bad_version():
    raw = bytearray(encode_frame(Channel.ORDERS, b"x"))
    raw[4] = 0x02
    with pytest.raises(BadVersion):
        decode_frame(bytes(raw))


def test_unknown_channel():
    raw = bytearray(encode_frame(Channel.ORDERS, b"x"))
    raw[5] = 0x09
    with pytest.raises(UnknownChannel):
        decode_frame(bytes(raw))
    # oracle: Channel() on every byte value
    for byte in range(256):
        raw[5] = byte
        try:
            member = Channel(byte)
        except ValueError:
            with pytest.raises(UnknownChannel, match=f"channel byte {byte:#x}$"):
                decode_frame(bytes(raw))
        else:
            assert decode_frame(bytes(raw)).channel is member


def test_length_mismatch_short_and_long():
    good = encode_frame(Channel.ORDERS, b"abcdef")
    with pytest.raises(LengthMismatch):
        decode_frame(good[:-1])  # truncated payload
    with pytest.raises(LengthMismatch):
        decode_frame(good + b"extra")  # trailing garbage
    with pytest.raises(LengthMismatch):
        decode_frame(good[: HEADER_SIZE - 2])  # truncated header


def test_random_round_trips_against_layout_oracle():
    rng = random.Random(2002)
    for _ in range(300):
        channel = rng.choice(list(Channel))
        payload = rng.randbytes(rng.randint(0, 2048))
        raw = encode_frame(channel, payload)
        # oracle: rebuild the frame bytes from the layout definition
        oracle = b"NDE4" + bytes([1, channel.value]) + struct.pack("<I", len(payload)) + payload
        assert raw == oracle
        assert decode_frame(raw) == Frame(channel, payload)


def _random_document(rng: random.Random, depth: int = 0):
    def text():
        return "".join(rng.choice("aZ9 _\"\\\u00e9\u00fc\u4e2d\U0001f600\n")
                       for _ in range(rng.randint(0, 6)))

    leaves = (
        lambda: rng.randint(-2**40, 2**40),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice((0.1, -0.0, 1e300, 5e-324, 2.5)),
        lambda: rng.choice((True, False, None)),
        text,
    )
    kind = rng.randrange(3 if depth < 3 else 1)
    if kind == 1:
        return {text(): _random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if kind == 2:
        return [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return rng.choice(leaves)()


def test_canonical_json_matches_json_dumps_from_many_threads():
    # oracle: the stdlib call canonical_json stands for; the threads share
    # its one encoder
    failures, finished = [], []

    def check(seed):
        rng = random.Random(seed)
        for _ in range(300):
            document = {"k": _random_document(rng), "\u00e9": [_random_document(rng)]}
            expected = json.dumps(document, sort_keys=True, separators=(",", ":"))
            if canonical_json(document) != expected.encode("utf-8"):
                failures.append(document)
        finished.append(seed)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert failures == []


def test_no_source_catches_key_error():
    # JSON is read through key tables (json_object, json_table), whose one
    # error is JsonTypeError; an except naming KeyError means a hand reader
    # indexes a document again
    catches = []
    for path in sorted(Path(nde4.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(name, ast.Name) and name.id == "KeyError"
                for name in ast.walk(node.type)
            ):
                catches.append(f"{path.name}:{node.lineno}")
    assert catches == []


@pytest.mark.parametrize(
    "document",
    [b'{"a": NaN}', b'{"a": Infinity}', b'{"a": [-Infinity]}', b'{"a": 1e400}',
     b'{"a": -1E+400}', b'{"a": "\xff"}', b"[]", b'"x"', b"{} {}", b"\xef\xbb\xbf{}"],
)
def test_json_object_refuses(document):
    with pytest.raises(JsonTypeError):
        json_object(document)
    if document.isascii():  # the same document as text
        with pytest.raises(JsonTypeError):
            json_object(document.decode())


def test_json_object_reads_text_or_bytes():
    text = '{"a": [1, -2.5, 1e-400, 1e308], "\u00e9": null}'
    assert json_object(text) == json_object(text.encode()) == json.loads(text)


def test_float_key_refuses_an_int_past_the_float_range():
    build = json_table(lambda a: a, (("a", "a", float),))
    assert build({"a": 10**308}) == 1e308
    with pytest.raises(JsonTypeError, match="^a: int past the float range$"):
        build({"a": 10**400})


def test_only_framing_parses_json():
    # every JSON document read from outside goes through json_object and its
    # one decoder; a json.loads elsewhere would keep a parse rule of its own
    readers = ("loads", "load", "JSONDecoder")
    found = []
    for path in sorted(Path(nde4.__file__).parent.glob("*.py")):
        if path.name == "framing.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (
                isinstance(node, ast.Attribute) and node.attr in readers
                and isinstance(node.value, ast.Name) and node.value.id == "json"
                or isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "json"
                and any(alias.name in readers for alias in node.names)
                or isinstance(node, ast.Name) and node.id == "JSONDecoder"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_source_writes_unread_state():
    # state an object keeps must be read by something: every self.<name> that
    # src/nde4 writes, by assignment or subscript store, is read as .<name>
    # somewhere in src/, tests/ or perfbench/
    def self_attribute(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    package = Path(nde4.__file__).parent
    root = package.parents[1]
    writes = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                target = node
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            else:
                continue
            if self_attribute(target):
                writes.append((target.attr, f"{path.name}:{node.lineno}"))
    reads = set()
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text("utf-8"))
            # `self.x[k] = v` loads self.x only to store into it
            stored_into = {id(node.value) for node in ast.walk(tree)
                           if isinstance(node, ast.Subscript)
                           and isinstance(node.ctx, ast.Store)}
            reads.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load)
                         and id(node) not in stored_into)
    assert [where for name, where in writes if name not in reads] == []
