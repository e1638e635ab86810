from __future__ import annotations

import errno
import gc
import itertools
import json
import os
import random
import struct
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_object, rechain, record_range, watch_segment
from nde4 import archive as archive_module
from nde4.archive import (
    Archive,
    ArchiveWire,
    BadPreamble,
    CHAIN_FILE,
    ChainRecord,
    DataObject,
    DuplicateUID,
    Element,
    NonCanonicalOrder,
    OP_ERROR,
    OP_FETCH,
    OP_QUERY,
    OP_RESULT,
    OP_STORE,
    SEGMENT_FILE,
    TruncatedElement,
    UnknownUID,
    UnreadableObject,
    VerifyResult,
    _query_keys,
    decode_object,
    digest,
    encode_object,
    parse_chain_line,
)
from nde4.errors import ValidationFailed
from nde4.semantics import (
    TAG_COMPONENT_SERIAL, TAG_METHOD_CODE, TAG_ORDER_ID, EncodingError, TagCode,
)
from nde4.timebase import LogicalClock


def test_element_compares_like_its_pair():
    # oracle: plain ((group, element), value) pairs; small values force ties
    rng = random.Random(911)
    pairs = [
        ((rng.choice((0, 8, 0xFFFF)), rng.randrange(3)), rng.choice((b"", b"a", b"b", b"ab")))
        for _ in range(50)
    ]
    elements = [Element(TagCode(*code), value) for code, value in pairs]
    for (a, pa), (b, pb) in itertools.product(zip(elements, pairs), repeat=2):
        assert (a == b) == (pa == pb)
        assert (a != b) == (pa != pb)
        assert (a < b) == (pa < pb)
        assert (a <= b) == (pa <= pb)
        assert (hash(a) == hash(b)) == (hash(pa) == hash(pb))
    assert [(tuple(e.code), e.value) for e in sorted(elements)] == sorted(pairs)
    element = Element(TagCode(0x0010, 0x0001), b"SN")
    assert repr(element) == "Element(code=TagCode(group=16, element=1), value=b'SN')"
    # decode builds the same types as the constructors do
    decoded = decode_object(encode_object(DataObject((element,)))).elements
    assert decoded == (element,)
    assert type(decoded[0]) is Element and type(decoded[0].code) is TagCode


def test_encode_layout():
    obj = DataObject.from_values({TagCode(0x0008, 0x0001): b"obj-1"})
    raw = encode_object(obj)
    assert raw[:4] == b"NDEO"
    assert raw[4] == 0x01
    group, element, length = struct.unpack_from("<HHI", raw, 5)
    assert (group, element, length) == (0x0008, 0x0001, 5)
    assert raw[13:] == b"obj-1"


def test_round_trip_preserves_elements():
    obj = make_object()
    assert decode_object(encode_object(obj)) == obj


def test_from_values_sorts_canonically():
    scrambled = {
        TagCode(0x7FE0, 0x0010): b"bulk",
        TagCode(0x0008, 0x0001): b"obj-1",
        TagCode(0x0008, 0x0002): b"20200101T000000",
    }
    obj = DataObject.from_values(scrambled)
    codes = [e.code for e in obj.elements]
    assert codes == sorted(codes)


def test_encode_rejects_out_of_order_elements():
    backwards = DataObject(
        elements=(
            Element(TagCode(0x0010, 0x0001), b"SN"),
            Element(TagCode(0x0008, 0x0001), b"obj-1"),
        )
    )
    with pytest.raises(NonCanonicalOrder):
        encode_object(backwards)
    duplicated = DataObject(
        elements=(
            Element(TagCode(0x0008, 0x0001), b"a"),
            Element(TagCode(0x0008, 0x0001), b"b"),
        )
    )
    with pytest.raises(NonCanonicalOrder):
        encode_object(duplicated)


def test_decode_rejects_out_of_order_bytes():
    raw = b"NDEO\x01"
    raw += struct.pack("<HHI", 0x0010, 0x0001, 2) + b"SN"
    raw += struct.pack("<HHI", 0x0008, 0x0001, 3) + b"uid"
    with pytest.raises(NonCanonicalOrder):
        decode_object(raw)
    # the message names both codes; the extremes of the 16-bit range included
    for first, second in (((0x0010, 0x0001), (0x0008, 0x0001)),
                          ((0x0008, 0x0002), (0x0008, 0x0001)),
                          ((0x0008, 0x0001), (0x0008, 0x0001)),
                          ((0xFFFF, 0xFFFF), (0x0000, 0x0000)),
                          ((0x0000, 0x0000), (0x0000, 0x0000))):
        raw = raw_object([(TagCode(*first), b"a"), (TagCode(*second), b"b")])
        with pytest.raises(NonCanonicalOrder) as info:
            decode_object(raw)
        assert str(info.value) == (
            f"{TagCode(*second)} after {TagCode(*first)}; strictly ascending required"
        )


def test_decode_bad_preamble_and_version():
    with pytest.raises(BadPreamble):
        decode_object(b"XXXX\x01")
    with pytest.raises(BadPreamble):
        decode_object(b"NDEO\x02")
    with pytest.raises(BadPreamble):
        decode_object(b"NDE")


def test_decode_truncation_reports_offset():
    raw = b"NDEO\x01" + struct.pack("<HHI", 0x0008, 0x0001, 10) + b"short"
    with pytest.raises(TruncatedElement) as info:
        decode_object(raw)
    assert str(info.value) == "value of (0008,0001) cut short at byte 13: need 10 bytes, have 5"
    with pytest.raises(TruncatedElement, match="^element header cut short at byte 5$"):
        decode_object(b"NDEO\x01" + b"\x08\x00")  # header cut short


KEY_TAGS = (TAG_ORDER_ID, TAG_COMPONENT_SERIAL, TAG_METHOD_CODE)


def raw_object(elements) -> bytes:
    """Object bytes of (code, value) pairs in the order given, canonical or not."""
    return b"NDEO\x01" + b"".join(
        struct.pack("<HHI", code.group, code.element, len(value)) + value
        for code, value in elements
    )


def random_elements(rng: random.Random) -> list[tuple[TagCode, bytes]]:
    """A canonical element list; each key tag present with probability 0.7,
    with UTF-8 text that may be empty or non-ASCII."""
    codes = {TagCode(rng.randrange(0x30), rng.randrange(3)) for _ in range(rng.randint(0, 8))}
    codes.update(tag for tag in KEY_TAGS if rng.random() < 0.7)
    return [
        (code, "".join(rng.choice("aZ9-ü€") for _ in range(rng.randrange(6))).encode()
         if code in KEY_TAGS else rng.randbytes(rng.randrange(10)))
        for code in sorted(codes)
    ]


def outcome(read, data: bytes):
    try:
        return read(data)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def decoded_keys(data: bytes):
    obj = decode_object(data)
    return obj.order_id, obj.component_serial, obj.method_code


def test_query_keys_agree_with_decode_object_on_valid_and_corrupt_bytes():
    rng = random.Random(20201010)
    kinds: Counter = Counter()

    def check(data: bytes) -> None:
        expected = outcome(decoded_keys, data)
        assert outcome(_query_keys, data) == expected, data
        kinds[expected[0] if isinstance(expected[0], type) else "keys"] += 1

    for _ in range(60):
        elements = random_elements(rng)
        data = raw_object(elements)
        check(data)
        for cut in range(len(data)):
            check(data[:cut])
        if len(elements) >= 2:
            i, j = sorted(rng.sample(range(len(elements)), 2))
            swapped = list(elements)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            check(raw_object(swapped))
        check(b"NDEX" + data[4:])
        check(data[:4] + bytes([rng.randrange(2, 256)]) + data[5:])
        for _ in range(20):
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            check(bytes(flipped))
        keyed = [k for k, (code, _) in enumerate(elements) if code in KEY_TAGS]
        if keyed:
            k = rng.choice(keyed)
            broken = list(elements)
            broken[k] = (elements[k][0], elements[k][1] + rng.choice((b"\xff", b"\xc3")))
            check(raw_object(broken))
    assert set(kinds) == {
        "keys", BadPreamble, TruncatedElement, NonCanonicalOrder, EncodingError
    }


def test_store_fetch_and_uids(store):
    uid = store.store(make_object(uid="obj-1"))
    assert uid == "obj-1"
    assert store.has("obj-1")
    assert store.fetch("obj-1") == make_object(uid="obj-1")
    assert store.uids() == ("obj-1",)
    with pytest.raises(UnknownUID):
        store.fetch("obj-9")
    with pytest.raises(DuplicateUID):
        store.store(make_object(uid="obj-1", order_id="ORD-9"))


def test_store_refuses_invalid_objects(store):
    incomplete = DataObject.from_values({TagCode(0x0008, 0x0001): b"obj-1"})
    with pytest.raises(ValidationFailed) as info:
        store.store(incomplete)
    assert info.value.report is not None
    assert not store.uids()
    assert not (store.directory / SEGMENT_FILE).exists()


def test_store_refuses_path_hostile_uid(store):
    with pytest.raises(ValidationFailed):
        store.store(make_object(uid="../escape"))


def test_reload_from_disk(tmp_path):
    clock = LogicalClock()
    first = Archive(tmp_path / "d", clock)
    first.store(make_object(uid="obj-1"))
    clock.advance()
    first.store(make_object(uid="obj-2", order_id="ORD-8"))
    reopened = Archive(tmp_path / "d", clock)
    assert reopened.uids() == ("obj-1", "obj-2")
    assert reopened.fetch("obj-2").order_id == "ORD-8"
    # appends continue the chain
    clock.advance()
    reopened.store(make_object(uid="obj-3", order_id="ORD-9"))
    assert reopened.verify_chain().ok


def test_query_conjunction_matches_linear_scan(store, clock, tmp_path):
    rng = random.Random(4004)
    orders = ["ORD-1", "ORD-2", "ORD-3"]
    serials = ["SN-1", "SN-2"]
    methods = ["UT", "RT", "VT"]
    # a second store is queried half way, so it indexes its later stores
    growing = Archive(tmp_path / "growing", clock)
    rows = []
    for n in range(40):
        order_id = rng.choice(orders)
        serial = rng.choice(serials)
        method = rng.choice(methods)
        uid = f"obj-{n}"
        obj = make_object(uid=uid, order_id=order_id, serial=serial, method=method)
        store.store(obj)
        growing.store(obj)
        rows.append((uid, order_id, serial, method))
        if n == 19:
            assert growing.query(method="UT") == tuple(
                row[0] for row in rows if row[3] == "UT"
            )
        clock.advance()
    reopened = Archive(store.directory, clock)
    for _ in range(60):
        want_order = rng.choice(orders + [None])
        want_serial = rng.choice(serials + [None])
        want_method = rng.choice(methods + [None])
        oracle = tuple(
            uid
            for uid, order_id, serial, method in rows
            if (want_order is None or order_id == want_order)
            and (want_serial is None or serial == want_serial)
            and (want_method is None or method == want_method)
        )
        for archive in (store, reopened, growing):
            got = archive.query(
                order_id=want_order, component_serial=want_serial, method=want_method
            )
            assert got == oracle


def test_index_loses_no_store_under_concurrent_queries(tmp_path):
    storers, per_storer = 4, 12
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(4):
            # each round opens the store afresh, so its index is built while
            # the storers run
            store = Archive(tmp_path / "data")
            done = threading.Event()
            failures: list[BaseException] = []

            def put(n: int) -> None:
                try:
                    for k in range(per_storer):
                        store.store(make_object(
                            uid=f"obj-{round_}-{n}-{k}", order_id=f"ORD-{k % 3}"))
                except BaseException as exc:  # surfaced after join
                    failures.append(exc)

            def ask() -> None:
                try:
                    while not done.is_set():
                        for order_id in ("ORD-0", "ORD-1", "ORD-2"):
                            got = store.query(order_id=order_id)
                            assert list(got) == [u for u in store.uids() if u in got]
                except BaseException as exc:
                    failures.append(exc)

            askers = [threading.Thread(target=ask) for _ in range(2)]
            putters = [threading.Thread(target=put, args=(n,)) for n in range(storers)]
            for thread in askers + putters:
                thread.start()
            for thread in putters:
                thread.join(timeout=60)
            done.set()
            for thread in askers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in askers + putters)
            assert not failures
            for k in range(3):
                want = tuple(
                    u for u in store.uids() if int(u.rsplit("-", 1)[1]) % 3 == k
                )
                assert len(want) == (round_ + 1) * storers * len(range(k, per_storer, 3))
                assert store.query(order_id=f"ORD-{k}") == want
    finally:
        sys.setswitchinterval(interval)


def test_chain_lines_verify_and_reject_noncanonical(store, clock):
    store.store(make_object(uid="obj-1"))
    clock.advance()
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    lines = (store.directory / CHAIN_FILE).read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = parse_chain_line(line)
        assert record.line() == line
    # uppercase hex parses to identical bytes but is not canonical
    flipped = lines[0].replace("a", "A", 1)
    if flipped != lines[0]:
        with pytest.raises(ValueError):
            parse_chain_line(flipped)


def test_verify_chain_detects_object_tamper(store, clock):
    for n in range(3):
        store.store(make_object(uid=f"obj-{n}", order_id=f"ORD-{n}"))
        clock.advance()
    assert store.verify_chain().ok
    segment = store.directory / SEGMENT_FILE
    blob = bytearray(segment.read_bytes())
    blob[record_range(store.directory, "obj-1").start + 4 + 7] ^= 0xFF
    segment.write_bytes(bytes(blob))
    result = store.verify_chain()
    assert not result.ok
    assert result.bad_index == 1
    # a reopened store serves no record that fails its chain digest
    reopened = Archive(store.directory, clock)
    assert reopened.fetch("obj-0") == make_object(uid="obj-0", order_id="ORD-0")
    assert reopened.fetch("obj-2") == make_object(uid="obj-2", order_id="ORD-2")
    with pytest.raises(UnreadableObject):
        reopened.fetch_bytes("obj-1")


def test_verify_chain_detects_missing_middle_object(store, clock):
    for n in range(3):
        store.store(make_object(uid=f"obj-{n}", order_id=f"ORD-{n}"))
        clock.advance()
    # splice obj-1's record out: obj-2's record now sits in its place
    segment = store.directory / SEGMENT_FILE
    blob = segment.read_bytes()
    middle = record_range(store.directory, "obj-1")
    segment.write_bytes(blob[: middle.start] + blob[middle.stop :])
    result = store.verify_chain()
    assert not result.ok
    assert result.bad_index == 1
    # a reopened store credits no record to another uid
    reopened = Archive(store.directory, clock)
    assert reopened.fetch("obj-0") == make_object(uid="obj-0", order_id="ORD-0")
    for uid in ("obj-1", "obj-2"):
        with pytest.raises(UnreadableObject):
            reopened.fetch(uid)
        with pytest.raises(UnreadableObject):
            reopened.fetch_bytes(uid)


def test_verify_chain_detects_missing_tail(store, clock):
    store.store(make_object(uid="obj-1"))
    clock.advance()
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    chain_path = store.directory / CHAIN_FILE
    lines = chain_path.read_text().splitlines()
    chain_path.write_text(lines[0] + "\n")
    result = store.verify_chain()
    assert not result.ok
    assert result.bad_index == 1  # chain has 1 record; obj-2's record is uncovered


def test_verify_chain_detects_record_edit(store, clock):
    store.store(make_object(uid="obj-1"))
    clock.advance()
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    chain_path = store.directory / CHAIN_FILE
    lines = chain_path.read_text().splitlines()
    # re-point record 0 at the other object, keeping its line self-consistent
    record = parse_chain_line(lines[1])
    forged = parse_chain_line(lines[0])
    forged = replace(forged, object_digest=record.object_digest)
    chain_path.write_text("\n".join((forged.line(), lines[1])) + "\n")
    result = store.verify_chain()
    assert not result.ok
    assert result.bad_index in (0, 1)  # digest mismatch at 0, else prev break at 1


def test_chain_uid_must_be_an_id_token(store, clock):
    store.store(make_object(uid="obj-1"))
    # a self-consistent record, with its object in the segment, whose uid
    # holds a NUL byte
    first = parse_chain_line((store.directory / CHAIN_FILE).read_text().splitlines()[0])
    blob = encode_object(make_object(uid="obj-2"))
    forged = ChainRecord(
        1, "bad\x00uid", digest(blob), digest(first.canonical_bytes()), "20200101T000001"
    )
    with (store.directory / SEGMENT_FILE).open("ab") as segment:
        segment.write(struct.pack("<I", len(blob)) + blob)
    with (store.directory / CHAIN_FILE).open("a") as chain:
        chain.write(forged.line() + "\n")
    for uid in ("bad\x00uid", "obj-ü", "../obj-1"):
        with pytest.raises(ValueError):
            parse_chain_line(replace(forged, object_uid=uid).line())
    reopened = Archive(store.directory, clock)
    assert reopened.uids() == ("obj-1",)
    assert reopened.verify_chain() == VerifyResult(False, 1, 2)


def test_chain_byte_that_is_not_utf8_is_a_bad_line_on_open(store, clock):
    store.store(make_object(uid="obj-1"))
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    chain = store.directory / CHAIN_FILE
    raw = bytearray(chain.read_bytes())
    raw[raw.index(b"\n") + 3] = 0xFF  # inside line 1's uid
    chain.write_bytes(bytes(raw))
    reopened = Archive(store.directory, clock)
    assert reopened.uids() == ("obj-1",)
    assert reopened.verify_chain() == VerifyResult(False, 1, 2)


def test_stray_tail_is_ignored_reported_and_cut_by_the_next_store(store, clock):
    objects = [make_object(uid=f"obj-{n}", order_id=f"ORD-{n}") for n in range(4)]
    for obj in objects[:3]:
        store.store(obj)
        clock.advance()
    # what stores that died before their chain line leave: a whole record,
    # then a record cut short
    stray = encode_object(make_object(uid="obj-9", order_id="ORD-9"))
    segment = store.directory / SEGMENT_FILE
    with segment.open("ab") as out:
        out.write(struct.pack("<I", len(stray)) + stray)
        out.write(struct.pack("<I", len(stray)) + stray[:10])
    reopened = Archive(store.directory, clock)
    for obj in objects[:3]:
        assert reopened.fetch(obj.uid) == obj
    with pytest.raises(UnknownUID):
        reopened.fetch("obj-9")
    assert reopened.query(order_id="ORD-9") == ()
    assert reopened.verify_chain() == VerifyResult(False, 3, 3)
    reopened.store(objects[3])
    again = Archive(store.directory, clock)
    for obj in objects:
        assert again.fetch(obj.uid) == obj
    assert again.query(order_id="ORD-3") == ("obj-3",)
    assert again.query(order_id="ORD-9") == ()
    assert again.verify_chain() == VerifyResult(True, None, 4)
    assert segment.stat().st_size == record_range(store.directory, "obj-3").stop


def test_failed_chain_append_cuts_the_segment_back(store, clock, monkeypatch):
    store.store(make_object(uid="obj-1"))
    segment = store.directory / SEGMENT_FILE
    before = segment.read_bytes()

    def disk_full(path, line):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(archive_module, "append_line", disk_full)
    with pytest.raises(OSError):
        store.store(make_object(uid="obj-2", order_id="ORD-8"))
    assert segment.read_bytes() == before
    assert store.uids() == ("obj-1",)
    monkeypatch.undo()
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    reopened = Archive(store.directory, clock)
    assert reopened.fetch("obj-2") == make_object(uid="obj-2", order_id="ORD-8")
    assert reopened.verify_chain() == VerifyResult(True, None, 2)


def test_reads_return_whole_records_and_hold_no_handle(store, clock, monkeypatch):
    store.store(make_object(uid="obj-1"))
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    _, _, open_fds = watch_segment(monkeypatch)
    segment = store.directory / SEGMENT_FILE
    segment.write_bytes(segment.read_bytes()[:-3])  # obj-2's record cut short
    assert store.fetch_bytes("obj-1") == encode_object(make_object(uid="obj-1"))
    with pytest.raises(UnreadableObject):
        store.fetch_bytes("obj-2")
    with pytest.raises(UnreadableObject):
        store.query(order_id="ORD-8")
    assert store.verify_chain() == VerifyResult(False, 1, 2)
    assert not open_fds


def test_store_appends_nothing_after_records_it_cannot_read(tmp_path, clock):
    def three_objects(name: str) -> Path:
        archive = Archive(tmp_path / name, clock)
        for n in range(3):
            archive.store(make_object(uid=f"obj-{n}", order_id=f"ORD-{n}"))
        return archive.directory

    # a segment cut before obj-1's record; a chain line that does not parse
    cut = three_objects("cut")
    segment = cut / SEGMENT_FILE
    segment.write_bytes(segment.read_bytes()[: record_range(cut, "obj-1").start])
    damaged = three_objects("damaged")
    lines = (damaged / CHAIN_FILE).read_text().splitlines()
    lines[1] = lines[1][:-1] + "x"
    (damaged / CHAIN_FILE).write_text("\n".join(lines) + "\n")
    # the last record's length prefix lowered by 3: the record reads 3 bytes
    # short, and a store that trusted it would cut those bytes off
    short = three_objects("short")
    segment = short / SEGMENT_FILE
    blob = bytearray(segment.read_bytes())
    last = record_range(short, "obj-2")
    struct.pack_into("<I", blob, last.start, len(last) - 4 - 3)
    segment.write_bytes(bytes(blob))
    with pytest.raises(UnreadableObject):
        Archive(short, clock).fetch_bytes("obj-2")
    for directory in (cut, damaged, short):
        files = [(directory / name).read_bytes() for name in (SEGMENT_FILE, CHAIN_FILE)]
        with pytest.raises(UnreadableObject):
            Archive(directory, clock).store(make_object(uid="obj-3"))
        assert [(directory / name).read_bytes() for name in (SEGMENT_FILE, CHAIN_FILE)] == files


def test_empty_store_verifies(store):
    result = store.verify_chain()
    assert result.ok
    assert result.records == 0


def test_wire_store_fetch_query(store):
    wire = ArchiveWire(store)
    payload = encode_object(make_object(uid="obj-1"))
    response = wire.request(bytes([OP_STORE]) + payload)
    assert response[0] == OP_RESULT
    assert json.loads(response[1:]) == {"uid": "obj-1"}

    response = wire.request(bytes([OP_FETCH]) + b'{"uid":"obj-1"}')
    assert response[0] == OP_RESULT
    assert decode_object(response[1:]) == make_object(uid="obj-1")

    response = wire.request(bytes([OP_QUERY]) + b'{"orderId":"ORD-7"}')
    assert response[0] == OP_RESULT
    assert json.loads(response[1:]) == {"uids": ["obj-1"]}

    # null stands for an omitted criterion
    response = wire.request(bytes([OP_QUERY]) + b'{"orderId":null,"method":"RT"}')
    assert response[0] == OP_RESULT
    assert json.loads(response[1:]) == {"uids": []}


def test_missing_object_file_is_a_named_error(store, clock):
    store.store(make_object(uid="obj-1"))
    clock.advance()
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    # the segment is cut before obj-2's record; a reopened store finds that
    # at its first read
    segment = store.directory / SEGMENT_FILE
    segment.write_bytes(segment.read_bytes()[: record_range(store.directory, "obj-2").start])
    store = Archive(store.directory, clock)
    with pytest.raises(UnreadableObject):
        store.fetch("obj-2")
    with pytest.raises(UnreadableObject):
        store.fetch_bytes("obj-2")
    # a failed index build leaves no index behind: the next query fails too
    for _ in range(2):
        with pytest.raises(UnreadableObject):
            store.query(order_id="ORD-7")
    assert store.query() == ("obj-1", "obj-2")
    assert store.fetch("obj-1") == make_object(uid="obj-1")
    wire = ArchiveWire(store)
    for opcode, body in ((OP_FETCH, b'{"uid":"obj-2"}'), (OP_QUERY, b'{"method":"UT"}')):
        response = wire.request(bytes([opcode]) + body)
        assert response[0] == OP_ERROR
        assert json.loads(response[1:])["code"] == "UnreadableObject"


def test_corrupt_object_file_fails_the_index_build(store, clock):
    store.store(make_object(uid="obj-1"))
    clock.advance()
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    segment = store.directory / SEGMENT_FILE
    last = record_range(store.directory, "obj-2")
    # every key still reads, but the tail is a cut-short element header
    damaged = segment.read_bytes()[last.start + 4 :] + b"\x08\x00"
    segment.write_bytes(
        segment.read_bytes()[: last.start] + struct.pack("<I", len(damaged)) + damaged
    )
    with pytest.raises(TruncatedElement) as decoded:
        decode_object(damaged)
    # the record fails its chain digest, so it is not held; with a chain
    # that agrees with it, the index build decodes it and fails on it. A
    # failed index build leaves no index behind: the next query fails too
    for error in (UnreadableObject, TruncatedElement):
        reopened = Archive(store.directory, clock)
        for _ in range(2):
            with pytest.raises(error) as queried:
                reopened.query(order_id="ORD-7")
        assert reopened.query() == ("obj-1", "obj-2")
        response = ArchiveWire(reopened).request(bytes([OP_QUERY]) + b'{"method":"UT"}')
        assert response[0] == OP_ERROR
        assert json.loads(response[1:])["code"] == error.__name__
        rechain(store.directory)
    assert str(queried.value) == str(decoded.value)


def test_non_utf8_key_value_on_disk_is_named_store_damage(store, clock):
    store.store(make_object(uid="obj-1"))
    segment = store.directory / SEGMENT_FILE
    segment.write_bytes(segment.read_bytes().replace(b"ORD-7", b"ORD-\xff"))
    # the record fails its chain digest: no read serves it, and verify_chain
    # names it
    reopened = Archive(store.directory, clock)
    wire = ArchiveWire(reopened)
    for opcode, body in ((OP_FETCH, b'{"uid":"obj-1"}'), (OP_QUERY, b'{"orderId":"ORD-7"}')):
        response = wire.request(bytes([opcode]) + body)
        assert response[0] == OP_ERROR
        assert json.loads(response[1:])["code"] == "UnreadableObject"
    assert reopened.verify_chain() == VerifyResult(False, 0, 1)
    # with a chain that agrees with it, the bad key value is a named error
    # and the bytes still travel
    rechain(store.directory)
    reopened = Archive(store.directory, clock)
    with pytest.raises(EncodingError):
        reopened.fetch("obj-1").order_id
    wire = ArchiveWire(reopened)
    response = wire.request(bytes([OP_QUERY]) + b'{"orderId":"ORD-7"}')
    assert response[0] == OP_ERROR
    assert json.loads(response[1:])["code"] == "EncodingError"
    assert wire.request(bytes([OP_FETCH]) + b'{"uid":"obj-1"}')[0] == OP_RESULT


def test_wire_errors(store):
    wire = ArchiveWire(store)
    response = wire.request(bytes([OP_FETCH]) + b'{"uid":"ghost"}')
    assert response[0] == OP_ERROR
    assert json.loads(response[1:])["code"] == "UnknownUID"
    response = wire.request(b"")
    assert response[0] == OP_ERROR
    response = wire.request(bytes([0x55]) + b"??")
    assert response[0] == OP_ERROR
    assert "opcode" in json.loads(response[1:])["detail"]
    # well-formed JSON of the wrong shape is a malformed request, not a crash
    for opcode, body in (
        (OP_FETCH, b"[1]"),
        (OP_FETCH, b'"x"'),
        (OP_FETCH, b'{"uid":[1]}'),
        (OP_FETCH, b'{"uid":5}'),
        (OP_QUERY, b"[" * 100_000),
        (OP_QUERY, b"[]"),
        (OP_QUERY, b'{"orderID":"ORD-1"}'),
        (OP_QUERY, b'{"orderId":5}'),
    ):
        response = wire.request(bytes([opcode]) + body)
        assert response[0] == OP_ERROR
        assert json.loads(response[1:])["code"] == "MalformedRequest"


def test_dropped_wire_frees_its_archive_without_the_collector(tmp_path):
    # a server may swap in a new wire per store copy, as the evidence-wire
    # benchmark does; a reference cycle through the wire would hold each
    # old archive until the collector's next full pass
    store = Archive(tmp_path / "served", LogicalClock())
    wire = ArchiveWire(store)
    assert wire.request(bytes([OP_QUERY]) + b"{}")[0] == OP_RESULT
    freed = weakref.ref(store)
    gc.disable()
    try:
        del store, wire
        assert freed() is None
    finally:
        gc.enable()
