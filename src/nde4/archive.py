"""Bulk-data archive: tagged-binary object codec and revision-safe store.

Objects are flat lists of (group, element, value) elements, encoded as:
preamble ASCII "NDEO" + version byte 0x01, then per element group (u16 LE),
element (u16 LE), length (u32 LE), value bytes. Canonical form orders
elements strictly ascending by (group, element); decode rejects anything
else, so there is exactly one byte form per object.

Persistence is one append-only segment file ("objects.seg") of records,
each a u32 LE length and an object's encode bytes, plus an append-only
"chain.log" whose line k belongs to record k. Each chain line links to its
predecessor by digest, so any post-hoc edit of a record or a chain line is
detectable, and the first tampered index is identifiable. A record found
by a read of the segment is served only if its bytes match its chain
line's object digest, and a store refuses to append while any chained
record is not held. Segment bytes past the last chained record are what a
store left that died before its chain line; reads ignore them,
verify_chain reports them, and the next store cuts them off. There is no
delete operation on the public surface, by design.

Cost model: opening a store reads only "chain.log", and hashes each line
once. On a store opened on a chain, the first fetch, query or store reads
the segment once, in order: it checks each record's digest, notes its
(offset, length), and reads its order id, component serial and method into
the query index, walking the object's elements without building them. A
record that is not held, or whose keys do not read, leaves the index
unbuilt and fails no fetch or store; each query then reads the segment
again and raises why. A store that starts empty learns each record's span
as it appends it and builds its index at its first query, in a read of its
own. Later fetches read one record each, later stores append one record
and extend the index, and later queries read nothing.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import Nde4Error, ValidationFailed
from .framing import NULL, OP_ERROR, canonical_json, dispatch, json_body
from .semantics import (
    DICT_V1,
    TAG_COMPONENT_SERIAL,
    TAG_METHOD_CODE,
    TAG_OBJECT_UID,
    TAG_ORDER_ID,
    TagCode,
    is_id_token,
    utf8_text,
    validate_object,
)
from .timebase import LogicalClock

PREAMBLE = b"NDEO"
OBJECT_VERSION = 0x01
CHAIN_FILE = "chain.log"
SEGMENT_FILE = "objects.seg"
DATA_DIR_ENV = "NDE4_DATA_DIR"
DATA_DIR_DEFAULT = "./nde4-data"
ZERO_DIGEST = bytes(32)
_ELEMENT_HEADER = struct.Struct("<HHI")  # group, element, value length
_RECORD_HEADER = struct.Struct("<I")  # segment record: object bytes length
READ_SIZE = 1 << 16  # bytes per os.read in _segment_records

# archive-channel opcodes (1-byte prefix on channel-2 frame payloads)
OP_STORE = 0x01
OP_FETCH = 0x02
OP_QUERY = 0x03
OP_RESULT = 0x04
# OP_ERROR (0x7F) is the framing module's, re-exported here


class NonCanonicalOrder(Nde4Error):
    """Elements are not strictly ascending by (group, element)."""


class TruncatedElement(Nde4Error):
    """Byte stream ends inside an element header or value."""


class BadPreamble(Nde4Error):
    """Object bytes do not start with the preamble and version."""


class DuplicateUID(Nde4Error):
    """An object with this UID is already stored."""


class UnknownUID(Nde4Error):
    """No stored object has this UID."""


class UnreadableObject(Nde4Error):
    """A committed object's record is missing, damaged or cannot be read."""


class Element(NamedTuple):
    code: TagCode
    value: bytes


@dataclass(frozen=True, slots=True)
class DataObject:
    elements: tuple[Element, ...]

    @classmethod
    def from_values(cls, values: dict[TagCode, bytes]) -> "DataObject":
        """Build a canonical object from a code->raw-bytes mapping."""
        return cls(
            tuple(Element(code, values[code]) for code in sorted(values))
        )

    def raw(self, code: TagCode) -> bytes | None:
        for element in self.elements:
            if element.code == code:
                return element.value
        return None

    def _idstr(self, code: TagCode) -> str | None:
        raw = self.raw(code)
        return None if raw is None else utf8_text(raw, code)

    @property
    def uid(self) -> str | None:
        return self._idstr(TAG_OBJECT_UID)

    @property
    def order_id(self) -> str | None:
        return self._idstr(TAG_ORDER_ID)

    @property
    def component_serial(self) -> str | None:
        return self._idstr(TAG_COMPONENT_SERIAL)

    @property
    def method_code(self) -> str | None:
        return self._idstr(TAG_METHOD_CODE)


def encode_object(obj: DataObject) -> bytes:
    previous: TagCode | None = None
    chunks = [PREAMBLE, bytes([OBJECT_VERSION])]
    for element in obj.elements:
        if previous is not None and element.code <= previous:
            raise NonCanonicalOrder(
                f"{element.code} after {previous}; strictly ascending required"
            )
        previous = element.code
        if len(element.value) > 0xFFFF_FFFF:
            raise TruncatedElement(
                f"{element.code} value too large for u32 length"
            )
        code = element.code
        chunks.append(_ELEMENT_HEADER.pack(code.group, code.element, len(element.value)))
        chunks.append(element.value)
    return b"".join(chunks)


def _walk(
    data: bytes, keys: dict[int, int] | None
) -> list[Element] | list[bytes | None]:
    """Walk encoded object bytes. Every check of the object form runs here,
    in this order: preamble, version, truncated header, truncated value,
    strictly ascending (group, element). With `keys` None, the object's
    elements in order; else the value of each tag whose code
    (group << 16 | element) `keys` maps to a position, at that position,
    None where the tag is absent, with no tuple or list built per element."""
    if len(data) < 5 or data[:4] != PREAMBLE:
        raise BadPreamble(f"expected {PREAMBLE!r} preamble")
    if data[4] != OBJECT_VERSION:
        raise BadPreamble(f"unsupported object version {data[4]}")
    unpack = _ELEMENT_HEADER.unpack_from
    new = tuple.__new__
    size = len(data)
    found = [] if keys is None else [None] * len(keys)
    previous = -1  # (group, element) as group << 16 | element; below every code
    offset = 5
    while offset < size:
        try:
            group, element_number, length = unpack(data, offset)
        except struct.error:
            raise TruncatedElement(f"element header cut short at byte {offset}") from None
        offset += 8
        end = offset + length
        if end > size:
            raise TruncatedElement(
                f"value of ({group:04X},{element_number:04X}) cut short at byte "
                f"{offset}: need {length} bytes, have {size - offset}"
            )
        code = group << 16 | element_number
        if code <= previous:
            raise NonCanonicalOrder(
                f"{TagCode(group, element_number)} after "
                f"{TagCode(previous >> 16, previous & 0xFFFF)}; "
                "strictly ascending required"
            )
        previous = code
        if keys is None:
            # "<HH" yields only 16-bit values, so TagCode's range check is
            # skipped, and Element has none: both are built as the tuples
            # they are
            code_pair = new(TagCode, (group, element_number))
            found.append(new(Element, (code_pair, data[offset:end])))
        else:
            k = keys.get(code)
            if k is not None:
                found[k] = data[offset:end]
        offset = end
    return found


def decode_object(data: bytes) -> DataObject:
    return DataObject(tuple(_walk(data, None)))


# the query tags in key order, as _QueryIndex holds them, and each one's
# code as _walk matches it
_QUERY_TAGS = (TAG_ORDER_ID, TAG_COMPONENT_SERIAL, TAG_METHOD_CODE)
_QUERY_CODES = {tag.group << 16 | tag.element: k for k, tag in enumerate(_QUERY_TAGS)}


def _query_keys(data: bytes) -> tuple[str | None, str | None, str | None]:
    """(order_id, component_serial, method_code) of encoded object bytes,
    as decode_object(data) would give them, without building the object.
    The whole object is walked, so corrupt bytes anywhere raise what
    decode_object raises."""
    values = _walk(data, _QUERY_CODES)
    for k, raw in enumerate(values):
        if raw is not None:
            values[k] = utf8_text(raw, _QUERY_TAGS[k])
    return tuple(values)


# --- digest chain ------------------------------------------------------------

def digest(data: bytes) -> bytes:
    """The one digest function used everywhere: SHA-256."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True, slots=True)
class ChainRecord:
    index: int
    object_uid: str
    object_digest: bytes
    prev_digest: bytes
    stored_at: str

    def canonical_bytes(self) -> bytes:
        return (
            struct.pack("<Q", self.index)
            + self.object_uid.encode("utf-8")
            + self.object_digest
            + self.prev_digest
            + self.stored_at.encode("ascii")
        )

    def line(self) -> str:
        """One chain.log line; the trailing field digests the record itself."""
        self_digest = digest(self.canonical_bytes()).hex()
        return "\t".join(
            (
                str(self.index),
                self.object_uid,
                self.object_digest.hex(),
                self.prev_digest.hex(),
                self.stored_at,
                self_digest,
            )
        )


def parse_chain_line(line: str) -> ChainRecord:
    """Strict parse; raises ValueError on any malformation or self-digest
    mismatch, including non-canonical renderings of valid field values."""
    parts = line.split("\t")
    if len(parts) != 6:
        raise ValueError(f"expected 6 fields, got {len(parts)}")
    index_text, uid, object_hex, prev_hex, stored_at, self_hex = parts
    if not index_text.isdigit():
        raise ValueError(f"bad index: {index_text!r}")
    if not is_id_token(uid):
        raise ValueError(f"bad uid: {uid!r}")
    record = ChainRecord(
        int(index_text), uid, bytes.fromhex(object_hex), bytes.fromhex(prev_hex),
        stored_at,
    )
    if record.line() != line:
        raise ValueError("line is not the canonical rendering of its fields")
    return record


def _line_digest(line: str) -> bytes:
    """The self digest a canonical chain line ends with, read back rather
    than computed again: the digest of its record's canonical bytes."""
    return bytes.fromhex(line[-64:])


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    bad_index: int | None
    records: int

    def __str__(self) -> str:
        if self.ok:
            return f"OK ({self.records} records)"
        return f"BAD at index {self.bad_index} ({self.records} records)"


# --- store -------------------------------------------------------------------

def data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, DATA_DIR_DEFAULT))


def _write_all(fd: int, data: bytes) -> None:
    written = os.write(fd, data)
    while written < len(data):  # a short write only when the disk fills
        written += os.write(fd, data[written:])


def append_line(path: Path, line: bytes) -> None:
    """Append one line and its "\n" to a log file (chain.log, an audit log)
    in one write; the file is opened and closed around it, so no handle
    outlives the call."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        _write_all(fd, line + b"\n")
    finally:
        os.close(fd)


def _chain_lines(path: Path) -> list[bytes]:
    """The lines of a chain.log, undecoded: each is decoded on its own, so
    a corrupt byte becomes a bad line, not a crash."""
    raw = path.read_bytes() if path.exists() else b""
    if raw.endswith(b"\n"):
        raw = raw[:-1]
    return raw.split(b"\n") if raw else []


def _segment_records(path: Path) -> Iterator[tuple[int, bytes | None]]:
    """Each record of a segment file, in order, as (offset of its object
    bytes, object bytes), from one sequential read in READ_SIZE chunks.
    Bytes after the last whole record come last, as (their offset, None);
    a length that runs past the end of the file ends the records there,
    so no more than one record is ever held. A missing file holds none."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return
    try:
        size = os.fstat(fd).st_size
        header = _RECORD_HEADER.size
        buffer = bytearray()
        start = 0  # segment offset of buffer[0]
        while chunk := os.read(fd, READ_SIZE):
            buffer += chunk
            while len(buffer) >= header:
                end = header + _RECORD_HEADER.unpack_from(buffer)[0]
                if start + end > size:
                    yield start, None
                    return
                if end > len(buffer):
                    break
                yield start + header, bytes(buffer[header:end])
                del buffer[:end]
                start += end
        if buffer:
            yield start, None
    finally:
        os.close(fd)


class _QueryIndex:
    """Each indexed uid's query keys (order id, component serial, method),
    and per key position one posting list of uids per value, in store order."""

    def __init__(self):
        self.keys: dict[str, tuple[str | None, ...]] = {}
        self.postings: tuple[dict[str | None, list[str]], ...] = ({}, {}, {})

    def add(self, uid: str, keys: tuple[str | None, ...]) -> None:
        self.keys[uid] = keys
        for postings, value in zip(self.postings, keys):
            postings.setdefault(value, []).append(uid)

    def match(self, criteria: tuple[str | None, ...]) -> tuple[str, ...]:
        """UIDs matching every criterion that is not None (at least one):
        the shortest posting list among them, filtered by the others."""
        given = [(k, value) for k, value in enumerate(criteria) if value is not None]
        shortest = min(
            (self.postings[k].get(value, ()) for k, value in given), key=len
        )
        keys = self.keys
        return tuple(
            uid for uid in shortest
            if all(keys[uid][k] == value for k, value in given)
        )


class Archive:
    """Single-writer store; reads see only fully committed objects."""

    def __init__(
        self,
        directory: str | Path | None = None,
        clock: LogicalClock | None = None,
    ):
        self._dir = Path(directory) if directory is not None else data_dir()
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment = self._dir / SEGMENT_FILE
        self._clock = clock if clock is not None else LogicalClock()
        self._lock = threading.Lock()
        # uid -> object digest from its chain line, in store order
        self._uids: dict[str, bytes] = {}
        self._chain_damaged = False  # chain.log holds a line past the last parsed one
        # uid -> (offset, length) of its object bytes in the segment, and the
        # offset past the last chained record. A store that starts empty
        # learns them as it appends; one opened on a chain finds them, with
        # the query index, in the pass of its first read
        self._spans: dict[str, tuple[int, int]] | None = None
        self._end = 0
        # built by that pass, or on a store that started empty by its first
        # query; extended by each later store
        self._index: _QueryIndex | None = None
        self._last_digest = ZERO_DIGEST
        self._reload()
        if not self._uids:
            self._spans = {}

    @property
    def directory(self) -> Path:
        return self._dir

    def _chain_path(self) -> Path:
        return self._dir / CHAIN_FILE

    def _reload(self) -> None:
        """Rebuild the uid list from chain.log (store order); record spans
        and the query index wait for the first read."""
        for line in _chain_lines(self._chain_path()):
            try:
                text = line.decode("utf-8")
                record = parse_chain_line(text)
            except ValueError:  # UnicodeDecodeError included
                self._chain_damaged = True
                break  # verify_chain reports the damage; index stops here
            self._uids[record.object_uid] = record.object_digest
            self._last_digest = _line_digest(text)

    def _scan(self) -> Nde4Error | None:
        """One sequential read of the segment's chained records; the caller
        holds the lock. Finds the span of each record whose bytes match its
        chain line's digest: any other is not held, whether damaged, cut
        short or moved by a damaged or missing record before it. In the
        same pass reads each held record's query keys into the index. The
        index is kept only if every record is held and its keys read; else
        this returns the error a query raises, and the index stays unbuilt.
        Keys are read even for a fetch. On a store that is later queried
        this costs less than a second read at the first query; on one that
        never is, it is waste (the trade-off is measured in BENCH_30.json)."""
        spans: dict[str, tuple[int, int]] = {}
        index = _QueryIndex()
        failure: Nde4Error | None = None
        end = 0
        with closing(_segment_records(self._segment)) as records:
            for (uid, expected), (offset, data) in zip(self._uids.items(), records):
                if data is None:
                    break
                end = offset + len(data)
                if digest(data) != expected:
                    continue
                spans[uid] = (offset, len(data))
                if failure is None:
                    try:
                        index.add(uid, _query_keys(data))
                    except Nde4Error as exc:
                        failure = exc
        self._spans, self._end = spans, end
        if failure is None and len(spans) < len(self._uids):
            failure = _unheld(next(uid for uid in self._uids if uid not in spans))
        if failure is None:
            self._index = index
        return failure

    def object_span(self, uid: str) -> tuple[int, int]:
        """(offset, length) of a committed object's bytes in the segment."""
        with self._lock:
            if uid not in self._uids:
                raise UnknownUID(uid)
            if self._spans is None:
                self._scan()
            span = self._spans.get(uid)
        if span is None:
            raise _unheld(uid)
        return span

    def _read_object(self, uid: str) -> bytes:
        offset, length = self.object_span(uid)
        try:
            fd = os.open(self._segment, os.O_RDONLY)
            try:
                data = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except OSError as exc:
            raise UnreadableObject(f"{uid}: {exc.strerror or exc}") from exc
        if len(data) < length:
            raise UnreadableObject(f"{uid}: record cut short at byte {offset + len(data)}")
        return data

    def store(self, obj: DataObject) -> str:
        report = validate_object(DICT_V1, obj)
        if report.blocking:
            raise ValidationFailed(str(report), report)
        uid = obj.uid
        assert uid is not None  # mandatory-tag check passed
        if not is_id_token(uid):
            raise ValidationFailed(f"object UID not a valid id token: {uid!r}")
        encoded = encode_object(obj)
        with self._lock:
            if uid in self._uids:
                raise DuplicateUID(uid)
            if self._spans is None:
                self._scan()
            if self._chain_damaged or len(self._spans) < len(self._uids):
                raise UnreadableObject(
                    "chained records cannot be read; nothing is appended after them"
                )
            record = ChainRecord(
                index=len(self._uids),
                object_uid=uid,
                object_digest=digest(encoded),
                prev_digest=self._last_digest,
                stored_at=self._clock.now_text(),
            )
            line = record.line()
            self._append(_RECORD_HEADER.pack(len(encoded)) + encoded, line.encode("utf-8"))
            self._spans[uid] = (self._end + _RECORD_HEADER.size, len(encoded))
            self._end += _RECORD_HEADER.size + len(encoded)
            self._uids[uid] = record.object_digest
            if self._index is not None:
                self._index.add(
                    uid, (obj.order_id, obj.component_serial, obj.method_code)
                )
            self._last_digest = _line_digest(line)
        return uid

    def _append(self, record: bytes, line: bytes) -> None:
        """Append a segment record after the last chained one, then its
        chain line; the caller holds the lock. Bytes past the last chained
        record, which a store that died before its chain line left, are
        cut off first; a failed write or chain append cuts the segment
        back, so no record outlives a store that raised."""
        fd = os.open(self._segment, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            os.ftruncate(fd, self._end)
            _write_all(fd, record)
            append_line(self._chain_path(), line)
        except OSError:
            os.ftruncate(fd, self._end)
            raise
        finally:
            os.close(fd)

    def fetch(self, uid: str) -> DataObject:
        return decode_object(self._read_object(uid))

    def fetch_bytes(self, uid: str) -> bytes:
        return self._read_object(uid)

    def has(self, uid: str) -> bool:
        with self._lock:
            return uid in self._uids

    def uids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._uids)

    def query(
        self,
        order_id: str | None = None,
        component_serial: str | None = None,
        method: str | None = None,
    ) -> tuple[str, ...]:
        """UIDs in store order matching every supplied criterion."""
        criteria = (order_id, component_serial, method)
        with self._lock:
            if criteria == (None, None, None):
                return tuple(self._uids)
            if self._index is None and (failure := self._scan()) is not None:
                raise failure
            return self._index.match(criteria)

    def verify_chain(self) -> VerifyResult:
        """Recompute all digests in one sequential read of chain.log and of
        the segment; OK, or the smallest index that fails.

        Segment bytes past the last chained record fail at index = chain
        length (a record with no chain line).
        """
        with self._lock, closing(_segment_records(self._segment)) as records:
            lines = _chain_lines(self._chain_path())
            prev = ZERO_DIGEST
            for k, line in enumerate(lines):
                try:
                    text = line.decode("utf-8")
                    record = parse_chain_line(text)
                except ValueError:  # UnicodeDecodeError included
                    return VerifyResult(False, k, len(lines))
                _, data = next(records, (None, None))
                if (
                    record.index != k
                    or record.prev_digest != prev
                    or data is None
                    or digest(data) != record.object_digest
                ):
                    return VerifyResult(False, k, len(lines))
                prev = _line_digest(text)
            if next(records, None) is not None:
                return VerifyResult(False, len(lines), len(lines))
        return VerifyResult(True, None, len(lines))


def _unheld(uid: str) -> UnreadableObject:
    return UnreadableObject(f"{uid}: the segment holds no record matching its chain line")


# --- archive-channel wire service --------------------------------------------

class ArchiveWire:
    """Request/response handler for channel-2 frame payloads.

    Payload = 1-byte opcode + body. STORE carries encode_object bytes and
    answers RESULT + {"uid": ...}; FETCH carries {"uid": ...} and answers
    RESULT + object bytes; QUERY carries criteria and answers RESULT +
    {"uids": [...]}. Failures answer ERROR + {"code", "detail"}.
    """

    def __init__(self, archive: Archive):
        # FETCH and QUERY bodies; each QUERY criterion a string, null if omitted
        fetch_body = json_body(archive.fetch_bytes, (("uid", "uid", str),))
        query_body = json_body(archive.query, (
            ("order_id", "orderId", {str: str, NULL: NULL}),
            ("component_serial", "componentSerial", {str: str, NULL: NULL}),
            ("method", "method", {str: str, NULL: NULL}),
        ))

        def store(body: bytes) -> bytes:
            uid = archive.store(decode_object(body))
            return bytes([OP_RESULT]) + canonical_json({"uid": uid})

        def fetch(body: bytes) -> bytes:
            return bytes([OP_RESULT]) + fetch_body(body)

        def query(body: bytes) -> bytes:
            return bytes([OP_RESULT]) + canonical_json({"uids": list(query_body(body))})

        # closures over the archive, not bound methods: a reference cycle
        # through the wire would keep each replaced wire's archive in memory
        # until the collector's next full pass
        self._handlers = {OP_STORE: store, OP_FETCH: fetch, OP_QUERY: query}

    def request(self, payload: bytes) -> bytes:
        return dispatch(self._handlers, payload)
