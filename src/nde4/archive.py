"""Bulk-data archive: tagged-binary object codec and revision-safe store.

Objects are flat lists of (group, element, value) elements, encoded as:
preamble ASCII "NDEO" + version byte 0x01, then per element group (u16 LE),
element (u16 LE), length (u32 LE), value bytes. Canonical form orders
elements strictly ascending by (group, element); decode rejects anything
else, so there is exactly one byte form per object.

Persistence is one file per object ("<uid>.ndeo") plus an append-only
"chain.log". Each chain record links to its predecessor by digest, so any
post-hoc edit of an object file or a chain line is detectable, and the
first tampered index is identifiable. There is no delete operation on the
public surface, by design.

Queries are answered from an in-memory index of each committed object's
order id, component serial and method. Cost model: opening a store reads
only "chain.log"; the first query after an open builds the index by reading
each object file once and walking only its element headers (every decode
check runs, but no element is built; only the three key values are
decoded); later stores add to the index and later queries read no file.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from .errors import Nde4Error, ValidationFailed
from .framing import NULL, OP_ERROR, canonical_json, dispatch, json_object, json_table
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
OBJECT_SUFFIX = ".ndeo"
DATA_DIR_ENV = "NDE4_DATA_DIR"
DATA_DIR_DEFAULT = "./nde4-data"
ZERO_DIGEST = bytes(32)
_ELEMENT_HEADER = struct.Struct("<HHI")  # group, element, value length
READ_SIZE = 1 << 16  # bytes per os.read in read_file

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
    """The file of a committed object is missing or cannot be read."""


@dataclass(frozen=True, slots=True)
class Element:
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


def _element_spans(data: bytes):
    """Walk encoded object bytes: yield (group, element, start, end) of each
    element, its value being data[start:end]. Every check of the object
    form runs here, in this order: preamble, version, truncated header,
    truncated value, strictly ascending (group, element)."""
    if len(data) < 5 or data[:4] != PREAMBLE:
        raise BadPreamble(f"expected {PREAMBLE!r} preamble")
    if data[4] != OBJECT_VERSION:
        raise BadPreamble(f"unsupported object version {data[4]}")
    size = len(data)
    previous = (-1, -1)  # below every (group, element)
    offset = 5
    while offset < size:
        if offset + 8 > size:
            raise TruncatedElement(f"element header cut short at byte {offset}")
        group, element_number, length = _ELEMENT_HEADER.unpack_from(data, offset)
        offset += 8
        end = offset + length
        if end > size:
            raise TruncatedElement(
                f"value of ({group:04X},{element_number:04X}) cut short at byte "
                f"{offset}: need {length} bytes, have {size - offset}"
            )
        code = (group, element_number)
        if code <= previous:
            raise NonCanonicalOrder(
                f"{TagCode(*code)} after {TagCode(*previous)}; "
                "strictly ascending required"
            )
        previous = code
        yield group, element_number, offset, end
        offset = end


def decode_object(data: bytes) -> DataObject:
    # "<HH" yields only 16-bit values, so TagCode's range check is skipped
    return DataObject(tuple(
        Element(TagCode._make((group, element)), data[start:end])
        for group, element, start, end in _element_spans(data)
    ))


# key position in _QueryIndex of each query tag
_QUERY_TAGS = {TAG_ORDER_ID: 0, TAG_COMPONENT_SERIAL: 1, TAG_METHOD_CODE: 2}


def _query_keys(data: bytes) -> tuple[str | None, str | None, str | None]:
    """(order_id, component_serial, method_code) of encoded object bytes,
    as decode_object(data) would give them, without building the object.
    The whole object is walked, so corrupt bytes anywhere raise what
    decode_object raises."""
    spans: list[tuple[int, int] | None] = [None, None, None]
    for group, element, start, end in _element_spans(data):
        k = _QUERY_TAGS.get((group, element))
        if k is not None:
            spans[k] = (start, end)
    return tuple(
        None if span is None else utf8_text(data[span[0] : span[1]], tag)
        for span, tag in zip(spans, _QUERY_TAGS)
    )


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
    record = ChainRecord(
        int(index_text), uid, bytes.fromhex(object_hex), bytes.fromhex(prev_hex),
        stored_at,
    )
    if record.line() != line:
        raise ValueError("line is not the canonical rendering of its fields")
    return record


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


def append_line(path: Path, line: bytes) -> None:
    """Append one line and its "\n" to a log file (chain.log, an audit log)
    in one write; the file is opened and closed around it, so no handle
    outlives the call."""
    data = line + b"\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):  # a short write only when the disk fills
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def read_file(path: Path) -> bytes:
    """All bytes of a file (an object file), read with os.read until EOF;
    the read-side sibling of append_line, with no file object per read."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


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
        self._clock = clock if clock is not None else LogicalClock()
        self._lock = threading.Lock()
        self._uids: dict[str, None] = {}  # store order; O(1) membership
        self._index: _QueryIndex | None = None  # built by the first query
        self._last_digest = ZERO_DIGEST
        self._reload()

    @property
    def directory(self) -> Path:
        return self._dir

    def _chain_path(self) -> Path:
        return self._dir / CHAIN_FILE

    def _object_path(self, uid: str) -> Path:
        return self._dir / f"{uid}{OBJECT_SUFFIX}"

    def _read_object(self, uid: str) -> bytes:
        try:
            return read_file(self._object_path(uid))
        except OSError as exc:
            raise UnreadableObject(f"{uid}: {exc.strerror or exc}") from exc

    def _reload(self) -> None:
        """Rebuild the uid list from chain.log (store order); the query
        index waits for the first query."""
        self._uids = {}
        self._index = None
        self._last_digest = ZERO_DIGEST
        chain_path = self._chain_path()
        if not chain_path.exists():
            return
        for line in chain_path.read_text("utf-8").splitlines():
            try:
                record = parse_chain_line(line)
            except ValueError:
                break  # verify_chain reports the damage; index stops here
            self._uids[record.object_uid] = None
            self._last_digest = digest(record.canonical_bytes())

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
            path = self._object_path(uid)
            if uid in self._uids or path.exists():
                raise DuplicateUID(uid)
            record = ChainRecord(
                index=len(self._uids),
                object_uid=uid,
                object_digest=digest(encoded),
                prev_digest=self._last_digest,
                stored_at=self._clock.now_text(),
            )
            temp = path.with_suffix(".tmp")
            temp.write_bytes(encoded)
            try:
                append_line(self._chain_path(), record.line().encode("utf-8"))
            except OSError:
                temp.unlink(missing_ok=True)
                raise
            temp.rename(path)
            self._uids[uid] = None
            if self._index is not None:
                self._index.add(
                    uid, (obj.order_id, obj.component_serial, obj.method_code)
                )
            self._last_digest = digest(record.canonical_bytes())
        return uid

    def fetch(self, uid: str) -> DataObject:
        with self._lock:
            known = uid in self._uids
        if not known:
            raise UnknownUID(uid)
        return decode_object(self._read_object(uid))

    def fetch_bytes(self, uid: str) -> bytes:
        with self._lock:
            known = uid in self._uids
        if not known:
            raise UnknownUID(uid)
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
            if self._index is None:
                index = _QueryIndex()
                for uid in self._uids:
                    index.add(uid, _query_keys(self._read_object(uid)))
                self._index = index
            return self._index.match(criteria)

    def verify_chain(self) -> VerifyResult:
        """Recompute all digests; OK, or the smallest index that fails.

        A chain shorter than the set of stored object files fails at
        index = chain length (missing tail).
        """
        chain_path = self._chain_path()
        # decode per line: a corrupt byte must become a bad index, not a crash
        raw = chain_path.read_bytes() if chain_path.exists() else b""
        if raw.endswith(b"\n"):
            raw = raw[:-1]
        lines = raw.split(b"\n") if raw else []
        prev = ZERO_DIGEST
        covered: set[str] = set()
        for k, raw_line in enumerate(lines):
            try:
                record = parse_chain_line(raw_line.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return VerifyResult(False, k, len(lines))
            if record.index != k or record.prev_digest != prev:
                return VerifyResult(False, k, len(lines))
            try:
                object_bytes = read_file(self._object_path(record.object_uid))
            except FileNotFoundError:
                return VerifyResult(False, k, len(lines))
            if digest(object_bytes) != record.object_digest:
                return VerifyResult(False, k, len(lines))
            prev = digest(record.canonical_bytes())
            covered.add(record.object_uid)
        on_disk = {
            path.name[: -len(OBJECT_SUFFIX)]
            for path in self._dir.glob(f"*{OBJECT_SUFFIX}")
        }
        if on_disk - covered:
            return VerifyResult(False, len(lines), len(lines))
        return VerifyResult(True, None, len(lines))


# --- archive-channel wire service --------------------------------------------

class ArchiveWire:
    """Request/response handler for channel-2 frame payloads.

    Payload = 1-byte opcode + body. STORE carries encode_object bytes and
    answers RESULT + {"uid": ...}; FETCH carries {"uid": ...} and answers
    RESULT + object bytes; QUERY carries criteria and answers RESULT +
    {"uids": [...]}. Failures answer ERROR + {"code", "detail"}.
    """

    def __init__(self, archive: Archive):
        self._archive = archive
        # FETCH and QUERY bodies; each QUERY criterion a string, null if omitted
        self._fetch_body = json_table(archive.fetch_bytes, (("uid", "uid", str),))
        self._query_body = json_table(archive.query, (
            ("order_id", "orderId", {str: str, NULL: NULL}),
            ("component_serial", "componentSerial", {str: str, NULL: NULL}),
            ("method", "method", {str: str, NULL: NULL}),
        ))

    def request(self, payload: bytes) -> bytes:
        handlers = {OP_STORE: self._store, OP_FETCH: self._fetch, OP_QUERY: self._query}
        return dispatch(handlers, payload)

    def _store(self, body: bytes) -> bytes:
        uid = self._archive.store(decode_object(body))
        return bytes([OP_RESULT]) + canonical_json({"uid": uid})

    def _fetch(self, body: bytes) -> bytes:
        return bytes([OP_RESULT]) + self._fetch_body(json_object(body))

    def _query(self, body: bytes) -> bytes:
        uids = self._query_body(json_object(body))
        return bytes([OP_RESULT]) + canonical_json({"uids": list(uids)})
