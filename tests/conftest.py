from __future__ import annotations

import builtins
import io
import os
import struct
from collections import Counter
from pathlib import Path

import pytest

from nde4.archive import (
    CHAIN_FILE,
    SEGMENT_FILE,
    ZERO_DIGEST,
    Archive,
    ChainRecord,
    DataObject,
    digest,
    parse_chain_line,
)
from nde4.framing import Channel, canonical_json, decode_frame, encode_frame
from nde4.identity import InstanceId, TypeId
from nde4.registry import Manifest, ManifestBody, ManifestHeader, ServiceDesc
from nde4.semantics import (
    TAG_AMPLITUDE_GRID,
    TAG_COMPONENT_SERIAL,
    TAG_COMPONENT_TYPE,
    TAG_CREATED_AT,
    TAG_DEVICE_ID,
    TAG_GRID_COLS,
    TAG_GRID_ROWS,
    TAG_METHOD_CODE,
    TAG_OBJECT_UID,
    TAG_ORDER_ID,
    TAG_PROCEDURE_ID,
)
from nde4.sovereignty import OP_OFFER
from nde4.timebase import LogicalClock


def make_object(
    uid: str = "obj-0001",
    order_id: str = "ORD-7",
    serial: str = "SN-1",
    method: str = "UT",
    rows: int = 2,
    cols: int = 2,
    grid: tuple[float, ...] | None = None,
    extra: dict | None = None,
) -> DataObject:
    """A small standard-conformant object; grid defaults to all-zero."""
    if grid is None:
        grid = (0.0,) * (rows * cols)
    values = {
        TAG_OBJECT_UID: uid.encode(),
        TAG_CREATED_AT: b"20200101T000000",
        TAG_METHOD_CODE: method.encode(),
        TAG_COMPONENT_SERIAL: serial.encode(),
        TAG_COMPONENT_TYPE: b"urn:nde4:type:acme:pipe-weld",
        TAG_ORDER_ID: order_id.encode(),
        TAG_PROCEDURE_ID: b"proc-1",
        TAG_DEVICE_ID: b"urn:nde4:inst:acme:ut-scanner:unit-1",
        TAG_GRID_ROWS: struct.pack("<H", rows),
        TAG_GRID_COLS: struct.pack("<H", cols),
        TAG_AMPLITUDE_GRID: struct.pack(f"<{len(grid)}f", *grid),
    }
    if extra:
        values.update(extra)
    return DataObject.from_values(values)


def record_range(directory: Path, uid: str) -> range:
    """Byte range of uid's record (u32 LE length, then the object bytes) in
    the segment file of the archive at `directory`, found by walking the
    records in chain.log order; the object bytes start 4 bytes in."""
    uids = [line.split("\t")[1] for line in (directory / CHAIN_FILE).read_text().splitlines()]
    segment = (directory / SEGMENT_FILE).read_bytes()
    start = 0
    for chained in uids:
        end = start + 4 + struct.unpack_from("<I", segment, start)[0]
        if chained == uid:
            return range(start, end)
        start = end
    raise KeyError(uid)


def rechain(directory: Path) -> None:
    """Rewrite the chain.log of the archive at `directory` so that each line
    digests the record now at its place in the segment: a chain that agrees
    with damaged records, as if they had been stored so."""
    segment = (directory / SEGMENT_FILE).read_bytes()
    lines, prev = [], ZERO_DIGEST
    for line in (directory / CHAIN_FILE).read_text().splitlines():
        old = parse_chain_line(line)
        held = record_range(directory, old.object_uid)
        record = ChainRecord(
            old.index, old.object_uid, digest(segment[held.start + 4 : held.stop]),
            prev, old.stored_at,
        )
        lines.append(record.line())
        prev = digest(record.canonical_bytes())
    (directory / CHAIN_FILE).write_text("\n".join(lines) + "\n")


def counted(open_, counts: Counter, wanted):
    """`open_` that counts the opens of each file whose name `wanted` accepts."""
    def open_and_count(file, mode="r", *args, **kwargs):
        name = Path(file).name if isinstance(file, (str, Path)) else ""
        if wanted(name, mode):
            counts[name] += 1
        return open_(file, mode, *args, **kwargs)
    return open_and_count


def watch_segment(
    monkeypatch,
) -> tuple[list[tuple[str, int, int]], Counter, set[int]]:
    """From here on: every read of an archive segment file through os.read
    or os.pread, in call order, as (call, offset, bytes read); the count of
    its opens through anything but os.open; and the segment descriptors
    opened through os.open and not yet closed."""
    reads: list[tuple[str, int, int]] = []
    fds: set[int] = set()
    os_open, os_close, os_read, os_pread = os.open, os.close, os.read, os.pread

    def open_segment(path, flags, *args, **kwargs):
        fd = os_open(path, flags, *args, **kwargs)
        if Path(path).name == SEGMENT_FILE:
            fds.add(fd)
        return fd

    def close(fd):
        fds.discard(fd)
        os_close(fd)

    def read(fd, size):
        data = os_read(fd, size)
        if fd in fds:
            reads.append(("read", os.lseek(fd, 0, os.SEEK_CUR) - len(data), len(data)))
        return data

    def pread(fd, size, offset):
        data = os_pread(fd, size, offset)
        if fd in fds:
            reads.append(("pread", offset, len(data)))
        return data

    opens: Counter[str] = Counter()
    is_segment = lambda name, mode: name == SEGMENT_FILE  # noqa: E731
    # Path.read_bytes opens through io.open, a plain open() is builtins.open
    monkeypatch.setattr(io, "open", counted(io.open, opens, is_segment))
    monkeypatch.setattr(builtins, "open", counted(builtins.open, opens, is_segment))
    monkeypatch.setattr(os, "open", open_segment)
    monkeypatch.setattr(os, "close", close)
    monkeypatch.setattr(os, "read", read)
    monkeypatch.setattr(os, "pread", pread)
    return reads, opens, fds


@pytest.fixture
def clock() -> LogicalClock:
    return LogicalClock()


@pytest.fixture
def store(tmp_path, clock) -> Archive:
    return Archive(tmp_path / "data", clock)


def station_id(serial: str = "unit-1") -> InstanceId:
    return InstanceId(TypeId("acme", "ut-scanner"), serial)


def station_manifest(
    instance: InstanceId, methods: tuple[str, ...] = ("UT",)
) -> Manifest:
    """Shell for a station that advertises inspect-<method> services."""
    return Manifest(
        header=ManifestHeader(
            shell_type_id=instance.type_id, asset_instance_id=instance
        ),
        body=ManifestBody(
            service_descs=tuple(
                ServiceDesc(f"inspect-{m.lower()}") for m in methods
            )
        ),
    )


class StubPeer:
    """A peer connector that answers each SOVEREIGN request opcode with the
    payload set in `answers`: a provider whose answers a test chooses."""

    def __init__(self, owner: InstanceId):
        self.owner = owner
        self._peers: dict = {}  # Connector.link registers the other side here
        self.answers: dict[int, bytes] = {}

    def handle(self, frame_bytes: bytes) -> bytes:
        opcode = decode_frame(frame_bytes).payload[0]
        return encode_frame(Channel.SOVEREIGN, self.answers[opcode])

    def offer(self, connector, contract_id: str) -> str:
        """Have `connector` mirror a contract of this peer's, as on an OFFER."""
        body = canonical_json({
            "contractId": contract_id,
            "provider": str(self.owner),
            "consumer": str(connector.owner),
            "objectUid": "obj-1",
            "policy": {},
        })
        assert connector.request(bytes([OP_OFFER]) + body)[0] == OP_OFFER
        return contract_id
