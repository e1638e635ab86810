from __future__ import annotations

import struct

import pytest

from nde4.archive import Archive, DataObject
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
