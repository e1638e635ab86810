"""ORDERS-channel message types and their textual payload codec.

Payloads are compact JSON documents with sorted keys (deterministic bytes)
and a "kind" discriminator: order, status, report. Every
document field name here is normative; see docs/FORMATS.md.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import Nde4Error
from .framing import NULL, JsonTypeError, canonical_json, json_list, json_object, json_table
from .identity import InstanceId, TypeId, id_text
from .semantics import is_id_token
from .timebase import is_valid_datetime


class MalformedMessage(Nde4Error):
    """Payload bytes do not form a well-shaped message document."""


class OrderState(Enum):
    QUEUED = "QUEUED"
    ASSIGNED = "ASSIGNED"
    IN_PROGRESS = "IN_PROGRESS"
    DATA_ARCHIVED = "DATA_ARCHIVED"
    REPORTED = "REPORTED"
    REJECTED = "REJECTED"


# declaration order is lifecycle order; REJECTED's rank is never read
_STATE_RANK = {state: rank for rank, state in enumerate(OrderState)}

TERMINAL_STATES = frozenset({OrderState.REPORTED, OrderState.REJECTED})


def is_legal_transition(current: OrderState, new: OrderState) -> bool:
    """States advance monotonically; REJECTED from any non-terminal state."""
    if current in TERMINAL_STATES:
        return False
    if new == OrderState.REJECTED:
        return True
    return _STATE_RANK[new] > _STATE_RANK[current]


class Verdict(Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"
    REWORK = "REWORK"


@dataclass(frozen=True, slots=True)
class InspectionOrder:
    order_id: str
    component_serial: str
    component_type: TypeId
    procedure_id: str
    due: str
    priority: int = 0
    station: InstanceId | None = None


@dataclass(frozen=True, slots=True)
class StatusEvent:
    order_id: str
    state: OrderState
    at: str


@dataclass(frozen=True, slots=True)
class ReportedValues:
    order_id: str
    verdict: Verdict
    indication_count: int
    max_amplitude: float | None = None
    archived_refs: tuple[str, ...] = ()
    notes: str | None = None
    payload_ref: str | None = None  # UID of the object holding an oversized report


Message = Union[InspectionOrder, StatusEvent, ReportedValues]


def validate_order(order: InspectionOrder) -> tuple[str, ...]:
    problems = []
    if not is_id_token(order.order_id):
        problems.append(f"order_id not a valid id token: {order.order_id!r}")
    if not is_id_token(order.component_serial):
        problems.append(
            f"component_serial not a valid token: {order.component_serial!r}"
        )
    if not isinstance(order.component_type, TypeId):
        problems.append("component_type must be a TypeId")
    if not is_id_token(order.procedure_id):
        problems.append(f"procedure_id not a valid token: {order.procedure_id!r}")
    if not is_valid_datetime(order.due):
        problems.append(f"due not a valid datetime: {order.due!r}")
    if type(order.priority) is not int or order.priority < 0:  # a bool is no int
        problems.append(f"priority must be a non-negative integer: {order.priority!r}")
    if order.station is not None and not isinstance(order.station, InstanceId):
        problems.append("station must be an InstanceId or None")
    return tuple(problems)


def validate_report(rv: ReportedValues) -> tuple[str, ...]:
    problems = []
    if not is_id_token(rv.order_id):
        problems.append(f"order_id not a valid id token: {rv.order_id!r}")
    if not isinstance(rv.verdict, Verdict):
        problems.append(f"verdict must be a Verdict: {rv.verdict!r}")
    if type(rv.indication_count) is not int or rv.indication_count < 0:
        problems.append(f"indication_count must be >= 0: {rv.indication_count!r}")
    elif rv.verdict == Verdict.REJECT and rv.indication_count < 1:
        problems.append("REJECT verdict requires at least one indication")
    for ref in rv.archived_refs:
        if not is_id_token(ref):
            problems.append(f"archived ref not a valid object UID: {ref!r}")
    amplitude = rv.max_amplitude  # NaN, infinity and ints past a float fail the range
    if amplitude is not None and (
        type(amplitude) not in (int, float) or not abs(amplitude) <= sys.float_info.max
    ):
        problems.append(f"max_amplitude must be a finite number: {amplitude!r}")
    for key, value in (("notes", rv.notes), ("payloadRef", rv.payload_ref)):
        if value is not None and type(value) is not str:
            problems.append(f"{key} must be a string or None: {value!r}")
    return tuple(problems)


def encode_message(message: Message) -> bytes:
    if isinstance(message, InspectionOrder):
        document = {
            "kind": "order",
            "orderId": message.order_id,
            "componentSerial": message.component_serial,
            "componentType": str(message.component_type),
            "procedureId": message.procedure_id,
            "due": message.due,
            "priority": message.priority,
            "station": str(message.station) if message.station else None,
        }
    elif isinstance(message, StatusEvent):
        document = {
            "kind": "status",
            "orderId": message.order_id,
            "state": message.state.value,
            "at": message.at,
        }
    elif isinstance(message, ReportedValues):
        document = {
            "kind": "report",
            "orderId": message.order_id,
            "verdict": message.verdict.value,
            "indicationCount": message.indication_count,
            "maxAmplitude": message.max_amplitude,
            "archivedRefs": list(message.archived_refs),
        }
        if message.notes is not None:
            document["notes"] = message.notes
        if message.payload_ref is not None:
            document["payloadRef"] = message.payload_ref
    else:
        raise TypeError(f"not a message: {type(message).__name__}")
    return canonical_json(document)


# One key table per message kind, picked by the "kind" key; see
# framing.json_table for the rules.
_MESSAGES = {
    "order": json_table(InspectionOrder, (
        ("order_id", "orderId", str),
        ("component_serial", "componentSerial", str),
        ("component_type", "componentType", id_text(TypeId)),
        ("procedure_id", "procedureId", str),
        ("due", "due", str),
        ("priority", "priority", int),
        ("station", "station", {NULL: NULL, **id_text(InstanceId)}),
    )),
    "status": json_table(StatusEvent, (
        ("order_id", "orderId", str),
        ("state", "state", {str: OrderState}),
        ("at", "at", str),
    )),
    "report": json_table(ReportedValues, (
        ("order_id", "orderId", str),
        ("verdict", "verdict", {str: Verdict}),
        ("indication_count", "indicationCount", int),
        ("max_amplitude", "maxAmplitude", {int: float, float: float, NULL: NULL}),
        ("archived_refs", "archivedRefs", json_list(str)),
        ("notes", "notes", str),
        ("payload_ref", "payloadRef", str),
    )),
}


def decode_message(payload: bytes) -> Message:
    try:
        document = json_object(payload)
        kind = document.pop("kind", None)
        if type(kind) is not str or kind not in _MESSAGES:
            raise JsonTypeError(f"unknown message kind {kind!r}", "kind")
        return _MESSAGES[kind](document)
    except JsonTypeError as exc:
        raise MalformedMessage(f"bad message: {exc}") from exc
